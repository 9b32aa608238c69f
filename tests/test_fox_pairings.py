"""Fox pairings: bimodule rules, transposes, inner pairings, nabla elements."""

import random
from fractions import Fraction

import pytest

from foxtwist.errors import NotNondegenerate
from foxtwist.fox_pairings import FoxPairing, NablaElement, nabla_of_pairing, pairing_of_nabla
from foxtwist.group_algebra import GroupAlgebraElement, fox_derivative_left, fox_derivative_right
from foxtwist.series import TruncatedSeries, accumulate, nonzero
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.truncated_completion import embed, fox_left_series, fox_right_series
from foxtwist.words import GroupWord


def word_elem(*letters):
    return GroupAlgebraElement.from_word(GroupWord(2, letters))


def random_exact_pairing(rng, rank=2, max_len=3):
    matrix = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            e = GroupAlgebraElement.zero(rank)
            for _ in range(rng.randint(1, 2)):
                letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, max_len)))
                e = e + GroupAlgebraElement.from_word(GroupWord(rank, letters), rng.randint(-2, 2))
            row.append(e)
        matrix.append(row)
    return FoxPairing(matrix)


def random_element(rng, rank=2, terms=2):
    e = GroupAlgebraElement.zero(rank)
    for _ in range(terms):
        letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3)))
        e = e + GroupAlgebraElement.from_word(GroupWord(rank, letters), rng.randint(-2, 2))
    return e


def test_inner_pairing_frozen_values():
    eta = FoxPairing.inner(GroupAlgebraElement.one(2))
    x1, x2 = word_elem(1), word_elem(2)
    one = GroupAlgebraElement.one(2)
    assert eta.evaluate(x1, x2) == (x1 - one) * (x2 - one)
    # companion derivation pairing divides the second slot back out
    got = eta.t_pairing_value(GroupWord(2, (1,)), GroupWord(2, (2,)))
    assert got == (x1 - one) * (x2 - one) * word_elem(-2)


def test_evaluate_respects_fox_rules():
    rng = random.Random(71)
    for _ in range(12):
        eta = random_exact_pairing(rng)
        a, b, c = (random_element(rng) for _ in range(3))
        left = eta.evaluate(a * b, c)
        assert left == eta.evaluate(a, c).scale(b.augmentation()) + a * eta.evaluate(b, c)
        right = eta.evaluate(a, b * c)
        assert right == eta.evaluate(a, b) * c + eta.evaluate(a, c).scale(b.augmentation())


def test_evaluate_kills_constants():
    rng = random.Random(72)
    eta = random_exact_pairing(rng)
    one = GroupAlgebraElement.one(2)
    a = random_element(rng)
    assert eta.evaluate(one, a).is_zero()
    assert eta.evaluate(a, one).is_zero()


def test_transpose_is_an_involution():
    rng = random.Random(73)
    for _ in range(8):
        eta = random_exact_pairing(rng)
        assert eta.transpose().transpose() == eta


def test_transpose_value_identity():
    # eta^T(a, b) = a bar(eta(b, a)) b on group words
    rng = random.Random(74)
    for _ in range(12):
        eta = random_exact_pairing(rng)
        a = word_elem(*(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3))))
        b = word_elem(*(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3))))
        assert eta.transpose().evaluate(a, b) == a * eta.evaluate(b, a).bar() * b


def test_pairing_vector_space_ops():
    rng = random.Random(75)
    eta, mu = random_exact_pairing(rng), random_exact_pairing(rng)
    a, b = random_element(rng), random_element(rng)
    assert (eta + mu).evaluate(a, b) == eta.evaluate(a, b) + mu.evaluate(a, b)
    assert (eta - mu).evaluate(a, b) == eta.evaluate(a, b) - mu.evaluate(a, b)
    assert eta.scale(Fraction(2, 3)).evaluate(a, b) == eta.evaluate(a, b).scale(Fraction(2, 3))
    assert FoxPairing.zero(2).evaluate(a, b).is_zero()


def test_embedded_pairing_matches_exact_values():
    rng = random.Random(76)
    eta = random_exact_pairing(rng)
    truncated = eta.embedded(6)
    assert truncated.cap == 6
    for _ in range(8):
        a = word_elem(*(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3))))
        b = word_elem(*(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3))))
        got = truncated.evaluate(embed(a, 6), embed(b, 6))
        assert got == embed(eta.evaluate(a, b), got.cap)


def test_truncated_evaluation_drops_one_degree():
    eta = FoxPairing.inner(GroupAlgebraElement.one(2)).embedded(5)
    value = eta.evaluate(embed(word_elem(1), 5), embed(word_elem(2), 5))
    assert value.cap == 4


def test_inner_witness_recovers_the_element():
    e = word_elem(1, 2) + GroupAlgebraElement.one(2).scale(Fraction(1, 2))
    eta = FoxPairing.inner(e).embedded(5)
    flag, witness = eta.inner_witness()
    assert flag
    assert witness == embed(e, 5)
    zero_flag, zero_witness = (eta - eta).inner_witness()
    assert zero_flag and zero_witness.is_zero()


def test_non_inner_pairing_has_no_witness():
    eta = FoxPairing([[word_elem(), word_elem()], [word_elem(), word_elem(1)]]).embedded(4)
    flag, witness = eta.inner_witness()
    assert not flag and witness is None


def test_nabla_element_validation():
    with pytest.raises(ValueError):
        NablaElement(TruncatedSeries.one(2, 4))
    degenerate = NablaElement(TruncatedSeries(2, 4, {(1, 1): 1}))
    assert not degenerate.is_nondegenerate()


def test_nabla_roundtrip_on_a_generic_pairing():
    # X_r X_s coefficients scrambled by an invertible rational matrix
    cap = 6
    base = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1, 2)]]
    x = [TruncatedSeries.variable(2, cap, i) for i in (1, 2)]
    noise = TruncatedSeries(2, cap, {(1, 2, 1): Fraction(1, 3), (2, 2, 2, 1): -2})
    nabla = NablaElement(
        sum((x[r].scale(base[r][s]) * x[s] for r in range(2) for s in range(2)),
            TruncatedSeries.zero(2, cap)) + noise)
    pairing = pairing_of_nabla(nabla)
    assert pairing.cap == cap - 2
    back = nabla_of_pairing(pairing)
    assert back.series == nabla.series.truncate(back.cap)


def test_nabla_defining_identity():
    # rho(iota w, nabla) = iota w - 1 for the recovered pairing
    cap = 7
    x = [TruncatedSeries.variable(2, cap, i) for i in (1, 2)]
    nabla = NablaElement(x[0] * x[0] + x[1] * x[1] + x[0] * x[1])
    pairing = pairing_of_nabla(nabla)
    rng = random.Random(77)
    for _ in range(6):
        w = word_elem(*(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 4))))
        iw = embed(w, pairing.cap)
        value = pairing.evaluate(iw, nabla.series.truncate(pairing.cap))
        assert value == (iw - 1).truncate(value.cap)


def test_degenerate_nabla_is_rejected():
    # the boundary series of a one-holed torus with a handle removed
    word = embed(GroupAlgebraElement.from_word(GroupWord(2, (2, 1))), 5) - 1
    with pytest.raises(NotNondegenerate):
        pairing_of_nabla(NablaElement(word))


def test_nondegeneracy_of_pairings():
    singular = FoxPairing([[word_elem(1), word_elem()], [word_elem(2), word_elem()]])
    assert not singular.is_nondegenerate()
    regular = FoxPairing([[word_elem(), word_elem(1)],
                          [word_elem(2).scale(-1), word_elem()]])
    assert regular.is_nondegenerate()


def test_equal_pairings_hash_equally():
    truncated = surface_pairing(SurfaceSpec(1, 3))
    copy = FoxPairing([[TruncatedSeries(e.rank, e.cap, dict(e.terms)) for e in row]
                       for row in truncated.matrix])
    assert copy == truncated and copy is not truncated
    assert hash(copy) == hash(truncated)
    assert len({truncated, copy, truncated.truncate(3)}) == 2
    rng = random.Random(91)
    exact = random_exact_pairing(rng)
    assert hash(FoxPairing([list(row) for row in exact.matrix])) == hash(exact)


# -- one evaluate loop for both rings ----------------------------------------


def two_branch_evaluate(pairing, a, b):
    """The former evaluate: one branch per ring, all n^2 triple products."""
    if pairing.cap is None:
        total = {}
        lefts = [fox_derivative_left(a, i + 1) for i in range(pairing.rank)]
        rights = [fox_derivative_right(b, j + 1) for j in range(pairing.rank)]
        for i in range(pairing.rank):
            if lefts[i].is_zero():
                continue
            for j in range(pairing.rank):
                if rights[j].is_zero():
                    continue
                accumulate(total, (lefts[i] * pairing.matrix[i][j] * rights[j]).terms.items())
        return GroupAlgebraElement(pairing.rank, nonzero(total))
    cap = min(a.cap - 1, b.cap - 1, pairing.cap)
    total = {}
    lefts = [fox_left_series(a, i + 1).truncate(cap) for i in range(pairing.rank)]
    rights = [fox_right_series(b, j + 1).truncate(cap) for j in range(pairing.rank)]
    for i in range(pairing.rank):
        if lefts[i].is_zero():
            continue
        for j in range(pairing.rank):
            if rights[j].is_zero():
                continue
            product = lefts[i] * pairing.matrix[i][j].truncate(cap) * rights[j]
            accumulate(total, product.terms.items())
    return TruncatedSeries(pairing.rank, cap, nonzero(total))


def assert_same_value(got, want):
    assert got == want
    assert type(got) is type(want)
    assert all(type(c) is Fraction for c in got.terms.values())


def random_ring_element(rng, rank):
    e = GroupAlgebraElement.zero(rank)
    letters = [i for i in range(-rank, rank + 1) if i]
    for _ in range(3):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        e = e + GroupAlgebraElement.from_word(GroupWord(rank, word),
                                              Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return e


def seeded_exact_pairings():
    rng = random.Random(131)
    return [(rng, FoxPairing([[random_ring_element(rng, rank) for _ in range(rank)]
                              for _ in range(rank)]))
            for rank in (2, 3) for _ in range(3)]


def test_evaluate_matches_the_two_branch_oracle_on_exact_pairings():
    for rng, eta in seeded_exact_pairings():
        for _ in range(6):
            a, b = random_ring_element(rng, eta.rank), random_ring_element(rng, eta.rank)
            assert_same_value(eta.evaluate(a, b), two_branch_evaluate(eta, a, b))


def test_evaluate_matches_the_two_branch_oracle_on_embedded_pairings():
    for rng, eta in seeded_exact_pairings():
        for cap in range(2, 7):
            truncated = eta.embedded(cap)
            for cap_a, cap_b in ((cap, cap), (cap, cap + 1), (cap + 2, cap), (cap + 1, cap + 3)):
                a = embed(random_ring_element(rng, eta.rank), cap_a)
                b = embed(random_ring_element(rng, eta.rank), cap_b)
                got = truncated.evaluate(a, b)
                assert got.cap == min(cap_a - 1, cap_b - 1, cap)
                assert_same_value(got, two_branch_evaluate(truncated, a, b))


def test_evaluate_matches_the_two_branch_oracle_on_surface_pairings():
    rng = random.Random(132)
    for genus, cap in ((1, 5), (2, 4)):
        pairing = surface_pairing(SurfaceSpec(genus, cap))
        n = pairing.rank
        for _ in range(4):
            a = embed(random_ring_element(rng, n), pairing.cap)
            b = embed(random_ring_element(rng, n), pairing.cap - 1)
            assert_same_value(pairing.evaluate(a, b), two_branch_evaluate(pairing, a, b))


def test_truncated_t_pairing_value_is_the_embedded_exact_value():
    rng = random.Random(133)
    for _, eta in seeded_exact_pairings():
        for cap in (3, 5):
            letters = [i for i in range(-eta.rank, eta.rank + 1) if i]
            a = GroupWord(eta.rank, tuple(rng.choice(letters) for _ in range(3)))
            b = GroupWord(eta.rank, tuple(rng.choice(letters) for _ in range(2)))
            got = eta.embedded(cap).t_pairing_value(a, b)
            assert got.cap == cap - 1
            assert got == embed(eta.t_pairing_value(a, b), cap - 1)


def test_transpose_inner_and_homological_form_commute_with_embedding():
    rng = random.Random(134)
    for _, eta in seeded_exact_pairings():
        e = random_ring_element(rng, eta.rank)
        for cap in (2, 4, 6):
            truncated = eta.embedded(cap)
            assert truncated.transpose() == eta.transpose().embedded(cap)
            assert FoxPairing.inner(embed(e, cap)) == FoxPairing.inner(e).embedded(cap)
            assert truncated.homological_form() == eta.homological_form()
            assert all(type(v) is Fraction for row in truncated.homological_form() for v in row)


def test_operands_from_the_other_ring_raise_type_error():
    eta = random_exact_pairing(random.Random(135))
    a, b = word_elem(1, 2), word_elem(-2)
    truncated = eta.embedded(4)
    for pairing, x, y in ((eta, embed(a, 4), embed(b, 4)), (eta, a, embed(b, 4)),
                          (truncated, a, b), (truncated, embed(a, 4), b)):
        with pytest.raises(TypeError):
            pairing.evaluate(x, y)
    with pytest.raises(ValueError):
        eta + truncated


def test_cap_and_repr_of_both_rings():
    eta = random_exact_pairing(random.Random(136))
    assert eta.cap is None and repr(eta) == "FoxPairing(rank=2, exact)"
    assert eta.embedded(5).cap == 5
    assert repr(eta.embedded(5)) == "FoxPairing(rank=2, truncated, cap=5)"
