"""Fox pairings: bimodule rules, transposes, inner pairings, nabla elements."""

import random
from fractions import Fraction

import pytest

from foxtwist.errors import NotNondegenerate
from foxtwist.fox_pairings import FoxPairing, NablaElement, nabla_of_pairing, pairing_of_nabla
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.truncated_completion import embed
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
    assert truncated.representation == "truncated"
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
