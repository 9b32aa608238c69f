"""Derived forms of Fox pairings and the automorphisms they exponentiate."""

import random
from fractions import Fraction

import pytest

from foxtwist.derived_twists import (
    TwistAutomorphism,
    apply_derivation,
    derived_form_exact,
    derived_form_truncated,
    derived_generator_values,
    exp_derivation,
    homological_self_pairing,
    sigma_log_squared,
    twist,
)
from foxtwist.errors import DomainError, IsotropyError, NilpotencyCapExceeded, NotInvertible
from foxtwist.fox_pairings import FoxPairing, NablaElement, pairing_of_nabla
from foxtwist.group_algebra import GroupAlgebraElement, conjugation_sum
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.truncated_completion import embed
from foxtwist.words import GroupWord


def word_elem(*letters):
    return GroupAlgebraElement.from_word(GroupWord(2, letters))


def random_word(rng, max_len=3, min_len=0):
    return GroupWord(2, tuple(rng.choice([1, -1, 2, -2])
                              for _ in range(rng.randint(min_len, max_len))))


def random_element(rng, terms=2, max_len=3):
    e = GroupAlgebraElement.zero(2)
    for _ in range(terms):
        e = e + GroupAlgebraElement.from_word(random_word(rng, max_len), rng.randint(-2, 2))
    return e


def random_exact_pairing(rng, max_len=2):
    matrix = []
    for _ in range(2):
        row = []
        for _ in range(2):
            e = GroupAlgebraElement.from_word(random_word(rng, max_len), rng.randint(-2, 2))
            row.append(e + GroupAlgebraElement.one(2).scale(rng.randint(-1, 1)))
        matrix.append(row)
    return FoxPairing(matrix)


def test_derived_form_frozen_example():
    one = GroupAlgebraElement.one(2)
    zero = GroupAlgebraElement.zero(2)
    eta = FoxPairing([[one, zero], [zero, zero]])
    x1 = word_elem(1)
    assert derived_form_exact(eta, x1, x1) == x1 * x1
    # pairing value 1 leaves the conjugation trivial; second slot is inert
    assert derived_form_exact(eta, x1, word_elem(2)).is_zero()


def test_derived_form_of_inner_pairing_on_generators():
    eta = FoxPairing.inner(GroupAlgebraElement.one(2))
    # the two conjugators agree pairwise, so everything cancels
    assert derived_form_exact(eta, word_elem(1), word_elem(2)).is_zero()


def test_derived_form_is_a_derivation_in_the_second_slot():
    rng = random.Random(81)
    for _ in range(10):
        eta = random_exact_pairing(rng)
        a, b, c = (random_element(rng) for _ in range(3))
        got = derived_form_exact(eta, a, b * c)
        want = derived_form_exact(eta, a, b) * c + b * derived_form_exact(eta, a, c)
        assert got == want


def test_left_form_matches_conjugation_formula():
    # sigma'(a, b) = b^{bar rho(a, b)} a on group words: the derived form
    # of the transposed pairing at (b, a).
    rng = random.Random(82)
    for _ in range(12):
        eta = random_exact_pairing(rng)
        a, b = random_word(rng), random_word(rng)
        ea, eb = GroupAlgebraElement.from_word(a), GroupAlgebraElement.from_word(b)
        got = derived_form_exact(eta.transpose(), eb, ea)
        want = conjugation_sum(eb, eta.evaluate(ea, eb).bar()) * ea
        assert got == want


def test_derived_form_respects_conjugation_in_the_first_slot():
    rng = random.Random(83)
    for _ in range(10):
        eta = random_exact_pairing(rng)
        a, b, c = random_word(rng), random_word(rng), random_word(rng)
        ea, eb = GroupAlgebraElement.from_word(a), GroupAlgebraElement.from_word(b)
        conj = GroupAlgebraElement.from_word(c * a * c.inverse())
        assert derived_form_exact(eta, conj, eb) == derived_form_exact(eta, ea, eb)


def test_truncated_form_matches_exact_form():
    rng = random.Random(84)
    cap = 6
    for _ in range(10):
        eta = random_exact_pairing(rng)
        a, b = random_element(rng), random_element(rng)
        exact = derived_form_exact(eta, a, b)
        got = derived_form_truncated(eta.embedded(cap), embed(a, cap), embed(b, cap))
        assert got.truncate(cap - 2) == embed(exact, cap - 2)


def test_generator_values_feed_the_leibniz_extension():
    rng = random.Random(85)
    cap = 6
    eta = random_exact_pairing(rng).embedded(cap)
    u = embed(random_element(rng), cap)
    values = derived_generator_values(eta, u)
    v = embed(random_element(rng), cap)
    direct = derived_form_truncated(eta, u, v)
    assert apply_derivation(values, v) == direct


def test_apply_derivation_is_a_leibniz_rule():
    # Series one cap above the values: the derivation is exact at the values' cap.
    rng = random.Random(86)
    cap = 5
    values = [
        TruncatedSeries(2, cap, {(1, 2): Fraction(1, 2), (2, 2, 1): 1}),
        TruncatedSeries(2, cap, {(2, 1): -1}),
    ]
    for _ in range(10):
        u = embed(random_element(rng), cap + 1)
        v = embed(random_element(rng), cap + 1)
        got = apply_derivation(values, u * v)
        want = (apply_derivation(values, u) * v.truncate(cap)
                + u.truncate(cap) * apply_derivation(values, v))
        assert got.cap == cap
        assert got == want


def test_sigma_log_squared_agrees_with_the_derivation_route():
    rng = random.Random(87)
    cap = 6
    k = Fraction(1, 2)
    for _ in range(8):
        eta = random_exact_pairing(rng)
        a, b = random_word(rng, min_len=1), random_word(rng, min_len=1)
        ia, ib = (embed(GroupAlgebraElement.from_word(w), cap) for w in (a, b))
        via_words = sigma_log_squared(
            k, ia, ib, eta.evaluate(*(GroupAlgebraElement.from_word(w) for w in (a, b))))
        log_sq = (ia.log() * ia.log()).scale(k)
        via_derivation = derived_form_truncated(eta.embedded(cap), log_sq, ib)
        assert via_words.truncate(cap - 2) == via_derivation.truncate(cap - 2)


def test_sigma_log_squared_rejects_non_group_likes():
    x = TruncatedSeries.variable(2, 4, 1)
    with pytest.raises(DomainError):
        sigma_log_squared(1, 1 + x + x * x, 1 + x, GroupAlgebraElement.one(2))


def test_exp_derivation_geometric_frozen():
    d_x = TruncatedSeries(1, 5, {(1, 1): 1})
    mapper = exp_derivation([d_x])
    x = TruncatedSeries.variable(1, 5, 1)
    assert mapper(x) == TruncatedSeries(1, 5, {(1,): 1, (1, 1): 1, (1, 1, 1): 1, (1, 1, 1, 1): 1})


def test_exp_derivation_is_an_algebra_map():
    rng = random.Random(88)
    values = [
        TruncatedSeries(2, 5, {(1, 1): 1, (2, 1, 2): Fraction(1, 3)}),
        TruncatedSeries(2, 5, {(1, 2): -1}),
    ]
    mapper = exp_derivation(values)
    for _ in range(8):
        u = embed(random_element(rng), 5)
        v = embed(random_element(rng), 5)
        assert mapper(u * v) == mapper(u) * mapper(v)


def test_exp_derivation_flags_degree_preserving_input():
    values = [TruncatedSeries.variable(2, 4, 1), TruncatedSeries.zero(2, 4)]
    mapper = exp_derivation(values)
    with pytest.raises(NilpotencyCapExceeded):
        mapper(TruncatedSeries.variable(2, 4, 1))


def test_exp_derivation_rejects_constant_terms():
    with pytest.raises(DomainError):
        exp_derivation([TruncatedSeries.one(2, 4)])


def test_identity_automorphism():
    rng = random.Random(89)
    ident = TwistAutomorphism.identity(2, 5)
    s = embed(random_element(rng), 5)
    assert ident.apply(s) == s
    assert ident.homology_matrix() == [[1, 0], [0, 1]]


def test_automorphism_apply_is_multiplicative():
    swap = TwistAutomorphism(2, 5, [1 + TruncatedSeries.variable(2, 5, 2),
                                    1 + TruncatedSeries.variable(2, 5, 1)])
    rng = random.Random(90)
    for _ in range(8):
        u = embed(random_element(rng), 5)
        v = embed(random_element(rng), 5)
        assert swap.apply(u * v) == swap.apply(u) * swap.apply(v)


def test_apply_word_handles_inverse_letters():
    swap = TwistAutomorphism(2, 5, [1 + TruncatedSeries.variable(2, 5, 2),
                                    1 + TruncatedSeries.variable(2, 5, 1)])
    word = GroupWord(2, (1, -2, 1))
    mirrored = GroupWord(2, (2, -1, 2))
    assert swap.apply_word(word) == embed(GroupAlgebraElement.from_word(mirrored), 5)
    assert swap.apply(embed(GroupAlgebraElement.from_word(word), 5)) == swap.apply_word(word)


def test_compose_power_and_inverse():
    x1 = TruncatedSeries.variable(2, 5, 1)
    x2 = TruncatedSeries.variable(2, 5, 2)
    t = TwistAutomorphism(2, 5, [1 + x1 + x2 * x1, 1 + x2 + x2 * x2 * x1])
    ident = TwistAutomorphism.identity(2, 5)
    assert t.power(0) == ident
    assert t.power(2) == t.compose(t)
    assert t.compose(t.inverse()) == ident
    assert t.inverse().compose(t) == ident
    assert t.power(-1) == t.inverse()


def test_power_by_squaring_matches_repeated_composition():
    x1 = TruncatedSeries.variable(2, 5, 1)
    x2 = TruncatedSeries.variable(2, 5, 2)
    t = TwistAutomorphism(2, 5, [1 + x1 + x2 * x1, 1 + x2 + x2 * x2 * x1])
    spec = SurfaceSpec(1, 4)
    dehn = twist(surface_pairing(spec), Fraction(1, 2), spec.parse_curve("a b a b^-1"))
    for automorphism, exponents in ((t, range(10)), (dehn, range(6))):
        repeated = TwistAutomorphism.identity(automorphism.rank, automorphism.cap)
        for m in exponents:
            assert automorphism.power(m) == repeated
            repeated = automorphism.compose(repeated)


def test_compose_order_is_self_after_other():
    x1 = TruncatedSeries.variable(2, 4, 1)
    x2 = TruncatedSeries.variable(2, 4, 2)
    swap = TwistAutomorphism(2, 4, [1 + x2, 1 + x1])
    shear = TwistAutomorphism(2, 4, [1 + x1 + x2, 1 + x2])
    composed = shear.compose(swap)
    # generator 1 goes through swap to x2, then shear leaves x2 alone
    assert composed.images[0] == 1 + x2


def test_inverse_requires_invertible_homology():
    x1 = TruncatedSeries.variable(2, 4, 1)
    x2 = TruncatedSeries.variable(2, 4, 2)
    t = TwistAutomorphism(2, 4, [1 + x1 + x2, 1 + x1 + x2])
    with pytest.raises(NotInvertible):
        t.inverse()


def test_constructor_validation():
    x1 = TruncatedSeries.variable(2, 4, 1)
    with pytest.raises(ValueError):
        TwistAutomorphism(2, 4, [1 + x1])
    with pytest.raises(ValueError):
        TwistAutomorphism(2, 4, [x1, x1])


def test_homological_self_pairing_counts_exponents():
    one = GroupAlgebraElement.one(2)
    zero = GroupAlgebraElement.zero(2)
    diagonal = FoxPairing([[one, zero], [zero, one]])
    assert homological_self_pairing(diagonal, GroupWord(2, (1, 2))) == 2
    assert homological_self_pairing(diagonal, GroupWord(2, (1, 2, -1))) == 1
    skew = FoxPairing([[zero, one], [-1 * one, zero]])
    assert homological_self_pairing(skew, GroupWord(2, (1, 2))) == 0


def test_inner_pairings_have_zero_homological_form():
    eta = FoxPairing.inner(GroupAlgebraElement.one(2))
    assert eta.homological_form() == [[0, 0], [0, 0]]


def test_twist_with_zero_weight_is_the_identity():
    eta = FoxPairing.inner(GroupAlgebraElement.one(2)).embedded(5)
    t = twist(eta, 0, GroupWord(2, (1, -2)))
    assert t == TwistAutomorphism.identity(2, 3)
    assert t.cap == eta.cap - 2


def test_twist_rejects_non_isotropic_curves():
    one = GroupAlgebraElement.one(2)
    zero = GroupAlgebraElement.zero(2)
    eta = FoxPairing([[one, zero], [zero, one]]).embedded(5)
    with pytest.raises(IsotropyError):
        twist(eta, Fraction(1, 2), GroupWord(2, (1,)))


def test_twist_needs_enough_cap():
    eta = FoxPairing.inner(GroupAlgebraElement.one(2)).embedded(2)
    with pytest.raises(ValueError):
        twist(eta, 1, GroupWord(2, (1, -2)))


def twist_by_composite(pairing, k, alpha):
    """The general route twist() replaced: the coproduct composite on
    k log^2 alpha (embedded at cap + 1, so its values sit at the pairing's
    cap), exp at the pairing cap, then the cut to cap - 2."""
    n, cap = pairing.rank, pairing.cap
    log_alpha = embed(GroupAlgebraElement.from_word(alpha), cap + 1).log()
    values = derived_generator_values(pairing, (log_alpha * log_alpha).scale(k))
    mapper = exp_derivation(values)
    images = [mapper(1 + TruncatedSeries.variable(n, cap, i + 1)) for i in range(n)]
    return TwistAutomorphism(n, cap, images).truncate(cap - 2)


@pytest.mark.parametrize("genus, curve, k", [
    (1, "a b a b^-1", Fraction(1, 3)),
    (2, "a1 b2 a2^-1 b1", Fraction(-2, 5)),
    (3, "a1 b2 a3 b1^-1", Fraction(1, 2)),
    (2, "a1", Fraction(3, 7)),
    (2, "a1 b1 a1^-1 b1^-1", 2),
])
def test_twist_matches_the_composite_route(genus, curve, k):
    spec = SurfaceSpec(genus, 3)
    pairing = surface_pairing(spec)
    assert pairing.cap == 5
    alpha = spec.parse_curve(curve)
    assert twist(pairing, k, alpha) == twist_by_composite(pairing, k, alpha)


def test_twist_matches_the_composite_route_at_small_caps():
    spec = SurfaceSpec(1, 3)
    alpha = spec.parse_curve("a b^-1 a^-1 b")
    k = Fraction(5, 6)
    for cap in (3, 4, 5):
        pairing = surface_pairing(spec).truncate(cap)
        assert twist(pairing, k, alpha) == twist_by_composite(pairing, k, alpha)


def test_twist_matches_the_composite_route_on_a_nabla_pairing():
    # Skew degree-two part, so every curve is isotropic; extra terms in
    # degrees 3 and 4 make the pairing generic.
    nabla = TruncatedSeries(2, 7, {
        (1, 2): 1, (2, 1): -1, (1, 1, 2): Fraction(1, 2),
        (2, 1, 2): -3, (1, 2, 2, 1): Fraction(2, 5),
    })
    pairing = pairing_of_nabla(NablaElement(nabla))
    assert pairing.cap == 5
    k = Fraction(-1, 3)
    for letters in ((1, 2, -1), (1, 1, 2, -1, -2), (2,)):
        alpha = GroupWord(2, letters)
        assert twist(pairing, k, alpha) == twist_by_composite(pairing, k, alpha)
