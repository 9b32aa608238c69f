"""Differential tests for the functional calculus of the completion.

``series.power_sum`` serves exp, log, ``s_of_omega`` and the map of
``exp_derivation``; ``TwistAutomorphism.apply_word`` serves twists,
symplectic expansions and the boundary defect of
``build_symplectic_expansion``; ``series_matrix_inverse`` is the only
inverse.  The loops they replaced are kept here as Fraction oracles,
and every comparison is exact equality on Fraction coefficients.
"""

import functools
import math
import random
import tracemalloc
import types
from fractions import Fraction

import pytest

from foxtwist import series
from foxtwist.derived_twists import (
    TwistAutomorphism,
    _sigma_log_squared_closed_form,
    exp_derivation,
    twist,
)
from foxtwist.errors import DomainError, NilpotencyCapExceeded, NotInvertible
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.symplectic_tensor import (
    S_COEFFICIENTS,
    build_symplectic_expansion,
    omega,
    s_of_omega,
)
from foxtwist.truncated_completion import (
    _strip_first,
    _strip_last,
    embed,
    fox_left_series,
    fox_right_series,
)
from foxtwist.verify import _random_element, _random_word
from foxtwist.words import GroupWord
from test_derivation_kernel import apply_derivation_by_fractions, random_series

CONSTANTS = (Fraction(1), Fraction(3), Fraction(-2, 5))
RANKS_AND_CAPS = [(rank, cap) for rank in (1, 2, 3, 4) for cap in range(1, 7)]
TWISTS = [(1, 6, "a b a b^-1"), (2, 5, "a1 b2 a2^-1 b1"), (3, 4, "a1 b2 a3 b1^-1")]


# -- the replaced loops ------------------------------------------------------


def inverse_by_neumann(s):
    """Oracle: s = c (1 - r), so s^-1 = (1 + r + r^2 + ...) / c."""
    c = s.constant_term()
    if not c:
        raise NotInvertible("series with zero constant term has no inverse")
    r = TruncatedSeries.one(s.rank, s.cap) - s.scale(1 / c)
    out = TruncatedSeries.one(s.rank, s.cap)
    power = r
    while not power.is_zero():
        out = out + power
        power = power * r
    return out.scale(1 / c)


def exp_by_copying(s):
    """Oracle: 1 + s + s^2/2! + ..., copying the sum every round."""
    out = TruncatedSeries.one(s.rank, s.cap)
    power, k = s, 1
    while not power.is_zero():
        out = out + power.scale(Fraction(1, math.factorial(k)))
        power = power * s
        k += 1
    return out


def log_by_copying(s):
    """Oracle: z - z^2/2 + z^3/3 - ... with z = s - 1."""
    z = s - 1
    out = TruncatedSeries.zero(s.rank, s.cap)
    power, k = z, 1
    while not power.is_zero():
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
        power = power * z
        k += 1
    return out


def s_of_omega_by_loop(genus, cap):
    w = omega(genus, cap)
    total = TruncatedSeries.scalar(2 * genus, cap, S_COEFFICIENTS[0])
    power = TruncatedSeries.one(2 * genus, cap)
    for coefficient in S_COEFFICIENTS[1:]:
        power = power * w
        if power.is_zero():
            break
        if coefficient:
            total = total + power.scale(coefficient)
    return total


def exp_derivation_by_loop(values):
    """Oracle: term_j = d(term_{j-1}) / j, added to a copied total; each
    d is the Fraction kernel at the series' cap (the values have no
    constant terms), which refuses a series above the values' cap."""
    bound = (max((v.cap for v in values), default=2) + 1) ** 2

    def apply(s):
        total = term = s
        j = 0
        while not term.is_zero():
            j += 1
            if j > bound:
                raise NilpotencyCapExceeded("exp did not stabilize within %d iterations" % bound)
            term = apply_derivation_by_fractions(values, term, term.cap).scale(Fraction(1, j))
            total = total + term
        return total

    return apply


def letter_series(rank, cap, letter):
    if letter > 0:
        return TruncatedSeries(rank, cap, {(): 1, (letter,): 1})
    return TruncatedSeries(rank, cap, {(-letter,) * k: Fraction((-1) ** k) for k in range(cap)})


def word_series(rank, cap, letters):
    out = TruncatedSeries.one(rank, cap)
    for letter in letters:
        out = out * letter_series(rank, cap, letter)
    return out


def embed_by_word_series(element, cap):
    total = TruncatedSeries.zero(element.rank, cap)
    for letters, coeff in element.terms.items():
        total = total + word_series(element.rank, cap, letters).scale(coeff)
    return total


def twist_apply_word_by_loop(t, letters):
    """Oracle: the old TwistAutomorphism.apply_word, inverses from Neumann."""
    out = TruncatedSeries.one(t.rank, t.cap)
    for letter in letters:
        image = t.images[abs(letter) - 1]
        out = out * (image if letter > 0 else inverse_by_neumann(image))
    return out


def expansion_apply_word_by_loop(e, letters):
    total = TruncatedSeries.one(e.rank, e.cap)
    for letter in letters:
        image = e.images[abs(letter) - 1]
        total = total * (image if letter > 0 else image.inverse())
    return total


def boundary_product_by_letter_exps(exponents, letters):
    """Oracle: the old defect_series product, exp(+-e) per letter."""
    rank, cap = exponents[0].rank, exponents[0].cap
    total = TruncatedSeries.one(rank, cap)
    for letter in letters:
        e = exponents[abs(letter) - 1]
        total = total * (e if letter > 0 else -e).exp()
    return total


def random_element_by_sums(rng, rank, terms=3, max_len=3):
    total = GroupAlgebraElement.zero(rank)
    for _ in range(terms):
        coeff = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
        total = total + GroupAlgebraElement.from_word(_random_word(rng, rank, max_len), coeff)
    return total


# -- helpers -----------------------------------------------------------------


def assert_exact(got, want):
    assert got == want
    assert all(type(c) is Fraction and c for c in got.terms.values())


def seeded_series(rng, rank, cap, constant):
    terms = {(): constant}
    for _ in range(5):
        m = tuple(rng.randint(1, rank) for _ in range(rng.randint(1, 5)))
        terms[m] = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4, 7)))
    return TruncatedSeries(rank, cap, terms)


def signed_letters(rng, rank, length):
    return tuple(rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(length))


@functools.lru_cache(maxsize=None)
def twist_case(case):
    genus, degree, curve = TWISTS[case]
    spec = SurfaceSpec(genus, degree)
    alpha = spec.parse_curve(curve)
    return spec, alpha, twist(surface_pairing(spec), Fraction(1, 3), alpha)


# -- power_sum: exp, log, s(omega), exp_derivation ---------------------------


@pytest.mark.parametrize("rank, cap", RANKS_AND_CAPS)
def test_inverse_exp_and_log_match_the_replaced_loops(rank, cap):
    rng = random.Random(900 + 10 * rank + cap)
    for constant in CONSTANTS:
        for _ in range(2):
            s = seeded_series(rng, rank, cap, constant)
            assert_exact(s.inverse(), inverse_by_neumann(s))
            if constant == 1:
                assert_exact(s.log(), log_by_copying(s))
                assert_exact((s - 1).exp(), exp_by_copying(s - 1))
    one = TruncatedSeries.one(rank, cap)
    assert_exact(one.log().exp(), one)
    assert one.log().is_zero()


@pytest.mark.parametrize("genus", (1, 2, 3))
def test_s_of_omega_matches_the_replaced_loop(genus):
    for cap in range(3, 9):
        assert_exact(s_of_omega(genus, cap), s_of_omega_by_loop(genus, cap))


def test_exp_derivation_matches_the_copying_loop_on_random_values():
    rng = random.Random(930)
    for rank in (1, 2, 3, 4):
        for cap in range(3, 7):
            values = [random_series(rng, rank, cap, 3, min_degree=2) for _ in range(rank)]
            mapper, oracle = exp_derivation(values), exp_derivation_by_loop(values)
            for _ in range(3):
                s = random_series(rng, rank, cap, 6)
                assert_exact(mapper(s), oracle(s))


@pytest.mark.parametrize("case", range(len(TWISTS)))
def test_exp_derivation_matches_the_copying_loop_on_twist_values(case):
    # The generator values twist() builds, then exp by both loops.
    spec, alpha, t = twist_case(case)
    pairing = surface_pairing(spec)
    n, cap = pairing.rank, pairing.cap - 2
    iota_alpha = embed(GroupAlgebraElement.from_word(alpha), cap + 1)
    log_alpha = iota_alpha.truncate(cap).log()
    values = []
    for j in range(n):
        x_j = 1 + TruncatedSeries.variable(n, cap + 1, j + 1)
        rho = pairing.evaluate(iota_alpha, x_j)
        values.append(_sigma_log_squared_closed_form(Fraction(1, 3), log_alpha,
                                                     x_j.truncate(cap), rho))
    mapper, oracle = exp_derivation(values), exp_derivation_by_loop(values)
    for i in range(n):
        x = 1 + TruncatedSeries.variable(n, cap, i + 1)
        assert_exact(mapper(x), oracle(x))
        assert_exact(t.images[i], oracle(x))


def test_errors_of_the_calculus():
    with pytest.raises(NotInvertible, match="zero constant term"):
        TruncatedSeries.variable(2, 4, 1).inverse()
    with pytest.raises(NotInvertible, match="zero constant term"):
        TruncatedSeries.zero(3, 1).inverse()
    with pytest.raises(DomainError):
        (1 + TruncatedSeries.variable(2, 4, 1)).exp()
    with pytest.raises(DomainError):
        TruncatedSeries.variable(2, 4, 1).log()
    with pytest.raises(DomainError):
        TruncatedSeries.scalar(2, 4, 2).log()


@pytest.mark.parametrize("cap", (2, 3, 5))
def test_a_non_nilpotent_derivation_stops_at_the_same_bound(cap, monkeypatch):
    # X1 -> X1 is not weakly nilpotent: d^j(X1) = X1 for every j.
    x1 = TruncatedSeries.variable(1, cap, 1)
    with pytest.raises(NilpotencyCapExceeded):
        exp_derivation_by_loop([x1])(x1)
    # Each step of the map is one call of the int derivation kernel.
    from foxtwist import derived_twists
    derive = derived_twists._derive
    calls = []

    def counted(values, terms, cap):
        calls.append(1)
        return derive(values, terms, cap)

    monkeypatch.setattr(derived_twists, "_derive", counted)
    with pytest.raises(NilpotencyCapExceeded):
        exp_derivation([x1])(x1)
    assert len(calls) == (cap + 1) ** 2


def test_exp_derivation_refuses_a_series_above_the_values_cap():
    values = [TruncatedSeries(2, 4, {(2, 2): 1}), TruncatedSeries.zero(2, 4)]
    s = TruncatedSeries(2, 6, {(1,): 1, (1, 1, 2): Fraction(1, 3)})
    with pytest.raises(ValueError):
        exp_derivation_by_loop(values)(s)
    with pytest.raises(ValueError):
        exp_derivation(values)(s)
    # At or below the values' cap the map keeps the series' cap.
    low = s.truncate(3)
    assert_exact(exp_derivation(values)(low), exp_derivation_by_loop(values)(low))
    assert exp_derivation(values)(low).cap == 3


def test_power_sum_stops_when_the_coefficients_run_out():
    x = TruncatedSeries.variable(1, 9, 1)
    steps = []

    def step(power):
        steps.append(1)
        return power * x

    got = series.power_sum(TruncatedSeries.one(1, 9), step, [1, 0, Fraction(1, 2)])
    assert got.terms == {(): 1, (1, 1): Fraction(1, 2)}
    assert len(steps) == 2


# -- apply_word: embed, twists, expansions, the boundary defect -------------


@pytest.mark.parametrize("rank, cap", RANKS_AND_CAPS)
def test_embed_matches_the_letter_series_route(rank, cap):
    rng = random.Random(950 + 10 * rank + cap)
    for _ in range(4):
        element = _random_element(rng, rank, terms=4, max_len=5)
        assert_exact(embed(element, cap), embed_by_word_series(element, cap))
    word = GroupWord(rank, signed_letters(rng, rank, 4))
    both = GroupAlgebraElement(rank, {word.letters: 2, word.inverse().letters: -3})
    assert_exact(embed(both, cap), embed_by_word_series(both, cap))


@pytest.mark.parametrize("case", range(len(TWISTS)))
def test_twist_apply_word_matches_the_replaced_loop(case):
    spec, alpha, t = twist_case(case)
    rng = random.Random(960 + case)
    words = [alpha.letters, alpha.inverse().letters, spec.boundary_word().letters]
    words += [signed_letters(rng, t.rank, rng.randint(1, 6)) for _ in range(4)]
    for letters in words:
        assert_exact(t.apply_word(GroupWord(t.rank, letters)),
                     twist_apply_word_by_loop(t, GroupWord(t.rank, letters).letters))
    for image in t.images:
        assert_exact(image.inverse(), inverse_by_neumann(image))
    assert_exact(t.apply_word(alpha * alpha.inverse()), TruncatedSeries.one(t.rank, t.cap))


def test_word_images_cancel_and_solve_each_inverse_once(monkeypatch):
    _, alpha, t = twist_case(0)
    calls = []
    solve = series.series_matrix_inverse

    def counted(matrix):
        calls.append(1)
        return solve(matrix)

    monkeypatch.setattr(series, "series_matrix_inverse", counted)
    fresh = TwistAutomorphism(t.rank, t.cap, t.images)
    # Letters as given: a GroupWord would cancel them before the images do.
    word = lambda letters: types.SimpleNamespace(rank=t.rank, letters=letters)
    for _ in range(2):
        letters = alpha.letters + alpha.inverse().letters
        assert_exact(fresh.apply_word(word(letters)), TruncatedSeries.one(t.rank, t.cap))
        assert_exact(fresh.apply_word(word((-1, -2, 2, 1))), TruncatedSeries.one(t.rank, t.cap))
        assert_exact(fresh.apply_word(word((-2, -1, -2))),
                     twist_apply_word_by_loop(t, (-2, -1, -2)))
    assert len(calls) == 2


def test_twist_apply_word_refuses_a_rank_mismatch():
    _, _, t = twist_case(0)
    with pytest.raises(ValueError):
        t.apply_word(GroupWord(3, (1, 3)))
    with pytest.raises(ValueError):
        TwistAutomorphism.identity(2, 4).apply_word(GroupWord(1, (1,)))


def test_apply_word_holds_memory_bounded_by_rank_not_word_length():
    spec = SurfaceSpec(2, 4)
    t = twist(surface_pairing(spec), Fraction(1, 2), spec.parse_curve("a1 b2 a2^-1 b1"))
    rng = random.Random(990)
    letters = [1]
    while len(letters) < 500:
        letter = rng.choice((1, -1)) * rng.randint(1, t.rank)
        if letter != -letters[-1]:
            letters.append(letter)
    word = GroupWord(t.rank, tuple(letters))
    assert len(word) == 500
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        image = t.apply_word(word)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Caching every prefix held about 4.2 MB here; the image and the
    # letter table of 2 * rank images hold a few tens of kB.
    assert held < 1_000_000
    assert len(t._letter_images) == 2 * t.rank
    assert image == t.apply_word(GroupWord(t.rank, word.letters[:250])) * \
        t.apply_word(GroupWord(t.rank, word.letters[250:]))


@pytest.mark.parametrize("genus, cap", [(1, 4), (1, 6), (2, 4), (2, 5)])
def test_expansion_words_and_boundary_defect_match_the_replaced_loops(genus, cap):
    e = build_symplectic_expansion(genus, cap)
    boundary = SurfaceSpec(genus, cap).boundary_word()
    rng = random.Random(970 + 10 * genus + cap)
    words = [boundary.letters, boundary.inverse().letters]
    words += [signed_letters(rng, e.rank, rng.randint(1, 5)) for _ in range(3)]
    for letters in words:
        word = GroupWord(e.rank, letters)
        assert_exact(e.apply_word(word), expansion_apply_word_by_loop(e, word.letters))
    # The boundary defect: one exp per exponent, inverse letters through
    # the one inverse, against exp(+-e) per letter.
    assert list(e.images) == [x.exp() for x in e.exponents]
    target = omega(genus, cap)
    old_defect = boundary_product_by_letter_exps(list(e.exponents), boundary.letters).log()
    assert (old_defect + target).is_zero()
    for _ in range(3):
        exponents = [x + random_series(rng, e.rank, cap, 3, min_degree=2) for x in e.exponents]
        assert_exact(TwistAutomorphism(e.rank, cap, [x.exp() for x in exponents])
                     .apply_word(boundary),
                     boundary_product_by_letter_exps(exponents, boundary.letters))


# -- satellites: Fox series without re-validation, random elements -----------


def test_fox_series_strip_without_revalidating(monkeypatch):
    rng = random.Random(980)
    cases = []
    for rank in (1, 2, 3, 4):
        for cap in range(2, 7):
            s = random_series(rng, rank, cap, 8)
            for index in range(1, rank + 1):
                want = (TruncatedSeries(rank, cap - 1, _strip_last(s, index).terms),
                        TruncatedSeries(rank, cap - 1, _strip_first(s, index).terms))
                cases.append((s, index, want))
    pairing = surface_pairing(SurfaceSpec(1, 5))
    a, b = (embed(_random_element(rng, 2), 5) for _ in range(2))
    want_value = pairing.evaluate(a, b)

    def refuse(*args):
        raise AssertionError("a Fox series re-validated its terms")

    monkeypatch.setattr(series, "_checked_items", refuse)
    for s, index, (left, right) in cases:
        assert_exact(fox_left_series(s, index), left)
        assert_exact(fox_right_series(s, index), right)
        assert fox_left_series(s, index).cap == s.cap - 1
    assert pairing.evaluate(a, b) == want_value


def test_fox_series_refuse_a_cap_one_input():
    s = TruncatedSeries.one(2, 1)
    with pytest.raises(ValueError):
        fox_left_series(s, 1)
    with pytest.raises(ValueError):
        fox_right_series(s, 2)


def test_random_element_matches_the_summing_loop_and_draws():
    shapes = random.Random(990)
    for seed in range(200):
        rank, terms, max_len = shapes.randint(1, 4), shapes.randint(0, 5), shapes.randint(0, 3)
        new, old = random.Random(seed), random.Random(seed)
        got = _random_element(new, rank, terms, max_len)
        want = random_element_by_sums(old, rank, terms, max_len)
        assert got == want
        assert got.rank == rank
        assert all(type(c) is Fraction and c for c in got.terms.values())
        assert new.getstate() == old.getstate()

