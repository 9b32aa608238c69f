"""The twist path on int numerators, and Fractions at the public API.

The cached monomial tensors hold ints, ``conjugation_sum_series``
sandwiches the int conjugation frames of ``antipode_coproduct``, and the map of ``exp_derivation`` keeps its
running term as ints over one growing denominator.  Each is compared by
``==`` with the route it replaced, and every public result must still
carry Fraction coefficients, also where a coefficient is exactly 1.
"""

import random
from fractions import Fraction

import pytest

from foxtwist.derived_twists import (
    _sigma_log_squared_closed_form,
    apply_derivation,
    derived_generator_values,
    exp_derivation,
    twist,
)
from foxtwist.errors import NilpotencyCapExceeded
from foxtwist.series import TruncatedSeries, frame_kernel, power_sum
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.symplectic_tensor import tensor_coproduct
from foxtwist.words import GroupWord
from foxtwist.truncated_completion import (
    CONJUGATION_LETTER,
    _LETTER_RULES,
    _frame_sum,
    _monomial_frames,
    antipode_coproduct,
    conjugation_sum_series,
    coproduct,
    embed,
    sandwich,
)
from test_derivation_kernel import random_series
from test_functional_calculus import TWISTS, exp_derivation_by_loop

RANKS_AND_CAPS = [(rank, cap) for rank in (2, 3, 4) for cap in range(2, 7)]


def unit_series(rank, cap, monomials):
    """Every coefficient exactly 1."""
    return TruncatedSeries(rank, cap, {m: 1 for m in monomials})


def coefficients(result):
    if isinstance(result, list):
        return [c for item in result for c in coefficients(item)]
    if hasattr(result, "images"):
        return coefficients(list(result.images))
    return list(result.terms.values())


def test_cached_monomial_tensors_hold_ints():
    for rule in _LETTER_RULES:
        frames = _monomial_frames(5, (1, 2, 1), rule)
        assert frames and all(type(c) is int and c for c in frames.values())


def test_public_results_carry_fractions_where_a_coefficient_is_one():
    rank, cap = 2, 5
    s = unit_series(rank, cap, [(), (1,), (1, 2), (2, 2, 1)])
    x1 = unit_series(rank, cap, [(1,)])
    values = [unit_series(rank, cap, [(2,)]), unit_series(rank, cap, [(1, 1)])]
    spec = SurfaceSpec(1, 5)
    results = {
        "coproduct": coproduct(s),
        "tensor_coproduct": tensor_coproduct(s),
        "antipode_coproduct": antipode_coproduct(s),
        "sandwich": sandwich(coproduct(s), x1),
        "conjugation_sum_series": conjugation_sum_series(x1, s),
        "apply_derivation": apply_derivation(values, s),
        "exp_derivation": exp_derivation(values)(s),
        "exp": x1.exp(),
        "log": (1 + x1).log(),
        "power_sum": power_sum(s, lambda term: term * x1, [1, 1, 1]),
        "derived_generator_values": derived_generator_values(surface_pairing(spec), s),
        "twist": twist(surface_pairing(spec), 1, spec.parse_curve("b")),
    }
    for name, result in results.items():
        found = coefficients(result)
        assert found, name
        assert Fraction(1) in found, name
        assert all(type(c) is Fraction for c in found), name


@pytest.mark.parametrize("rank, cap", RANKS_AND_CAPS)
def test_int_conjugation_sum_matches_the_sandwich_route(rank, cap):
    rng = random.Random(1300 + 10 * rank + cap)
    for _ in range(4):
        u = random_series(rng, rank, cap, rng.randint(0, 8))
        v = random_series(rng, rank, cap, rng.randint(0, 8))
        assert conjugation_sum_series(v, u) == sandwich(antipode_coproduct(u), v)
    ones = unit_series(rank, cap, [(), (1,), (2, 1)][:cap])
    assert conjugation_sum_series(ones, ones) == sandwich(antipode_coproduct(ones), ones)
    with pytest.raises(ValueError):
        conjugation_sum_series(ones, TruncatedSeries.one(rank, cap + 1))


def conjugation_sum_by_fused_frames(v, u):
    """Oracle: the former fused body, one frame sum of u's conjugation
    frames contracted around v."""
    u._check_compatible(v)
    frames = _frame_sum(u.num, lambda m: _monomial_frames(u.cap, m, CONJUGATION_LETTER))
    return TruncatedSeries._raw(v.rank, v.cap, frame_kernel([(frames, v.num)], v.cap),
                                u.den * v.den)


@pytest.mark.parametrize("rank, cap", [(rank, cap) for rank in (1, 2, 3) for cap in range(1, 8)])
def test_conjugation_sum_matches_the_fused_frames(rank, cap):
    rng = random.Random(1300 + 10 * rank + cap)
    for _ in range(4):
        word = tuple(rng.choice((-1, 1)) * rng.randint(1, rank) for _ in range(rng.randint(0, 4)))
        group_like = embed(GroupAlgebraElement.from_word(GroupWord(rank, word)), cap)
        u = random_series(rng, rank, cap, rng.randint(0, 8))
        v = random_series(rng, rank, cap, rng.randint(0, 8))
        for left in (group_like, u):
            assert conjugation_sum_series(v, left) == conjugation_sum_by_fused_frames(v, left)
    ones = unit_series(rank, cap, [(), (1,), (rank, 1)][:cap])
    assert conjugation_sum_series(ones, ones) == conjugation_sum_by_fused_frames(ones, ones)
    with pytest.raises(ValueError):
        conjugation_sum_series(ones, TruncatedSeries.one(rank, cap + 1))


def sigma_closed_form_by_fractions(k, log_a, b, rho_ab):
    """Oracle: the Fraction expression 2k * b * (log a)^rho(a, b)."""
    return (b * conjugation_sum_series(log_a, rho_ab)).scale(2 * k)


def assert_same_terms(got, want):
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("rank, cap", RANKS_AND_CAPS)
def test_sigma_closed_form_matches_the_fraction_expression(rank, cap):
    rng = random.Random(1380 + 10 * rank + cap)
    for k in (Fraction(1, 3), Fraction(-5, 2), Fraction(0)):
        log_a, b, rho = (random_series(rng, rank, cap, rng.randint(0, 8)) for _ in range(3))
        assert_same_terms(_sigma_log_squared_closed_form(k, log_a, b, rho),
                          sigma_closed_form_by_fractions(k, log_a, b, rho))
    with pytest.raises(ValueError):
        _sigma_log_squared_closed_form(1, log_a, TruncatedSeries.one(rank, cap + 1), rho)


@pytest.mark.parametrize("genus, degree, curve", TWISTS)
def test_sigma_closed_form_matches_the_fraction_expression_on_twist_values(
        genus, degree, curve):
    # The values twist() builds: x_j, and rho(alpha, x_j) from a surface pairing.
    spec = SurfaceSpec(genus, degree)
    pairing = surface_pairing(spec)
    n, cap = pairing.rank, pairing.cap - 2
    iota_alpha = embed(GroupAlgebraElement.from_word(spec.parse_curve(curve)), cap + 1)
    log_alpha = iota_alpha.truncate(cap).log()
    for j in range(n):
        x_j = 1 + TruncatedSeries.variable(n, cap + 1, j + 1)
        rho = pairing.evaluate(iota_alpha, x_j)
        args = (Fraction(1, 3), log_alpha, x_j.truncate(cap), rho)
        assert_same_terms(_sigma_log_squared_closed_form(*args),
                          sigma_closed_form_by_fractions(*args))


def outcome(mapper, series):
    try:
        return mapper(series)
    except NilpotencyCapExceeded:
        return "not nilpotent"


@pytest.mark.parametrize("rank, cap", RANKS_AND_CAPS)
def test_int_exp_derivation_matches_the_copying_loop(rank, cap):
    # Values of degree 1 may keep degree, and then both maps must give up.
    rng = random.Random(1350 + 10 * rank + cap)
    for min_degree in range(1, min(cap, 3)):
        values = [random_series(rng, rank, cap, 3, min_degree=min_degree) for _ in range(rank)]
        mapper, oracle = exp_derivation(values), exp_derivation_by_loop(values)
        for _ in range(3):
            s = random_series(rng, rank, cap, 6)
            got = outcome(mapper, s)
            assert got == outcome(oracle, s)
            if min_degree == 2:
                assert all(type(c) is Fraction for c in got.terms.values())
        assert mapper(TruncatedSeries.zero(rank, cap)).is_zero()
