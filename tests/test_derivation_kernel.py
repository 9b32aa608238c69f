"""Differential tests for the one derivation kernel.

``apply_derivation`` runs on int numerators over a common denominator,
and ``derivation_pairing`` is the same join fed by ``derivation_values``.  The routes they replaced are kept here as
oracles: the Fraction-accumulating kernel and the per-pair rotation
scan.  Every comparison is exact equality.
"""

import random
from fractions import Fraction

import pytest

from foxtwist.derived_twists import apply_derivation, exp_derivation
from foxtwist.series import TruncatedSeries, accumulate, nonzero
from foxtwist.surfaces import intersection_form
from foxtwist.symplectic_tensor import (
    build_symplectic_expansion,
    derivation_pairing,
    derivation_values,
    omega,
)


def derivation_pairing_by_rotations(u, v):
    """Oracle: for every pair of terms and every letter k of v, scan all
    rotations of u's monomial and keep those whose first letter pairs
    with k."""
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    form = intersection_form(u.rank // 2)
    cap = min(u.cap, v.cap)
    terms = {}
    for mu, cu in u.terms.items():
        m = len(mu)
        if m == 0:
            continue
        rotations = [mu[r:] + mu[:r] for r in range(m)]
        for mv, cv in v.terms.items():
            if len(mv) + m - 2 >= cap:
                continue
            accumulate(terms, ((mv[:j] + rot[1:] + mv[j + 1:], form[letter - 1][rot[0] - 1])
                               for j, letter in enumerate(mv) for rot in rotations
                               if form[letter - 1][rot[0] - 1]), -cu * cv)
    return TruncatedSeries(u.rank, cap, nonzero(terms))


def apply_derivation_by_fractions(values, series, cap=None):
    """Oracle: the derivation kernel accumulating Fractions directly, at
    cap, from every term of the series of degree at most cap.  By default
    cap is apply_derivation's, min(series.cap - 1, values' caps), where
    values with constant terms are exact; values without them are exact
    at the series' own cap too, which the exp loops pass."""
    n = len(values)
    if series.rank != n:
        raise ValueError("rank mismatch")
    if cap is None:
        cap = min(series.cap - 1, *(v.cap for v in values))
    out = {}
    tables = []
    for v in values:
        buckets = [[] for _ in range(cap)]
        for dm, dc in v.truncate(cap).terms.items():
            buckets[len(dm)].append((dm, dc))
        tables.append(buckets)
    for monomial, coeff in series.terms.items():
        if len(monomial) > cap:
            continue
        room = cap - (len(monomial) - 1)
        for p, letter in enumerate(monomial):
            head, tail = monomial[:p], monomial[p + 1:]
            buckets = tables[letter - 1]
            for degree in range(min(room, cap)):
                for dm, dc in buckets[degree]:
                    key = head + dm + tail
                    out[key] = out.get(key, 0) + coeff * dc
    return TruncatedSeries(n, cap, nonzero(out))


def random_series(rng, rank, cap, terms, min_degree=0):
    """Terms of every degree from min_degree to cap - 1, coefficients
    with assorted denominators."""
    out = {}
    for _ in range(terms):
        degree = rng.randint(min_degree, cap - 1)
        m = tuple(rng.randint(1, rank) for _ in range(degree))
        out[m] = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4, 7)))
    return TruncatedSeries(rank, cap, out)


def assert_exact(got, want):
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())


def cap_pairs():
    caps = range(3, 7)
    return [(cu, cv) for cu in caps for cv in caps]


@pytest.mark.parametrize("genus", (1, 2, 3))
def test_derivation_pairing_matches_the_rotation_scan(genus):
    rng = random.Random(600 + genus)
    rank = 2 * genus
    seen = set()
    for u_cap, v_cap in cap_pairs():
        for _ in range(3):
            u = random_series(rng, rank, u_cap, rng.randint(3, 8))
            v = random_series(rng, rank, v_cap, rng.randint(3, 8))
            assert_exact(derivation_pairing(u, v), derivation_pairing_by_rotations(u, v))
            seen.add((u_cap > v_cap) - (u_cap < v_cap))
    assert seen == {-1, 0, 1}


def test_degree_zero_and_one_left_terms():
    rng = random.Random(610)
    for genus in (1, 2):
        rank = 2 * genus
        for u_cap, v_cap in cap_pairs():
            # Constants and single letters only on the left: degree-0
            # values, so terms of v at degree min(caps) still count.
            u = TruncatedSeries(rank, u_cap, {(): Fraction(rng.randint(1, 5), 3)})
            for letter in range(1, rank + 1):
                u = u + TruncatedSeries(rank, u_cap, {(letter,): Fraction(rng.randint(-4, 4), 5)})
            v = random_series(rng, rank, v_cap, 10, min_degree=1)
            assert_exact(derivation_pairing(u, v), derivation_pairing_by_rotations(u, v))


def test_left_terms_at_the_top_degree_reach_lower_caps():
    # u.cap > v.cap: a term of u of degree min(caps) pairs with single letters.
    u = TruncatedSeries(2, 6, {(1, 2, 1): Fraction(3, 4)})
    v = TruncatedSeries(2, 4, {(2,): Fraction(1, 6), (1, 1, 2): Fraction(-2, 5)})
    want = derivation_pairing_by_rotations(u, v)
    assert not want.is_zero()
    assert_exact(derivation_pairing(u, v), want)
    # u.cap < v.cap: a single letter of u replaces letters of v's top degree.
    u = TruncatedSeries(2, 3, {(1,): Fraction(2, 3)})
    v = TruncatedSeries(2, 6, {(2, 1, 2): Fraction(5, 7)})
    want = derivation_pairing_by_rotations(u, v)
    assert want.terms == {(1, 2): Fraction(-10, 21), (2, 1): Fraction(-10, 21)}
    assert_exact(derivation_pairing(u, v), want)


def test_derivation_values_pair_with_the_letters():
    rng = random.Random(620)
    for genus in (1, 2, 3):
        rank = 2 * genus
        for cap in (3, 4, 5, 6):
            u = random_series(rng, rank, cap, 8)
            values = derivation_values(u)
            assert [value.cap for value in values] == [cap] * rank
            for k, value in enumerate(values):
                letter = TruncatedSeries.variable(rank, cap, k + 1)
                assert_exact(value, derivation_pairing_by_rotations(u, letter))


def test_omega_has_zero_values():
    for genus in (1, 2, 3):
        assert all(value.is_zero() for value in derivation_values(omega(genus, 5)))


@pytest.mark.parametrize("genus, cap", ((1, 5), (2, 4)))
def test_derivation_pairing_on_expansion_images(genus, cap):
    expansion = build_symplectic_expansion(genus, cap)
    images = list(expansion.images)
    images += [image.truncate(cap - 1) for image in images[:2]]
    for u in images:
        for v in images:
            assert_exact(derivation_pairing(u, v), derivation_pairing_by_rotations(u, v))


@pytest.mark.parametrize("genus", (1, 2, 3))
def test_apply_derivation_matches_the_fraction_kernel(genus):
    rng = random.Random(630 + genus)
    rank = 2 * genus
    for value_cap, series_cap in cap_pairs():
        for _ in range(2):
            values = [random_series(rng, rank, value_cap, rng.randint(0, 4))
                      for _ in range(rank)]
            series = random_series(rng, rank, series_cap, rng.randint(2, 8))
            assert_exact(apply_derivation(values, series),
                         apply_derivation_by_fractions(values, series))


def test_apply_derivation_denominators_multiply():
    # Value and series denominators share no factor, so the result needs both.
    values = [TruncatedSeries(2, 4, {(2,): Fraction(1, 3)}),
              TruncatedSeries(2, 4, {(): Fraction(2, 5)})]
    series = TruncatedSeries(2, 4, {(1, 2): Fraction(1, 7)})
    got = apply_derivation(values, series)
    assert got.terms == {(2, 2): Fraction(1, 21), (1,): Fraction(2, 35)}
    assert_exact(got, apply_derivation_by_fractions(values, series))


def test_exp_derivation_matches_the_fraction_kernel():
    rng = random.Random(640)
    rank, cap = 4, 5
    values = [random_series(rng, rank, cap, 4, min_degree=2) for _ in range(rank)]
    series = random_series(rng, rank, cap, 6)
    total, term, j = series, series, 0
    while not term.is_zero():
        j += 1
        term = apply_derivation_by_fractions(values, term, cap).scale(Fraction(1, j))
        total = total + term
    assert_exact(exp_derivation(values)(series), total)
