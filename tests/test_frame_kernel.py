"""Differential tests for the one frame-product kernel.

``series.frame_kernel`` serves the concatenation product, ``sandwich``,
``apply_derivation``, the G_r kernel of ``derived_generator_values`` and
``contraction``, all on int numerators.  The loops it replaced are kept
here as oracles that accumulate Fractions term by term, and so is the
former Fraction wrapper ``frame_product`` (split, kernel, join), against
which ``sandwich`` and ``contraction`` are compared too; every comparison
is exact equality on Fraction coefficients.
"""

import random
from fractions import Fraction

import pytest

from foxtwist.derived_twists import apply_derivation, derived_generator_values
from foxtwist.fox_pairings import FoxPairing
from foxtwist.series import (
    TruncatedSeries,
    _int_join,
    _int_split,
    accumulate,
    frame_kernel,
    nonzero,
)
from foxtwist.surfaces import intersection_form
from foxtwist.symplectic_tensor import contraction
from foxtwist.truncated_completion import (
    TruncatedTensor,
    antipode_coproduct,
    sandwich,
)
from test_derivation_kernel import apply_derivation_by_fractions, random_series
from test_letter_rules import (
    GROUP_SHARES,
    antipode_coproduct_monomial_by_composite,
    coproduct_monomial_by_letters,
)

GENERA_AND_CAPS = [(genus, cap) for genus in (1, 2, 3) for cap in range(3, 8)]


def frame_product(jobs, cap):
    """Oracle: the former Fraction wrapper of ``frame_kernel``: split the
    frames and the fillings over one denominator each, run the kernel, join."""
    jobs = list(jobs)
    *frames, frame_den = _int_split(*[frames for frames, _ in jobs])
    *fillings, filling_den = _int_split(*[filling for _, filling in jobs])
    return _int_join(frame_kernel(zip(frames, fillings), cap), frame_den * filling_den)


def frame_product_by_fractions(jobs, cap):
    """Oracle: every frame around every filling term, in Fractions."""
    out = {}
    for frames, filling in jobs:
        for (left, right), c in frames.items():
            accumulate(out, ((left + m + right, d) for m, d in filling.items()
                             if len(left) + len(m) + len(right) < cap), c)
    return nonzero(out)


def mul_by_fractions(a, b):
    """Oracle: the concatenation product accumulating Fractions."""
    out = {}
    for ma, ca in a.terms.items():
        accumulate(out, ((ma + mb, cb) for mb, cb in b.terms.items()
                         if len(ma) + len(mb) < a.cap), ca)
    return TruncatedSeries(a.rank, a.cap, nonzero(out))


def sandwich_by_fractions(tensor, filling):
    """Oracle: sum of left * filling * right over the terms of the tensor."""
    out = {}
    for (left, right), ct in tensor.terms.items():
        room = tensor.cap - len(left) - len(right)
        accumulate(out, ((left + mf + right, cf) for mf, cf in filling.terms.items()
                         if len(mf) < room), ct)
    return TruncatedSeries(filling.rank, filling.cap, nonzero(out))


def derived_generator_values_by_legs(pairing, u):
    """Oracle: each G_r kernel leg by leg, each coproduct leg (m1, m2)
    conjugating m1 by the stripped leg m2[:-1], then one sandwich per
    matrix entry, at min(u.cap - 1, pairing.cap) from the terms of u of
    degree at most that cap."""
    n = pairing.rank
    cap = min(u.cap - 1, pairing.cap)
    g_terms = [{} for _ in range(n)]
    for monomial, coeff in u.truncate(cap + 1).terms.items():
        for (m1, m2), mult in coproduct_monomial_by_letters(cap + 1, monomial, GROUP_SHARES).items():
            if not m2 or len(m1) + len(m2) - 1 >= cap:
                continue
            room = cap - len(m1)
            kernel = antipode_coproduct_monomial_by_composite(n, cap, m2[:-1])
            accumulate(g_terms[m2[-1] - 1], ((s1 + m1 + s2, cs)
                                             for (s1, s2), cs in kernel.items()
                                             if len(s1) + len(s2) < room), coeff * mult)
    kernels = [TruncatedSeries(n, cap, nonzero(terms)) for terms in g_terms]
    values = []
    for j in range(n):
        acc = TruncatedSeries.zero(n, cap)
        for r in range(n):
            entry = pairing.entry(r + 1, j + 1).truncate(cap)
            acc = acc + sandwich_by_fractions(antipode_coproduct(entry), kernels[r])
        values.append(mul_by_fractions(1 + TruncatedSeries.variable(n, cap, j + 1), acc))
    return values


def contraction_by_fractions(u, v):
    """Oracle: for every term of u, scan every term of v."""
    form = intersection_form(u.rank // 2)
    cap = min(u.cap, v.cap)
    terms = {}
    for mu, cu in u.terms.items():
        row = form[mu[-1] - 1]
        room = cap + 2 - len(mu)
        accumulate(terms, ((mu[:-1] + mv[1:], cv * row[mv[0] - 1])
                           for mv, cv in v.terms.items()
                           if len(mv) < room and row[mv[0] - 1]), cu)
    return TruncatedSeries(u.rank, cap, nonzero(terms))


def contraction_by_frame_product(u, v):
    """Oracle: the former contraction, one Fraction job per first letter k
    of v through ``frame_product``."""
    n = u.rank
    form = intersection_form(n // 2)
    frames = [{} for _ in range(n)]
    for mu, cu in u.terms.items():
        row = form[mu[-1] - 1]
        for k in range(n):
            if row[k]:
                accumulate(frames[k], [((mu[:-1], ()), cu * row[k])])
    fillings = [{} for _ in range(n)]
    for mv, cv in v.terms.items():
        fillings[mv[0] - 1][mv[1:]] = cv
    cap = min(u.cap, v.cap)
    return TruncatedSeries(n, cap, frame_product(zip(frames, fillings), cap))


def random_word(rng, rank, degree):
    return tuple(rng.randint(1, rank) for _ in range(degree))


def random_coefficient(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4, 7, 9)))


def random_frames(rng, rank, cap, count):
    """Frames of total degree 0 to cap + 1, so some sit at or over the cap,
    with empty left and right sides among them."""
    frames = {}
    for _ in range(count):
        degree = rng.randint(0, cap + 1)
        split = rng.choice((0, degree, rng.randint(0, degree)))
        word = random_word(rng, rank, degree)
        frames[word[:split], word[split:]] = random_coefficient(rng)
    return frames


def random_tensor(rng, rank, cap, count):
    tensor = TruncatedTensor(rank, cap, random_frames(rng, rank, cap, count))
    assert all(len(left) + len(right) < cap for left, right in tensor.terms)
    return tensor


def random_pairing(rng, rank, cap):
    return FoxPairing([[random_series(rng, rank, cap, rng.randint(0, 5))
                        for _ in range(rank)] for _ in range(rank)])


def assert_exact(got, want):
    assert got == want
    terms = got if isinstance(got, dict) else got.terms
    assert all(type(c) is Fraction and c for c in terms.values())


@pytest.mark.parametrize("genus, cap", GENERA_AND_CAPS)
def test_frame_product_matches_the_naive_sum(genus, cap):
    rng = random.Random(700 + 10 * genus + cap)
    rank = 2 * genus
    for _ in range(6):
        jobs = []
        for _ in range(rng.randint(1, 4)):
            frames = random_frames(rng, rank, cap, rng.choice((0, 1, 5, 12)))
            filling = random_series(rng, rank, cap + 1, rng.choice((0, 1, 6, 12))).terms
            jobs.append((frames, filling))
        assert_exact(frame_product(jobs, cap), frame_product_by_fractions(jobs, cap))


@pytest.mark.parametrize("rank, cap", [(rank, cap) for rank in (2, 3, 4) for cap in range(2, 7)])
def test_int_kernel_matches_the_naive_sum(rank, cap):
    # frame_kernel takes int numerators as they are, with no split.
    rng = random.Random(820 + 10 * rank + cap)
    for _ in range(6):
        jobs = []
        for _ in range(rng.randint(1, 4)):
            frames = random_frames(rng, rank, cap, rng.choice((0, 1, 5, 12)))
            filling = random_series(rng, rank, cap + 1, rng.choice((0, 1, 6, 12))).terms
            jobs.append(({key: rng.choice((-3, -1, 1, 2, 7)) for key in frames},
                         {m: rng.choice((-2, 1, 1, 4)) for m in filling}))
        got = frame_kernel(jobs, cap)
        assert all(type(c) is int and c for c in got.values())
        as_fractions = [({key: Fraction(c) for key, c in frames.items()},
                         {m: Fraction(d) for m, d in filling.items()}) for frames, filling in jobs]
        assert got == frame_product_by_fractions(as_fractions, cap)


@pytest.mark.parametrize("genus, cap", GENERA_AND_CAPS)
def test_products_match_the_fraction_loop(genus, cap):
    rng = random.Random(720 + 10 * genus + cap)
    rank = 2 * genus
    for _ in range(4):
        a = random_series(rng, rank, cap, rng.randint(0, 10))
        b = random_series(rng, rank, cap, rng.randint(0, 10))
        assert_exact(a * b, mul_by_fractions(a, b))


@pytest.mark.parametrize("genus, cap", GENERA_AND_CAPS)
def test_sandwich_matches_the_old_loop(genus, cap):
    rng = random.Random(740 + 10 * genus + cap)
    rank = 2 * genus
    for _ in range(4):
        tensor = random_tensor(rng, rank, cap, rng.randint(0, 10))
        filling = random_series(rng, rank, cap, rng.randint(0, 10))
        assert_exact(sandwich(tensor, filling), sandwich_by_fractions(tensor, filling))
        assert sandwich(tensor, filling).terms == frame_product([(tensor.terms, filling.terms)],
                                                                cap)
    with pytest.raises(ValueError):
        sandwich(TruncatedTensor(rank, cap), TruncatedSeries.zero(rank, cap + 1))


@pytest.mark.parametrize("genus, cap", GENERA_AND_CAPS)
def test_derived_generator_values_match_the_leg_loop(genus, cap):
    rng = random.Random(760 + 10 * genus + cap)
    rank = 2 * genus
    for pairing_cap in (cap - 1, cap, cap + 1):
        pairing = random_pairing(rng, rank, pairing_cap)
        u = random_series(rng, rank, cap, rng.randint(1, 6))
        got = derived_generator_values(pairing, u)
        want = derived_generator_values_by_legs(pairing, u)
        assert len(got) == rank
        for value, expected in zip(got, want):
            assert_exact(value, expected)


@pytest.mark.parametrize("genus, cap", GENERA_AND_CAPS)
def test_contraction_matches_the_old_loop(genus, cap):
    rng = random.Random(780 + 10 * genus + cap)
    rank = 2 * genus
    for other_cap in (cap - 1, cap, cap + 1):
        u = random_series(rng, rank, cap, rng.randint(0, 10), min_degree=1)
        v = random_series(rng, rank, other_cap, rng.randint(0, 10), min_degree=1)
        assert_exact(contraction(u, v), contraction_by_fractions(u, v))
        assert contraction(u, v) == contraction_by_frame_product(u, v)


@pytest.mark.parametrize("genus, cap", GENERA_AND_CAPS)
def test_apply_derivation_matches_the_fraction_kernel_to_cap_7(genus, cap):
    rng = random.Random(800 + 10 * genus + cap)
    rank = 2 * genus
    for value_cap in (cap - 1, cap, cap + 1):
        values = [random_series(rng, rank, value_cap, rng.randint(0, 4)) for _ in range(rank)]
        series = random_series(rng, rank, cap, rng.randint(0, 8))
        assert_exact(apply_derivation(values, series),
                     apply_derivation_by_fractions(values, series))


def test_coprime_denominators_across_jobs():
    jobs = [({((1,), ()): Fraction(1, 3)}, {(2,): Fraction(1, 5)}),
            ({((), (2,)): Fraction(2, 7)}, {(1,): Fraction(3, 11)}),
            ({((), ()): Fraction(1, 13)}, {(1, 2): Fraction(1, 2)})]
    want = {(1, 2): Fraction(1, 15) + Fraction(6, 77) + Fraction(1, 26)}
    assert_exact(frame_product(jobs, 3), want)
    assert_exact(frame_product(jobs, 3), frame_product_by_fractions(jobs, 3))
    a = TruncatedSeries(2, 4, {(1,): Fraction(1, 3), (2,): Fraction(1, 5)})
    b = TruncatedSeries(2, 4, {(2,): Fraction(1, 7)})
    assert_exact(a * b, mul_by_fractions(a, b))


def test_cancelling_jobs_store_no_zero():
    frames = {((1,), ()): Fraction(1, 3)}
    jobs = [(frames, {(2,): Fraction(1, 2)}),
            ({((), (2,)): Fraction(1, 6)}, {(1,): Fraction(1)}),
            (frames, {(2,): Fraction(-1, 2)}),
            ({((), (2,)): Fraction(-1, 2)}, {(1,): Fraction(1, 3)})]
    assert frame_product(jobs, 5) == {}
    kept = jobs + [({((), ()): Fraction(1)}, {(2, 2): Fraction(2, 9)})]
    assert_exact(frame_product(kept, 5), {(2, 2): Fraction(2, 9)})


def test_empty_frames_and_fillings():
    filling = {(): Fraction(1, 2), (1,): Fraction(-1, 3)}
    assert frame_product([], 4) == {}
    assert frame_product([({}, filling), ({((1,), ()): Fraction(1)}, {})], 4) == {}
    # Empty left and right sides: the frame (1, 2) around m is 1 m 2.
    jobs = [({((), ()): Fraction(2)}, filling), ({((1,), (2,)): Fraction(1)}, filling)]
    assert_exact(frame_product(jobs, 4), {(): Fraction(1), (1,): Fraction(-2, 3),
                                          (1, 2): Fraction(1, 2), (1, 1, 2): Fraction(-1, 3)})


def test_frames_at_or_over_the_cap_take_nothing():
    filling = {(): Fraction(1), (1,): Fraction(1, 2)}
    for cap in (3, 4):
        at = {((1,) * (cap - 1), (2,)): Fraction(1)}
        over = {((2,), (1,) * cap): Fraction(1, 3)}
        assert frame_product([(at, filling), (over, filling)], cap) == {}
    # One below the cap: only the degree-0 filling term fits.
    below = {((1,), (2,)): Fraction(1, 5)}
    assert_exact(frame_product([(below, filling)], 3), {(1, 2): Fraction(1, 5)})
