"""Exact Fox calculus on int numerators, against the routes it replaced.

``derived_form_exact`` now works once per word (the left derivatives of
each word of a, the inner sums of each word of b) and joins once;
``embed`` builds each word's image on ints, one letter at a time, with
no cache.  The oracles below are the former per-pair derived form and
the former embedding through the identity automorphism's
``apply_word``; both are compared by ``==``.  The rank and cap guards that the int routes
need are tested here too.
"""

import random
from fractions import Fraction

import pytest

from foxtwist.derived_twists import TwistAutomorphism, derived_form_exact
from foxtwist.fox_pairings import FoxPairing
from foxtwist.group_algebra import GroupAlgebraElement, _seam_product, conjugation_sum
from foxtwist.series import TruncatedSeries, _int_split, accumulate, nonzero
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.truncated_completion import embed, fundamental_power_contains
from foxtwist.words import GroupWord
from test_group_algebra_kernel import (
    assert_exact,
    mul_oracle,
    random_coefficient,
    random_element,
    random_exact_pairing,
    random_word,
    seam_partner,
)


def companion_form(pairing, a, b, left):
    """derived_form_exact, or with left the companion form b^bar(rho(a,b)) a:
    the derived form of the transposed pairing at (b, a)."""
    return derived_form_exact(pairing.transpose(), b, a) if left else derived_form_exact(
        pairing, a, b)


def derived_form_per_pair(pairing, a, b, left=False):
    """The former derived form: two one-word elements and one evaluate
    per word pair, summed in Fractions."""
    if left:
        return derived_form_per_pair(pairing.transpose(), b, a)
    total = {}
    for ma, ca in a.terms.items():
        ea = GroupAlgebraElement(a.rank, {ma: Fraction(1)})
        for mb, cb in b.terms.items():
            eb = GroupAlgebraElement(b.rank, {mb: Fraction(1)})
            value = pairing.evaluate(ea, eb)
            if value.is_zero():
                continue
            accumulate(total, (eb * conjugation_sum(ea, value)).terms.items(), ca * cb)
    return GroupAlgebraElement(pairing.rank, nonzero(total))


def embed_by_substitution(element, cap):
    """The former embedding: the identity automorphism's word images."""
    rank = element.rank
    identity = TwistAutomorphism.identity(rank, cap)
    out = {}
    for letters, coeff in element.terms.items():
        accumulate(out, identity.apply_word(GroupWord(rank, letters)).terms.items(), coeff)
    return TruncatedSeries(rank, cap, nonzero(out))


def assert_same_series(got, want):
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())


# -- derived_form_exact, once per word ------------------------------------------


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("left", [False, True])
def test_derived_form_matches_the_per_pair_route(rank, left):
    rng = random.Random(1600 + rank)
    for _ in range(8):
        pairing = random_exact_pairing(rng, rank)
        a = random_element(rng, rank, 3)
        b = seam_partner(rng, a) if rng.random() < 0.5 else random_element(rng, rank, 3)
        assert_exact(companion_form(pairing, a, b, left),
                     derived_form_per_pair(pairing, a, b, left=left))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_derived_form_on_zero_and_constants(rank):
    rng = random.Random(1610 + rank)
    zero = GroupAlgebraElement.zero(rank)
    for _ in range(4):
        pairing = random_exact_pairing(rng, rank)
        a = random_element(rng, rank, 3)
        constant = GroupAlgebraElement.one(rank).scale(random_coefficient(rng))
        for x, y in ((a, zero), (zero, a), (zero, zero), (a, constant), (constant, a),
                     (constant, constant)):
            for left in (False, True):
                got = companion_form(pairing, x, y, left)
                assert_exact(got, derived_form_per_pair(pairing, x, y, left=left))
        # A constant derives to zero in the first slot: rho(1, -) = 0.
        assert derived_form_exact(pairing, constant, a).is_zero()


def test_derived_form_on_a_zero_pairing_is_zero():
    rng = random.Random(1620)
    a, b = random_element(rng, 2, 3), random_element(rng, 2, 3)
    assert derived_form_exact(FoxPairing.zero(2), a, b).is_zero()


# -- the seam kernel -------------------------------------------------------------


def test_seam_product_sums_the_products_of_its_pairs():
    rng = random.Random(1630)
    for _ in range(40):
        rank = rng.randint(1, 4)
        elements = [random_element(rng, rank) for _ in range(2 * rng.randint(0, 3))]
        *ints, den = _int_split(*(e.terms for e in elements))
        got = _seam_product(zip(ints[::2], ints[1::2]))
        want = {}
        for x, y in zip(elements[::2], elements[1::2]):
            accumulate(want, mul_oracle(x, y).terms.items())
        assert got == {m: c * den * den for m, c in nonzero(want).items()}
        assert all(type(c) is int and c for c in got.values())


# -- embed on ints -----------------------------------------------------------------


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_embed_matches_the_substitution_route(rank):
    rng = random.Random(1640 + rank)
    for cap in range(1, 9):
        for _ in range(4):
            element = random_element(rng, rank)
            assert_same_series(embed(element, cap), embed_by_substitution(element, cap))
        # Words full of inverse letters, and a run of one inverse letter.
        word = tuple(-abs(x) for x in random_word(rng, rank, 5))
        for letters in (word, (-1,) * rng.randint(1, 5), ()):
            element = GroupAlgebraElement(rank, {letters: random_coefficient(rng)})
            assert_same_series(embed(element, cap), embed_by_substitution(element, cap))
        zero = GroupAlgebraElement.zero(rank)
        assert_same_series(embed(zero, cap), embed_by_substitution(zero, cap))


@pytest.mark.parametrize("cap", [3.0, 0, -2, True, False, "3", None])
def test_embed_refuses_a_cap_that_is_not_a_positive_int(cap):
    element = GroupAlgebraElement.generator(2, 1, -1) - 1
    with pytest.raises(ValueError):
        embed(element, cap)
    # A refused cap leaves nothing behind for the next valid call.
    assert_same_series(embed(element, 3), embed_by_substitution(element, 3))


def test_fundamental_power_contains_everything_at_non_positive_powers():
    element = GroupAlgebraElement.generator(2, 1) - 1
    for m in (0, -1, -5):
        assert fundamental_power_contains(element, m)
    assert fundamental_power_contains(element, 1)
    assert not fundamental_power_contains(element, 2)


# -- rank guards -------------------------------------------------------------------


def test_exact_pairing_refuses_operands_of_another_rank():
    pairing = random_exact_pairing(random.Random(1650), 2)
    small = GroupAlgebraElement.generator(2, 1) - 1
    big = GroupAlgebraElement.generator(3, 3) * GroupAlgebraElement.generator(3, 3)
    for a, b in ((big, big), (big, small), (small, big)):
        with pytest.raises(ValueError):
            pairing.evaluate(a, b)
        for left in (False, True):
            with pytest.raises(ValueError):
                companion_form(pairing, a, b, left)


def test_truncated_pairing_refuses_operands_of_another_rank():
    pairing = surface_pairing(SurfaceSpec(1, 3))
    assert pairing.rank == 2
    small = 1 + TruncatedSeries.variable(2, 4, 1)
    big = (1 + TruncatedSeries.variable(4, 4, 1)) * (1 + TruncatedSeries.variable(4, 4, 3))
    for a, b in ((big, big), (big, small), (small, big)):
        with pytest.raises(ValueError):
            pairing.evaluate(a, b)


def test_entries_are_split_once_per_cap():
    pairing = surface_pairing(SurfaceSpec(1, 4))
    a = embed(GroupAlgebraElement.generator(2, 1), pairing.cap)
    b = embed(GroupAlgebraElement.generator(2, 2), pairing.cap)
    first = pairing.evaluate(a, b)
    assert pairing._int_entries(first.cap) is pairing._int_entries(first.cap)
    lower = pairing.evaluate(a.truncate(3), b)
    assert lower == first.truncate(2)
    assert pairing._int_entries(2) is not pairing._int_entries(first.cap)
