"""Exact group-algebra operations against the validating constructor.

Every operation of ``group_algebra`` builds its result with ``_raw``,
trusting that reduced inputs give reduced outputs.  The oracles below
are the old route: raw concatenations handed to the public constructor,
which coerces, free-reduces, merges and range-checks everything again.
"""

import random
from fractions import Fraction

import pytest

from foxtwist.derived_twists import derived_form_exact
from foxtwist.fox_pairings import FoxPairing
from foxtwist.group_algebra import (
    GroupAlgebraElement,
    _seam,
    conjugation_sum,
    cyclic_projection,
    fox_derivative_left,
    fox_derivative_right,
)
from foxtwist.series import accumulate
from foxtwist.words import GroupWord, _free_reduce

PRIMES = (1, 2, 3, 5, 7, 11, 13)


def by_constructor(rank, items):
    return GroupAlgebraElement(rank, accumulate({}, items))


def inverse(mono):
    return tuple(-x for x in reversed(mono))


def mul_oracle(a, b):
    return by_constructor(a.rank, ((ma + mb, ca * cb) for ma, ca in a.terms.items()
                                   for mb, cb in b.terms.items()))


def add_oracle(a, b):
    return by_constructor(a.rank, [*a.terms.items(), *b.terms.items()])


def scale_oracle(a, k):
    return by_constructor(a.rank, ((m, k * c) for m, c in a.terms.items()))


def bar_oracle(a):
    return by_constructor(a.rank, ((inverse(m), c) for m, c in a.terms.items()))


def fox_left_oracle(a, i):
    return by_constructor(a.rank, (
        (mono[:p], coeff) if x == i else (mono[:p + 1], -coeff)
        for mono, coeff in a.terms.items() for p, x in enumerate(mono) if abs(x) == i))


def fox_right_oracle(a, i):
    return by_constructor(a.rank, (
        (mono[p + 1:], coeff) if x == i else (mono[p:], -coeff)
        for mono, coeff in a.terms.items() for p, x in enumerate(mono) if abs(x) == i))


def conjugation_sum_oracle(v, u):
    return by_constructor(v.rank, ((inverse(mu) + mv + mu, cu * cv)
                                   for mu, cu in u.terms.items()
                                   for mv, cv in v.terms.items()))


def cyclic_projection_oracle(a):
    return by_constructor(a.rank, (
        (GroupWord(a.rank, m).cyclic_normal_form().letters, c) for m, c in a.terms.items()))


def evaluate_oracle(pairing, a, b):
    total = GroupAlgebraElement.zero(pairing.rank)
    for i in range(pairing.rank):
        for j in range(pairing.rank):
            left = fox_left_oracle(a, i + 1)
            right = fox_right_oracle(b, j + 1)
            total = add_oracle(total, mul_oracle(mul_oracle(left, pairing.matrix[i][j]), right))
    return total


def derived_form_oracle(pairing, a, b):
    items = []
    for wa, ca in a.words():
        ea = GroupAlgebraElement.from_word(wa)
        for wb, cb in b.words():
            eb = GroupAlgebraElement.from_word(wb)
            value = evaluate_oracle(pairing, ea, eb)
            product = mul_oracle(eb, conjugation_sum_oracle(ea, value))
            items.extend((m, ca * cb * c) for m, c in product.terms.items())
    return by_constructor(pairing.rank, items)


def random_word(rng, rank, max_len=4):
    return tuple(rng.choice((1, -1)) * rng.randint(1, rank)
                 for _ in range(rng.randint(0, max_len)))


def random_coefficient(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(PRIMES))


def random_element(rng, rank, terms=4):
    """Raw random words (not reduced: the constructor reduces them), with
    the empty word, zero sums and coprime denominators mixed in."""
    items = [(random_word(rng, rank), random_coefficient(rng))
             for _ in range(rng.randint(0, terms))]
    if rng.random() < 0.3:
        items.append(((), random_coefficient(rng)))
    if items and rng.random() < 0.2:
        mono, coeff = items[0]
        items.append((mono, -coeff))
    return by_constructor(rank, items)


def seam_partner(rng, a):
    """An element whose words start with the inverse of a word of a, so
    products and conjugation sums cancel at the seam, often completely."""
    rank = a.rank
    items = [(random_word(rng, rank), random_coefficient(rng))]
    for mono in list(a.terms)[:2]:
        cut = rng.randint(0, len(mono))
        items.append((inverse(mono[cut:]) + random_word(rng, rank, 2), random_coefficient(rng)))
        items.append((inverse(mono), random_coefficient(rng)))
    return by_constructor(rank, items)


def assert_exact(got, want):
    assert got == want
    assert got.rank == want.rank
    for mono, coeff in got.terms.items():
        assert type(mono) is tuple
        assert _free_reduce(mono) == mono
        assert all(x and abs(x) <= got.rank for x in mono)
        assert type(coeff) is Fraction
        assert coeff != 0


def random_pairs(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 4)
        a = random_element(rng, rank)
        b = seam_partner(rng, a) if rng.random() < 0.5 else random_element(rng, rank)
        yield rng, a, b


@pytest.mark.parametrize("seed", range(5))
def test_ring_operations_match_the_constructor(seed):
    for rng, a, b in random_pairs(400 + seed):
        assert_exact(a * b, mul_oracle(a, b))
        assert_exact(b * a, mul_oracle(b, a))
        assert_exact(a + b, add_oracle(a, b))
        assert_exact(a - b, add_oracle(a, scale_oracle(b, -1)))
        assert_exact(a - a, GroupAlgebraElement.zero(a.rank))
        assert_exact(-a, scale_oracle(a, -1))
        k = random_coefficient(rng)
        assert_exact(a.scale(k), scale_oracle(a, k))
        assert_exact(a.scale(0), GroupAlgebraElement.zero(a.rank))
        assert_exact(a.bar(), bar_oracle(a))


@pytest.mark.parametrize("seed", range(5))
def test_fox_calculus_matches_the_constructor(seed):
    for _, a, b in random_pairs(500 + seed):
        for i in range(1, a.rank + 1):
            assert_exact(fox_derivative_left(a, i), fox_left_oracle(a, i))
            assert_exact(fox_derivative_right(a, i), fox_right_oracle(a, i))
        assert_exact(conjugation_sum(a, b), conjugation_sum_oracle(a, b))
        assert_exact(conjugation_sum(b, a), conjugation_sum_oracle(b, a))
        assert_exact(cyclic_projection(a), cyclic_projection_oracle(a))


def test_products_cancelling_completely_at_the_seam():
    rng = random.Random(61)
    for rank in range(1, 5):
        for _ in range(10):
            w = _free_reduce(random_word(rng, rank, 6))
            c, d = random_coefficient(rng), random_coefficient(rng)
            a = GroupAlgebraElement(rank, {w: c})
            b = GroupAlgebraElement(rank, {inverse(w): d})
            assert_exact(a * b, GroupAlgebraElement(rank, {(): c * d}))
            # w^-1 w w: the first seam cancels completely
            assert_exact(conjugation_sum(a, a), GroupAlgebraElement(rank, {w: c * c}))
            assert_exact(conjugation_sum(b, a), GroupAlgebraElement(rank, {inverse(w): c * d}))
            assert_exact(a * b - b * a, GroupAlgebraElement.zero(rank))


def test_zero_and_empty_word_operands():
    rng = random.Random(62)
    for rank in range(1, 5):
        zero = GroupAlgebraElement.zero(rank)
        one = GroupAlgebraElement.one(rank)
        a = random_element(rng, rank)
        for got, want in ((a * zero, zero), (zero * a, zero), (a * one, a), (one * a, a),
                          (conjugation_sum(a, zero), zero), (conjugation_sum(zero, a), zero),
                          (conjugation_sum(a, one), a), (zero.bar(), zero),
                          (fox_derivative_left(one, 1), zero),
                          (fox_derivative_right(one, rank), zero)):
            assert_exact(got, want)


def random_exact_pairing(rng, rank):
    return FoxPairing([[random_element(rng, rank, 2) for _ in range(rank)]
                       for _ in range(rank)])


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_exact_pairing_evaluation_matches_the_constructor(rank):
    rng = random.Random(70 + rank)
    for _ in range(6):
        pairing = random_exact_pairing(rng, rank)
        a = random_element(rng, rank, 3)
        b = seam_partner(rng, a)
        assert_exact(pairing.evaluate(a, b), evaluate_oracle(pairing, a, b))
        assert_exact(pairing.evaluate(b, a), evaluate_oracle(pairing, b, a))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_derived_form_exact_matches_the_constructor(rank):
    rng = random.Random(80 + rank)
    for _ in range(4):
        pairing = random_exact_pairing(rng, rank)
        a = random_element(rng, rank, 2)
        b = seam_partner(rng, a)
        assert_exact(derived_form_exact(pairing, a, b), derived_form_oracle(pairing, a, b))


def test_seam_is_the_free_reduction_of_the_concatenation():
    rng = random.Random(90)
    for _ in range(500):
        rank = rng.randint(1, 4)
        a = _free_reduce(random_word(rng, rank, 6))
        b = _free_reduce(random_word(rng, rank, 6))
        if rng.random() < 0.5:
            b = _free_reduce(inverse(a[rng.randint(0, len(a)):]) + b)
        assert _seam(a, b) == _free_reduce(a + b)
        assert _seam(a, inverse(a)) == ()


# -- the public constructor keeps every check ----------------------------------


def test_constructor_rejects_letters_out_of_range():
    with pytest.raises(ValueError):
        GroupAlgebraElement(2, {(1, 3): 1})
    with pytest.raises(ValueError):
        GroupAlgebraElement(2, {(0,): 1})
    with pytest.raises(ValueError):
        GroupAlgebraElement(0, {})


def test_constructor_reduces_and_merges():
    assert GroupAlgebraElement(2, {(1, -1, 2): 1}).terms == {(2,): Fraction(1)}
    merged = GroupAlgebraElement(2, {(1, -1, 2): 1, (2,): Fraction(1, 2), (1, -1): 0})
    assert merged.terms == {(2,): Fraction(3, 2)}
    assert GroupAlgebraElement(2, {(1, -1, 2): 1, (2,): -1}).terms == {}


def test_floats_are_rejected():
    w = GroupWord(2, (1,))
    with pytest.raises(TypeError):
        GroupAlgebraElement(2, {(1,): 0.5})
    with pytest.raises(TypeError):
        GroupAlgebraElement.from_word(w, 0.5)
    with pytest.raises(TypeError):
        GroupAlgebraElement.from_word(w).scale(0.5)


def test_zero_coefficients_give_empty_terms():
    w = GroupWord(2, (1, 2))
    assert GroupAlgebraElement.from_word(w, 0).terms == {}
    assert GroupAlgebraElement.from_word(w, Fraction(3, 4)).scale(0).terms == {}
    assert GroupAlgebraElement.from_word(w, "2/6").terms == {(1, 2): Fraction(1, 3)}
