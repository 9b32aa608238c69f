"""Exact Fox calculus on int numerators, against the routes it replaced.

Each word's Fox derivatives come from one pass (``_fox_derivatives`` on
Q[pi], ``_fox_series_derivatives`` in the completion), compared with the
former per-index route.  ``derived_form_exact`` builds the pairing halves
of each word once and adds each term k x of rho(ma, mb) at mb x^-1 ma x,
on ints; ``embed`` builds each word's image on ints, one letter at a
time, with no cache.  The oracles below are the former per-pair derived
form and the former embedding through the identity automorphism's
``apply_word``; ``test_functional_calculus.random_element_by_sums`` is
the oracle of the fox-laws inputs.  All are compared by ``==``.  The
rank, cap and operand-type guards that the int routes need are tested
here too.

Run as a script, this file checks ranks 3 and 4 with elements of 6 to 8
terms and words of up to 8 letters, sizes that tier-1 leaves out.
"""

import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from foxtwist.derived_twists import TwistAutomorphism, derived_form_exact
from foxtwist.fox_pairings import FoxPairing
from foxtwist.group_algebra import (
    GroupAlgebraElement,
    _fox_derivatives,
    _seam_product,
    conjugation_sum,
    cyclic_projection,
    fox_derivative_left,
    fox_derivative_right,
)
from foxtwist.series import TruncatedSeries, _int_split, accumulate, nonzero
from foxtwist.surfaces import SurfaceSpec, surface_pairing, surface_pairing_exact
from foxtwist.truncated_completion import (
    _fox_series_derivatives,
    embed,
    fundamental_power_contains,
)
from foxtwist.verify import _random_element
from foxtwist.words import GroupWord
from test_derivation_kernel import random_series
from test_functional_calculus import random_element_by_sums, strip_first, strip_last
from test_group_algebra_kernel import (
    assert_exact,
    by_constructor,
    fox_left_oracle,
    fox_right_oracle,
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


# -- Fox derivatives in one pass -------------------------------------------------


def fox_one_pass(element, right):
    """The helper's n derivatives, each made an element of its ring."""
    rank = element.rank
    if isinstance(element, TruncatedSeries):
        return [TruncatedSeries._raw(rank, element.cap - 1, terms, element.den)
                for terms in _fox_series_derivatives(element, right)]
    return [GroupAlgebraElement._raw(rank, terms, element.den)
            for terms in _fox_derivatives(element, right)]


def fox_per_index(element, right):
    """The former route: one derivative per index, through the constructor."""
    rank = element.rank
    if isinstance(element, TruncatedSeries):
        strip = strip_first if right else strip_last
        return [TruncatedSeries(rank, element.cap - 1, strip(element, i))
                for i in range(1, rank + 1)]
    oracle = fox_right_oracle if right else fox_left_oracle
    return [oracle(element, i) for i in range(1, rank + 1)]


def fox_inputs(rng, rank, terms=4):
    """Seeded elements (denominators > 1 among them), words of inverse
    letters, the empty word, a seam partner and the zero element."""
    a = random_element(rng, rank, terms)
    inverse_word = tuple(-abs(x) for x in random_word(rng, rank, 5))
    return [a, random_element(rng, rank, terms), seam_partner(rng, a),
            by_constructor(rank, [(inverse_word, random_coefficient(rng)),
                                  ((-rng.randint(1, rank),) * 3, random_coefficient(rng))]),
            GroupAlgebraElement.one(rank).scale(random_coefficient(rng)),
            GroupAlgebraElement.zero(rank)]


def check_fox_helper(element):
    """One pass against the per-index route, and both expansions
    a = aug(a) + sum_i d_i(a) (x_i - 1) = aug(a) + sum_i (x_i - 1) d^i(a)
    on the helper's int output, for either ring."""
    for right in (False, True):
        got = fox_one_pass(element, right)
        assert got == fox_per_index(element, right)
        assert all(type(c) is Fraction for d in got for c in d.terms.values())
    rank, num = element.rank, element.num
    if isinstance(element, TruncatedSeries):
        lefts, rights = (_fox_series_derivatives(element, right) for right in (False, True))
        constant = {(): num[()]} if () in num else {}
        assert {**constant, **{m + (i + 1,): c for i, d in enumerate(lefts)
                               for m, c in d.items()}} == num
        assert {**constant, **{(i + 1,) + m: c for i, d in enumerate(rights)
                               for m, c in d.items()}} == num
        return
    aug = {(): sum(num.values())}
    gens = [{(i + 1,): 1, (): -1} for i in range(rank)]
    lefts, rights = _fox_derivatives(element), _fox_derivatives(element, True)
    assert nonzero(accumulate(_seam_product(zip(lefts, gens)), aug.items())) == num
    assert nonzero(accumulate(_seam_product(zip(gens, rights)), aug.items())) == num


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fox_derivatives_in_one_pass_match_the_per_index_route(rank):
    rng = random.Random(1700 + rank)
    dens = set()
    for _ in range(6):
        for element in fox_inputs(rng, rank):
            check_fox_helper(element)
            dens.add(element.den)
            for cap in range(2, 7):
                check_fox_helper(embed(element, cap))
        check_fox_helper(random_series(rng, rank, rng.randint(2, 6), 8))
    assert max(dens) > 1


def test_fox_laws_derived_forms_and_evaluate_skip_the_per_index_functions(monkeypatch):
    # Inside derived_form_exact and FoxPairing.evaluate the Fox calculus
    # runs on the one-pass helper and the seam kernel; the laws themselves
    # still call the public functions, outside that window.
    from foxtwist import derived_twists, fox_pairings, group_algebra, verify

    depth = [0]
    calls = Counter()

    def window(function):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return function(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name, depth[0] > 0] += 1
            return function(*args, **kwargs)
        return wrapper

    names = ("fox_derivative_left", "fox_derivative_right", "conjugation_sum")
    for name in names:
        function = getattr(group_algebra, name)
        for module in (group_algebra, fox_pairings, derived_twists, verify):
            monkeypatch.setattr(module, name, counted(name, function), raising=False)
    monkeypatch.setattr(verify, "derived_form_exact", window(derived_form_exact))
    monkeypatch.setattr(FoxPairing, "evaluate", window(FoxPairing.evaluate))
    report = verify.fox_laws_suite(3)
    assert verify.report_passed(report)
    assert not [key for key in calls if key[1]]
    assert all(calls[name, False] for name in names)


# -- typed operands ------------------------------------------------------------------


TRUNCATED = TruncatedSeries(2, 4, {(1,): 1, (1, 2): 3})


def test_derived_form_exact_refuses_a_truncated_operand():
    pairing, x = surface_pairing_exact(1), GroupAlgebraElement.generator(2, 1)
    for a, b, name in ((TRUNCATED, TRUNCATED, "a"), (x, TRUNCATED, "b")):
        with pytest.raises(TypeError, match=rf"^derived_form_exact: {name} must be a "
                                            r"GroupAlgebraElement, got TruncatedSeries$"):
            derived_form_exact(pairing, a, b)


@pytest.mark.parametrize("derivative", [fox_derivative_left, fox_derivative_right])
def test_fox_derivatives_refuse_a_truncated_operand(derivative):
    with pytest.raises(TypeError, match=r"^Fox derivative: a must be a GroupAlgebraElement"):
        derivative(TRUNCATED, 1)


def test_cyclic_projection_refuses_a_truncated_operand():
    with pytest.raises(TypeError, match=r"^cyclic_projection: a must be a GroupAlgebraElement"):
        cyclic_projection(TRUNCATED)


def test_conjugation_sum_refuses_a_truncated_operand():
    one = GroupAlgebraElement.one(2)
    for v, u, name in ((TRUNCATED, one, "v"), (one, TRUNCATED, "u")):
        with pytest.raises(TypeError, match=rf"^conjugation_sum: {name} must be a "
                                            r"GroupAlgebraElement, got TruncatedSeries$"):
            conjugation_sum(v, u)


def test_evaluate_names_the_operand_of_the_other_ring():
    exact, x = surface_pairing_exact(1), GroupAlgebraElement.generator(2, 1)
    with pytest.raises(TypeError, match=r"^exact pairing: b must be a GroupAlgebraElement, "
                                        r"got TruncatedSeries$"):
        exact.evaluate(x, TRUNCATED)
    with pytest.raises(TypeError, match=r"^truncated pairing: a must be a TruncatedSeries, "
                                        r"got GroupAlgebraElement$"):
        exact.embedded(4).evaluate(x, TRUNCATED)


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


# -- the script: sizes tier-1 leaves out ---------------------------------------------


def long_element(rng, rank, terms, max_len):
    """terms raw words of up to max_len letters, reduced by the constructor."""
    return by_constructor(rank, [(tuple(rng.choice((1, -1)) * rng.randint(1, rank)
                                        for _ in range(rng.randint(0, max_len))),
                                  random_coefficient(rng)) for _ in range(terms)])


def main():
    for rank in (3, 4):
        rng = random.Random(1800 + rank)
        start = time.perf_counter()
        for terms in (6, 7, 8):
            for _ in range(12):
                a = long_element(rng, rank, terms, 8)
                b = seam_partner(rng, a) if rng.random() < 0.5 else long_element(
                    rng, rank, terms, 8)
                for element in (a, b, embed(a, 7), embed(b, 5)):
                    check_fox_helper(element)
                pairing = random_exact_pairing(rng, rank)
                for left in (False, True):
                    assert_exact(companion_form(pairing, a, b, left),
                                 derived_form_per_pair(pairing, a, b, left=left))
            for max_len in list(range(9)) * 20:
                seed = rng.randrange(10 ** 9)
                new, old = random.Random(seed), random.Random(seed)
                assert _random_element(new, rank, terms, max_len) == random_element_by_sums(
                    old, rank, terms, max_len)
                assert new.getstate() == old.getstate()
        print("rank %d: Fox derivatives, derived forms and fox-laws inputs exact; %.2f s"
              % (rank, time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
