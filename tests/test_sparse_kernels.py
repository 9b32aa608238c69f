"""The shared accumulate kernel and the shared substitution engine."""

import itertools
import random
from fractions import Fraction

from foxtwist.derived_twists import TwistAutomorphism, twist
from foxtwist.group_algebra import GroupAlgebraElement, conjugation_sum
from foxtwist.series import TruncatedSeries, accumulate, nonzero
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.symplectic_tensor import build_symplectic_expansion, tensor_coproduct
from foxtwist.truncated_completion import (
    TruncatedTensor,
    antipode,
    antipode_coproduct,
    coproduct,
    embed,
)
from foxtwist.words import GroupWord


def substitute_naive(images, series, cap):
    """Oracle: multiply the shifted images of each monomial and add the
    scaled products with +, at the given cap."""
    rank = len(images)
    total = TruncatedSeries.zero(rank, cap)
    for monomial, coeff in series.terms.items():
        if len(monomial) >= cap:
            continue
        product = TruncatedSeries.one(rank, cap)
        for letter in monomial:
            product = product * (images[letter - 1].truncate(cap) - 1)
        total = total + product.scale(coeff)
    return total


def dense_series(rng, rank, cap):
    """Every monomial below the cap, each with a random nonzero coefficient."""
    terms = {}
    for degree in range(cap):
        for monomial in itertools.product(range(1, rank + 1), repeat=degree):
            terms[monomial] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return TruncatedSeries(rank, cap, terms)


def stores_no_zero(obj):
    return all(c != 0 for c in obj.terms.values())


def cancelling_series(cap=5):
    """iota(x1 x2 - x2 x1): the constant and degree-1 terms cancel."""
    x1x2 = GroupAlgebraElement.from_word(GroupWord(2, (1, 2)))
    x2x1 = GroupAlgebraElement.from_word(GroupWord(2, (2, 1)))
    return embed(x1x2 - x2x1, cap)


def test_accumulate_adds_scaled_terms_in_place():
    out = {"a": 1}
    assert accumulate(out, [("a", 2), ("b", 3), ("a", -1)], 5) is out
    assert out == {"a": 6, "b": 15}
    accumulate(out, [("a", Fraction(-6)), ("c", Fraction(1, 2))])
    assert out == {"a": 0, "b": 15, "c": Fraction(1, 2)}
    assert nonzero(out) == {"b": 15, "c": Fraction(1, 2)}
    assert "a" in out


def test_outputs_store_no_zero_coefficient():
    s = cancelling_series()
    assert s.coefficient(()) == 0 and s.coefficient((1,)) == 0
    for value in (s, antipode(s), coproduct(s), antipode_coproduct(s), tensor_coproduct(s),
                  s + (-s)):
        assert stores_no_zero(value)
    assert (s + (-s)).is_zero()

    assert stores_no_zero(TruncatedTensor(2, 5, {((1,), ()): 1, ((), (1,)): 0}))

    # x1 commutes with x1, so its conjugation sum by 1 - x1 is zero
    v = GroupAlgebraElement.generator(2, 1)
    u = GroupAlgebraElement.one(2) - v
    assert conjugation_sum(v, u).is_zero()
    assert stores_no_zero(conjugation_sum(v + GroupAlgebraElement.generator(2, 2), u))

    spec = SurfaceSpec(1, 5)
    automorphism = twist(surface_pairing(spec), Fraction(1, 3), spec.parse_curve("a b a b^-1"))
    expansion = build_symplectic_expansion(1, 5)
    for series in (s, s - s.degree_part(2)):
        assert stores_no_zero(automorphism.apply(series))
        assert stores_no_zero(expansion.apply_hat(series))


def test_twist_substitution_matches_naive_products():
    rng = random.Random(11)
    spec = SurfaceSpec(1, 5)
    automorphism = twist(surface_pairing(spec), Fraction(-2, 5), spec.parse_curve("a b a b^-1"))
    assert automorphism.cap == 5
    for cap in (4, 5, 6):
        series = dense_series(rng, 2, cap)
        want = substitute_naive(automorphism.images, series, min(cap, automorphism.cap))
        assert automorphism.apply(series) == want
    identity = TwistAutomorphism.identity(2, 5)
    series = dense_series(rng, 2, 5)
    assert identity.apply(series) == series


def test_expansion_substitution_matches_naive_products():
    rng = random.Random(12)
    expansion = build_symplectic_expansion(1, 5)
    for cap in (3, 5, 6):
        series = dense_series(rng, 2, cap)
        want = substitute_naive(expansion.images, series, min(cap, expansion.cap))
        assert expansion.apply_hat(series) == want
