"""The one coefficient format: int numerators over one reduced denominator.

Series, tensors and group-algebra elements store ``num`` (key -> nonzero
int) over ``den`` (an int >= 1) in lowest terms, gcd(den, *num) == 1, and
``terms`` is the Fraction view.  Every public operation below runs on
seeded inputs of ranks 1-3 and caps 1-6, zero and constants among them;
each result must hold that canonical form, equal ``_int_split`` of its
own Fraction view, and, for the ring operations, equal the Fraction
route (term-by-term sums and products in Fractions).  The last test pins
the bytes of ``compose``, ``inverse`` and ``power``, whose int
``TwistAutomorphism.apply`` sums prefix images over many denominators.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from foxtwist import formats
from foxtwist.derived_twists import derived_form_exact
from foxtwist.fox_pairings import FoxPairing
from foxtwist.group_algebra import (
    GroupAlgebraElement,
    conjugation_sum,
    fox_derivative_left,
    fox_derivative_right,
)
from foxtwist.series import (
    TruncatedSeries,
    _int_split,
    accumulate,
    nonzero,
    series_matrix_inverse,
)
from foxtwist.surfaces import CurveSpec, SurfaceSpec, generalized_dehn_twist
from foxtwist.truncated_completion import (
    TruncatedTensor,
    antipode,
    antipode_coproduct,
    conjugation_sum_series,
    coproduct,
    embed,
    fox_left_series,
    fox_right_series,
)
from test_derivation_kernel import random_series
from test_frame_kernel import mul_by_fractions
from test_group_algebra_kernel import (
    add_oracle,
    mul_oracle,
    random_coefficient,
    random_element,
    scale_oracle,
)

RANKS_AND_CAPS = [(rank, cap) for rank in (1, 2, 3) for cap in range(1, 7)]


def assert_canonical(x):
    assert type(x.den) is int and x.den >= 1
    assert all(type(c) is int and c for c in x.num.values())
    assert math.gcd(x.den, *x.num.values()) == 1
    assert _int_split(x.terms) == (x.num, x.den)
    assert all(type(c) is Fraction for c in x.terms.values())


def series_inputs(rng, rank, cap):
    """Zero, a constant, one and seeded series with assorted denominators."""
    return [TruncatedSeries.zero(rank, cap),
            TruncatedSeries.scalar(rank, cap, Fraction(-3, 4)),
            TruncatedSeries.one(rank, cap),
            *(random_series(rng, rank, cap, rng.randint(1, 8)) for _ in range(3))]


def group_inputs(rng, rank):
    return [GroupAlgebraElement.zero(rank),
            GroupAlgebraElement.one(rank).scale(Fraction(5, 6)),
            *(random_element(rng, rank, 4) for _ in range(3))]


@pytest.mark.parametrize("rank, cap", RANKS_AND_CAPS)
def test_series_ring_operations_match_the_fraction_route(rank, cap):
    rng = random.Random(1900 + 10 * rank + cap)
    inputs = series_inputs(rng, rank, cap)
    for a in inputs:
        for b in inputs:
            for got, want in ((a + b, nonzero(accumulate(dict(a.terms), b.terms.items()))),
                              (a - b, nonzero(accumulate(dict(a.terms), b.terms.items(), -1))),
                              (a * b, mul_by_fractions(a, b).terms)):
                assert_canonical(got)
                assert got.terms == want
        k = random_coefficient(rng)
        for got, want in ((a.scale(k), {m: c * k for m, c in a.terms.items()}),
                          (a.scale(0), {}), (-a, {m: -c for m, c in a.terms.items()})):
            assert_canonical(got)
            assert got.terms == want
        for low in range(1, cap + 1):
            assert_canonical(a.truncate(low))
            assert a.truncate(low).terms == {m: c for m, c in a.terms.items() if len(m) < low}
        for degree in range(cap):
            assert_canonical(a.degree_part(degree))
        if a.constant_term():
            inverse = a.inverse()
            assert_canonical(inverse)
            assert a * inverse == 1
        tail = a - a.constant_term()
        assert_canonical(tail.exp())
        assert_canonical((1 + tail).log())
        assert (1 + tail).log().exp() == 1 + tail


@pytest.mark.parametrize("rank, cap", RANKS_AND_CAPS)
def test_hopf_and_fox_operations_store_the_canonical_form(rank, cap):
    rng = random.Random(1960 + 10 * rank + cap)
    inputs = series_inputs(rng, rank, cap)
    for element in group_inputs(rng, rank):
        assert_canonical(embed(element, cap))
    for a in inputs:
        for result in (coproduct(a), antipode(a), antipode_coproduct(a)):
            assert_canonical(result)
        if cap >= 2:
            for i in range(1, rank + 1):
                assert_canonical(fox_left_series(a, i))
                assert_canonical(fox_right_series(a, i))
        for b in inputs:
            assert_canonical(conjugation_sum_series(a, b))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_group_algebra_operations_match_the_fraction_route(rank):
    rng = random.Random(1990 + rank)
    inputs = group_inputs(rng, rank)
    for a in inputs:
        for b in inputs:
            for got, want in ((a + b, add_oracle(a, b)), (a - b, add_oracle(a, -b)),
                              (a * b, mul_oracle(a, b))):
                assert_canonical(got)
                assert got.terms == want.terms
            assert_canonical(conjugation_sum(a, b))
        k = random_coefficient(rng)
        assert_canonical(a.scale(k))
        assert a.scale(k).terms == scale_oracle(a, k).terms
        assert_canonical(a.bar())
        for i in range(1, rank + 1):
            assert_canonical(fox_derivative_left(a, i))
            assert_canonical(fox_derivative_right(a, i))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pairing_and_inverse_outputs_store_the_canonical_form(rank):
    rng = random.Random(2010 + rank)
    exact = FoxPairing([[random_element(rng, rank, 2) for _ in range(rank)]
                        for _ in range(rank)])
    elements = group_inputs(rng, rank)
    for a in elements:
        for b in elements:
            assert_canonical(exact.evaluate(a, b))
            assert_canonical(derived_form_exact(exact, a, b))
    for cap in range(2, 7):
        truncated = exact.embedded(cap)
        inputs = series_inputs(rng, rank, cap)
        for a in inputs:
            for b in inputs:
                assert_canonical(truncated.evaluate(a, b))
        for a in inputs:
            loaded = formats.series_from_dict(formats.series_to_dict(a), rank=rank)
            assert_canonical(loaded)
            assert loaded == a


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_series_matrix_inverse_stores_the_canonical_form(rank):
    rng = random.Random(2030 + rank)
    for cap in range(1, 7):
        for _ in range(3):
            # A triangular constant-term matrix with a nonzero diagonal is invertible.
            heads = [[random_coefficient(rng) if i == j else Fraction(j - i, 2) if j > i else 0
                      for j in range(rank)] for i in range(rank)]
            matrix = [[random_series(rng, rank, cap, rng.randint(0, 5) if cap > 1 else 0,
                                     min_degree=1) + head for head in row] for row in heads]
            inverse = series_matrix_inverse(matrix)
            for row in inverse:
                for entry in row:
                    assert_canonical(entry)
            for i, row in enumerate(matrix):
                for l in range(rank):
                    product = sum((row[k] * inverse[k][l] for k in range(rank)), 0)
                    assert product == (1 if i == l else 0)


def test_loader_text_variants_reduce_to_one_form():
    payload = {"degree_cap": 4, "terms": [{"word": [1], "coeff": "2/4"},
                                          {"word": [2], "coeff": "-6/9"},
                                          {"word": [1, 2], "coeff": "0/7"},
                                          {"word": [], "coeff": "3"}]}
    loaded = formats.series_from_dict(payload, rank=2)
    assert_canonical(loaded)
    assert (loaded.num, loaded.den) == ({(1,): 3, (2,): -4, (): 18}, 6)


def test_constructors_reduce_to_lowest_terms():
    raw = TruncatedSeries._raw(2, 3, {(1,): 6, (): -4}, 10)
    assert (raw.num, raw.den) == ({(1,): 3, (): -2}, 5)
    assert (TruncatedSeries._raw(2, 3, {}, 9).den) == 1
    series = TruncatedSeries(2, 3, {(1,): "2/4", (2,): Fraction(1, 6), (1, 2, 1): 5})
    assert (series.num, series.den) == ({(1,): 3, (2,): 1}, 6)
    element = GroupAlgebraElement(2, {(1, -1): 5, (2,): Fraction(-10, 4)})
    assert (element.num, element.den) == ({(): 10, (2,): -5}, 2)
    same = GroupAlgebraElement(2, {(): Fraction(5), (2, 1, -1): Fraction(-5, 2)})
    assert element == same and hash(element) == hash(same)
    tensor = TruncatedTensor(2, 3, {((1,), ()): Fraction(2, 3), ((), (2,)): Fraction(4, 3)})
    assert (tensor.num, tensor.den) == ({((1,), ()): 2, ((), (2,)): 4}, 3)
    for x in (raw, series, element, same, tensor, GroupAlgebraElement.zero(3),
              TruncatedTensor(1, 2)):
        assert_canonical(x)


# SHA-256 of formats.dumps(twist_to_dict(x)), recorded before the int
# TwistAutomorphism.apply, for x = t.compose(t), t.inverse(), t.power(-2)
# at k = 1/3.
PINNED_TWIST_BYTES = [
    ((1, 6, "a b a b^-1"), (
        "f5c67e50ed1a14720c7f42f14669ce17282e1daee1fa5d130f8db13aebc8f4bb",
        "85ef5959df021e1e7e5115c94729e1487fa19c4a7ef3c41b7e28b1389b55d06d",
        "f3b9e44ad405564f0f417db0b64257d53a54bf35671c89b37a0deaabb7e8ad64")),
    ((1, 7, "a b^-1 a^-1 b^2"), (
        "e412ed4a8e668b4d4be92ca2c58afe69655960f639e1e54844ea03edea7a7459",
        "32f5ed26df14b0c272f59621bd2bb9e3d6936c0d12ebfbe40f697bf8a6c009e5",
        "86479de02328582d48629dc61f478b0eaf377974e2d3325c14d5eed189f81a58")),
    ((2, 4, "a1 b2 a2^-1 b1"), (
        "9e738d9696c63a2bc86d52d1c3c82fda8c77dd1caefd00b7093ecd1fb6748d8b",
        "0a6ff054e000507a7bff4be8d215b568182c2c9cbd7ee8fe1a449b100f695250",
        "172e0f8af5d45aa5171d3dec3e76328f47456601eafef5bafaf33e646455ae23")),
    ((3, 4, "a1 b2 a3 b1^-1"), (
        "0c6f9190c3a66570f8a45258bd8f49b82660213617591c59d39b153618d0a7e0",
        "3c8b682d2f36bcb3a4b324b0361c63e83f7cbc5ac92d9934fad845f7eeefe266",
        "2e04327ef18a4fe0819415237740ba830da1a9470e5d7fc40f4ede4e7985d41d")),
]


@pytest.mark.parametrize("case, digests", PINNED_TWIST_BYTES)
def test_compose_inverse_and_power_bytes_are_pinned(case, digests):
    genus, degree, curve = case
    spec = SurfaceSpec(genus, degree)
    t = generalized_dehn_twist(spec, CurveSpec(spec.parse_curve(curve), Fraction(1, 3)))
    for x, digest in zip((t.compose(t), t.inverse(), t.power(-2)), digests):
        text = formats.dumps(formats.twist_to_dict(x))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
