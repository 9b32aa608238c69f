"""Truncated power series in the variables X_i: ring ops, inverse, log, exp."""

import random
import time
from fractions import Fraction

import pytest

from foxtwist.derived_twists import TwistAutomorphism, twist
from foxtwist.errors import DomainError, NotInvertible
from foxtwist.series import (
    TruncatedSeries,
    accumulate,
    as_fraction,
    commutator,
    series_matrix_inverse,
)
from foxtwist.surfaces import CurveSpec, SurfaceSpec, surface_pairing
from foxtwist.words import GroupWord


def rand_series(rng, rank=2, cap=5, terms=4, unit=False):
    data = {(): Fraction(1)} if unit else {}
    out = TruncatedSeries(rank, cap, data)
    for _ in range(terms):
        mono = tuple(rng.randint(1, rank) for _ in range(rng.randint(0 if not unit else 1, cap - 1)))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + TruncatedSeries(rank, cap, {mono: coeff})
    return out


def test_constructor_normalizes():
    s = TruncatedSeries(2, 3, {(1, 1, 1): 5, (2,): 0, (1,): "1/2"})
    assert s.items() == {(1,): Fraction(1, 2)}.items()


def test_constructor_stores_a_new_key_as_given():
    # accumulate gives a new key its value as it is, with no 0 + c on the way.
    c = Fraction(2, 7)
    assert accumulate({}, [((1,), c)])[(1,)] is c


EXACT_TEXT = {"0": 0, "-0": 0, "7": 7, "-3/6": Fraction(-1, 2), "007/021": Fraction(1, 3),
              "12/1": 12, "-1/1024": Fraction(-1, 1024)}
INEXACT_TEXT = ["1e2000000", "1e999999999", "1E5", "2e-3", "0.5", "1.", ".5", "1.5/2",
                " 1/2", "1/2 ", " 1/2 ", "1 / 2", "1_000", "1/1_0", "+1", "1/-2", "1/0",
                "", "-", "1/", "/2", "\u0663", "inf", "nan"]


def test_as_fraction_parses_p_and_p_over_q():
    for text, want in EXACT_TEXT.items():
        got = as_fraction(text)
        assert type(got) is Fraction and got == want, text
    assert as_fraction(3) == 3 and as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_as_fraction_refuses_other_text_quickly():
    # Fraction(str) would expand "1e2000000" to a 6.6-Mbit numerator.
    start = time.process_time()
    for text in INEXACT_TEXT:
        with pytest.raises(ValueError):
            as_fraction(text)
    assert time.process_time() - start < 0.5


def test_inexact_text_is_refused_through_the_library_entries():
    s = TruncatedSeries.variable(2, 3, 1)
    spec = SurfaceSpec(1, 4)
    for call in (lambda: s.scale("1e2000000"),
                 lambda: TruncatedSeries(2, 3, {(1,): " 1/2 "}),
                 lambda: CurveSpec(GroupWord(2, (1,)), k="1_000"),
                 lambda: twist(surface_pairing(spec), "0.5", spec.parse_curve("a b"))):
        with pytest.raises(ValueError, match="exact fraction text"):
            call()


def test_constructor_validates_letters():
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(3,): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(2, 0, {})


def test_constructor_refuses_a_boolean_rank_or_cap():
    # bool is a subclass of int, but True is not a degree cap.
    with pytest.raises(ValueError, match="degree cap must be a positive integer"):
        TruncatedSeries(2, True, {(): 1})
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        TruncatedSeries(True, 3, {(): 1})


def test_constructor_refuses_a_boolean_letter():
    # Accepted, it would be written as "word": [true], which
    # series_from_dict refuses to read back.
    with pytest.raises(ValueError, match="letters outside"):
        TruncatedSeries(2, 3, {(True,): 1})
    with pytest.raises(ValueError, match="letters outside"):
        TruncatedSeries(2, 3, {(1, False): 1})
    with pytest.raises(ValueError, match="outside 1..2"):
        TruncatedSeries.variable(2, 3, True)


def test_ring_laws():
    rng = random.Random(41)
    for _ in range(25):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert c * (a + b) == c * a + c * b
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a - a == 0


def test_products_truncate_at_cap():
    x = TruncatedSeries.variable(2, 3, 1)
    assert (x * x * x).is_zero()
    assert not (x * x).is_zero()


def test_scalar_coercion():
    x = TruncatedSeries.variable(2, 4, 1)
    assert 1 + x == TruncatedSeries(2, 4, {(): 1, (1,): 1})
    assert (1 - x) + (x - 1) == 0
    assert x * 2 == x + x
    assert x == x + 0


def test_geometric_inverse_frozen():
    x = TruncatedSeries.variable(1, 4, 1)
    inv = (1 - x).inverse()
    assert inv == TruncatedSeries(1, 4, {(): 1, (1,): 1, (1, 1): 1, (1, 1, 1): 1})


def test_inverse_on_random_units():
    rng = random.Random(42)
    one = TruncatedSeries.one(2, 5)
    for _ in range(15):
        u = rand_series(rng, unit=True)
        assert u * u.inverse() == one
        assert u.inverse() * u == one


def test_inverse_requires_invertible_constant():
    with pytest.raises(NotInvertible):
        TruncatedSeries.variable(2, 4, 1).inverse()


def test_log_frozen():
    x = TruncatedSeries.variable(1, 4, 1)
    assert (1 + x).log() == TruncatedSeries(
        1, 4, {(1,): 1, (1, 1): Fraction(-1, 2), (1, 1, 1): Fraction(1, 3)})


def test_exp_frozen():
    x = TruncatedSeries.variable(1, 4, 1)
    assert x.exp() == TruncatedSeries(
        1, 4, {(): 1, (1,): 1, (1, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 6)})


def test_log_exp_roundtrip():
    rng = random.Random(43)
    for _ in range(12):
        u = rand_series(rng, unit=True)
        assert u.log().exp() == u
        p = u - u.constant_term()
        assert p.exp().log() == p


def test_log_and_exp_domain_errors():
    x = TruncatedSeries.variable(2, 4, 1)
    with pytest.raises(DomainError):
        (2 + x).log()
    with pytest.raises(DomainError):
        (1 + x).exp()


def test_degree_part_and_filtration_degree():
    s = TruncatedSeries(2, 5, {(): 2, (1, 2): 3, (2, 2, 1): 1})
    assert s.degree_part(2) == TruncatedSeries(2, 5, {(1, 2): 3})
    assert (s - 2).filtration_degree() == 2
    assert TruncatedSeries.zero(2, 5).filtration_degree() == 5


def test_truncate_drops_high_degrees():
    s = TruncatedSeries(2, 5, {(1,): 1, (1, 1, 1): 1})
    t = s.truncate(3)
    assert t.cap == 3
    assert t == TruncatedSeries(2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        s.truncate(6)


@pytest.mark.parametrize("new_cap", [0, -2, 2.5, True])
def test_truncate_refuses_a_cap_the_constructor_refuses(new_cap):
    with pytest.raises(ValueError, match="degree cap must be a positive integer"):
        TruncatedSeries.one(2, 3).truncate(new_cap)
    assert TruncatedSeries.one(2, 3).truncate(1) == TruncatedSeries.one(2, 1)


def test_truncating_wrappers_refuse_a_cap_below_one():
    with pytest.raises(ValueError, match="degree cap must be a positive integer"):
        surface_pairing(SurfaceSpec(1, 3)).truncate(0)
    with pytest.raises(ValueError, match="degree cap must be a positive integer"):
        TwistAutomorphism.identity(2, 4).truncate(0)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(44)
    u = rand_series(rng, unit=True)
    assert u ** 3 == u * u * u
    assert u ** 0 == 1
    assert u ** -2 == (u * u).inverse()


def test_commutator_is_alternating():
    rng = random.Random(45)
    a, b = rand_series(rng), rand_series(rng)
    assert commutator(a, a).is_zero()
    assert commutator(a, b) == -commutator(b, a)


def test_mismatched_caps_are_rejected():
    a = TruncatedSeries.variable(2, 4, 1)
    b = TruncatedSeries.variable(2, 5, 1)
    with pytest.raises(ValueError):
        a + b


def test_series_matrix_inverse():
    x = TruncatedSeries.variable(2, 4, 1)
    one = TruncatedSeries.one(2, 4)
    zero = TruncatedSeries.zero(2, 4)
    m = [[one, x], [zero, one]]
    inv = series_matrix_inverse(m)
    assert inv[0][0] == one and inv[0][1] == -x
    assert inv[1][0] == zero and inv[1][1] == one
    with pytest.raises(NotInvertible):
        series_matrix_inverse([[x]])


def test_series_matrix_inverse_rejects_an_empty_matrix():
    with pytest.raises(ValueError):
        series_matrix_inverse([])


def test_series_matrix_inverse_rejects_a_ragged_matrix():
    one = TruncatedSeries.one(2, 4)
    with pytest.raises(ValueError):
        series_matrix_inverse([[one, one], [one]])
    with pytest.raises(ValueError):
        series_matrix_inverse([[one], [one]])


def test_series_matrix_inverse_rejects_mixed_ranks():
    one, zero = TruncatedSeries.one(2, 4), TruncatedSeries.zero(2, 4)
    with pytest.raises(ValueError):
        series_matrix_inverse([[one, zero], [zero, TruncatedSeries.one(3, 4)]])


def test_series_matrix_inverse_rejects_mixed_caps():
    one, zero = TruncatedSeries.one(2, 4), TruncatedSeries.zero(2, 4)
    with pytest.raises(ValueError):
        series_matrix_inverse([[one, zero], [zero, TruncatedSeries.one(2, 5)]])
