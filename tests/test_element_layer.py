"""The vector-space layer shared by series, tensors and group-algebra elements.

All three store int numerators over one reduced denominator and share one
``+``, ``-``, negation, ``scale``, scalar ``*`` and ``==``.  The tests
below pin what that layer promises: the mismatch error texts, ``==``
that never raises and compares a scalar as the constant, scalars on
either side of each operator, which of the three types hash, the term
order of the reprs, and tensor ``+``, ``-`` and ``scale`` against the
Fraction route.
"""

import random
from fractions import Fraction

import pytest

from foxtwist.group_algebra import GroupAlgebraElement, conjugation_sum
from foxtwist.series import TruncatedSeries, accumulate, commutator, nonzero
from foxtwist.symplectic_tensor import tensor_coproduct
from foxtwist.truncated_completion import TruncatedTensor, is_primitive
from test_frame_kernel import random_tensor


def series(rank=2, cap=3):
    return TruncatedSeries(rank, cap, {(): Fraction(1, 2), (1,): -3})


def element(rank=2):
    return GroupAlgebraElement(rank, {(): Fraction(1, 2), (1, -2): -3})


def tensor(rank=2, cap=3):
    return TruncatedTensor(rank, cap, {((), ()): Fraction(1, 2), ((1,), (2,)): -3})


# -- mismatch errors --------------------------------------------------------


@pytest.mark.parametrize("op", [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
])
def test_series_mismatch_texts(op):
    with pytest.raises(ValueError, match=r"^rank mismatch: 2 vs 3$"):
        op(series(2, 3), series(3, 3))
    with pytest.raises(ValueError, match=r"^degree cap mismatch: 3 vs 4$"):
        op(series(2, 3), series(2, 4))


@pytest.mark.parametrize("op", [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    conjugation_sum,
])
def test_group_algebra_mismatch_text(op):
    with pytest.raises(ValueError, match=r"^rank mismatch between group algebra elements$"):
        op(element(2), element(3))


# -- equality ---------------------------------------------------------------


@pytest.mark.parametrize("a, b", [
    (series(2, 3), series(3, 3)),
    (series(2, 3), series(2, 4)),
    (element(2), element(3)),
    (tensor(2, 3), tensor(3, 3)),
    (tensor(2, 3), tensor(2, 4)),
    (series(), element()),
    (series(), tensor()),
    (element(), tensor()),
    (series(), "1/2 - 3 X1"),
    (element(), None),
    (tensor(), [((), ())]),
    (TruncatedSeries.zero(2, 3), GroupAlgebraElement.zero(2)),
])
def test_equality_across_shapes_and_types_is_false(a, b):
    assert not a == b and a != b
    assert not b == a and b != a


def test_same_terms_and_shape_compare_equal():
    assert series() == series() and element() == element() and tensor() == tensor()
    assert series() != series().scale(2)


@pytest.mark.parametrize("make", [series, element])
@pytest.mark.parametrize("value", [0, 1, -2, Fraction(3, 4), True])
def test_a_scalar_compares_as_the_constant(make, value):
    x = make()
    constant = x - x + value
    assert constant == value and value == constant
    assert constant.terms == ({(): Fraction(value)} if value else {})
    assert x != value and value != x


def test_other_types_give_not_implemented():
    for x in (series(), element(), tensor()):
        assert x.__eq__("x") is NotImplemented
        assert x.__eq__(1.0) is NotImplemented
        with pytest.raises(TypeError):
            x + 0.5
        with pytest.raises(TypeError):
            0.5 - x
    for x in (series(), element(), tensor()):
        assert x.__add__("x") is NotImplemented
        assert x.__sub__(None) is NotImplemented
        assert x.__mul__(1.0) is NotImplemented
        assert x.__rmul__(1.0) is NotImplemented


# -- scalars on either side -------------------------------------------------


@pytest.mark.parametrize("make, constant", [
    (series, lambda x, c: TruncatedSeries.scalar(x.rank, x.cap, c)),
    (element, lambda x, c: GroupAlgebraElement.one(x.rank).scale(c)),
])
@pytest.mark.parametrize("value", [0, 3, -1, Fraction(-5, 6)])
def test_scalars_on_either_side(make, constant, value):
    x = make()
    c = constant(x, value)
    assert x + value == x + c and value + x == c + x
    assert x - value == x - c and value - x == c - x
    assert x * value == x.scale(value) and value * x == x.scale(value)
    assert (x + value) - value == x
    assert -x == x.scale(-1) and -(-x) == x


# -- hashing ----------------------------------------------------------------


def test_group_algebra_elements_hash_and_series_and_tensors_do_not():
    assert hash(element()) == hash(element())
    assert len({element(), element(), element(3)}) == 2
    for x in (series(), tensor()):
        with pytest.raises(TypeError):
            hash(x)


# -- term order -------------------------------------------------------------


def test_reprs_list_terms_by_length_then_letters():
    s = TruncatedSeries(2, 4, {(2, 1): Fraction(-1, 3), (): 2, (1,): 1,
                               (1, 1, 2): Fraction(5, 6), (2,): -1, (1, 2): Fraction(1, 2)})
    assert repr(s) == ("<series 2 + X1 + -1*X2 + 1/2*X1*X2 + -1/3*X2*X1"
                       " + 5/6*X1^2*X2 (cap 4)>")
    assert repr(TruncatedSeries.zero(2, 3)) == "<series 0 (cap 3)>"
    g = GroupAlgebraElement(2, {(2, -1): Fraction(-1, 3), (): 2, (1,): 1,
                                (-2, 1, 1): Fraction(5, 6), (-1,): -1})
    assert repr(g) == "<2*1 + -1*x1' + 1*x1 + -1/3*x2.x1' + 5/6*x2'.x1.x1>"
    assert repr(GroupAlgebraElement.zero(2)) == "<0>"


# -- tensors add and scale --------------------------------------------------


def tensor_by_fractions(rank, cap, items):
    return TruncatedTensor(rank, cap, nonzero(accumulate({}, items)))


@pytest.mark.parametrize("rank, cap", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 5)])
def test_tensor_add_sub_and_scale_match_the_fraction_route(rank, cap):
    rng = random.Random(rank * 10 + cap)
    zero = TruncatedTensor(rank, cap)
    for _ in range(6):
        a = random_tensor(rng, rank, cap, rng.randint(0, 6))
        b = random_tensor(rng, rank, cap, rng.randint(0, 6))
        k = Fraction(rng.choice((-3, -1, 0, 2, 5)), rng.choice((1, 2, 9)))
        assert a + b == tensor_by_fractions(rank, cap, [*a.terms.items(), *b.terms.items()])
        assert a - b == tensor_by_fractions(
            rank, cap, [*a.terms.items(), *((f, -c) for f, c in b.terms.items())])
        assert a.scale(k) == tensor_by_fractions(rank, cap, ((f, k * c) for f, c in a.terms.items()))
        assert k * a == a.scale(k)
        assert a - a == zero and a + zero == a
        assert a + 2 == tensor_by_fractions(rank, cap, [*a.terms.items(), (((), ()), 2)])
        assert 1 - a == tensor_by_fractions(
            rank, cap, [(((), ()), 1), *((f, -c) for f, c in a.terms.items())])


@pytest.mark.parametrize("k", [0, 3, -2, Fraction(-5, 6)])
def test_tensor_scalar_product_on_either_side(k):
    t = tensor()
    assert t * k == k * t == t.scale(k)


def test_tensor_has_no_product():
    with pytest.raises(TypeError):
        tensor() * tensor()
    with pytest.raises(TypeError):
        tensor() * series()
    with pytest.raises(TypeError):
        tensor() * 0.5


def test_tensor_mismatch_texts():
    with pytest.raises(ValueError, match=r"^rank mismatch: 2 vs 3$"):
        tensor(2, 3) + tensor(3, 3)
    with pytest.raises(ValueError, match=r"^degree cap mismatch: 3 vs 4$"):
        tensor(2, 3) - tensor(2, 4)


def test_is_primitive_under_both_coproducts():
    for cap in (2, 3, 4):
        x1, x2 = (TruncatedSeries.variable(2, cap, i) for i in (1, 2))
        assert is_primitive(x1.scale(Fraction(2, 3)) - x2, tensor_coproduct)
        assert is_primitive(commutator(x1, x2), tensor_coproduct)
        assert is_primitive(x1 * x2, tensor_coproduct) == (cap < 3)
        assert not is_primitive(x1 + 1, tensor_coproduct)
        log1, log2 = ((x + 1).log() for x in (x1, x2))
        assert is_primitive(log1 - log2.scale(Fraction(1, 3)))
        assert is_primitive(x1) == (cap < 3)

