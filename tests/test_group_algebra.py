"""Group-algebra arithmetic and Fox derivatives over the rationals."""

import random
from fractions import Fraction

import pytest

from foxtwist.group_algebra import (
    GroupAlgebraElement,
    conjugation_sum,
    cyclic_projection,
    fox_derivative,
    fox_derivative_left,
    fox_derivative_right,
)
from foxtwist.words import GroupWord


def elem(*pairs):
    out = GroupAlgebraElement.zero(2)
    for letters, coeff in pairs:
        out = out + GroupAlgebraElement.from_word(GroupWord(2, letters), coeff)
    return out


def random_element(rng, terms=3, max_len=4):
    out = GroupAlgebraElement.zero(2)
    for _ in range(terms):
        letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, max_len)))
        out = out + GroupAlgebraElement.from_word(
            GroupWord(2, letters), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return out


def test_ring_laws_on_random_elements():
    rng = random.Random(31)
    for _ in range(25):
        a, b, c = (random_element(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == GroupAlgebraElement.zero(2)


def test_scalars_coerce_in_arithmetic():
    a = elem(((1,), 1))
    assert a - 1 == elem(((1,), 1), ((), -1))
    assert 2 * a == a + a
    assert a * Fraction(1, 2) == elem(((1,), Fraction(1, 2)))


def test_augmentation_is_a_ring_map():
    rng = random.Random(32)
    for _ in range(20):
        a, b = random_element(rng), random_element(rng)
        assert (a * b).augmentation() == a.augmentation() * b.augmentation()
        assert (a + b).augmentation() == a.augmentation() + b.augmentation()


def test_bar_is_an_antihomomorphism():
    rng = random.Random(33)
    for _ in range(20):
        a, b = random_element(rng), random_element(rng)
        assert (a * b).bar() == b.bar() * a.bar()
        assert a.bar().bar() == a


def test_bar_inverts_words():
    assert elem(((1, 2), 1)).bar() == elem(((-2, -1), 1))


def test_left_fox_derivative_frozen_example():
    # d1 of x1 x2 x1^-1, prefix convention
    a = elem(((1, 2, -1), 1))
    assert fox_derivative_left(a, 1) == elem(((), 1), ((1, 2, -1), -1))
    assert fox_derivative_left(a, 2) == elem(((1,), 1))


def test_right_fox_derivative_frozen_example():
    a = elem(((1, 2, -1), 1))
    assert fox_derivative_right(a, 1) == elem(((2, -1), 1), ((-1,), -1))
    assert fox_derivative_right(a, 2) == elem(((-1,), 1))


def test_left_leibniz_rule():
    rng = random.Random(34)
    for _ in range(20):
        a, b = random_element(rng), random_element(rng)
        for i in (1, 2):
            want = fox_derivative_left(a, i).scale(b.augmentation()) + a * fox_derivative_left(b, i)
            assert fox_derivative_left(a * b, i) == want


def test_right_leibniz_rule():
    rng = random.Random(35)
    for _ in range(20):
        a, b = random_element(rng), random_element(rng)
        for i in (1, 2):
            want = fox_derivative_right(a, i) * b + fox_derivative_right(b, i).scale(a.augmentation())
            assert fox_derivative_right(a * b, i) == want


def test_derivatives_reconstruct_the_element():
    rng = random.Random(36)
    one = GroupAlgebraElement.one(2)
    gens = [GroupAlgebraElement.generator(2, i) for i in (1, 2)]
    for _ in range(20):
        a = random_element(rng)
        head = one.scale(a.augmentation())
        left = sum((fox_derivative_left(a, i + 1) * (gens[i] - one) for i in range(2)),
                   GroupAlgebraElement.zero(2))
        right = sum(((gens[i] - one) * fox_derivative_right(a, i + 1) for i in range(2)),
                    GroupAlgebraElement.zero(2))
        assert head + left == a
        assert head + right == a


def test_fox_derivative_dispatch():
    a = elem(((1,), 1))
    assert fox_derivative("left", 1, a) == fox_derivative_left(a, 1)
    assert fox_derivative("right", 1, a) == fox_derivative_right(a, 1)
    with pytest.raises(ValueError):
        fox_derivative("middle", 1, a)


def test_conjugation_sum_frozen_example():
    v = elem(((1,), 1))
    u = elem(((2,), 1), ((1,), 2))
    assert conjugation_sum(v, u) == elem(((-2, 1, 2), 1), ((1,), 2))


def test_conjugation_sum_is_bilinear():
    rng = random.Random(37)
    for _ in range(15):
        v1, v2, u = (random_element(rng) for _ in range(3))
        assert conjugation_sum(v1 + v2, u) == conjugation_sum(v1, u) + conjugation_sum(v2, u)
        assert conjugation_sum(v1, u + v2) == conjugation_sum(v1, u) + conjugation_sum(v1, v2)


def test_cyclic_projection_collapses_conjugates():
    a = elem(((1, 2), 1), ((2, 1), -1))
    assert cyclic_projection(a).is_zero()
    assert cyclic_projection(elem(((-2, 1, 2), 1))) == elem(((1,), 1))


def test_words_iteration_uses_reduced_words():
    a = elem(((1, -1, 2), 1))
    [(word, coeff)] = list(a.words())
    assert word.letters == (2,)
    assert coeff == 1


def test_float_letters_are_refused_not_truncated():
    with pytest.raises(ValueError):
        GroupAlgebraElement(2, {(1.9,): 1})


def test_boolean_rank_is_refused():
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        GroupAlgebraElement(True, {})


@pytest.mark.parametrize("derivative", [fox_derivative_left, fox_derivative_right])
@pytest.mark.parametrize("index", [0, 3, -1, True, 1.0, "1"])
def test_fox_derivatives_refuse_an_index_outside_the_rank(derivative, index):
    a = GroupAlgebraElement.generator(2, 1)
    with pytest.raises(ValueError, match=r"^Fox derivative index .* outside 1\.\.2$"):
        derivative(a, index)
    with pytest.raises(ValueError):
        fox_derivative("left", index, a)
    assert derivative(a, 2) == GroupAlgebraElement.zero(2)
