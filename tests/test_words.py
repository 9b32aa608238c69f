"""Free-group words: reduction, composition, normal forms, parsing."""

import random

import pytest

from foxtwist.words import MAX_WORD_LENGTH, GroupWord, default_names, format_word, parse_word


def w(*letters):
    return GroupWord(2, tuple(letters))


def test_free_reduction_cancels_inverse_pairs():
    assert w(1, -1).letters == ()
    assert w(1, 2, -2, -1).letters == ()
    assert w(1, 2, -2, 1).letters == (1, 1)


def test_product_of_inverse_is_identity():
    word = w(1, 2, -1, 2, 2)
    assert (word * word.inverse()).letters == ()
    assert (word.inverse() * word).letters == ()


def test_conjugate_by_generator_does_not_reduce():
    # conjugation convention: v^-1 u v
    assert w(1).conjugated_by(w(2)).letters == (-2, 1, 2)


def test_cyclic_normal_form_of_conjugate():
    assert w(-2, 1, 2).cyclic_normal_form().letters == (1,)


def test_cyclic_normal_form_is_conjugacy_invariant():
    rng = random.Random(7)
    for _ in range(50):
        letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6)))
        conj = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3)))
        u = GroupWord(2, letters)
        assert u.conjugated_by(GroupWord(2, conj)).cyclic_normal_form() == u.cyclic_normal_form()


def test_reduction_is_confluent_on_random_triples():
    rng = random.Random(11)
    for _ in range(60):
        words = [GroupWord(2, tuple(rng.choice([1, -1, 2, -2])
                                    for _ in range(rng.randint(0, 5))))
                 for _ in range(3)]
        a, b, c = words
        assert (a * b) * c == a * (b * c)


def test_pow_matches_repeated_product():
    word = w(1, 2)
    assert word ** 3 == word * word * word
    assert word ** -2 == (word * word).inverse()
    assert (word ** 0).letters == ()


@pytest.mark.parametrize("n, products", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4)])
def test_pow_squares_only_while_bits_remain(monkeypatch, n, products):
    built = []
    product = GroupWord.__mul__

    def counted(a, b):
        out = product(a, b)
        built.append(len(out.letters))
        return out

    monkeypatch.setattr(GroupWord, "__mul__", counted)
    result = w(1, 2) ** n
    assert result.letters == (1, 2) * n
    assert len(built) == products
    assert max(built, default=0) <= len(result.letters)


def test_exponent_sums():
    assert w(1, 2, -1, 2).exponent_sums() == [0, 2]


def test_parse_and_format_roundtrip():
    names = default_names(2)
    for text in ("", "x1", "x1 x2^-1", "x2^3 x1^-2"):
        word = parse_word(text, 2)
        assert parse_word(format_word(word, names), 2) == word


def test_parse_rejects_unknown_names_and_bad_powers():
    with pytest.raises(ValueError):
        parse_word("y1", 2)
    with pytest.raises(ValueError):
        parse_word("x1^q", 2)


def test_parse_with_alias_table():
    table = {"a": 1, "b": 2}
    assert parse_word("a b^-1", 2, table).letters == (1, -2)


def test_parse_bounds_the_expanded_length():
    assert len(parse_word(f"x1^{MAX_WORD_LENGTH}", 2)) == MAX_WORD_LENGTH
    over = MAX_WORD_LENGTH + 1
    for text in (f"x1^{over}", f"x2^-{over}", f"x1^{MAX_WORD_LENGTH} x2"):
        with pytest.raises(ValueError):
            parse_word(text, 2)


def test_float_letters_are_refused_not_truncated():
    with pytest.raises(ValueError):
        GroupWord(2, (1.7, 2.2))


def test_string_letters_are_refused_not_parsed():
    with pytest.raises(ValueError):
        GroupWord(2, ("1",))


def test_boolean_rank_and_letters_are_refused():
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        GroupWord(True, (1,))
    with pytest.raises(ValueError):
        GroupWord(2, (True,))
