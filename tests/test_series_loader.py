"""The one-pass series loader against the loader it replaced.

``series_from_dict_checked`` is the former body of
``formats.series_from_dict``: one ``_require`` per check and a fresh
parse of every coefficient text.  The one-pass loader must return equal
series on valid payloads and raise the same exception, with the same
message, on malformed ones.
"""

import random
from fractions import Fraction

import pytest

from foxtwist.formats import FormatError, _coefficient, _require, series_from_dict, series_to_dict
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.series import TruncatedSeries, _positive_int, nonzero
from foxtwist.surfaces import SurfaceSpec
from foxtwist.truncated_completion import embed
from foxtwist.words import GroupWord


def series_from_dict_checked(data, rank=None):
    """Oracle: the loader before it became one pass."""
    _require(isinstance(data, dict), "series payload must be an object")
    cap = data.get("degree_cap")
    _require(_positive_int(cap), "degree_cap must be a positive integer")
    raw = data.get("terms")
    _require(isinstance(raw, list), "terms must be a list")
    terms = {}
    top = 0
    for item in raw:
        _require(isinstance(item, dict), "each term must be an object")
        word = item.get("word")
        _require(isinstance(word, list), "term word must be a list of letters")
        _require(all(map(_positive_int, word)),
                 "letters must be positive integers")
        _require(len(word) < cap, "term degree reaches the cap")
        coeff = _coefficient(item.get("coeff"))
        key = tuple(word)
        _require(key not in terms, "duplicate term word")
        terms[key] = coeff
        top = max(top, max(word, default=0))
    if rank is None:
        rank = max(top, 1)
    _require(_positive_int(rank), "rank must be a positive integer")
    _require(top <= rank, "letters exceed the rank")
    return TruncatedSeries(rank, cap, nonzero(terms))


def conjugated_nabla_payload(genus, cap, conjugator):
    """Series file of iota(w nu w^-1) - 1, the shape of the nabla-cli files."""
    spec = SurfaceSpec(genus, cap)
    w = GroupWord(spec.rank, conjugator)
    conj = GroupAlgebraElement.from_word(w * spec.boundary_word() * w.inverse())
    return series_to_dict(embed(conj, cap) - 1)


def assert_same_series(data, rank=None):
    got = series_from_dict(data, rank)
    want = series_from_dict_checked(data, rank)
    assert got == want
    assert (got.rank, got.cap) == (want.rank, want.cap)
    assert all(type(c) is Fraction for c in got.terms.values())
    return got


def assert_same_error(data, rank=None):
    with pytest.raises(Exception) as want:
        series_from_dict_checked(data, rank)
    with pytest.raises(Exception) as got:
        series_from_dict(data, rank)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    return got.value


def random_payload(rng):
    """Random words over a pool of repeated, partly equal coefficient texts."""
    pool = ["1/2", "2/4", "-1/2", "3", "-7/3", "0", "-0", "14/6", "1", "-1"]
    cap = rng.randint(1, 6)
    rank = rng.randint(1, 4)
    words = {tuple(rng.randint(1, rank) for _ in range(rng.randint(0, cap - 1)))
             for _ in range(rng.randint(0, 40))}
    terms = [{"word": list(w), "coeff": rng.choice(pool)} for w in words]
    rng.shuffle(terms)
    return {"degree_cap": cap, "terms": terms}


def test_random_payloads_load_as_before():
    rng = random.Random(150)
    for _ in range(200):
        data = random_payload(rng)
        assert_same_series(data)
        top = max((max(t["word"]) for t in data["terms"] if t["word"]), default=1)
        assert_same_series(data, rank=top + 1)


@pytest.mark.parametrize("genus, cap, conjugator", [(2, 8, (2, 1, 2)), (3, 7, (2, -5))])
def test_bench_shaped_nablas_load_as_before(genus, cap, conjugator):
    data = conjugated_nabla_payload(genus, cap, conjugator)
    assert len({t["coeff"] for t in data["terms"]}) < len(data["terms"]) // 10
    got = assert_same_series(data, rank=2 * genus)
    assert series_to_dict(got) == data


def test_equal_fractions_from_different_texts():
    data = {"degree_cap": 4, "terms": [{"word": [1], "coeff": "1/2"},
                                       {"word": [2], "coeff": "2/4"},
                                       {"word": [1, 2], "coeff": "1/2"},
                                       {"word": [2, 1], "coeff": "-3/6"}]}
    got = assert_same_series(data)
    assert got.terms == {(1,): Fraction(1, 2), (2,): Fraction(1, 2),
                         (1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}


def _payload(*terms, cap=3):
    return {"degree_cap": cap, "terms": list(terms)}


def _term(word, coeff="1"):
    return {"word": word, "coeff": coeff}


MALFORMED = [
    ([], None),
    ({"terms": []}, None),
    ({"degree_cap": 0, "terms": []}, None),
    ({"degree_cap": True, "terms": []}, None),
    ({"degree_cap": 3, "terms": {}}, None),
    (_payload([1]), None),
    (_payload({"coeff": "1"}), None),
    (_payload(_term((1,))), None),
    (_payload(_term("1")), None),
    (_payload(_term([0])), None),
    (_payload(_term([-2])), None),
    (_payload(_term([True])), None),
    (_payload(_term([1.0])), None),
    (_payload(_term(["1"])), None),
    (_payload(_term([[1]])), None),
    (_payload(_term([1, 2, 1])), None),
    (_payload(_term([1], "0.5")), None),
    (_payload(_term([1], "1/0")), None),
    (_payload(_term([1], 2)), None),
    (_payload(_term([1], None)), None),
    (_payload(_term([1], [1])), None),
    (_payload(_term([1], {})), None),
    (_payload({"word": [1]}), None),
    (_payload(_term([2, 1]), _term([2, 1], "0")), None),
    (_payload(_term([3])), 2),
    (_payload(_term([1])), 0),
    (_payload(_term([1])), True),
]

# One term with two faults: the letter check comes before the degree
# check, the degree check before the text, the text before duplicates.
# Two bad terms: the first one decides.
FIRST_FAULT = [
    (_payload(_term([0, 1, 1], "x")), "letters must be positive integers"),
    (_payload(_term([1, 1, 1], "x")), "term degree reaches the cap"),
    (_payload(_term([1]), _term([1], "x")), "coefficient 'x' is not exact fraction text"),
    (_payload(_term([1], "x"), _term([0])), "coefficient 'x' is not exact fraction text"),
    (_payload(_term([1, 1, 1]), _term([1], [1])), "term degree reaches the cap"),
]


@pytest.mark.parametrize("data, rank", MALFORMED)
def test_malformed_payloads_fail_as_before(data, rank):
    assert isinstance(assert_same_error(data, rank), FormatError)


@pytest.mark.parametrize("data, message", FIRST_FAULT)
def test_first_fault_decides_the_message(data, message):
    assert str(assert_same_error(data)) == message


@pytest.mark.parametrize("text", [[1], {}])
def test_unhashable_coefficients_are_format_errors(text):
    with pytest.raises(FormatError, match="is not exact fraction text"):
        series_from_dict(_payload(_term([1], "1/2"), _term([2], text)))


def test_subclassed_terms_and_words_still_load():
    class Term(dict):
        pass

    class Word(list):
        pass

    data = _payload(Term(word=Word([1, 2]), coeff="-2/3"), _term(Word([2]), "5"))
    got = assert_same_series(data)
    assert got.terms == {(1, 2): Fraction(-2, 3), (2,): Fraction(5)}
