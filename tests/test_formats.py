"""JSON round trips and validation for series, pairings, twists, expansions."""

import gc
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from foxtwist.cli import main
from foxtwist.derived_twists import TwistAutomorphism
from foxtwist.fox_pairings import FoxPairing, pairing_of_nabla
from foxtwist.formats import (
    FormatError,
    _coefficient,
    dumps,
    expansion_from_dict,
    expansion_to_dict,
    pairing_from_dict,
    pairing_to_dict,
    read_json,
    series_from_dict,
    series_to_dict,
    twist_from_dict,
    twist_to_dict,
    write_json,
)
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import SurfaceSpec, generalized_dehn_twist, surface_pairing
from foxtwist.surfaces import CurveSpec, boundary_nabla, surface_pairing_exact
from foxtwist.symplectic_tensor import build_symplectic_expansion
from foxtwist.verify import run_suite


def test_series_roundtrip_and_order():
    s = TruncatedSeries(2, 4, {(2, 1): Fraction(-1, 3), (1,): 2, (): Fraction(7)})
    doc = series_to_dict(s)
    assert doc["degree_cap"] == 4
    assert [t["word"] for t in doc["terms"]] == [[], [1], [2, 1]]
    assert [t["coeff"] for t in doc["terms"]] == ["7", "2", "-1/3"]
    assert series_from_dict(doc, rank=2) == s


def test_series_rank_inference():
    doc = {"degree_cap": 3, "terms": [{"word": [2], "coeff": "1"}]}
    s = series_from_dict(doc)
    assert s.rank == 2
    assert series_from_dict({"degree_cap": 3, "terms": []}).rank == 1


def test_series_validation_errors():
    good = {"degree_cap": 3, "terms": [{"word": [1], "coeff": "1/2"}]}
    with pytest.raises(FormatError):
        series_from_dict({**good, "degree_cap": 0})
    with pytest.raises(FormatError):
        series_from_dict({**good, "terms": [{"word": [1], "coeff": "0.5"}]})
    with pytest.raises(FormatError):
        series_from_dict({**good, "terms": [{"word": [1, 1, 1], "coeff": "1"}]})
    with pytest.raises(FormatError):
        series_from_dict({**good, "terms": [{"word": [-1], "coeff": "1"}]})
    with pytest.raises(FormatError):
        series_from_dict(
            {"degree_cap": 3,
             "terms": [{"word": [1], "coeff": "1"}, {"word": [1], "coeff": "2"}]})
    with pytest.raises(FormatError):
        series_from_dict({"degree_cap": 3, "terms": [{"word": [3], "coeff": "1"}]}, rank=2)


def _one_term(word, coeff, cap=3):
    return {"degree_cap": cap, "terms": [{"word": word, "coeff": coeff}]}


def test_series_loader_rejects_a_letter_below_one():
    for letter in (0, -2):
        with pytest.raises(FormatError):
            series_from_dict(_one_term([1, letter], "1"), rank=2)


def test_series_loader_rejects_a_letter_above_the_rank():
    with pytest.raises(FormatError):
        series_from_dict(_one_term([2, 3], "1"), rank=2)
    with pytest.raises(FormatError):
        series_from_dict(_one_term([1], "1"), rank=0)


def test_loaders_refuse_booleans_as_integers():
    with pytest.raises(FormatError, match="letters must be positive integers"):
        series_from_dict(_one_term([True, 2], "1/2"))
    with pytest.raises(FormatError, match="degree_cap must be a positive integer"):
        series_from_dict({"degree_cap": True, "terms": []})
    pairing = pairing_to_dict(FoxPairing([[TruncatedSeries.one(1, 3)]]))
    twist = twist_to_dict(TwistAutomorphism.identity(1, 3))
    expansion = expansion_to_dict(build_symplectic_expansion(1, 3))
    for load, doc, key in ((pairing_from_dict, pairing, "rank"),
                           (pairing_from_dict, pairing, "degree_cap"),
                           (twist_from_dict, twist, "rank"),
                           (twist_from_dict, twist, "degree_cap"),
                           (expansion_from_dict, expansion, "genus"),
                           (expansion_from_dict, expansion, "degree_cap")):
        with pytest.raises(FormatError, match=f"{key} must be a positive integer"):
            load({**doc, key: True})


def test_series_loader_rejects_a_word_at_the_cap():
    with pytest.raises(FormatError):
        series_from_dict(_one_term([1, 2, 1], "1", cap=3), rank=2)


def test_series_loader_rejects_a_duplicate_word():
    doc = {"degree_cap": 4, "terms": [{"word": [2, 1], "coeff": "1"},
                                      {"word": [2, 1], "coeff": "0"}]}
    with pytest.raises(FormatError):
        series_from_dict(doc, rank=2)


def test_series_loader_rejects_inexact_coefficient_text():
    for text in ("0.5", "1e3", " 1", "1/", "/2", "1/0", "3/00", "+1", 2, None):
        with pytest.raises(FormatError):
            series_from_dict(_one_term([1], text), rank=2)


def test_series_loader_drops_zero_coefficients():
    doc = {"degree_cap": 4, "terms": [{"word": [], "coeff": "0"},
                                      {"word": [1], "coeff": "-0"},
                                      {"word": [2], "coeff": "0/7"},
                                      {"word": [2, 1], "coeff": "-3/6"}]}
    s = series_from_dict(doc, rank=2)
    assert s.terms == {(2, 1): Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in s.terms.values())


def test_coefficients_parse_like_fraction_text():
    for text in ("-0", "0/7", "-3/6", "12", "-5/1", "007/021", "-1/1024"):
        got = _coefficient(text)
        assert type(got) is Fraction
        assert got == Fraction(text)


@pytest.fixture
def int_digit_limit():
    """The interpreter's default int digit limit, 4300, for one test;
    skipped where the interpreter has none."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("coeff", ["7" * 5000, "1/" + "7" * 5000])
def test_coefficient_past_the_digit_limit_is_a_format_error(int_digit_limit, coeff):
    with pytest.raises(FormatError) as caught:
        series_from_dict({"degree_cap": 3, "terms": [{"word": [1], "coeff": coeff}]})
    assert "7777" not in str(caught.value)
    assert "digit limit" in str(caught.value)


def test_series_loader_matches_the_validating_constructor(monkeypatch):
    rng = random.Random(31)
    terms = {}
    for _ in range(60):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        terms[word] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    want = TruncatedSeries(3, 5, terms)
    doc = {"degree_cap": 5,
           "terms": [{"word": list(w), "coeff": str(c)} for w, c in terms.items()]}

    def refuse(*args):
        raise AssertionError("series_from_dict re-validated its terms")

    from foxtwist import series
    monkeypatch.setattr(series, "_checked_items", refuse)
    got = series_from_dict(doc, rank=3)
    assert got == want
    assert all(type(m) is tuple for m in got.terms)


def test_pairing_roundtrip():
    pairing = surface_pairing(SurfaceSpec(1, 3))
    doc = pairing_to_dict(pairing)
    assert doc["rank"] == 2
    assert doc["representation"] == "truncated"
    assert doc["degree_cap"] == pairing.cap - 2
    back = pairing_from_dict(doc)
    assert back == pairing


def test_pairing_validation():
    pairing = surface_pairing(SurfaceSpec(1, 3))
    doc = pairing_to_dict(pairing)
    with pytest.raises(FormatError):
        pairing_from_dict({**doc, "representation": "exact"})
    with pytest.raises(FormatError):
        pairing_from_dict({**doc, "degree_cap": doc["degree_cap"] + 1})
    with pytest.raises(FormatError):
        pairing_from_dict({**doc, "matrix": doc["matrix"][:1]})
    from foxtwist.fox_pairings import FoxPairing
    from foxtwist.group_algebra import GroupAlgebraElement
    with pytest.raises(FormatError):
        pairing_to_dict(FoxPairing.inner(GroupAlgebraElement.one(2)))


def test_twist_roundtrip():
    spec = SurfaceSpec(1, 4)
    t = generalized_dehn_twist(spec, CurveSpec(spec.parse_curve("a")))
    doc = twist_to_dict(t)
    assert doc["rank"] == 2 and doc["degree_cap"] == t.cap
    assert twist_from_dict(doc) == t


def test_twist_validation():
    t = TwistAutomorphism.identity(2, 3)
    doc = twist_to_dict(t)
    with pytest.raises(FormatError):
        twist_from_dict({**doc, "images": doc["images"][:1]})
    bad_constant = {
        "rank": 1, "degree_cap": 3,
        "images": [{"degree_cap": 3, "terms": [{"word": [1], "coeff": "1"}]}],
    }
    with pytest.raises(FormatError):
        twist_from_dict(bad_constant)


def test_expansion_roundtrip():
    e = build_symplectic_expansion(1, 4)
    doc = expansion_to_dict(e)
    back = expansion_from_dict(doc)
    assert back.images == e.images
    assert back.genus == 1 and back.cap == 4
    # exponents are an in-memory construction detail and do not travel
    assert back.exponents is None


def test_expansion_validation():
    e = build_symplectic_expansion(1, 4)
    doc = expansion_to_dict(e)
    with pytest.raises(FormatError):
        expansion_from_dict({**doc, "genus": 2})
    scrambled = {**doc, "images": [doc["images"][1], doc["images"][0]]}
    with pytest.raises(FormatError):
        expansion_from_dict(scrambled)


def test_automorphism_loaders_keep_their_error_texts():
    doc = expansion_to_dict(build_symplectic_expansion(1, 4))
    with pytest.raises(FormatError, match="^need one image per basis direction$"):
        expansion_from_dict({**doc, "images": doc["images"][:1]})
    scrambled = {**doc, "images": [doc["images"][1], doc["images"][0]]}
    with pytest.raises(FormatError, match="^degree-1 part of image 1 is not the basis vector$"):
        expansion_from_dict(scrambled)
    doc = twist_to_dict(TwistAutomorphism.identity(2, 3))
    with pytest.raises(FormatError, match="^need one image per generator$"):
        twist_from_dict({**doc, "images": doc["images"][:1]})
    with pytest.raises(FormatError, match="^image cap must equal degree_cap$"):
        twist_from_dict({**doc, "degree_cap": 4})


def test_dumps_is_byte_deterministic():
    pairing = surface_pairing(SurfaceSpec(1, 3))
    assert dumps(pairing_to_dict(pairing)) == dumps(pairing_to_dict(pairing))
    assert dumps({"a": 1}).endswith("\n")


def test_file_roundtrip(tmp_path):
    path = tmp_path / "twist.json"
    t = TwistAutomorphism.identity(2, 3)
    write_json(path, twist_to_dict(t))
    assert twist_from_dict(read_json(path)) == t


def test_read_json_rejects_malformed_files(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        read_json(path)


@pytest.mark.parametrize("rank, cap", [(1, 1), (1, 5), (2, 4), (3, 5)])
def test_series_text_is_the_fraction_text_in_shortlex_order(rank, cap):
    rng = random.Random(rank * 100 + cap)
    for den in (1, 2, 12, 35):
        terms = {tuple(rng.randint(1, rank) for _ in range(rng.randint(0, cap - 1))):
                 Fraction(rng.randint(-40, 40), den) for _ in range(8)}
        s = TruncatedSeries(rank, cap, terms)
        doc = series_to_dict(s)
        words = [tuple(t["word"]) for t in doc["terms"]]
        assert words == sorted(s.terms, key=lambda m: (len(m), m))
        assert [t["coeff"] for t in doc["terms"]] == [str(s.terms[w]) for w in words]


# -- dumps against the stdlib -------------------------------------------


def _stdlib(data):
    """The oracle: what dumps must write for every document."""
    return json.dumps(data, indent=2) + "\n"


def _cli_json(capsys, *argv):
    assert main([*argv, "--format", "json"]) == 0
    return capsys.readouterr().out


def _genus1_twist_document():
    spec = SurfaceSpec(1, 5)
    curve = CurveSpec(spec.parse_curve("a b a b^-1"), Fraction(1, 3))
    return twist_to_dict(generalized_dehn_twist(spec, curve))


def test_dumps_writes_every_document_kind_as_the_stdlib_does(capsys):
    documents = [
        series_to_dict(TruncatedSeries(2, 4, {(2, 1): Fraction(-1, 3), (1,): 2, (): 7})),
        series_to_dict(TruncatedSeries(1, 3, {})),
        pairing_to_dict(surface_pairing_exact(2).embedded(5)),
        pairing_to_dict(pairing_of_nabla(boundary_nabla(SurfaceSpec(1, 3)))),
        _genus1_twist_document(),
        expansion_to_dict(build_symplectic_expansion(2, 4)),
        run_suite("all", 3),
    ]
    for document in documents:
        assert dumps(document) == _stdlib(document)
    outputs = [
        _cli_json(capsys, "pairing", "--surface", "genus:1", "--degree", "4"),
        _cli_json(capsys, "twist", "--surface", "genus:1", "--curve", "a b a b^-1",
                  "--k", "-3/4", "--degree", "5"),
        _cli_json(capsys, "twist", "--surface", "genus:1", "--curve", "a",
                  "--degree", "4", "--apply", "b"),
        _cli_json(capsys, "verify", "--suite", "all", "--degree", "3"),
    ]
    for out in outputs:
        assert out == _stdlib(json.loads(out))


_TEXT = "aZ09 \"\\/\x00\x01\x1f\x7f\n\r\t\bé \U0001f600ß\ud800"
_FLOATS = (0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, 1e16, 123456789.125,
           math.nan, math.inf, -math.inf)


def _random_leaf(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice((0, 1, -1, 7, -10**30, 2**64)) + rng.randrange(-3, 4)
    if kind == 2:
        return rng.choice((True, False))
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(_FLOATS)
    return rng.uniform(-1e6, 1e6)


def _random_key(rng):
    key = _random_leaf(rng)
    return key if rng.randrange(3) else str(key)


def _random_document(rng, depth=0):
    kind = rng.randrange(4 if depth < 4 else 1)
    if kind == 0:
        return _random_leaf(rng)
    size = rng.choice((0, 1, 2, 3, 5))
    if kind == 1:
        return [_random_document(rng, depth + 1) for _ in range(size)]
    if kind == 2:
        return tuple(_random_document(rng, depth + 1) for _ in range(size))
    return {_random_key(rng): _random_document(rng, depth + 1) for _ in range(size)}


def test_dumps_writes_random_documents_as_the_stdlib_does():
    rng = random.Random(2011)
    for _ in range(500):
        document = _random_document(rng)
        assert dumps(document) == _stdlib(document), document
    nested_empty = {"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": [{}]}, "": ()}
    assert dumps(nested_empty) == _stdlib(nested_empty)
    for leaf in ([], {}, (), "", 0, True, False, None, math.nan, -math.inf):
        assert dumps(leaf) == _stdlib(leaf)


@pytest.mark.parametrize("document", [
    Fraction(1, 2),
    {"terms": [{"word": [1], "coeff": Fraction(1, 2)}]},
    [1, (2, {Fraction(1, 2): 3})],
])
def test_dumps_refuses_what_the_stdlib_refuses(document):
    with pytest.raises(TypeError) as expected:
        json.dumps(document, indent=2)
    with pytest.raises(TypeError) as got:
        dumps(document)
    assert str(got.value) == str(expected.value)


def test_dumps_leaves_no_cyclic_garbage():
    document = _genus1_twist_document()
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            dumps(document)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_write_json_keeps_the_file_when_the_document_fails(tmp_path):
    path = tmp_path / "twist.json"
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(TypeError):
        write_json(path, {"coeff": Fraction(1, 2)})
    assert path.read_text(encoding="utf-8") == "kept\n"


def _self_containing_dict():
    document = {"name": "loop", "terms": []}
    document["terms"].append({"inner": document})
    return document


def _self_containing_list():
    document = [1, "two"]
    document.append([document])
    return document


def _deep_nest(depth):
    document = inner = []
    for _ in range(depth):
        inner.append({"down": []})
        inner = inner[-1]["down"]
    return document


@pytest.mark.parametrize("document", [_self_containing_dict(), _self_containing_list()])
def test_dumps_refuses_a_document_that_contains_itself_as_the_stdlib_does(document):
    with pytest.raises(ValueError) as expected:
        json.dumps(document, indent=2)
    with pytest.raises(ValueError) as got:
        dumps(document)
    assert str(got.value) == str(expected.value) == "Circular reference detected"


def test_dumps_raises_recursion_error_on_a_deep_acyclic_document_as_the_stdlib_does():
    document = _deep_nest(5000)
    with pytest.raises(RecursionError) as expected:
        json.dumps(document, indent=2)
    with pytest.raises(RecursionError) as got:
        dumps(document)
    # The depth at which the interpreter gives up words the message; the
    # type and its opening words are json's.
    assert str(expected.value).startswith("maximum recursion depth exceeded")
    assert str(got.value).startswith("maximum recursion depth exceeded")


def test_dumps_writes_shared_acyclic_containers_as_the_stdlib_does():
    leaf = {"x": [1, 2]}
    document = {"a": [leaf, leaf], "b": (leaf, [leaf])}
    assert dumps(document) == _stdlib(document)
