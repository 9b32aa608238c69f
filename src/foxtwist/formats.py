"""JSON files for series, pairings, twists, and expansions.

Coefficients travel as exact fraction text ("p/q" or "p", never a
decimal) and every writer emits terms in one fixed order, so equal
objects serialize to identical bytes.  Series payloads carry no rank:
enclosing documents supply it, and standalone loaders infer the
smallest alphabet that fits.  ``series_from_dict`` checks each term in
one pass, parses each distinct coefficient text once per payload and
builds the int numerators over one denominator from those parses.

Every document is written by ``dumps``: the bytes of
``json.dumps(data, indent=2)`` plus a newline, written in one pass over
the stdlib's C string encoder, with no cyclic garbage left behind.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .derived_twists import TwistAutomorphism
from .fox_pairings import FoxPairing
from .series import (
    TruncatedSeries,
    _FRACTION_TEXT,
    _int_split,
    _positive_int,
    as_fraction,
    nonzero,
    shortlex,
)
from .symplectic_tensor import SymplecticExpansion


class FormatError(ValueError):
    """Malformed or internally inconsistent JSON payload."""


def _require(condition, message):
    if not condition:
        raise FormatError(message)


def _coefficient(text) -> Fraction:
    """Exact fraction text as a Fraction, by ``as_fraction``'s rule.  Digits
    past the interpreter's int limit are a FormatError that does not echo them."""
    _require(isinstance(text, str), f"coefficient {text!r} is not exact fraction text")
    try:
        return as_fraction(text)
    except ValueError:
        _require(_FRACTION_TEXT.match(text), f"coefficient {text!r} is not exact fraction text")
        raise FormatError(f"{len(text)}-character coefficient exceeds the digit limit") from None


# -- series ------------------------------------------------------------


def series_to_dict(series) -> dict:
    """Terms in shortlex order, each coefficient as reduced "p/q" text from num and den."""
    num, den = series.num, series.den
    terms = []
    for word in sorted(num, key=shortlex):
        g = math.gcd(num[word], den)
        p, q = num[word] // g, den // g
        terms.append({"word": list(word), "coeff": f"{p}/{q}" if q > 1 else str(p)})
    return {"degree_cap": series.cap, "terms": terms}


def series_from_dict(data, rank=None) -> TruncatedSeries:
    _require(isinstance(data, dict), "series payload must be an object")
    cap = data.get("degree_cap")
    _require(_positive_int(cap), "degree_cap must be a positive integer")
    raw = data.get("terms")
    _require(isinstance(raw, list), "terms must be a list")
    terms = {}  # word -> coefficient text
    parsed = {}  # str text -> Fraction; other values fail in _coefficient
    top = 0
    for item in raw:
        if not isinstance(item, dict):
            raise FormatError("each term must be an object")
        word = item.get("word")
        if not isinstance(word, list):
            raise FormatError("term word must be a list of letters")
        for letter in word:
            if type(letter) is not int or letter < 1:  # the _positive_int rule
                raise FormatError("letters must be positive integers")
            if letter > top:
                top = letter
        if len(word) >= cap:
            raise FormatError("term degree reaches the cap")
        text = item.get("coeff")
        if type(text) is not str or text not in parsed:
            parsed[text] = _coefficient(text)
        key = tuple(word)
        if key in terms:
            raise FormatError("duplicate term word")
        terms[key] = text
    if rank is None:
        rank = max(top, 1)
    _require(_positive_int(rank), "rank must be a positive integer")
    _require(top <= rank, "letters exceed the rank")
    # Every letter, degree and coefficient is checked above, so the
    # validating constructor would only repeat the work.
    scaled, den = _int_split(parsed)
    return TruncatedSeries._raw(rank, cap, nonzero({key: scaled[text]
                                                    for key, text in terms.items()}), den)


# -- pairings ----------------------------------------------------------


def pairing_to_dict(pairing) -> dict:
    """Envelope degree_cap is the working degree (the degree rule in
    ``fox_pairings``)."""
    _require(pairing.cap is not None,
             "only truncated pairings have a file format")
    _require(pairing.cap >= 3, "pairing cap too small to serialize")
    return {
        "rank": pairing.rank,
        "representation": "truncated",
        "degree_cap": pairing.cap - 2,
        "matrix": [[series_to_dict(entry) for entry in row] for row in pairing.matrix],
    }


def pairing_from_dict(data) -> FoxPairing:
    _require(isinstance(data, dict), "pairing payload must be an object")
    rank = data.get("rank")
    _require(_positive_int(rank), "rank must be a positive integer")
    _require(data.get("representation") == "truncated",
             "representation must be 'truncated'")
    cap = data.get("degree_cap")
    _require(_positive_int(cap), "degree_cap must be a positive integer")
    matrix = data.get("matrix")
    _require(isinstance(matrix, list) and len(matrix) == rank
             and all(isinstance(row, list) and len(row) == rank for row in matrix),
             "matrix must be rank x rank")
    entries = []
    for row in matrix:
        out_row = []
        for cell in row:
            entry = series_from_dict(cell, rank=rank)
            _require(entry.cap == cap + 2,
                     "entry cap must sit two degrees above degree_cap")
            out_row.append(entry)
        entries.append(out_row)
    return FoxPairing(entries)


# -- twists ------------------------------------------------------------


def twist_to_dict(automorphism) -> dict:
    return {
        "rank": automorphism.rank,
        "degree_cap": automorphism.cap,
        "images": [series_to_dict(image) for image in automorphism.images],
    }


def _automorphism_from_dict(data, rank, count_message, build):
    """build(cap, images) from the degree_cap and images of a twist or
    expansion payload, with its ValueError as a FormatError."""
    cap = data.get("degree_cap")
    _require(_positive_int(cap), "degree_cap must be a positive integer")
    raw = data.get("images")
    _require(isinstance(raw, list) and len(raw) == rank, count_message)
    images = [series_from_dict(item, rank=rank) for item in raw]
    for image in images:
        _require(image.cap == cap, "image cap must equal degree_cap")
    try:
        return build(cap, images)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def twist_from_dict(data) -> TwistAutomorphism:
    _require(isinstance(data, dict), "twist payload must be an object")
    rank = data.get("rank")
    _require(_positive_int(rank), "rank must be a positive integer")
    return _automorphism_from_dict(data, rank, "need one image per generator",
                                   lambda cap, images: TwistAutomorphism(rank, cap, images))


# -- symplectic expansions ----------------------------------------------


def expansion_to_dict(expansion) -> dict:
    return {
        "genus": expansion.genus,
        "degree_cap": expansion.cap,
        "images": [series_to_dict(image) for image in expansion.images],
    }


def expansion_from_dict(data) -> SymplecticExpansion:
    _require(isinstance(data, dict), "expansion payload must be an object")
    genus = data.get("genus")
    _require(_positive_int(genus), "genus must be a positive integer")
    return _automorphism_from_dict(data, 2 * genus, "need one image per basis direction",
                                   lambda cap, images: SymplecticExpansion(genus, cap, images))


# -- files --------------------------------------------------------------


# float.__repr__ text -> json's text for the three non-finite floats.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(value):
    """json's text for None, a bool, an int or a float; None for anything else."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    return None


def _key(key):
    text = key if isinstance(key, str) else _scalar(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return _encode_str(text)


def _write(value, newline, out):
    """Append value's JSON text to out; newline is a line break plus the
    current indent.  Each container's last separator is overwritten by its
    close."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value.__class__ is int:  # word letters, the commonest leaf
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "," + inner
        out.append("{" + inner)
        for key, item in value.items():
            out.append(_key(key) + ": ")
            _write(item, inner, out)
            out.append(separator)
        out[-1] = newline + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        out.append("[" + inner)
        for item in value:
            _write(item, inner, out)
            out.append(separator)
        out[-1] = newline + "]"
    else:
        text = _scalar(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            f"is not JSON serializable")
        out.append(text)


def dumps(data) -> str:
    """The bytes of ``json.dumps(data, indent=2)`` plus a newline, written
    in one pass with no cyclic garbage.  A key or leaf that json refuses
    raises TypeError with json's message, and a document that contains
    itself ValueError; a deep one raises RecursionError, as json does."""
    out = []
    try:
        _write(data, "\n", out)
    except RecursionError:
        # A cycle or a deep nest: json's own walk raises its ValueError for
        # the first and RecursionError for the second, else ours stands.
        json.dumps(data, indent=2)
        raise
    out.append("\n")
    return "".join(out)


def write_json(path, data):
    """Write dumps(data) to path.  The text is built before the file is
    opened, so a document that fails to encode leaves the file untouched."""
    text = dumps(data)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from None
