"""Command line interface: build pairings, compute twists, run suites.

Exit codes: 0 on success, 1 when a verification or domain-level check
fails (degenerate nabla, non-isotropic curve, failing suite), 2 on
malformed input.  All numbers print as exact fractions and identical
invocations produce byte-identical output.  A twist solves its pairing
only to the twist's cap, and one parser, built by the first ``main()``
call, serves every call in the process.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import formats
from .derived_twists import _twist
from .errors import FoxTwistError
from .fox_pairings import NablaElement, pairing_of_nabla
from .formats import FormatError
from .series import shortlex
from .surfaces import SurfaceSpec, surface_pairing
from .verify import SUITE_NAMES, report_passed, run_suite
from .words import parse_word


# Working degrees the CLI accepts, from --degree or implied by a file.
DEGREES = range(2, 9)

# Largest rank^d, about the terms of one series, that an input of the
# given rank may ask for at working degree d: 6^6 admits genus 1 up to
# degree 8, genus 2 up to degree 7 and genus 3 up to degree 6.
SURFACE_TERM_BUDGET = 6 ** 6


class InputError(Exception):
    """Bad configuration or unparsable input; exits with code 2."""


def _parse_surface(text: str, degree: int) -> int:
    """The genus of genus:<g>, rejected when (2g)^degree exceeds
    SURFACE_TERM_BUDGET."""
    head, sep, tail = text.partition(":")
    if head != "genus" or not sep:
        raise InputError(f"--surface expects genus:<g>, got {text!r}")
    try:
        genus = int(tail)
    except ValueError:
        raise InputError(f"bad genus {tail!r}") from None
    if genus < 1:
        raise InputError("genus must be at least 1")
    _check_budget(2 * genus, degree, f"genus {genus}")
    return genus


def _check_budget(rank, degree, source):
    """Reject a source of this rank at this working degree, before any
    work starts, when rank^degree exceeds SURFACE_TERM_BUDGET."""
    if rank ** degree > SURFACE_TERM_BUDGET:
        raise InputError(f"{source} (rank {rank}) at degree {degree} needs about "
                         f"rank^d = {rank ** degree} terms per series, over "
                         f"SURFACE_TERM_BUDGET = {SURFACE_TERM_BUDGET}")


def _parse_k(text: str) -> Fraction:
    """--k by the file formats' rule for exact fraction text, p or p/q."""
    try:
        return formats._coefficient(text)
    except ValueError:
        raise InputError(f"--k expects an exact fraction p or p/q, got {text!r}") from None


def _load_pairing_source(args, drop=0):
    """Resolve --surface/--pairing/--nabla into (pairing, curve-parser), the
    pairing cut by drop degrees: a nabla file, checked in full, is solved cut."""
    sources = [name for name in ("surface", "pairing", "nabla")
               if getattr(args, name, None)]
    if len(sources) != 1:
        raise InputError("exactly one of --surface, --pairing, --nabla is required")
    if args.surface:
        spec = SurfaceSpec(_parse_surface(args.surface, args.degree), args.degree)
        return _cut(surface_pairing(spec), drop), spec.parse_curve
    if getattr(args, "pairing", None):
        pairing = _cut(formats.pairing_from_dict(_read(args.pairing, 0)), drop)
    else:
        series = formats.series_from_dict(_read(args.nabla, 4))
        _check_budget(series.rank, series.cap - 4, args.nabla)
        pairing = pairing_of_nabla(NablaElement(_cut(series, drop)))
    return pairing, lambda text: parse_word(text, pairing.rank)


def _cut(value, drop):
    """A pairing or series cut by drop degrees; itself when drop is 0."""
    return value.truncate(value.cap - drop) if drop else value


def _read(path, offset):
    """Read a pairing (offset 0) or nabla (offset 4) file and reject it
    when the working degree it implies, degree_cap - offset, is outside
    DEGREES, or when its rank field puts it over the term budget.  A
    missing or non-integer degree_cap or rank is left to the loader."""
    try:
        doc = formats.read_json(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("degree_cap"), int):
        return doc
    degree = doc["degree_cap"] - offset
    if degree not in DEGREES:
        raise InputError(f"{path}: degree_cap {doc['degree_cap']} implies degree {degree}, "
                         f"outside {DEGREES.start}..{DEGREES.stop - 1}")
    if isinstance(doc.get("rank"), int):
        _check_budget(doc["rank"], degree, path)
    return doc


def _render_series(series) -> str:
    if series.is_zero():
        return "0"
    parts = []
    for monomial, coeff in sorted(series.terms.items(), key=lambda kv: shortlex(kv[0])):
        body = " ".join(f"X{i}" for i in monomial)
        if not monomial:
            text = str(coeff)
        elif coeff == 1:
            text = body
        elif coeff == -1:
            text = f"-{body}"
        else:
            text = f"{coeff} {body}"
        if parts and not text.startswith("-"):
            parts.append(f"+ {text}")
        elif parts:
            parts.append(f"- {text[1:]}")
        else:
            parts.append(text)
    return " ".join(parts)


def _emit(args, text_lines, document, saved=None):
    """Print per --format; write the JSON document saved (by default the
    printed one, encoded once for both) to --out when given."""
    printed = formats.dumps(document) if args.format == "json" else None
    if args.out:
        text = formats.dumps(saved) if saved is not None else printed or formats.dumps(document)
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    if printed:
        sys.stdout.write(printed)
    else:
        for line in text_lines:
            print(line)
        if args.out:
            print(f"wrote: {args.out}")


def cmd_pairing(args) -> int:
    pairing, _ = _load_pairing_source(args)
    form = pairing.homological_form()
    doc = formats.pairing_to_dict(pairing)
    lines = [f"rank: {pairing.rank}", f"degree cap: {doc['degree_cap']}",
             "homological form:"]
    lines += ["[" + ", ".join(str(v) for v in row) + "]" for row in form]
    wrapper = {"rank": pairing.rank, "degree_cap": doc["degree_cap"],
               "homological_form": [[str(v) for v in row] for row in form]}
    if not args.out:
        wrapper["pairing"] = doc
    _emit(args, lines, wrapper, doc)
    return 0


def cmd_twist(args) -> int:
    if not args.curve:
        raise InputError("--curve is required")
    k = _parse_k(args.k)
    # The twist reads only the entries below its cap (``fox_pairings``).
    pairing, parse_curve = _load_pairing_source(args, 2)
    try:
        word = parse_curve(args.curve)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    automorphism = _twist(pairing, k, word, pairing.cap)
    if args.apply is not None:
        try:
            target = parse_curve(args.apply)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        image = automorphism.apply_word(target)
        doc = {"word": list(target.letters), "degree_cap": image.cap,
               "image": formats.series_to_dict(image)}
        lines = [f"iota({args.apply.strip() or '1'}) -> {_render_series(image)}"]
        _emit(args, lines, doc)
        return 0
    doc = formats.twist_to_dict(automorphism)
    lines = [f"rank: {automorphism.rank}", f"degree cap: {automorphism.cap}"]
    lines += [f"x{i + 1} -> {_render_series(image)}"
              for i, image in enumerate(automorphism.images)]
    _emit(args, lines, doc)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.degree)
    passed = report_passed(report)
    lines = []
    for entry in report["checks"]:
        mark = "PASS" if entry["pass"] else "FAIL"
        line = f"{mark} {entry['name']}"
        if not entry["pass"] and "witness" in entry:
            line += f"  witness: {json.dumps(entry['witness'], sort_keys=True)}"
        lines.append(line)
    total = len(report["checks"])
    good = sum(1 for entry in report["checks"] if entry["pass"])
    lines.append(f"suite {report['suite']}: {good}/{total} checks passed")
    _emit(args, lines, report)
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foxtwist",
        description="Exact Fox pairings and generalized Dehn twists on free groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_curve):
        p.add_argument("--surface", help="surface preset, e.g. genus:1")
        p.add_argument("--pairing", help="pairing JSON file")
        p.add_argument("--nabla", help="nabla series JSON file")
        p.add_argument("--degree", type=int, default=5,
                       help="degree cap in 2..8 (default 5)")
        if with_curve:
            p.add_argument("--curve", help="curve word, e.g. 'a b a^-1 b^-1'")
            p.add_argument("--k", default="1/2",
                           help="twist parameter as an exact fraction (default 1/2)")
            p.add_argument("--apply",
                           help="print the image of this word instead of the twist file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the JSON artifact to this path")

    add_common(sub.add_parser("pairing", help="build a Fox pairing"), False)
    add_common(sub.add_parser("twist", help="compute a generalized Dehn twist"), True)
    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", default="all",
                          help="one of %s or all" % ", ".join(SUITE_NAMES))
    p_verify.add_argument("--degree", type=int, default=5,
                          help="degree cap in 2..8 (default 5)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", help="write the JSON report to this path")
    return parser


# The argparse tree, built by the first main() call and kept for the process.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    parser = _PARSER = _PARSER or _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate negative fraction such as -3/4 as an option.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--k" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = ["--k=" + argv[i]]
    args = parser.parse_args(argv)
    if args.degree not in DEGREES:
        parser.exit(2, f"degree must be in {DEGREES.start}..{DEGREES.stop - 1}\n")
    handlers = {"pairing": cmd_pairing, "twist": cmd_twist, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (InputError, FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FoxTwistError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
