"""Command line behaviors: outputs, exit codes, artifacts, determinism."""

import json

import pytest

from foxtwist import cli, formats
from foxtwist.cli import DEGREES, main
from foxtwist.derived_twists import twist
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.words import MAX_WORD_LENGTH
from test_formats import int_digit_limit  # noqa: F401 (a fixture)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pairing_text_output(capsys):
    code, out, err = run(capsys, "pairing", "--surface", "genus:1", "--degree", "4")
    assert code == 0 and err == ""
    assert "rank: 2" in out
    assert "degree cap: 4" in out
    assert "[0, -1]" in out and "[1, 0]" in out


def test_pairing_json_output(capsys):
    code, out, _ = run(capsys, "pairing", "--surface", "genus:1",
                       "--degree", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2
    assert doc["degree_cap"] == 3
    assert doc["homological_form"] == [["0", "-1"], ["1", "0"]]
    inner = formats.pairing_from_dict(doc["pairing"])
    assert inner == surface_pairing(SurfaceSpec(1, 3))


def test_pairing_out_file(tmp_path, capsys):
    path = tmp_path / "pairing.json"
    code, out, _ = run(capsys, "pairing", "--surface", "genus:1",
                       "--degree", "3", "--out", str(path))
    assert code == 0
    assert f"wrote: {path}" in out
    assert formats.pairing_from_dict(formats.read_json(path)) == surface_pairing(SurfaceSpec(1, 3))


def test_twist_apply_frozen_series(capsys):
    code, out, _ = run(capsys, "twist", "--surface", "genus:1", "--curve", "a",
                       "--k", "1/2", "--degree", "5", "--apply", "b")
    assert code == 0
    assert out.strip() == ("iota(b) -> 1 - X1 + X2 + X1 X1 - X2 X1 - X1 X1 X1 "
                           "+ X2 X1 X1 + X1 X1 X1 X1 - X2 X1 X1 X1")


def test_twist_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "twist.json"
    code, out, _ = run(capsys, "twist", "--surface", "genus:1", "--curve", "a b",
                       "--k", "1/3", "--degree", "4", "--out", str(path))
    assert code == 0
    spec = SurfaceSpec(1, 4)
    want = twist(surface_pairing(spec), "1/3", spec.parse_curve("a b"))
    assert formats.twist_from_dict(formats.read_json(path)) == want
    assert "x1 ->" in out and "x2 ->" in out


def test_twist_from_pairing_file(tmp_path, capsys):
    path = tmp_path / "pairing.json"
    run(capsys, "pairing", "--surface", "genus:1", "--degree", "4", "--out", str(path))
    code, out, _ = run(capsys, "twist", "--pairing", str(path), "--curve", "x1",
                       "--apply", "x2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == [2]
    spec = SurfaceSpec(1, 4)
    want = twist(surface_pairing(spec), "1/2", spec.parse_curve("a")).apply_word(
        spec.parse_curve("b"))
    assert formats.series_from_dict(doc["image"], rank=2) == want


def test_twist_from_nabla_file(tmp_path, capsys):
    from foxtwist.surfaces import boundary_nabla
    path = tmp_path / "nabla.json"
    nabla = boundary_nabla(SurfaceSpec(1, 5))
    formats.write_json(path, formats.series_to_dict(nabla.series))
    code, out, _ = run(capsys, "twist", "--nabla", str(path), "--curve", "x1 x2^-1")
    assert code == 0
    assert "x1 ->" in out
    assert "degree cap: 3" in out


def test_verify_suite_text(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "figure-eight", "--degree", "4")
    assert code == 0
    assert "suite figure-eight: 12/12 checks passed" in out
    assert "FAIL" not in out


def test_verify_report_out(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "hopf", "--degree", "3",
                     "--format", "json", "--out", str(path))
    assert code == 0
    report = formats.read_json(path)
    assert report["suite"] == "hopf"
    assert all(entry["pass"] for entry in report["checks"])


@pytest.mark.parametrize("argv", [
    ("pairing", "--surface", "genus:1", "--degree", "2"),
    ("twist", "--surface", "genus:1", "--curve", "a b", "--degree", "3"),
    ("verify", "--suite", "hopf", "--degree", "3"),
])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_exit_2_when_out_cannot_be_written(tmp_path, capsys, argv, where):
    path = tmp_path / "no-such-dir" / "x.json" if where == "missing" else tmp_path
    for fmt in ("text", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, encodings", [
    (("twist", "--surface", "genus:1", "--curve", "a b a b^-1", "--k", "1/3", "--degree", "5"), 1),
    (("verify", "--suite", "all", "--degree", "3"), 1),
    (("pairing", "--surface", "genus:2", "--degree", "3"), 2),
])
def test_a_document_printed_and_written_is_encoded_once(tmp_path, capsys, monkeypatch,
                                                        argv, encodings):
    path = tmp_path / "out.json"
    _, alone, _ = run(capsys, *argv, "--format", "json")
    calls = []
    real = formats.dumps
    monkeypatch.setattr(formats, "dumps", lambda data: calls.append(1) or real(data))
    code, printed, err = run(capsys, *argv, "--format", "json", "--out", str(path))
    assert code == 0 and err == ""
    assert len(calls) == encodings
    written = path.read_text(encoding="utf-8")
    assert written == json.dumps(json.loads(written), indent=2) + "\n"
    if encodings == 1:
        assert written == printed == alone


def test_exit_2_on_a_coefficient_past_the_digit_limit(tmp_path, capsys, int_digit_limit):
    for coeff in ("7" * 5000, "1/" + "7" * 5000):
        path = tmp_path / "nabla.json"
        formats.write_json(path, {"degree_cap": 6, "terms": [
            {"word": [1, 2], "coeff": "-1"},
            {"word": [2, 1], "coeff": coeff},
        ]})
        code, out, err = run(capsys, "pairing", "--nabla", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {len(coeff)}-character coefficient exceeds the digit limit\n"


def test_output_is_byte_identical_across_runs(capsys):
    argv = ("twist", "--surface", "genus:1", "--curve", "a", "--degree", "4",
            "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_negative_k_after_a_space_reads_as_with_equals(capsys):
    base = ("twist", "--surface", "genus:1", "--curve", "b", "--degree", "4", "--format", "json")
    for k in ("-3/4", "-2"):
        code, spaced, err = run(capsys, *base, "--k", k)
        assert code == 0, err
        _, joined, _ = run(capsys, *base, f"--k={k}")
        _, positive, _ = run(capsys, *base, "--k", k[1:])
        assert spaced == joined != positive
    # Only a negative numeral joins --k: an option after it is still an option.
    with pytest.raises(SystemExit) as exit_info:
        main([*base, "--k", "--format", "json"])
    assert exit_info.value.code == 2
    assert "--k: expected one argument" in capsys.readouterr().err


def test_exit_2_on_bad_inputs(capsys):
    cases = [
        ("pairing", "--surface", "genus:zero"),
        ("pairing",),
        ("pairing", "--surface", "genus:1", "--nabla", "x.json"),
        ("twist", "--surface", "genus:1"),
        ("twist", "--surface", "genus:1", "--curve", "q9"),
        ("twist", "--surface", "genus:1", "--curve", f"a^{MAX_WORD_LENGTH + 1}"),
        ("twist", "--surface", "genus:1", "--curve", "a", "--k", "one"),
        ("twist", "--surface", "genus:1", "--curve", "a", "--k", "1/0"),
        # --k is exact fraction text, p or p/q: exponent notation is refused
        # before Fraction would expand it, and decimals are refused too.
        ("twist", "--surface", "genus:1", "--curve", "a", "--k", "1e999999999"),
        ("twist", "--surface", "genus:1", "--curve", "a", "--k", "0.5"),
        ("verify", "--suite", "no-such-suite"),
        ("pairing", "--pairing", "does-not-exist.json"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err


def test_twist_checks_curve_and_k_before_reading_the_source(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the source was read before --curve and --k were checked")

    monkeypatch.setattr(formats, "read_json", refuse)
    monkeypatch.setattr(cli, "pairing_of_nabla", refuse)
    path = str(tmp_path / "nabla.json")
    for extra, message in (((), "--curve is required"),
                           (("--curve", ""), "--curve is required"),
                           (("--curve", "x1", "--k", "one"), "--k expects an exact fraction"),
                           (("--curve", "x1", "--k", "1/0"), "--k expects an exact fraction")):
        code, out, err = run(capsys, "twist", "--nabla", path, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


def test_each_command_solves_a_nabla_file_to_the_cap_it_reads(tmp_path, capsys, monkeypatch):
    from foxtwist.surfaces import boundary_nabla
    path = tmp_path / "nabla.json"
    formats.write_json(path, formats.series_to_dict(boundary_nabla(SurfaceSpec(1, 5), 9).series))
    caps = []
    real = cli.pairing_of_nabla
    monkeypatch.setattr(cli, "pairing_of_nabla", lambda nabla: caps.append(nabla.cap) or real(nabla))
    for command, want in ((("pairing",), 9), (("twist", "--curve", "x1"), 7),
                          (("twist", "--curve", "x1", "--apply", "x2"), 7)):
        caps.clear()
        assert run(capsys, *command, "--nabla", str(path))[0] == 0
        assert caps == [want]


def test_one_parser_serves_every_call_and_keeps_no_options(tmp_path, capsys, monkeypatch):
    builds = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or real())
    plain = ("twist", "--surface", "genus:1", "--curve", "a b", "--degree", "4")
    first = run(capsys, *plain)
    path = tmp_path / "image.json"
    code, out, _ = run(capsys, *plain, "--apply", "b", "--format", "json", "--out", str(path))
    assert code == 0 and json.loads(out)["word"] == [2] and path.exists()
    assert run(capsys, *plain) == first
    assert first[0] == 0 and "wrote:" not in first[1] and "x2 ->" in first[1]
    assert run(capsys, "pairing", "--surface", "genus:1", "--degree", "4")[1].startswith("rank: 2")
    assert builds == [1]


def test_exit_2_when_the_surface_exceeds_the_term_budget(capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError("surface_pairing ran for an over-budget surface")

    monkeypatch.setattr(cli, "surface_pairing", refuse)
    for genus, degree in ((4, 6), (2, 8), (1000, 8)):
        assert (2 * genus) ** degree > cli.SURFACE_TERM_BUDGET
        for command in (("pairing",), ("twist", "--curve", "a1")):
            code, out, err = run(capsys, *command, "--surface", f"genus:{genus}",
                                 "--degree", str(degree))
            assert code == 2 and out == ""
            assert "SURFACE_TERM_BUDGET" in err and str(cli.SURFACE_TERM_BUDGET) in err


def test_surface_term_budget_admits_the_documented_grid():
    # Genus 1 degrees 5-8, genus 2 degrees 4-7, genus 3 degrees 4-6.
    for genus, degrees in ((1, range(5, 9)), (2, range(4, 8)), (3, range(4, 7))):
        for degree in degrees:
            assert cli._parse_surface(f"genus:{genus}", degree) == genus


def refuse_work(monkeypatch):
    """Make the pairing solve and the twist fail if an over-budget input
    reaches them."""
    def refuse(*args):
        raise AssertionError("an over-budget input reached the computation")

    monkeypatch.setattr(cli, "pairing_of_nabla", refuse)
    monkeypatch.setattr(cli, "_twist", refuse)


def assert_over_budget(capsys, *source):
    for command in (("pairing",), ("twist", "--curve", "x1")):
        code, out, err = run(capsys, *command, *source)
        assert code == 2 and out == ""
        assert "SURFACE_TERM_BUDGET" in err and str(cli.SURFACE_TERM_BUDGET) in err


def test_exit_2_when_a_pairing_file_exceeds_the_term_budget(tmp_path, capsys, monkeypatch):
    refuse_work(monkeypatch)
    # 40^3 = 64000 terms per series; the budget is checked before the
    # matrix is even parsed.
    path = tmp_path / "pairing.json"
    formats.write_json(path, {"rank": 40, "representation": "truncated",
                              "degree_cap": 3, "matrix": []})
    assert 40 ** 3 > cli.SURFACE_TERM_BUDGET
    assert_over_budget(capsys, "--pairing", str(path))


def test_exit_2_when_a_nabla_file_exceeds_the_term_budget(tmp_path, capsys, monkeypatch):
    refuse_work(monkeypatch)
    # Letters up to 300 at working degree 6 - 4 = 2: 300^2 = 90000 terms.
    path = tmp_path / "nabla.json"
    formats.write_json(path, {"degree_cap": 6, "terms": [
        {"word": [1, 300], "coeff": "-1"},
        {"word": [300, 1], "coeff": "1"},
    ]})
    assert 300 ** 2 > cli.SURFACE_TERM_BUDGET
    assert_over_budget(capsys, "--nabla", str(path))


def test_term_budget_admits_the_bench_nabla_files():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        from inputs import NABLA_CELLS
    finally:
        sys.path.pop(0)
    for genus, cap, *_ in NABLA_CELLS.values():
        cli._check_budget(2 * genus, cap - 4, f"genus {genus} cap {cap}")


def test_exit_2_on_out_of_range_degree(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--degree", "9"])
    assert info.value.code == 2
    capsys.readouterr()


def test_exit_2_on_pairing_file_outside_degree_range(tmp_path, capsys):
    for degree_cap in (DEGREES.start - 1, DEGREES.stop):
        path = tmp_path / f"pairing-{degree_cap}.json"
        entry = {"degree_cap": degree_cap + 2, "terms": [{"word": [], "coeff": "1"}]}
        formats.write_json(path, {"rank": 1, "representation": "truncated",
                                  "degree_cap": degree_cap, "matrix": [[entry]]})
        code, out, err = run(capsys, "twist", "--pairing", str(path), "--curve", "x1")
        assert code == 2 and out == ""
        assert f"degree_cap {degree_cap} implies degree {degree_cap}" in err


def test_exit_2_on_nabla_file_outside_degree_range(tmp_path, capsys, monkeypatch):
    def no_solve(nabla):
        raise AssertionError("pairing_of_nabla ran on an out-of-range file")

    monkeypatch.setattr(cli, "pairing_of_nabla", no_solve)
    for degree_cap in (DEGREES.start + 3, DEGREES.stop + 4):
        path = tmp_path / f"nabla-{degree_cap}.json"
        formats.write_json(path, {"degree_cap": degree_cap, "terms": [
            {"word": [1, 2], "coeff": "-1"},
            {"word": [2, 1], "coeff": "1"},
        ]})
        code, out, err = run(capsys, "pairing", "--nabla", str(path))
        assert code == 2 and out == ""
        assert f"degree_cap {degree_cap} implies degree {degree_cap - 4}" in err


def test_exit_2_on_zero_denominator_in_a_file(tmp_path, capsys):
    path = tmp_path / "nabla.json"
    formats.write_json(path, {"degree_cap": 6, "terms": [
        {"word": [1, 2], "coeff": "-1"},
        {"word": [2, 1], "coeff": "1/0"},
    ]})
    code, out, err = run(capsys, "pairing", "--nabla", str(path))
    assert code == 2 and out == ""
    assert "'1/0' is not exact fraction text" in err


def test_exit_2_on_a_boolean_letter_in_a_file(tmp_path, capsys):
    path = tmp_path / "nabla.json"
    formats.write_json(path, {"degree_cap": 6, "terms": [
        {"word": [1, 2], "coeff": "-1"},
        {"word": [2, True], "coeff": "1"},
    ]})
    code, out, err = run(capsys, "twist", "--nabla", str(path), "--curve", "x1")
    assert code == 2 and out == ""
    assert "letters must be positive integers" in err


def test_exit_1_on_degenerate_nabla(tmp_path, capsys):
    path = tmp_path / "nabla.json"
    # iota(b a) - 1 has a nonzero degree-1 part: no pairing exists.  Cap 6
    # is the smallest nabla cap the CLI accepts (working degree 6 - 4 = 2).
    doc = {"degree_cap": 6, "terms": [
        {"word": [1], "coeff": "1"},
        {"word": [2], "coeff": "1"},
        {"word": [2, 1], "coeff": "1"},
    ]}
    formats.write_json(path, doc)
    code, _, err = run(capsys, "twist", "--nabla", str(path), "--curve", "x1")
    assert code == 1
    assert "NotNondegenerate" in err


def test_exit_1_on_non_isotropic_curve(tmp_path, capsys):
    # symmetric degree-2 nabla: generators pair with themselves to 1
    path = tmp_path / "nabla.json"
    doc = {"degree_cap": 6, "terms": [
        {"word": [1, 1], "coeff": "1"},
        {"word": [2, 2], "coeff": "1"},
    ]}
    formats.write_json(path, doc)
    code, _, err = run(capsys, "twist", "--nabla", str(path), "--curve", "x1")
    assert code == 1
    assert "IsotropyError" in err
