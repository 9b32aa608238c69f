"""Verification suites: all green at a small degree, deterministic reports."""

import pytest

from foxtwist.verify import SUITE_NAMES, report_passed, run_suite


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_at_degree_3(name):
    report = run_suite(name, 3)
    assert report["suite"] == name
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert not failing
    assert report["checks"], "suite must contain checks"
    for check in report["checks"]:
        assert isinstance(check["name"], str)
        assert isinstance(check["pass"], bool)


def test_all_suite_prefixes_names():
    report = run_suite("all", 3)
    assert report["suite"] == "all"
    assert report_passed(report)
    prefixes = {c["name"].split("/", 1)[0] for c in report["checks"]}
    assert prefixes == set(SUITE_NAMES)


def test_reports_record_their_degree():
    # No check name, flag or witness changes between degrees 3 and 5,
    # so before the degree was recorded the two reports were equal.
    low, high = run_suite("all", 3), run_suite("all", 5)
    assert low["degree"] == 3 and high["degree"] == 5
    assert list(low) == ["suite", "degree", "checks"]
    assert {**low, "degree": 5} == high
    assert run_suite("hopf", 4)["degree"] == 4


def test_reports_are_deterministic():
    a = run_suite("fox-laws", 3)
    b = run_suite("fox-laws", 3)
    assert a == b


def test_run_suite_validates_inputs():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", 3)
    with pytest.raises(ValueError):
        run_suite("hopf", 1)
    with pytest.raises(ValueError):
        run_suite("hopf", 9)


def test_report_passed_flags_failures():
    assert report_passed({"checks": [{"name": "x", "pass": True}]})
    assert not report_passed({"checks": [{"name": "x", "pass": True},
                                         {"name": "y", "pass": False}]})
