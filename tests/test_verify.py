"""Verification suites: all green at a small degree, deterministic reports."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from foxtwist import formats, verify
from foxtwist.fox_pairings import NablaElement
from foxtwist.series import TruncatedSeries
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


# -- pinned reports ---------------------------------------------------------
#
# The digests below were recorded before the suites were rewritten onto
# one check idiom; a refactor of ``verify`` must reproduce them byte for
# byte.

ALL_SUITE_DIGESTS = {
    3: "bcfa7504f6db6d3028d6a8bc644eacd5171f3c24d1891e18f1c7e1887ba19cff",
    4: "8388aa3edc22ea64d84f9c62b95060c06c51668c751dd784190e8ca6ec703193",
    5: "9b67af47c496e7490812264f4177683b63c087a6487aa84f42f9bed651526558",
}


def _digest(report):
    return hashlib.sha256(formats.dumps(report).encode()).hexdigest()


@pytest.mark.parametrize("degree", sorted(ALL_SUITE_DIGESTS))
def test_all_suite_report_bytes_are_pinned(degree):
    assert _digest(run_suite("all", degree)) == ALL_SUITE_DIGESTS[degree]


# -- the failure path -------------------------------------------------------
#
# Passing reports carry no witnesses, so each scenario patches a library
# call inside ``foxtwist.verify`` to give a wrong answer and pins the
# report it produces: which checks fail, with which witness, and (through
# the digest) every other entry and the order of the random draws after
# the first failure.


def _perturbed(series):
    """A wrong answer of the same rank and cap: series + X_1."""
    return series + TruncatedSeries.variable(series.rank, series.cap, 1)


def _false_on_call(n):
    """A predicate patch that answers False on its n-th call."""
    def patch(real):
        calls = itertools.count(1)
        return lambda *args: next(calls) != n and real(*args)
    return patch


def _fake_report(real):
    return lambda *args, **kwargs: {"ok": False, "checks": [
        {"name": "kept", "pass": True, "witness": None, "detail": 1},
        {"name": "with-witness", "pass": False, "witness": {"word": [1]}, "detail": 2},
        {"name": "without-witness", "pass": False, "witness": None},
    ]}


def _wrong_on_dense_series(real):
    """log, except that a series of more than four terms gets its
    degree-1 part added twice."""
    def log(self):
        return real(self) + (self - 1).degree_part(1) if len(self.terms) > 4 else real(self)
    return log


# scenario: (suite, owner, attribute, patch); the patch maps the real
# attribute to the wrong one that replaces it.
FAILURE_SCENARIOS = {
    "antipode": ("hopf", verify, "antipode", lambda real: lambda x: x),
    "sandwich": ("hopf", verify, "sandwich",
                 lambda real: lambda frames, x: real(frames, x) + 1),
    "log-not-primitive": ("hopf", verify, "is_primitive", lambda real: lambda s: False),
    "combination-not-primitive": ("hopf", verify, "is_primitive", _false_on_call(2)),
    "figure-eight-entries": ("figure-eight", verify, "figure_eight_scenario", _fake_report),
    "boundary-nabla": ("nabla", verify, "boundary_nabla",
                       lambda real: lambda *args: NablaElement(_perturbed(real(*args).series))),
    "nabla-of-pairing": ("nabla", verify, "nabla_of_pairing",
                         lambda real: lambda p: NablaElement(_perturbed(real(p).series))),
    "twist-by-length": ("twist-laws", verify, "twist",
                        lambda real: lambda p, k, curve: real(p, k * len(curve.letters), curve)),
    "s-coefficients": ("symplectic", verify, "S_COEFFICIENTS",
                       lambda real: real[:3] + (Fraction(1),) + real[4:]),
    "section9-entries": ("symplectic", verify, "verify_section9", _fake_report),
    "rho": ("symplectic", verify, "tensorial_rho",
            lambda real: lambda h, x: real(h, x).scale(2)),
    "contraction": ("symplectic", verify, "contraction",
                    lambda real: lambda h, w: real(h, w).scale(2)),
    "commutator": ("appendix-identities", verify, "commutator",
                   lambda real: lambda a, b: real(a, b).scale(2)),
    "log": ("appendix-identities", TruncatedSeries, "log",
            lambda real: lambda self: real(self) + (self - 1) * (self - 1)),
    "dense-log": ("appendix-identities", TruncatedSeries, "log", _wrong_on_dense_series),
    "filtration": ("fox-laws", verify, "fundamental_power_contains",
                   lambda real: lambda x, k: real(x, k + 1)),
}

FAILURE_REPORTS = {
    "antipode": (
        "020d14c9d997ec16c5cd6fef300eb9804a0deb7db11beecd11597d08f9e30d8a",
        [
            {"name": "antipode-inverts-grouplikes",
             "pass": False,
             "witness": {"word": [1], "got": "1", "want": "-1"}},
        ],
    ),
    "boundary-nabla": (
        "d1bdd314fe8226ff060b97fa29dce743a0a5a7fc9a5236181598d0ce8d67dd9f",
        [
            {"name": "defining-identity-genus-1",
             "pass": False,
             "witness": {"word": [], "got": "-3", "want": "0", "input": [-2, -2, -2]}},
            {"name": "defining-identity-genus-2",
             "pass": False,
             "witness": {"word": [1], "got": "2", "want": "1", "input": [1, -4, -3, -3]}},
            {"name": "surface-nabla-roundtrip",
             "pass": False,
             "witness": {"word": [1], "got": "0", "want": "1"}},
        ],
    ),
    "combination-not-primitive": (
        "473068c889f65e8c022220f66e4ad2dd096ed4fc801e6eb197f2da38bbe21568",
        [
            {"name": "log-exp-primitive-grouplike",
             "pass": False,
             "witness": "primitive combination broke under exp"},
        ],
    ),
    "commutator": (
        "b48adba609bc54c43ae0ab4d6dcfb57f5a270783c6517302b3da53e7072b4332",
        [
            {"name": "bch-degree-3",
             "pass": False,
             "witness": {"word": [1, 2], "got": "1/2", "want": "1"}},
            {"name": "hadamard",
             "pass": False,
             "witness": {"word": [1, 1, 2, 2], "got": "0", "want": "1"}},
        ],
    ),
    "contraction": (
        "5c1591168b40457e4527ad305d31a46840ba9d04022f724d97e8bdf0addba695",
        [
            {"name": "omega-contraction",
             "pass": False,
             "witness": {"word": [1], "got": "-2", "want": "-1"}},
        ],
    ),
    "dense-log": (
        "d3315b65aed183ec0eac4234ba5bfc89d133bc68622e0e51cb102bebb458b84d",
        [
            {"name": "bch-degree-3",
             "pass": False,
             "witness": {"word": [1], "got": "2", "want": "1"}},
            {"name": "bch-roundtrip",
             "pass": False,
             "witness": {"word": [1], "got": "2", "want": "1"}},
            {"name": "log-exp-inversion",
             "pass": False,
             "witness": {"word": [2], "got": "-2/3", "want": "-1/3"}},
            {"name": "conjugated-log",
             "pass": False,
             "witness": {"word": [1], "got": "-1/2", "want": "-1"}},
        ],
    ),
    "figure-eight-entries": (
        "a647c5baeb917097fc1df2963ba6ac39e9256f04aa6ce0f07e4adb83d0289495",
        [
            {"name": "k=1/2/with-witness", "pass": False, "witness": {"word": [1]}},
            {"name": "k=1/2/without-witness", "pass": False},
            {"name": "k=1/with-witness", "pass": False, "witness": {"word": [1]}},
            {"name": "k=1/without-witness", "pass": False},
            {"name": "k=0/with-witness", "pass": False, "witness": {"word": [1]}},
            {"name": "k=0/without-witness", "pass": False},
        ],
    ),
    "filtration": (
        "84eb97d46b8fb0bacda87efbf3dd8d133f6845ea8da156b1c51bbf370c2d013c",
        [
            {"name": "pairing-filtration",
             "pass": False,
             "witness": "eta(I^2, I^2) left I^2"},
            {"name": "derived-filtration",
             "pass": False,
             "witness": "sigma(I^4, A) left I^3"},
            {"name": "derived-congruence",
             "pass": False,
             "witness": "congruence fails modulo I^4"},
        ],
    ),
    "log": (
        "3ab927d01b59883a4f23367980fadf9d05a22ca12832d7a9cfd30c6bcf658913",
        [
            {"name": "bch-degree-3",
             "pass": False,
             "witness": {"word": [1, 1], "got": "1", "want": "0"}},
            {"name": "bch-lie-through-5", "pass": False},
            {"name": "bch-roundtrip",
             "pass": False,
             "witness": {"word": [1, 1], "got": "3/2", "want": "1/2"}},
            {"name": "log-exp-inversion",
             "pass": False,
             "witness": {"word": [1, 1], "got": "4/9", "want": "0"}},
            {"name": "log-powers", "pass": False, "witness": "log of power failed at m=-2"},
        ],
    ),
    "log-not-primitive": (
        "b79f8201bce9f7ef1b0d4df1170b8690a58699c7bccc34be2051bc7a08e15668",
        [
            {"name": "log-exp-primitive-grouplike",
             "pass": False,
             "witness": "log of iota(-2, 1) is not primitive"},
        ],
    ),
    "nabla-of-pairing": (
        "55f777c5b9e8bc197ec7a49a8995055316e4b1d6a1080f107eb0995a904fb87d",
        [
            {"name": "surface-nabla-roundtrip",
             "pass": False,
             "witness": {"word": [1], "got": "1", "want": "0"}},
            {"name": "random-nabla-roundtrip",
             "pass": False,
             "witness": {"word": [1], "got": "1", "want": "0"}},
        ],
    ),
    "rho": (
        "78f26079ff5d91f4152575db667c48faec893c53db8c2ff71f4f45635801269d",
        [
            {"name": "rho-boundary-unit",
             "pass": False,
             "witness": {"word": [1], "got": "2", "want": "1"}},
        ],
    ),
    "s-coefficients": (
        "bb43fbbee2eb73be6ceecf8db4d6956574fc1615af9d7575bbb1a3545ef3f3a5",
        [
            {"name": "s-series-recurrence",
             "pass": False,
             "witness": {"word": [1, 1, 1, 1, 1], "got": "-145/144", "want": "-1/120"}},
        ],
    ),
    "sandwich": (
        "bf0970561110ef20b18fe4c0601a4b14881adab93b19c6fe14b7de12c6495ffb",
        [
            {"name": "antipode-convolution",
             "pass": False,
             "witness": {"word": [], "got": "2/3", "want": "-1/3"}},
        ],
    ),
    "section9-entries": (
        "09cbfc1e940b0b86e1b0df26c9fc15b7f03341dca8ff317eca5332252cb4f553",
        [
            {"name": "with-witness", "pass": False, "witness": {"word": [1]}},
            {"name": "without-witness", "pass": False},
        ],
    ),
    "twist-by-length": (
        "bc88b97a352836b8892901b159d4cf524c5d35afbb2cf6ef41f3ba2c0a3994dd",
        [
            {"name": "square-curve",
             "pass": False,
             "witness": {"word": [1], "got": "-16/3", "want": "-8/3", "image": 2}},
            {"name": "cube-curve",
             "pass": False,
             "witness": {"word": [1], "got": "-18", "want": "-6", "image": 2}},
            {"name": "conjugate-curve",
             "pass": False,
             "witness": {"word": [1], "got": "-2", "want": "-2/3", "image": 2}},
            {"name": "lower-central-stability",
             "pass": False,
             "witness": {"word": [1], "got": "-46/3", "want": "-2/3", "image": 2}},
        ],
    ),
}


@pytest.mark.parametrize("scenario", sorted(FAILURE_SCENARIOS))
def test_failing_checks_report_pinned_witnesses(scenario, monkeypatch):
    suite, owner, attribute, patch = FAILURE_SCENARIOS[scenario]
    monkeypatch.setattr(owner, attribute, patch(getattr(owner, attribute)))
    report = run_suite(suite, 4)
    digest, failing = FAILURE_REPORTS[scenario]
    assert [c for c in report["checks"] if not c["pass"]] == failing
    assert _digest(report) == digest
