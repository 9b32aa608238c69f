"""verify_section9 runs each stage at the least cap its compared
coefficients need.  The oracle is the check as first written, with every
stage at cap + 2 and every comparison truncated to cap: both must compare
the same four series for every pair and give the same report."""

import random

import pytest

from foxtwist import symplectic_tensor
from foxtwist.derived_twists import apply_derivation, derived_generator_values
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.surfaces import SurfaceSpec, _agree, surface_pairing
from foxtwist.symplectic_tensor import (
    build_symplectic_expansion,
    contraction,
    derivation_values,
    s_of_omega,
    verify_section9,
)
from foxtwist.truncated_completion import embed
from foxtwist.words import GroupWord


def section9_at_cap_plus_two(spec, expansion, cap, extra_words):
    """Oracle: every stage at cap + 2, comparisons truncated to cap.
    Returns the report and {check name: (left, right)}."""
    work = cap + 2
    pairing = surface_pairing(SurfaceSpec(spec.genus, cap))
    rank = spec.rank
    inputs = [("x%d" % (i + 1), GroupWord.generator(rank, i + 1)) for i in range(rank)]
    inputs += [("word%d" % (j + 1), word) for j, word in enumerate(extra_words)]
    middle = s_of_omega(spec.genus, work)
    embedded = []
    for label, w in inputs:
        u = embed(GroupAlgebraElement.from_word(w), work)
        theta_u = expansion.apply_hat(u)
        embedded.append((label, u, theta_u, derived_generator_values(pairing, u),
                         derivation_values(theta_u)))
    compared = {}
    for label_u, u, theta_u, values_u, tensor_values_u in embedded:
        u1 = theta_u - theta_u.constant_term()
        for label_v, v, theta_v, _, _ in embedded:
            v1 = theta_v - theta_v.constant_term()
            left = expansion.apply_hat(apply_derivation(values_u, v))
            right = apply_derivation(tensor_values_u, theta_v)
            compared["derived-diagram-%s-%s" % (label_u, label_v)] = (
                left.truncate(cap), right.truncate(cap))
            left = expansion.apply_hat(pairing.evaluate(u, v))
            rho = contraction(u1, v1) + u1 * middle * v1
            compared["pairing-diagram-%s-%s" % (label_u, label_v)] = (
                left.truncate(cap), rho.truncate(cap))
    checks = [_agree(name, [pair]) for name, pair in compared.items()]
    report = {"scenario": "symplectic-expansion", "genus": spec.genus, "cap": cap,
              "ok": all(c["pass"] for c in checks), "checks": checks}
    return report, compared


def random_words(rng, rank, count):
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    return [GroupWord(rank, tuple(rng.choice(letters) for _ in range(rng.randint(1, 4))))
            for _ in range(count)]


CASES = [(1, cap, cap + 2, 3) for cap in range(2, 6)] + [(1, 3, 6, 2), (2, 3, 5, 2)]


@pytest.mark.parametrize("genus,cap,expansion_cap,words", CASES)
def test_section9_compares_the_series_of_the_all_at_cap_plus_two_check(
        monkeypatch, genus, cap, expansion_cap, words):
    spec = SurfaceSpec(genus, cap)
    expansion = build_symplectic_expansion(genus, expansion_cap)
    extra = random_words(random.Random(1400 + 10 * genus + cap), spec.rank, words)
    want_report, want = section9_at_cap_plus_two(spec, expansion, cap, extra)

    got = {}

    def recording_agree(name, pairs):
        pairs = list(pairs)
        got[name] = pairs[0]
        return _agree(name, pairs)

    monkeypatch.setattr(symplectic_tensor, "_agree", recording_agree)
    report = verify_section9(spec, expansion, cap, extra_words=extra)
    assert report == want_report
    assert report["ok"]
    assert list(got) == list(want)
    for name, (left, right) in want.items():
        assert got[name] == (left, right), name
        assert left.cap == right.cap == cap
