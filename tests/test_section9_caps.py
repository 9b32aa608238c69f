"""verify_section9 builds one half per input and runs one join per pair,
each at the least cap its compared coefficients need.  Two oracles: the
check as first written, with every stage at cap + 2 and every comparison
truncated to cap, which must compare the same four series for every pair;
and the pairwise check that preceded the tables, which must give the same
report bytes, also when checks fail.

Run as a script, it compares the tables with the pairwise oracle at cells
the tier-1 tests leave out: genus 1 cap 7, genus 2 cap 5 and genus 3 cap 5.
"""

import functools
import random
import sys
import time

import pytest

from foxtwist import formats, symplectic_tensor
from foxtwist.derived_twists import apply_derivation, derived_generator_values
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import SurfaceSpec, _agree, surface_pairing
from foxtwist.symplectic_tensor import (
    SymplecticExpansion,
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


# -- the pairwise check the tables replaced ------------------------------------


def section9_pairwise(spec, expansion, cap, extra_words):
    """Oracle: the check with every bilinear stage run per pair.  Each
    pair re-derives both halves: the derivations and the contraction run
    at cap + 1 and are truncated, the Fox pairing evaluates u and v
    afresh, and the derived generator values run at cap + 2 and are cut
    to cap + 1."""
    pairing = surface_pairing(SurfaceSpec(spec.genus, cap))
    rank = spec.rank
    inputs = [("x%d" % (i + 1), GroupWord.generator(rank, i + 1)) for i in range(rank)]
    inputs += [("word%d" % (j + 1), word) for j, word in enumerate(extra_words)]
    middle = s_of_omega(spec.genus, max(cap, 3)).truncate(cap)
    embedded = []
    for label, w in inputs:
        u = embed(GroupAlgebraElement.from_word(w), cap + 2)
        values = [value.truncate(cap + 1) for value in derived_generator_values(pairing, u)]
        u = u.truncate(cap + 1)
        theta_u = expansion.apply_hat(u)
        embedded.append((label, u, theta_u, values, derivation_values(theta_u)))
    checks = []
    for label_u, u, theta_u, values_u, tensor_values_u in embedded:
        u1 = theta_u - theta_u.constant_term()
        for label_v, v, theta_v, _, _ in embedded:
            v1 = theta_v - theta_v.constant_term()
            left = expansion.apply_hat(apply_derivation(values_u, v).truncate(cap))
            right = apply_derivation(tensor_values_u, theta_v).truncate(cap)
            checks.append(_agree("derived-diagram-%s-%s" % (label_u, label_v), [(left, right)]))
            left = expansion.apply_hat(pairing.evaluate(u, v))
            rho = contraction(u1, v1).truncate(cap) + u1.truncate(cap) * middle * v1.truncate(cap)
            checks.append(_agree("pairing-diagram-%s-%s" % (label_u, label_v), [(left, rho)]))
    return {"scenario": "symplectic-expansion", "genus": spec.genus, "cap": cap,
            "ok": all(c["pass"] for c in checks), "checks": checks}


@functools.lru_cache(maxsize=None)
def expansion_for(genus, cap):
    return build_symplectic_expansion(genus, cap)


def seeded_words(genus, cap, count):
    """count words: the empty word, then seeded words with inverse letters."""
    rng = random.Random(3000 + 100 * genus + 10 * cap + count)
    rank = 2 * genus
    words = [GroupWord(rank, ())] + random_words(rng, rank, max(count - 1, 0))
    return words[:count]


def perturbed(expansion):
    """The expansion with a degree-2 term added to its first image: a
    SymplecticExpansion still, but neither diagram commutes for it."""
    images = list(expansion.images)
    images[0] = images[0] + TruncatedSeries(expansion.rank, expansion.cap, {(2, 1): 1})
    return SymplecticExpansion(expansion.genus, expansion.cap, images)


def assert_same_report(spec, expansion, cap, words):
    got = verify_section9(spec, expansion, cap, extra_words=words)
    want = section9_pairwise(spec, expansion, cap, words)
    assert formats.dumps(got) == formats.dumps(want)
    return got


TABLE_CELLS = [(1, cap) for cap in range(2, 6)] + [(2, 3), (2, 4), (3, 3)]


@pytest.mark.parametrize("count", range(5))
@pytest.mark.parametrize("genus,cap", TABLE_CELLS)
def test_tables_give_the_bytes_of_the_pairwise_check(genus, cap, count):
    expansion = expansion_for(genus, cap + 2)
    words = seeded_words(genus, cap, count)
    assert assert_same_report(SurfaceSpec(genus, cap), expansion, cap, words)["ok"]


@pytest.mark.parametrize("genus,cap", [(1, 3), (1, 4), (2, 3)])
def test_tables_give_the_witnesses_of_the_pairwise_check(genus, cap):
    expansion = perturbed(expansion_for(genus, cap + 2))
    report = assert_same_report(SurfaceSpec(genus, cap), expansion, cap,
                                seeded_words(genus, cap, 3))
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed and all("witness" in c for c in failed)
    assert {c["name"].split("-")[0] for c in failed} == {"derived", "pairing"}


# Cells tier-1 leaves out, each with four words; the script checks them.
DENSE_CELLS = [(1, 7), (2, 5), (3, 5)]


def main():
    for genus, cap in DENSE_CELLS:
        spec, expansion = SurfaceSpec(genus, cap), expansion_for(genus, cap + 2)
        words = seeded_words(genus, cap, 4)
        start = time.perf_counter()
        got = verify_section9(spec, expansion, cap, extra_words=words)
        middle = time.perf_counter()
        want = section9_pairwise(spec, expansion, cap, words)
        end = time.perf_counter()
        assert formats.dumps(got) == formats.dumps(want), (genus, cap)
        assert got["ok"], (genus, cap)
        print("genus %d cap %d: %d checks, same bytes; tables %.2f s, pairwise %.2f s"
              % (genus, cap, len(got["checks"]), middle - start, end - middle))
    return 0


if __name__ == "__main__":
    sys.exit(main())
