"""The four benchmark workloads: inputs, set-up, one op, and invariants.

Each workload maps grid cells to lists of seeded op items and says how
many ops of each cell go into one round.  Rounds are the unit of the
closed loop, so every run holds whole rounds and each cell's share of
the samples is the same on every run; the counts are chosen so that the
median and the tail percentile each land inside one cell rather than
on the edge between two.

An op returns the bytes it produced and whether the library itself
reported success.  Library calls go through module attributes at call
time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import inputs

MODULES = ("cli", "derived_twists", "formats", "fox_pairings", "group_algebra",
           "series", "surfaces", "symplectic_tensor", "truncated_completion",
           "verify", "words")


def import_foxtwist():
    """Import the package and the modules the workloads call into."""
    importlib.import_module("foxtwist")
    return SimpleNamespace(**{name: importlib.import_module(f"foxtwist.{name}")
                              for name in MODULES})


def purge_foxtwist():
    """Forget every foxtwist module, so the next import starts cold."""
    for key in [k for k in sys.modules if k == "foxtwist" or k.startswith("foxtwist.")]:
        del sys.modules[key]


class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and in
    bench/README.md."""

    name = ""
    counts = {}
    # Whether op bytes must equal the digests committed for the default seed.
    digest_gate = True

    def make_inputs(self, seed, workdir) -> dict:
        """Cell -> list of op items.  Not timed."""
        raise NotImplementedError

    def setup(self, fx, cells) -> dict:
        """Warm caches before timing; returns the op context."""
        return {}

    def run(self, fx, ctx, key, item):
        """One op; returns (output bytes, library-reported success)."""
        raise NotImplementedError

    def check(self, fx, ctx, seen) -> list:
        """Untimed invariants over the op items the loop ran ({key: item});
        returns the keys of the items that broke one."""
        return []


# -- twist-generic ----------------------------------------------------------


class TwistGeneric(Workload):
    name = "twist-generic"
    # Sorted by cost a round reads g1d5 x2 (0.20 s) | g3d3 (0.29 s) |
    # g1d6 x3 and g2d3 x2 (both about 0.34 s), so the median and the tail
    # both fall among the five costliest ops, away from the cheaper cells.
    counts = {"g1d5": 2, "g3d3": 1, "g1d6": 3, "g2d3": 2}

    def make_inputs(self, seed, workdir):
        return inputs.twist_inputs(seed)

    def setup(self, fx, cells):
        # The surface pairings, then one op per cell.
        for cell, items in cells.items():
            spec = fx.surfaces.SurfaceSpec(items[0]["genus"], items[0]["degree"])
            fx.surfaces.surface_pairing(spec)
        ctx = {"twists": {}}
        for cell, items in cells.items():
            self.run(fx, ctx, f"{cell}/0", items[0])
        ctx["twists"].clear()
        return ctx

    def run(self, fx, ctx, key, item):
        spec = fx.surfaces.SurfaceSpec(item["genus"], item["degree"])
        curve = fx.surfaces.CurveSpec(spec.parse_curve(item["curve"]), Fraction(item["k"]))
        automorphism = fx.surfaces.generalized_dehn_twist(spec, curve)
        word = spec.parse_curve(item["apply"])
        image = automorphism.apply_word(word)
        document = {
            "twist": fx.formats.twist_to_dict(automorphism),
            "apply": {"word": list(word.letters),
                      "image": fx.formats.series_to_dict(image)},
        }
        ctx["twists"][key] = automorphism
        return fx.formats.dumps(document).encode("utf-8"), True

    def check(self, fx, ctx, seen):
        bad = []
        for key, item in seen.items():
            automorphism = ctx["twists"][key]
            spec = fx.surfaces.SurfaceSpec(item["genus"], item["degree"])
            boundary = fx.truncated_completion.embed(
                fx.group_algebra.GroupAlgebraElement.from_word(spec.boundary_word()),
                spec.cap)
            if not (automorphism.fixes(boundary) and automorphism.is_hopf()
                    and automorphism.preserves_pairing(fx.surfaces.surface_pairing(spec))):
                bad.append(key)
        return bad


# -- nabla-cli --------------------------------------------------------------


class NablaCli(Workload):
    name = "nabla-cli"
    # Each cell cycles pairing, twist, twist --apply over its instances.
    # Sorted by cost a round reads g1c9 x3 | g3c7 x6 | g2c8 x3, so the
    # median sits inside g3c7 and the tail inside g2c8.
    counts = {"g1c9": 3, "g3c7": 6, "g2c8": 3}

    def make_inputs(self, seed, workdir, grid=None):
        cells = {}
        for cell, items in inputs.nabla_inputs(seed, grid).items():
            ops = []
            for i, item in enumerate(items):
                path = os.path.join(workdir, f"nabla-{cell}-{i}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(json.dumps(item["nabla"], indent=2) + "\n")
                for command in inputs.NABLA_COMMANDS:
                    ops.append(dict(item, command=command, argv=self._argv(item, command, path)))
            cells[cell] = ops
        return cells

    @staticmethod
    def _argv(item, command, path):
        if command == "pairing":
            return ["pairing", "--nabla", path, "--format", "json"]
        argv = ["twist", "--nabla", path, "--curve", item["curve"], f"--k={item['k']}",
                "--format", "json"]
        if command == "apply":
            argv += ["--apply", item["apply"]]
        return argv

    def setup(self, fx, cells):
        ctx = {"twists": {}}
        for cell, items in cells.items():
            for i, item in enumerate(items[:len(inputs.NABLA_COMMANDS)]):
                self.run(fx, ctx, f"{cell}/{i}", item)
        ctx["twists"].clear()
        return ctx

    def run(self, fx, ctx, key, item):
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = fx.cli.main(item["argv"])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        out = buffer.getvalue().encode("utf-8")
        if item["command"] == "twist":
            ctx["twists"][key] = out
        return out, code == 0

    def check(self, fx, ctx, seen):
        bad = []
        for key, item in seen.items():
            if item["command"] != "twist":
                continue
            automorphism = fx.formats.twist_from_dict(json.loads(ctx["twists"][key]))
            series = fx.formats.series_from_dict(item["nabla"], rank=2 * item["genus"])
            pairing = fx.fox_pairings.pairing_of_nabla(fx.fox_pairings.NablaElement(series))
            if not (automorphism.fixes(1 + series) and automorphism.is_hopf()
                    and automorphism.preserves_pairing(pairing)):
                bad.append(key)
        return bad


# -- expansion --------------------------------------------------------------


class Expansion(Workload):
    name = "expansion"
    # Sorted by cost a round reads build-g1c7 | build-g3c4 x6 | s9-g2c3 |
    # s9-g1c4 | build-g2c5 x3, so the median sits inside build-g3c4 and
    # the tail inside build-g2c5.  Both are builds, whose inputs do not
    # depend on the seed; a section-9 check costs 0.2-0.7 s depending on
    # its words, so neither quantile may fall among those.
    counts = {"build-g1c7": 1, "build-g3c4": 6, "s9-g2c3": 1, "s9-g1c4": 1,
              "build-g2c5": 3}
    # Symplectic expansions are not unique, so their bytes are recorded
    # for information and only the invariants gate correctness.
    digest_gate = False

    def make_inputs(self, seed, workdir):
        return inputs.expansion_inputs(seed)

    def setup(self, fx, cells):
        # verify_section9 needs an expansion two degrees above its cap;
        # those are built once here, the build cells time builds.
        ctx = {"expansions": {}, "built": {}}
        for cell, items in cells.items():
            item = items[0]
            if item["kind"] == "section9":
                key = (item["genus"], item["cap"] + 2)
                ctx["expansions"][key] = fx.symplectic_tensor.build_symplectic_expansion(*key)
        for cell, items in cells.items():
            item = items[0]
            if (item["genus"], item["cap"]) not in ctx["expansions"]:
                self.run(fx, ctx, f"{cell}/0", item)
        ctx["built"].clear()
        return ctx

    def run(self, fx, ctx, key, item):
        st = fx.symplectic_tensor
        if item["kind"] == "build":
            expansion = st.build_symplectic_expansion(item["genus"], item["cap"])
            ctx["built"][key] = expansion
            document = fx.formats.expansion_to_dict(expansion)
            return fx.formats.dumps(document).encode("utf-8"), True
        spec = fx.surfaces.SurfaceSpec(item["genus"], item["cap"])
        expansion = ctx["expansions"][(item["genus"], item["cap"] + 2)]
        words = [fx.words.GroupWord(spec.rank, tuple(w)) for w in item["words"]]
        report = st.verify_section9(spec, expansion, item["cap"], extra_words=words)
        return fx.formats.dumps(report).encode("utf-8"), bool(report["ok"])

    def check(self, fx, ctx, seen):
        return [key for key in seen if key in ctx["built"]
                and not (ctx["built"][key].is_group_like()
                         and ctx["built"][key].is_symplectic())]


# -- verify-all -------------------------------------------------------------


class VerifyAll(Workload):
    name = "verify-all"
    # Sorted by cost a round reads d3 | d4 x2 | d5, so the median and, at
    # the sample counts one run collects, the tail both sit inside d4.
    counts = {"d3": 1, "d4": 2, "d5": 1}
    # The report bytes are deterministic today, but verify reports are
    # due to carry timings; every check passing is the gate.
    digest_gate = False

    def make_inputs(self, seed, workdir):
        return inputs.verify_inputs(seed)

    def setup(self, fx, cells):
        self.run(fx, {}, "", min((items[0] for items in cells.values()),
                                 key=lambda item: item["degree"]))
        return {}

    def run(self, fx, ctx, key, item):
        report = fx.verify.run_suite("all", item["degree"])
        return fx.formats.dumps(report).encode("utf-8"), fx.verify.report_passed(report)


WORKLOADS = {w.name: w for w in (TwistGeneric(), NablaCli(), Expansion(), VerifyAll())}
