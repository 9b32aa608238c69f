"""Tests of the benchmark itself, at tiny sizes; they take seconds.

    python3 -m unittest discover -s bench -p 'test_*.py'

None of them launches the benchmark grid.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import types
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, import_foxtwist  # noqa: E402

TINY_TWIST = {"t1": (1, 3, 1), "t2": (2, 3, 2)}
TINY_NABLA = {"n1": (1, 6, 1, 1, 1000, False), "n2": (2, 6, 1, 1, 1000, True)}

# sha256 of each tiny op's bytes at seed 5; a change here means the
# library's output bytes changed.
TINY_DIGESTS = {
    "twist": {
        "t1/0": "49881e808779bed074a0c89fa4f10ab54320aa117fe495cc36a17358a29a336a",
        "t1/1": "36e53df09a0d5bae876029848ef946799050e9691c44f2957ea5cffd1bb0754a",
        "t2/0": "d8a82678879c5e17fd53a275c985b72ac28d04b0dbf03024c3405b99422c8faa",
        "t2/1": "01b470da1a43487216af8a8ca9effc1d7493bf98f3cc81c65c398b1fb3c9deb2",
    },
    "nabla": {
        "n1/0": "95dd586fdb6ebfefa20852db46ca6f54e9ccda41ca455f938e51a0ea5208cd28",
        "n1/1": "2e6ed33c188a274276dc2bc248240fda70c68218efb46ca34b4414753cb13651",
        "n1/2": "dfeeb2fe18ff359080e94b0e06495d411aa8764e8e7acd9819df9366cc55bbc7",
        "n2/0": "210644fe0278f6969172db6bd6820e273594780efe29833278760d37ff5562d5",
        "n2/1": "27557a86792d8b152b7795437a900ac48cf1c9f5fc1b831c60859869c05b877c",
        "n2/2": "0568a142457897e709c7fee802b81a8c51786bf83668636175e60bc1fd628f15",
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tiny_twist_digests(fx):
    workload = WORKLOADS["twist-generic"]
    cells = inputs.twist_inputs(5, cells=TINY_TWIST, instances=2)
    ctx = {"twists": {}}
    return {f"{cell}/{i}": sha(workload.run(fx, ctx, f"{cell}/{i}", item)[0])
            for cell, items in cells.items() for i, item in enumerate(items)}


def tiny_nabla_digests(fx, workdir):
    workload = WORKLOADS["nabla-cli"]
    cells = workload.make_inputs(5, workdir, TINY_NABLA)
    ctx = {"twists": {}}
    return {f"{cell}/{i}": sha(workload.run(fx, ctx, f"{cell}/{i}", item)[0])
            for cell, items in cells.items() for i, item in enumerate(items[:3])}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.twist_inputs(3), inputs.twist_inputs(3))
        self.assertEqual(inputs.nabla_inputs(3), inputs.nabla_inputs(3))
        self.assertEqual(inputs.expansion_inputs(3), inputs.expansion_inputs(3))
        first = inputs.rounds(3, "twist-generic", {"a": 2, "b": 1})
        second = inputs.rounds(3, "twist-generic", {"a": 2, "b": 1})
        self.assertEqual([next(first) for _ in range(5)], [next(second) for _ in range(5)])

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(inputs.twist_inputs(3), inputs.twist_inputs(4))
        self.assertNotEqual(inputs.nabla_inputs(3), inputs.nabla_inputs(4))

    def test_curves_have_the_promised_shape(self):
        for cell, items in inputs.twist_inputs(9).items():
            genus, _, wanted = inputs.TWIST_CELLS[cell]
            for item in items:
                tokens = item["curve"].split()
                self.assertTrue(4 <= len(tokens) <= 6)
                letters = []
                for token in tokens:
                    name, _, power = token.partition("^")
                    index = 2 * int(name[1:]) - (name[0] == "a")
                    letters.append(-index if power else index)
                self.assertNotEqual(letters[0], -letters[-1])
                self.assertGreaterEqual(len({abs(x) for x in letters}), 2)
                self.assertEqual(inputs.support(letters, 2 * genus), wanted)
                self.assertLessEqual(Fraction(item["k"]).denominator, 6)

    def test_nabla_file_matches_the_library_embedding(self):
        fx = import_foxtwist()
        conjugator = (2, -1)
        payload = inputs.nabla_payload(2, 5, conjugator)
        series = fx.formats.series_from_dict(payload, rank=4)
        word = fx.words.GroupWord(4, conjugator + inputs.boundary_letters(2)
                                  + tuple(-x for x in reversed(conjugator)))
        expected = fx.truncated_completion.embed(
            fx.group_algebra.GroupAlgebraElement.from_word(word), 5) - 1
        self.assertEqual(series, expected)


class DigestTest(unittest.TestCase):
    def test_tiny_twist_digests_are_stable(self):
        got = tiny_twist_digests(import_foxtwist())
        self.assertEqual(got, TINY_DIGESTS["twist"])

    def test_tiny_cli_digests_are_stable(self):
        with tempfile.TemporaryDirectory() as workdir:
            got = tiny_nabla_digests(import_foxtwist(), workdir)
        self.assertEqual(got, TINY_DIGESTS["nabla"])

    def test_committed_digests_cover_every_gated_op(self):
        table = run.load_digests()
        for name, workload in WORKLOADS.items():
            self.assertEqual(table[name]["seed"], inputs.DEFAULT_SEED)
            self.assertEqual(table[name]["gated"], workload.digest_gate)
        keys = {f"{cell}/{i}" for cell, items in inputs.twist_inputs(0).items()
                for i in range(len(items))}
        self.assertEqual(set(table["twist-generic"]["ops"]), keys)


class GateTest(unittest.TestCase):
    def loop(self, expected, workload=None):
        fx = import_foxtwist()
        workload = workload or WORKLOADS["twist-generic"]
        cells = inputs.twist_inputs(5, cells=TINY_TWIST, instances=2)
        return run.Loop(workload, fx, {"twists": {}}, cells, {"t1": 1, "t2": 1}, 5, expected)

    def test_matching_digests_pass(self):
        loop = self.loop(TINY_DIGESTS["twist"])
        loop.run(max_rounds=2)
        loop.check()
        self.assertEqual((loop.attempted, loop.failed), (4, 0))

    def test_corrupted_digest_is_a_failed_op(self):
        expected = dict(TINY_DIGESTS["twist"])
        expected["t1/0"] = "0" * 64
        loop = self.loop(expected)
        loop.run(max_rounds=2)
        loop.check()
        self.assertEqual((loop.attempted, loop.failed), (4, 1))
        self.assertIn("t1/0: digest differs from the committed one", loop.failures)

    def test_exception_and_broken_invariant_are_failed_ops(self):
        class Broken(type(WORKLOADS["twist-generic"])):
            def run(self, fx, ctx, key, item):
                if key == "t2/0":
                    raise RuntimeError("boom")
                return super().run(fx, ctx, key, item)

            def check(self, fx, ctx, seen):
                return ["t1/0"]

        loop = self.loop(None, Broken())
        loop.run(max_rounds=2)
        loop.check()
        self.assertEqual((loop.attempted, loop.failed), (4, 2))

    def test_tail_keeps_ten_samples_beyond(self):
        samples = [float(i) for i in range(100)]
        value, level, beyond = run.tail(samples)
        self.assertEqual((value, beyond), (89.0, 10))
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(level, 90.0)
        self.assertEqual(run.tail([1.0, 2.0, 3.0])[:2], (2.0, 50.0))


class TracerTest(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        # op [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9];
        # d [8, 9.5] overlaps b and runs past the op, and is clipped.
        spans = [
            [0, -1, 1, 0.0, 10.0, False],
            [1, 0, 1, 1.0, 4.0, False],
            [2, 1, 1, 2.0, 3.0, False],
            [3, 0, 1, 5.0, 9.0, False],
            [4, 0, 1, 8.0, 9.5, False],
        ]
        own = tracing.self_times(spans)
        self.assertEqual(own, [10.0 - 3.0 - 4.5, 2.0, 1.0, 4.0, 1.5])

    def test_wrappers_rebind_everywhere_and_sum_to_the_op(self):
        package = types.ModuleType("fakepkg")
        core = types.ModuleType("fakepkg.core")
        user = types.ModuleType("fakepkg.user")

        def inner(x):
            return x + 1

        def outer(x):
            return core.inner(x) * 2

        class Thing:
            def method(self, x):
                return core.outer(x)

        core.inner, core.outer, core.Thing = inner, outer, Thing
        user.outer, user.TABLE = outer, {"o": outer}
        modules = {"fakepkg": package, "fakepkg.core": core, "fakepkg.user": user}
        sys.modules.update(modules)
        trace = tracing.Tracer()
        try:
            trace.install([("core", "inner", "span"), ("core", "outer", "span"),
                           ("core", "Thing.method", "span")], package="fakepkg")
            self.assertIsNot(user.outer, outer)
            self.assertIsNot(user.TABLE["o"], outer)
            op = trace.begin_op(1)
            self.assertEqual(Thing().method(1), 4)
            self.assertEqual(user.TABLE["o"](1), 4)
            trace.end(op)
        finally:
            trace.uninstall()
            for key in modules:
                del sys.modules[key]
        self.assertIs(user.outer, outer)
        self.assertIs(user.TABLE["o"], outer)
        self.assertEqual(Thing.__dict__["method"].__name__, "method")
        summary = trace.summary()
        self.assertEqual(summary["core.inner"]["calls"], 2)
        self.assertEqual(summary["core.outer"]["calls"], 2)
        total = sum(entry["self_s"] for entry in summary.values())
        self.assertAlmostEqual(total, summary[tracing.OP]["wall_s"], places=9)

    def test_every_entry_exists_in_the_library(self):
        fx = import_foxtwist()
        for module, path, _ in tracing.ENTRIES:
            target = getattr(fx, module)
            for part in path.split("."):
                target = getattr(target, part)
            self.assertTrue(callable(target), path)

    def test_benchmark_file_lists_every_metric(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["per_layer"]], tracing.per_layer_names())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
