#!/usr/bin/env python3
"""foxtwist benchmark: closed-loop workloads with an exact-output gate.

Run from the repository root; it imports the library from ``src/`` and
needs nothing beyond the standard library:

    python3 bench/run.py --workload twist-generic --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # one process per workload

Each workload is one client in one thread: an op is issued only after
the previous one returned.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs every op once plain and once under the
tracer and reports per-layer self times instead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics for
people, with units.  ``--record-digests`` rewrites ``digests.json`` from
the default seed; run it only when an output change is intended.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")

# Set-up (import plus cache warming) is repeated this many times per
# run, each time from a cold import, and reported as the median.
SETUP_REPEATS = 3
# The tail is the slowest sample that still has this many beyond it.
TAIL_BEYOND = 10

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, import_foxtwist, purge_foxtwist  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)


def tail(samples):
    """(value, percentile, samples beyond) of the slowest sample with
    TAIL_BEYOND samples beyond it.  Never below the median, which it
    becomes when a run holds fewer than 2 * TAIL_BEYOND samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Loop:
    """Runs whole rounds of ops and keeps what the gate and metrics need."""

    def __init__(self, workload, fx, ctx, cells, counts, seed, expected=None):
        self.workload = workload
        self.fx = fx
        self.ctx = ctx
        self.cells = cells
        self.counts = counts
        self.seed = seed
        self.expected = expected
        self.positions = dict.fromkeys(cells, 0)
        self.first_digest = {}
        self.ops_per_key = {}
        self.seen = {}
        self.latencies = []
        self.by_cell = {}
        self.traced = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def next_item(self, cell):
        items = self.cells[cell]
        index = self.positions[cell] % len(items)
        self.positions[cell] += 1
        return f"{cell}/{index}", items[index]

    def op(self, key, item, trace=None):
        """One timed op; returns its wall time.  Wrong output or an
        exception makes it a failed op, it never stops the loop."""
        self.attempted += 1
        self.ops_per_key[key] = self.ops_per_key.get(key, 0) + 1
        self.seen[key] = item
        span = trace.begin_op(self.attempted) if trace else None
        start = time.perf_counter()
        try:
            out, ok = self.workload.run(self.fx, self.ctx, key, item)
        except Exception as exc:  # a failed op is counted, not fatal
            out, ok = None, False
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if trace:
            trace.end(span, error=out is None)
        problem = "raised" if out is None else self._gate(key, out, ok)
        if problem:
            self.failed += 1
            if problem != "raised":
                self.failures.append(f"{key}: {problem}")
        return elapsed

    def _gate(self, key, out, ok):
        value = digest(out)
        previous = self.first_digest.setdefault(key, value)
        if not ok:
            return "the library reported failure"
        if previous != value:
            return "output differs between repeats"
        if self.expected is not None and self.expected.get(key) != value:
            return "digest differs from the committed one"
        return None

    def run(self, seconds=None, max_rounds=None, trace=None):
        """Whole rounds until ``seconds`` have passed (or ``max_rounds``).
        With a tracer, each op runs plain and traced, alternating which
        goes first from round to round."""
        started = time.perf_counter()
        for number, block in enumerate(inputs.rounds(self.seed, self.workload.name,
                                                     self.counts)):
            if max_rounds is not None and number >= max_rounds:
                break
            if seconds is not None and time.perf_counter() - started >= seconds:
                break
            picks = [self.next_item(cell) for cell in block]
            if trace is None:
                times = [self.op(key, item) for key, item in picks]
                for (key, _), elapsed in zip(picks, times):
                    self.by_cell.setdefault(key.split("/")[0], []).append(elapsed)
                self.latencies += times
                continue
            for traced in ((False, True) if number % 2 == 0 else (True, False)):
                if traced:
                    trace.install()
                    try:
                        self.traced += [self.op(key, item, trace) for key, item in picks]
                    finally:
                        trace.uninstall()
                else:
                    self.latencies += [self.op(key, item) for key, item in picks]
        return time.perf_counter() - started

    def check(self):
        """Untimed invariants; every op of a broken item counts as failed."""
        try:
            bad = self.workload.check(self.fx, self.ctx, self.seen)
        except Exception as exc:  # an invariant that raises fails every op
            self.failures.append(f"invariants: {type(exc).__name__}: {exc}")
            self.failed = self.attempted
            return
        self.failures += [f"{key}: invariant broken" for key in bad]
        self.failed = min(self.attempted,
                          self.failed + sum(self.ops_per_key[key] for key in bad))


def set_up(workload, cells):
    """SETUP_REPEATS cold imports plus warm-up; returns the last
    (fx, ctx) and every set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        purge_foxtwist()
        gc.collect()
        start = time.perf_counter()
        fx = import_foxtwist()
        ctx = workload.setup(fx, cells)
        times.append(time.perf_counter() - start)
    return fx, ctx, times


def measure(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    workdir = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cells = workload.make_inputs(seed, workdir)
        fx, ctx, setup_times = set_up(workload, cells)
        expected = None
        if seed == inputs.DEFAULT_SEED and workload.digest_gate:
            expected = load_digests()[name]["ops"]
        loop = Loop(workload, fx, ctx, cells, workload.counts, seed, expected)
        tracer = tracing.Tracer() if trace else None
        gc.collect()
        wall = loop.run(seconds=seconds, trace=tracer)
        loop.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed}
    lines = [f"workload {name}  seed {seed}  {len(loop.latencies)} plain ops in "
             f"{wall:.2f} s  (closed loop, 1 client, 1 thread)"]
    if trace:
        result["metrics"] = per_layer(loop, tracer)
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl.gz")
        tracer.write(path)
        lines += describe_per_layer(result["metrics"])
        lines.append(f"  {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    else:
        result["metrics"] = end_to_end(loop, setup_times)
        lines += describe_end_to_end(loop, result["metrics"], setup_times)
    share = result["failed"] / result["attempted"]
    lines.append(f"  {'failed_share':16s} {share:.6g} 1 "
                 f"({result['failed']} of {result['attempted']} ops)")
    lines += [f"  failure: {f}" for f in loop.failures[:20]]
    return result, lines


def end_to_end(loop, setup_times):
    """Throughput counts op time only, so the untimed digest gate
    between ops does not dilute it."""
    value, _, _ = tail(loop.latencies)
    metrics = {
        "ops_per_s": len(loop.latencies) / sum(loop.latencies),
        "latency_p50_s": statistics.median(loop.latencies),
        "latency_tail_s": value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def describe_end_to_end(loop, metrics, setup_times):
    _, level, beyond = tail(loop.latencies)
    notes = {
        "latency_tail_s": f"(p{level:.1f}: {beyond} of {len(loop.latencies)} samples beyond)",
        "setup_s": "(median of %d: %s)" % (len(setup_times),
                                          ", ".join(f"{t:.3f}" for t in setup_times)),
    }
    lines = [f"  {k:16s} {m['value']:.6g} {m['unit']} {notes.get(k, '')}".rstrip()
             for k, m in metrics.items()]
    lines.append("  per cell (median s, ops): " + ", ".join(
        f"{cell} {statistics.median(v):.4f} x{len(v)}"
        for cell, v in sorted(loop.by_cell.items(), key=lambda kv: statistics.median(kv[1]))))
    return lines


def describe_per_layer(metrics):
    lines = [f"  {name:58s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    attributed = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".self_s")) + metrics["trace.unattributed_s"]["value"]
    wall = metrics["trace.op_wall_s"]["value"]
    lines.append(f"  self times + unattributed = {attributed:.6g} s/op of {wall:.6g} s/op "
                 f"traced op wall ({100 * attributed / max(wall, 1e-12):.3f} %)")
    return lines


def per_layer(loop, tracer):
    summary = tracer.summary()
    ops = max(1, len(loop.traced))
    op_entry = summary.get(tracing.OP, {"self_s": 0.0, "wall_s": 0.0})
    values = {
        "trace.overhead_ratio": sum(loop.traced) / max(sum(loop.latencies), 1e-12),
        "trace.unattributed_s": op_entry["self_s"] / ops,
        "trace.op_wall_s": op_entry["wall_s"] / ops,
        "trace.span_errors": sum(e["errors"] for n, e in summary.items() if n != tracing.OP),
    }
    for name in tracing.per_layer_names():
        if name in values:
            continue
        entry, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = summary.get(entry, {}).get("self_s", 0.0) / ops
        elif field == "calls" and entry in summary:
            values[name] = summary[entry]["calls"] / ops
        else:
            values[name] = tracer.counts.get(name, 0) / ops
    return {name: {"value": values[name], "unit": tracing.metric_unit(name)}
            for name in tracing.per_layer_names()}


def record_digests():
    """Digest of every op item of every workload at the default seed."""
    table = {}
    for name, workload in WORKLOADS.items():
        workdir = os.path.join(OUT, f"record-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            cells = workload.make_inputs(inputs.DEFAULT_SEED, workdir)
            fx, ctx, _ = set_up(workload, cells)
            ops = {}
            for cell, items in cells.items():
                for index, item in enumerate(items):
                    out, ok = workload.run(fx, ctx, f"{cell}/{index}", item)
                    if not ok:
                        raise SystemExit(f"{name} {cell}/{index}: the library reported failure")
                    ops[f"{cell}/{index}"] = digest(out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        table[name] = {"seed": inputs.DEFAULT_SEED, "gated": workload.digest_gate,
                       "ops": ops}
        print(f"{name}: {len(ops)} digests", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(table, indent=2, sort_keys=True) + "\n")


def run_all(args):
    """Each workload in a process of its own, then one summary table."""
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the default seed and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "foxtwist", "__init__.py")):
        print(f"error: no foxtwist package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
