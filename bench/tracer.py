"""Spans around calls into foxtwist, recorded from the benchmark's side.

The library itself carries no timers yet, so the tracer wraps chosen
public entry points and rebinds each wrapper wherever a ``foxtwist.*``
module holds the original under some name, including module-level
tables such as ``verify._SUITES``.  Arithmetic dunders and the
``lru_cache`` helpers are deliberately left alone: they are called far
too often for a span each, and their time shows up as the self time of
the entry that called them.

Spans stay in memory as ``[name, parent, op, start, end, error]`` rows
and are written out once the run is over.  The benchmark opens one span
per op (name ``bench.op``) so that library spans always have a parent;
the self time of those op spans is the part of an op no wrapped entry
covers.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

OP = "bench.op"

# (module, attribute path, kind).  "span" times every call; "mapper"
# also times each call of the callable it returns (exp_derivation hands
# back the map that does the work); "calls" only counts calls.
ENTRIES = (
    ("derived_twists", "derived_generator_values", "span"),
    ("derived_twists", "apply_derivation", "span"),
    ("derived_twists", "exp_derivation", "mapper"),
    ("derived_twists", "twist", "span"),
    ("derived_twists", "TwistAutomorphism.apply", "span"),
    ("derived_twists", "TwistAutomorphism.apply_word", "span"),
    ("derived_twists", "TwistAutomorphism.inverse", "span"),
    ("derived_twists", "TwistAutomorphism.compose", "span"),
    ("truncated_completion", "sandwich", "span"),
    ("truncated_completion", "coproduct", "span"),
    ("truncated_completion", "antipode", "span"),
    ("truncated_completion", "antipode_coproduct", "span"),
    ("truncated_completion", "is_group_like", "span"),
    ("truncated_completion", "embed", "span"),
    ("fox_pairings", "pairing_of_nabla", "span"),
    ("fox_pairings", "FoxPairing.evaluate", "span"),
    ("series", "series_matrix_inverse", "span"),
    ("series", "TruncatedSeries.exp", "span"),
    ("series", "TruncatedSeries.log", "span"),
    ("series", "TruncatedSeries.inverse", "span"),
    ("group_algebra", "fox_derivative_left", "span"),
    ("group_algebra", "fox_derivative_right", "span"),
    ("group_algebra", "conjugation_sum", "span"),
    ("formats", "series_to_dict", "span"),
    ("formats", "series_from_dict", "span"),
    ("formats", "pairing_to_dict", "span"),
    ("formats", "pairing_from_dict", "span"),
    ("formats", "twist_to_dict", "span"),
    ("formats", "twist_from_dict", "span"),
    ("formats", "dumps", "span"),
    ("cli", "main", "span"),
    ("words", "parse_word", "span"),
    ("surfaces", "surface_pairing", "span"),
    ("surfaces", "boundary_nabla", "span"),
    ("symplectic_tensor", "build_symplectic_expansion", "span"),
    ("symplectic_tensor", "verify_section9", "span"),
    ("symplectic_tensor", "derivation_pairing", "span"),
    ("symplectic_tensor", "tensorial_rho", "span"),
    ("symplectic_tensor", "SymplecticExpansion.apply_hat", "span"),
    ("symplectic_tensor", "lie_bracket_of_word", "calls"),
    ("verify", "fox_laws_suite", "span"),
    ("verify", "hopf_suite", "span"),
    ("verify", "dehn_compare_suite", "span"),
    ("verify", "figure_eight_suite", "span"),
    ("verify", "nabla_suite", "span"),
    ("verify", "twist_laws_suite", "span"),
    ("verify", "symplectic_suite", "span"),
    ("verify", "appendix_suite", "span"),
)

# Output sizes counted at the boundary where the work is returned.
COUNTERS = {
    "derived_twists.twist": ("out_terms", lambda t: sum(len(im.terms) for im in t.images)),
    "formats.dumps": ("out_bytes", lambda text: len(text.encode("utf-8"))),
}

CALL_METRICS = ("derived_twists.apply_derivation", "surfaces.surface_pairing",
                "surfaces.boundary_nabla")


def entry_name(module: str, path: str) -> str:
    return f"{module}.{path}"


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, path, kind in ENTRIES:
        name = entry_name(module, path)
        if kind == "calls":
            names.append(name + ".calls")
            continue
        names.append(name + ".self_s")
        if name in CALL_METRICS:
            names.append(name + ".calls")
        if name in COUNTERS:
            names.append(f"{name}.{COUNTERS[name][0]}")
    names += ["trace.overhead_ratio", "trace.unattributed_s", "trace.op_wall_s",
              "trace.span_errors"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/op"
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".out_terms"):
        return "terms/op"
    if name.endswith(".out_bytes"):
        return "B/op"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its
    interval covered by the union of its direct children."""
    children = {}
    for i, row in enumerate(spans):
        if row[1] >= 0:
            children.setdefault(row[1], []).append(i)
    out = [row[4] - row[3] for row in spans]
    for parent, kids in children.items():
        p_start, p_end = spans[parent][3], spans[parent][4]
        reach = p_start
        covered = 0.0
        for i in sorted(kids, key=lambda k: spans[k][3]):
            start = max(spans[i][3], reach)
            end = min(spans[i][4], p_end)
            if end > start:
                covered += end - start
            reach = max(reach, end)
        out[parent] -= covered
    return out


class Tracer:
    """Holds the spans of one traced run and the wrappers that make them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.counts = {}
        self.op = -1
        self._stack = []
        self._undo = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self._id(name), parent, self.op, time.perf_counter(), 0.0, False])
        self._stack.append(index)
        return index

    def end(self, index: int, error: bool = False):
        row = self.spans[index]
        row[4] = time.perf_counter()
        row[5] = error
        self._stack.pop()

    def begin_op(self, op: int) -> int:
        self.op = op
        return self.begin(OP)

    def _span_wrapper(self, name, fn, mapper=False):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, error=True)
                raise
            self.end(index)
            if counter is not None:
                self.count(f"{name}.{counter[0]}", counter[1](result))
            if mapper:
                return self._span_wrapper(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _call_counter(self, name, fn):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            self.count(key, 1)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def install(self, entries=ENTRIES, package="foxtwist"):
        """Swap every entry for its wrapper in all loaded package modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, path, kind in entries:
            module = sys.modules[f"{package}.{module_name}"]
            name = entry_name(module_name, path)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = owner.__dict__[attr]
            else:
                owner, original = None, getattr(module, attr)
            if kind == "calls":
                wrapper = self._call_counter(name, original)
            else:
                wrapper = self._span_wrapper(name, original, mapper=kind == "mapper")
            if owner is not None:
                self._set(owner, attr, wrapper, original)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)
                    elif type(value) is dict:
                        for dkey, dvalue in value.items():
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._undo.append((value.__setitem__, dkey, original))

    def _set(self, target, key, wrapper, original):
        setattr(target, key, wrapper)
        self._undo.append((lambda k, v, t=target: setattr(t, k, v), key, original))

    def uninstall(self):
        while self._undo:
            restore, key, original = self._undo.pop()
            restore(key, original)

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Per-entry totals: self time, calls and errors, plus counters."""
        own = self_times(self.spans)
        out = {}
        for i, row in enumerate(self.spans):
            name = self.names[row[0]]
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "errors": 0,
                                          "wall_s": 0.0})
            entry["self_s"] += own[i]
            entry["calls"] += 1
            entry["errors"] += int(row[5])
            entry["wall_s"] += row[4] - row[3]
        return out

    def write(self, path):
        """All spans as JSON lines (gzip), one object per span."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, (name, parent, op, start, end, error) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": self.names[name],
                                         "parent": parent, "op": op,
                                         "start": start, "end": end,
                                         "error": error}) + "\n")
