"""Spans and counts around the library's public functions, from outside it.

`Tracer.installed()` replaces module and class attributes of `jackvar` with
wrappers that record one span per call (name, start, end, parent span, op
id) and restores the originals on exit.  Spans are kept in memory in flat
arrays and written out once, at the end.  `PeakAlloc.installed()` wraps the
calls whose memory the benchmark reports and measures each call's peak
traced allocation with `tracemalloc`; it runs on its own pass, because
tracemalloc slows every allocation it sees.

`layer_metrics` turns the spans into the per-layer metrics: busy time,
self time (a span minus the named child spans it covers) and counts, each
divided by the number of ops traced.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
import tracemalloc
from array import array

# Span name -> (module, attribute path, modules whose binding is replaced).
# None replaces every `jackvar` module binding of the same object, so calls
# through re-exported names are seen too; var_sequence is wrapped only where
# jackknife calls it, so only its top-level calls count, not the recursion.
TARGETS = {
    "cli.main": ("jackvar.cli", "main", None),
    "cli.parse_config": ("jackvar.cli", "parse_config", None),
    "model.tabulate": ("jackvar.model", "tabulate", None),
    "model.on_indices": ("jackvar.model", "Statistic.on_indices", None),
    "conditional.cache_build": ("jackvar.conditional", "CondExpCache.__init__", None),
    "conditional.var_sequence": ("jackvar.conditional", "var_sequence", ("jackvar.jackknife",)),
    "conditional.iterated_variance": ("jackvar.conditional", "iterated_variance", None),
    "conditional.iterated_variance_ie": ("jackvar.conditional", "iterated_variance_ie", None),
    "jackknife.spectrum": ("jackvar.jackknife", "jackknife_spectrum", None),
    "jackknife.difference_moment": ("jackvar.jackknife", "iterated_difference_moment", None),
    "jackknife.classical": ("jackvar.jackknife", "classical_jackknife", None),
    "hoeffding.decompose": ("jackvar.hoeffding", "decompose", None),
    "bounds.exact_report": ("jackvar.bounds", "exact_report", None),
    "selfcheck.check_instance": ("jackvar.selfcheck", "check_instance", None),
    "mc.stream_rng": ("jackvar.mc", "stream_rng", None),
    "mc.estimate_variance": ("jackvar.mc", "estimate_variance", None),
    "mc.estimate_iterated_jackknife": ("jackvar.mc", "estimate_iterated_jackknife", None),
    "mc.estimate_projected_jackknife": ("jackvar.mc", "estimate_projected_jackknife", None),
    "mc.estimate_difference_moment": ("jackvar.mc", "estimate_difference_moment", None),
    "mc.efron_stein_bias": ("jackvar.mc", "efron_stein_bias", None),
    "mc.estimate_bracket": ("jackvar.mc", "estimate_bracket", None),
}

MC_ESTIMATES = frozenset(name for name in TARGETS if name.startswith(("mc.estimate", "mc.efron")))
EXACT_ENGINE = frozenset(
    {"cli.parse_config", "model.tabulate", "conditional.cache_build", "bounds.exact_report"}
)

# Counts recorded at a span's boundary, from its arguments and result.
COUNTERS = {
    "model.on_indices": ("model.on_indices_rows", lambda args, result: len(args[2])),
    "hoeffding.decompose": ("hoeffding.components", lambda args, result: len(result.components)),
}
for _name in MC_ESTIMATES - {"mc.estimate_bracket"}:  # the bracket's parts count
    COUNTERS[_name] = ("mc.samples", lambda args, result: result.samples)

# Peak-allocation metric -> span names whose outermost calls it covers.
PEAKS = {
    "hoeffding.decompose_peak_alloc_mb": frozenset({"hoeffding.decompose"}),
    "mc.peak_alloc_mb": MC_ESTIMATES,
    "jackknife.classical_peak_alloc_mb": frozenset({"jackknife.classical"}),
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted attribute path of a module."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class _Patches:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def wrap(self, name: str, make_wrapper):
        module, path, only_in = TARGETS[name]
        owner, attr, original = _resolve(module, path)
        wrapper = functools.wraps(original)(make_wrapper(original))
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            mods = [m for key, m in sys.modules.items()
                    if key == "jackvar" or key.startswith("jackvar.")]
            if only_in is not None:
                mods = [sys.modules[key] for key in only_in]
            sites = [(m, key) for m in mods for key, v in vars(m).items() if v is original]
        for obj, key in sites:
            self._saved.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def restore(self):
        for obj, key, original in reversed(self._saved):
            setattr(obj, key, original)
        self._saved.clear()


class Tracer:
    """Spans in flat arrays; span i's parent is an earlier index, or -1."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.op_id = -1
        self._stack = [-1]

    def _wrapper(self, name: str):
        code = self.names.index(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def make(fn):
            def traced(*args, **kwargs):
                i = len(self.start)
                self.name_id.append(code)
                self.parent.append(stack[-1])
                self.op.append(self.op_id)
                self.end.append(0.0)
                stack.append(i)
                self.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[i] = clock()
                    stack.pop()
                if counter is not None:
                    key, amount = counter
                    self.counts[key] = self.counts.get(key, 0) + amount(args, result)
                return result

            return traced

        return make

    @contextlib.contextmanager
    def installed(self):
        patches = _Patches()
        try:
            for name in TARGETS:
                patches.wrap(name, self._wrapper(name))
            yield self
        finally:
            patches.restore()

    def __len__(self):
        return len(self.start)

    def children(self) -> list[list[int]]:
        kids = [[] for _ in range(len(self))]
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(i)
        return kids

    def write(self, path):
        """All spans as one gzipped JSON object of parallel columns."""
        doc = {
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


class PeakAlloc:
    """Largest tracemalloc peak of any outermost call of each `PEAKS` group."""

    def __init__(self):
        self.peak_mb = {metric: 0.0 for metric in PEAKS}

    def _wrapper(self, metric: str):
        def make(fn):
            def measured(*args, **kwargs):
                if tracemalloc.is_tracing():  # nested in a measured call
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_mb[metric] = max(self.peak_mb[metric], peak)

            return measured

        return make

    @contextlib.contextmanager
    def installed(self):
        patches = _Patches()
        try:
            for metric, names in PEAKS.items():
                for name in names:
                    patches.wrap(name, self._wrapper(metric))
            yield self
        finally:
            patches.restore()


def _outermost(tracer: Tracer, names: frozenset) -> list[int]:
    """Spans named in `names` with no ancestor also named in `names`."""
    codes = {tracer.names.index(n) for n in names}
    inside = [False] * len(tracer)
    out = []
    for i in range(len(tracer)):
        p = tracer.parent[i]
        covered = p >= 0 and (inside[p] or tracer.name_id[p] in codes)
        inside[i] = covered
        if tracer.name_id[i] in codes and not covered:
            out.append(i)
    return out


def busy_s(tracer: Tracer, names) -> float:
    """Wall time covered by calls to `names`, nested calls counted once."""
    return sum(tracer.end[i] - tracer.start[i] for i in _outermost(tracer, frozenset(names)))


def self_s(tracer: Tracer, names, excluded=None, kids=None) -> float:
    """Busy time of `names` minus the spans of `excluded` they cover.

    Descends through other spans to reach the topmost `excluded` spans.
    With excluded=None every direct child span is subtracted.
    """
    kids = kids if kids is not None else tracer.children()
    codes = None if excluded is None else {tracer.names.index(n) for n in excluded}
    total = 0.0
    for top in _outermost(tracer, frozenset(names)):
        total += tracer.end[top] - tracer.start[top]
        todo = list(kids[top])
        while todo:
            c = todo.pop()
            if codes is None or tracer.name_id[c] in codes:
                total -= tracer.end[c] - tracer.start[c]
            else:
                todo.extend(kids[c])
    return total


def calls(tracer: Tracer, name: str) -> int:
    code = tracer.names.index(name)
    return sum(1 for c in tracer.name_id if c == code)


def layer_metrics(tracer: Tracer, ops: int, peaks: PeakAlloc) -> dict[str, float]:
    """Every per-layer metric, per op traced (peaks are maxima, in MB)."""
    kids = tracer.children()

    def per_op(x):
        return x / ops

    def busy(*names):
        return per_op(busy_s(tracer, names))

    def self_time(names, excluded=None):
        return per_op(self_s(tracer, names, excluded, kids))

    rows = tracer.counts.get("model.on_indices_rows", 0)
    samples = tracer.counts.get("mc.samples", 0)
    return {
        "conditional.var_sequence_s": busy("conditional.var_sequence"),
        "conditional.var_sequence_calls": per_op(calls(tracer, "conditional.var_sequence")),
        "jackknife.spectrum_self_s": self_time({"jackknife.spectrum"}, {"conditional.var_sequence"}),
        "hoeffding.decompose_s": busy("hoeffding.decompose"),
        "hoeffding.components": per_op(tracer.counts.get("hoeffding.components", 0)),
        "hoeffding.decompose_peak_alloc_mb": peaks.peak_mb["hoeffding.decompose_peak_alloc_mb"],
        "bounds.exact_report_self_s": self_time(
            {"bounds.exact_report"}, {"jackknife.spectrum", "hoeffding.decompose"}),
        "conditional.cache_build_s": busy("conditional.cache_build"),
        "model.tabulate_s": busy("model.tabulate"),
        "cli.parse_config_s": busy("cli.parse_config"),
        "cli.run_self_s": self_time({"cli.main"}, EXACT_ENGINE),
        "mc.stream_rng_calls": per_op(calls(tracer, "mc.stream_rng")),
        "mc.stream_rng_s": busy("mc.stream_rng"),
        "model.on_indices_calls": per_op(calls(tracer, "model.on_indices")),
        "model.on_indices_rows": per_op(rows),
        "model.on_indices_s": busy("model.on_indices"),
        "mc.samples": per_op(samples),
        "mc.evals_per_sample": rows / samples if samples else 0.0,
        "mc.estimate_s": busy(*MC_ESTIMATES),
        "mc.self_s": self_time(MC_ESTIMATES, {"model.on_indices", "mc.stream_rng"}),
        "mc.peak_alloc_mb": peaks.peak_mb["mc.peak_alloc_mb"],
        "selfcheck.check_instance_s": busy("selfcheck.check_instance"),
        "selfcheck.check_instance_self_s": self_time({"selfcheck.check_instance"}),
        "conditional.iterated_variance_s": busy("conditional.iterated_variance"),
        "conditional.iterated_variance_ie_s": busy("conditional.iterated_variance_ie"),
        "jackknife.difference_moment_s": busy("jackknife.difference_moment"),
        "jackknife.difference_moment_calls": per_op(calls(tracer, "jackknife.difference_moment")),
        "jackknife.classical_s": busy("jackknife.classical"),
        "jackknife.classical_peak_alloc_mb": peaks.peak_mb["jackknife.classical_peak_alloc_mb"],
    }


def nesting_violations(tracer: Tracer) -> list[int]:
    """Spans that start before or end after their parent, or whose children
    together last longer than they do."""
    bad = []
    kids = tracer.children()
    for i in range(len(tracer)):
        p = tracer.parent[i]
        if p >= 0 and not (tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]):
            bad.append(i)
        elif kids[i] and sum(tracer.end[c] - tracer.start[c] for c in kids[i]) > (
                tracer.end[i] - tracer.start[i]):
            bad.append(i)
    return bad
