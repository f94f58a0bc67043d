"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

They run tiny versions of each workload, so they take a few seconds.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench.worker import ROOT, import_library, run_loop

jackvar = import_library()

from jackvar import bounds, jackknife, mc, selfcheck  # noqa: E402

from perfbench import trace, workloads  # noqa: E402

TINY = {
    "exact_report": lambda seed, workdir: workloads.exact_ops(
        seed, workdir, plan=((2, 2, 1), (3, 3, 1), (4, 2, 1))),
    "mc_estimate": lambda seed, workdir: workloads.mc_ops(
        seed, workdir, spaces=((5, 3), (8, 2)), samples=400, rounds=1, big_samples=1000),
    "battery": lambda seed, workdir: workloads.battery_ops(
        seed, workdir, per_n=1, lengths=(50, 200)),
}


@pytest.fixture(params=sorted(TINY))
def workload(request):
    return request.param


def _one_pass(name, tmp_path, seed=1, tracer=None):
    ops = TINY[name](seed, tmp_path)
    return ops, run_loop(ops, 0.0, 1, tracer)


def test_full_plans_keep_their_shape_across_seeds(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        if name == "exact_report":
            continue  # writes ~250k table values per seed; the tiny plan covers it
        kinds = [[op.kind for op in build(seed, tmp_path)] for seed in (1, 2)]
        assert kinds[0] == kinds[1] and kinds[0]


def test_seed_changes_values_not_shapes(tmp_path, workload):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    a = TINY[workload](1, tmp_path / "a")
    b = TINY[workload](1, tmp_path / "b")
    c = TINY[workload](2, tmp_path / "c")
    assert [op.kind for op in a] == [op.kind for op in b] == [op.kind for op in c]
    if workload == "exact_report":
        outputs = [(d / "config_2.json").read_text() for d in
                   (tmp_path / "a", tmp_path / "b", tmp_path / "c")]
    elif workload == "battery":
        i = max(i for i, op in enumerate(a) if "classical" in op.kind)
        outputs = [ops[i].run(0) for ops in (a, b, c)]
    else:
        outputs = [ops[-1].run(0).mean for ops in (a, b, c)]
    assert outputs[0] == outputs[1] != outputs[2]


def test_every_op_passes_its_check(tmp_path, workload):
    ops, result = _one_pass(workload, tmp_path)
    assert result["failures"] == []
    assert len(result["latencies"]) == len(ops)


def _plant(workload, monkeypatch):
    """Make the library return a wrong result for every op of a workload."""
    if workload == "exact_report":
        variance = bounds.variance
        monkeypatch.setattr(bounds, "variance", lambda f: variance(f) + 1e-6)
    elif workload == "mc_estimate":
        estimate_from = mc._estimate_from

        def biased(*args, **kwargs):
            est = estimate_from(*args, **kwargs)
            return dataclasses.replace(est, mean=est.mean + 10.0 * est.std_error + 1e-3)

        monkeypatch.setattr(mc, "_estimate_from", biased)
    else:
        variance = selfcheck.variance
        monkeypatch.setattr(selfcheck, "variance", lambda f: variance(f) + 1e-6)
        classical = jackknife.classical_jackknife
        monkeypatch.setattr(jackknife, "classical_jackknife",
                            lambda v: classical(v) * (1.0 + 1e-9))


def test_check_catches_a_planted_wrong_result(tmp_path, workload, monkeypatch):
    ops = TINY[workload](1, tmp_path)
    _plant(workload, monkeypatch)
    result = run_loop(ops, 0.0, 1)
    # every op ran, every op was caught by its check (not by an exception)
    assert len(result["latencies"]) == len(ops)
    assert len(result["failures"]) == len(ops)
    assert not any(f["problem"].startswith(("raised", "check raised"))
                   for f in result["failures"])


def test_child_spans_never_exceed_their_parent(tmp_path, workload):
    tracer = trace.Tracer()
    with tracer.installed():
        _, result = _one_pass(workload, tmp_path, tracer=tracer)
    assert result["failures"] == []
    assert len(tracer) > 0
    assert any(p >= 0 for p in tracer.parent)
    assert trace.nesting_violations(tracer) == []


def test_tracer_puts_the_library_back():
    originals = (mc.stream_rng, jackknife.var_sequence, jackvar.Statistic.on_indices,
                 jackvar.exact_report, jackvar.CondExpCache.__init__)
    with trace.Tracer().installed():
        assert mc.stream_rng is not originals[0]
        assert jackvar.exact_report is not originals[3]
    assert (mc.stream_rng, jackknife.var_sequence, jackvar.Statistic.on_indices,
            jackvar.exact_report, jackvar.CondExpCache.__init__) == originals


BYPASSED = {
    "exact_report": ("mc.",),
    "battery": ("mc.",),
    "mc_estimate": ("conditional.", "hoeffding.", "jackknife.spectrum_self_s"),
}


def test_layers_a_workload_bypasses_read_zero(tmp_path, workload):
    tracer = trace.Tracer()
    peaks = trace.PeakAlloc()
    ops = TINY[workload](1, tmp_path)
    with peaks.installed():
        run_loop(ops, 0.0, 1)
    with tracer.installed():
        result = run_loop(ops, 0.0, 1, tracer)
    layers = trace.layer_metrics(tracer, len(result["latencies"]), peaks)
    zero = {k: v for k, v in layers.items() if k.startswith(BYPASSED[workload])}
    assert zero and all(v == 0 for v in zero.values())
    busy = {k: v for k, v in layers.items() if k not in zero}
    assert sum(1 for v in busy.values() if v > 0) >= 5


def test_self_time_subtracts_named_descendants():
    tracer = trace.Tracer()
    names = tracer.names
    # parent [0, 10] -> child A [1, 4] -> grandchild B [2, 3]; child B [5, 9]
    for name, parent, start, end in (("cli.main", -1, 0.0, 10.0),
                                     ("bounds.exact_report", 0, 1.0, 4.0),
                                     ("jackknife.spectrum", 1, 2.0, 3.0),
                                     ("jackknife.spectrum", 0, 5.0, 9.0)):
        tracer.name_id.append(names.index(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    assert trace.self_s(tracer, {"cli.main"}) == 10.0 - 3.0 - 4.0
    assert trace.self_s(tracer, {"cli.main"}, {"jackknife.spectrum"}) == 10.0 - 1.0 - 4.0
    assert trace.busy_s(tracer, {"jackknife.spectrum"}) == 5.0
    assert trace.nesting_violations(tracer) == []


def test_ustat2_closed_form_matches_the_exact_engine():
    rng = np.random.Generator(np.random.Philox(key=9))
    n, m = 4, 3
    support, probs = np.sort(rng.uniform(-1, 1, m)), rng.dirichlet(np.ones(m))
    g = rng.uniform(0.25, 1.25, m)
    space = jackvar.build_space([jackvar.DiscreteDistribution(support, probs)] * n)
    stat = jackvar.Statistic.pair_interaction(list(zip(support.tolist(), g.tolist())))
    report = jackvar.exact_report(jackvar.CondExpCache(jackvar.tabulate(stat, space)))
    want = workloads.ustat2_moments(n, probs, g)
    got = {"var": report.var_exact, "ej1": report.ej[0], "ej2": report.ej[1],
           "ek1": report.ek[0], "ek2": report.ek[1], "ek3": report.ek[2],
           "bias": report.p0.bias}
    for key, value in got.items():
        assert math.isclose(value, want[key], rel_tol=1e-9, abs_tol=1e-12), key
    b = report.brackets[0]
    for key, value in want["bracket1"].items():
        assert math.isclose(getattr(b, key), value, rel_tol=1e-9, abs_tol=1e-12), key


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spread_spaces_each_kind_through_the_pass():
    ops = [workloads.Op(kind, None, None) for kind in "aaaabbc"]
    order = [op.kind for op in workloads.spread(ops)]
    assert sorted(order) == list("aaaabbc")
    assert order == list("abacaba")
    assert workloads.spread(ops)[0] is ops[0]  # same kind keeps its build order
