"""The benchmark's workloads: seeded inputs, one callable per op, and the
independent oracle that checks each op's output.

Every input comes from a numpy Philox generator keyed by the workload seed.
The seed changes values only: the list of op kinds and shapes in a pass is
fixed, so a claim measured on one seed can be re-checked on another.

A pass is the fixed list of ops a workload cycles through. `Op.run(pass_index)`
performs the library call that is timed; `Op.check(output)` compares the
output with the benchmark's own computation and returns a problem string, or
None when the output is right.  Ops look library functions up on their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from jackvar import bounds, cli, jackknife, mc, model, selfcheck

MASK64 = (1 << 64) - 1

# Tolerances the library documents, restated here so the checks stay fixed
# even if the library's constants move.
IDENTITY_TOL = 1e-9
INEQUALITY_TOL = 1e-10
MC_SIGMAS = 6.0
CLASSICAL_REL = 1e-12

# exact_report: (coordinates, support size, configs per pass).  Binary n=6..9
# is dominated by the ~3*3^n var_sequence calls on small grids; the wide grids
# (n=4..7, supports 3..16, up to 65536 outcomes) by numpy reductions and the
# JSON parse and write of large tables.
# The counts put p50 inside the n=6 binary group (sorted ops 16..24 of 40) and
# p90 inside the n=7 m=3 group (34..37), not on the edge between two shapes.
EXACT_PLAN = (
    (4, 8, 4),
    (5, 3, 4),
    (5, 4, 4),
    (4, 12, 4),
    (6, 2, 9),
    (6, 3, 3),
    (4, 16, 2),
    (6, 4, 2),
    (7, 2, 2),
    (7, 3, 4),
    (8, 2, 1),
    (9, 2, 1),
)

# mc_estimate: iid spaces (coordinates, support size) with a ustat2 statistic.
# At n=10, subset_mode="auto" enumerates k <= 2 and samples k = 3; n=40 lifts
# the outcome cap, as nothing on the MC path materialises the joint grid.
MC_SPACES = ((10, 4), (40, 3))
MC_ESTIMATORS = ("var", "ej1", "ej2", "ek1", "ek2", "ek3", "bracket1", "bias")
MC_SAMPLES = 1000
MC_ROUNDS = 3
MC_BIG_SAMPLES = 100_000  # one large-sample variance op per pass, at n=40

# battery: identity-check instances per coordinate count n = 1..5, with
# support sizes 2..4 following the selfcheck recipe, interleaved with
# classical_jackknife ops on value vectors of these lengths.
BATTERY_PER_N = 8
BATTERY_MIN_PROB = 0.05
CLASSICAL_LENGTHS = (500, 2000, 5000)


@dataclass
class Op:
    kind: str  # shape label; identical for every seed
    run: Callable[[int], object]
    check: Callable[[object], "str | None"]


def spread(ops: list[Op]) -> list[Op]:
    """Order a pass so that the ops of each kind are spaced evenly through it.

    The speed of a shared host drifts over seconds; spacing each kind out
    makes its latencies sample the whole run, not a few short windows.
    """
    count = {}
    for op in ops:
        count[op.kind] = count.get(op.kind, 0) + 1
    first = {kind: i for i, kind in enumerate(count)}
    seen = dict.fromkeys(count, 0)
    keyed = []
    for op in ops:
        keyed.append(((seen[op.kind] + 0.5) / count[op.kind], first[op.kind], op))
        seen[op.kind] += 1
    return [op for *_, op in sorted(keyed, key=lambda k: k[:2])]


def workload_rng(seed: int, tag: int) -> np.random.Generator:
    """Philox generator for one workload; `tag` separates the workloads' streams."""
    if not 0 <= seed <= MASK64:
        raise ValueError("seed must fit in 64 bits")
    return np.random.Generator(np.random.Philox(key=seed | (tag << 64)))


def _weights(probs: list[np.ndarray]) -> np.ndarray:
    """Joint weights in the library's enumeration (coordinate 1 fastest)."""
    w = np.ones(1)
    for p in probs:
        w = np.outer(p, w).ravel()
    return w


def _law(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    support = np.sort(rng.uniform(-1.0, 1.0, m))
    w = rng.random(m) + 0.1
    return support, w / w.sum()


# --------------------------------------------------------------------------
# exact_report


def exact_problems(d: dict, n: int, var: float, scale: float) -> str | None:
    """Problems in one exact report section, against the benchmark's variance."""
    tol = IDENTITY_TOL * scale
    slack = INEQUALITY_TOL * scale
    if d["n"] != n:
        return f"report n={d['n']}, config n={n}"
    if not abs(d["var_exact"] - var) <= tol:
        return f"var_exact {d['var_exact']!r} != two-pass variance {var!r}"
    for name, r in d["identity_residuals"].items():
        if not abs(r) <= tol:
            return f"identity residual {name} = {r!r}"
    if len(d["brackets"]) != n // 2:
        return f"{len(d['brackets'])} brackets for n={n}"
    for b in d["brackets"]:
        chain = (b["lower_j"], b["lower_jk"], var, b["upper_jk"], b["upper_j"])
        if any(lo > hi + slack for lo, hi in zip(chain, chain[1:])):
            return f"bracket chain p={b['p']} out of order: {chain}"
    p0 = d["p0_chain"]
    for chain in (
        (0.0, p0["ek1"], var, p0["ej1"]),
        (0.0, p0["half_ek2"], p0["bias"], p0["half_ej2"]),
    ):
        if any(lo > hi + slack for lo, hi in zip(chain, chain[1:])):
            return f"p0 chain out of order: {chain}"
    return None


def exact_ops(seed: int, workdir: Path, plan=EXACT_PLAN) -> list[Op]:
    """One `jackvar run --engine exact` per config, called through `cli.main`."""
    rng = workload_rng(seed, 1)
    ops = []
    for n, m, count in plan:
        for _ in range(count):
            laws = [_law(rng, m) for _ in range(n)]
            values = rng.uniform(-1.0, 1.0, m**n)
            w = _weights([p for _, p in laws])
            mean = float(np.sum(w * values))
            var = float(np.sum(w * (values - mean) ** 2))
            scale = max(1.0, float(np.sum(w * values**2)))
            doc = {
                "distributions": [
                    {"support": s.tolist(), "probs": p.tolist()} for s, p in laws
                ],
                "statistic": {"kind": "table", "params": {"values": values.tolist()}},
                "engine": "exact",
            }
            index = len(ops)
            config = workdir / f"config_{index}.json"
            out_base = workdir / f"report_{index}"
            # json.dumps uses the C encoder; json.dump to a file does not, and
            # would make the benchmark's own writing most of set-up time.
            config.write_text(json.dumps(doc))
            ops.append(_exact_op(f"exact n={n} m={m}", config, out_base, n, var, scale))
    return spread(ops)


def _exact_op(kind, config: Path, out_base: Path, n, var, scale) -> Op:
    argv = ["run", str(config), "--engine", "exact", "--out", str(out_base)]
    report = Path(str(out_base) + ".json")

    def run(_pass):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(report) as fh:
            doc = json.load(fh)
        os.remove(report)  # a stale report must not pass the next check
        d = doc["exact"]
        if bounds.BoundsReport.from_dict(d).to_dict() != d:
            return "report does not round-trip through BoundsReport.from_dict"
        return exact_problems(d, n, var, scale)

    return Op(kind, run, check)


# --------------------------------------------------------------------------
# mc_estimate


def ustat2_moments(n: int, probs: np.ndarray, g: np.ndarray) -> dict:
    """Closed forms for S = sum_{i<j} g(x_i) g(x_j) on n iid coordinates.

    With mu = E g and tau^2 = Var g the degree spectrum is
    sigma_1 = n (n-1)^2 mu^2 tau^2, sigma_2 = C(n,2) tau^4, sigma_j = 0 for
    j >= 3, and every moment follows from it.
    """
    mu = float(np.sum(probs * g))
    tau2 = float(np.sum(probs * (g - mu) ** 2))
    sigma = [0.0] * (n + 1)
    sigma[1] = n * (n - 1) ** 2 * mu**2 * tau2
    sigma[2] = math.comb(n, 2) * tau2**2

    def ej(k):
        return math.factorial(k) * sum(math.comb(j, k) * sigma[j] for j in range(k, n + 1))

    def ek(k):
        return math.factorial(k) * sigma[k] if k <= n else 0.0

    var = sum(sigma)
    lower_j = sum((-1) ** (k + 1) * ej(k) / math.factorial(k) for k in (1, 2))
    upper_j = ej(1)
    return {
        "var": var,
        "ej1": ej(1),
        "ej2": ej(2),
        "ek1": ek(1),
        "ek2": ek(2),
        "ek3": ek(3),
        "bias": ej(1) - var,
        "bracket1": {
            "lower_j": lower_j,
            "lower_jk": lower_j + ek(3) / 6.0,
            "upper_jk": upper_j - ek(2) / 2.0,
            "upper_j": upper_j,
        },
        "scale": max(1.0, var + (math.comb(n, 2) * mu**2) ** 2),
    }


def mc_problem(est, target: float, scale: float) -> str | None:
    if not abs(est.mean - target) <= MC_SIGMAS * est.std_error + IDENTITY_TOL * scale:
        return (f"estimate {est.mean!r} +- {est.std_error!r} is more than "
                f"{MC_SIGMAS:g} SE from {target!r}")
    return None


def _mc_call(name: str, space, stat, cfg):
    if name == "var":
        return mc.estimate_variance(space, stat, cfg)
    if name == "bias":
        return mc.efron_stein_bias(space, stat, cfg)
    if name == "bracket1":
        return mc.estimate_bracket(space, stat, 1, cfg)
    k = int(name[2:])
    if name.startswith("ej"):
        return mc.estimate_iterated_jackknife(space, stat, k, cfg)
    return mc.estimate_projected_jackknife(space, stat, k, cfg)


def _mc_op(kind, name, space, stat, samples, base_seed, expected) -> Op:
    def run(pass_index):
        cfg = mc.McConfig(seed=(base_seed + pass_index) & MASK64, outer_samples=samples)
        return _mc_call(name, space, stat, cfg)

    def check(est):
        target = expected[name]
        if name != "bracket1":
            return mc_problem(est, target, expected["scale"])
        for field, value in target.items():
            problem = mc_problem(getattr(est, field), value, expected["scale"])
            if problem:
                return f"{field}: {problem}"
        return None

    return Op(kind, run, check)


def mc_ops(seed: int, workdir: Path = None, spaces=MC_SPACES, samples=MC_SAMPLES,
           rounds=MC_ROUNDS, big_samples=MC_BIG_SAMPLES) -> list[Op]:
    """Public MC estimator calls on iid ustat2 spaces, checked against closed forms."""
    rng = workload_rng(seed, 2)
    built = []
    for n, m in spaces:
        support, probs = _law(rng, m)
        g = rng.uniform(0.25, 1.25, m)  # keeps mu = E g away from 0
        law = model.DiscreteDistribution(support, probs)
        space = model.build_space([law] * n, cap=m**n)
        stat = model.Statistic.pair_interaction(list(zip(support.tolist(), g.tolist())))
        built.append((n, m, space, stat, ustat2_moments(n, probs, g)))
    ops = []
    for _ in range(rounds):
        for n, m, space, stat, expected in built:
            for name in MC_ESTIMATORS:
                base = int(rng.integers(0, 1 << 62))
                ops.append(_mc_op(f"mc {name} n={n} m={m}", name, space, stat,
                                  samples, base, expected))
    if big_samples:
        n, m, space, stat, expected = built[-1]
        base = int(rng.integers(0, 1 << 62))
        ops.append(_mc_op(f"mc var n={n} m={m} big", "var", space, stat,
                          big_samples, base, expected))
    return spread(ops)


# --------------------------------------------------------------------------
# battery


def battery_shapes(per_n=BATTERY_PER_N) -> list[tuple[int, ...]]:
    """Support sizes of each instance in a pass: n = 1..5, sizes cycling 2..4."""
    return [
        tuple(2 + (r + c) % 3 for c in range(n))
        for n in range(1, 6)
        for r in range(per_n)
    ]


def battery_problem(checks) -> str | None:
    items = [(name, v, IDENTITY_TOL) for name, v in checks.residuals.items()]
    items += [(name, v, INEQUALITY_TOL) for name, v in checks.violations.items()]
    if not items:
        return "instance check returned no residuals"
    for name, value, tol in items:
        if not value <= tol:  # also catches NaN
            return f"{name} = {value!r} exceeds {tol:g}"
    return None


def centered_sum_of_squares(v: np.ndarray) -> float:
    """O(m) two-pass oracle for classical_jackknife."""
    mean = math.fsum(v) / v.size
    return math.fsum((v - mean) ** 2)


def _instance_op(shape, laws, values, perm_seed) -> Op:
    def run(_pass):
        space = model.build_space([model.DiscreteDistribution(s, p) for s, p in laws])
        stat = model.Statistic.table(values)
        perm_rng = np.random.Generator(np.random.Philox(key=perm_seed))
        return selfcheck.check_instance(space, stat, perm_rng)

    return Op(f"battery instance {shape}", run, battery_problem)


def _classical_op(values) -> Op:
    expected = centered_sum_of_squares(values)

    def check(total):
        if not abs(total - expected) <= CLASSICAL_REL * max(1.0, abs(expected)):
            return f"classical_jackknife {total!r} != two-pass {expected!r}"
        return None

    return Op(f"battery classical m={values.size}",
              lambda _pass: jackknife.classical_jackknife(values), check)


def battery_ops(seed: int, workdir: Path = None, per_n=BATTERY_PER_N,
                lengths=CLASSICAL_LENGTHS) -> list[Op]:
    """Identity-check instances, with classical_jackknife ops spread among them."""
    rng = workload_rng(seed, 3)
    instances = []
    for shape in battery_shapes(per_n):
        laws = []
        for m in shape:
            support = rng.uniform(-1.0, 1.0, m)
            w = rng.random(m)
            laws.append((support, BATTERY_MIN_PROB + (1.0 - BATTERY_MIN_PROB * m) * w / w.sum()))
        values = rng.uniform(-1.0, 1.0, math.prod(shape))
        instances.append(_instance_op(shape, laws, values, int(rng.integers(0, 1 << 62))))
    classical = [_classical_op(rng.normal(3.0, 2.0, m)) for m in lengths]
    return spread(instances + classical)


WORKLOADS = {
    "exact_report": exact_ops,
    "mc_estimate": mc_ops,
    "battery": battery_ops,
}
