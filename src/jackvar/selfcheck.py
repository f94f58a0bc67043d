"""Randomized cross-module identity battery.

One battery run draws a stream of small random instances (n in 1..5,
support sizes 2..4, probabilities bounded away from zero by 0.05, table
statistics with values in [-1, 1]) and evaluates every exact identity and
inequality the library promises, reporting the worst residual per identity
normalized by the instance scale max(1, E S^2).

Exact identities must hold to 1e-9 * scale; inequality chains may be
violated by at most 1e-10 * scale.  Degenerate instances (point masses,
constant statistics) are legitimate draws and must pass like any other.

The library computes every jackknife moment from the Hoeffding subset
masses.  This module is where the independent paths run: it sums the three
moment families from their subset definitions (recursive iterated
variances, projected and prefix-smoothed), runs `bounds.identity_residuals`
on those sums, and compares them with the mass-derived moments
(`oracle_vs_masses`).

Each oracle subproblem is built once per instance and dropped when the
check returns.  The three families are roots of one `VarianceStates` memo
(the total var({}, I), the projected var(~I, I), the prefix
var({1..min I - 1}, I)), and `difference_moments` builds every subset's
extended-grid difference in one depth-first walk.  The checks those two
share nothing with stay literal: `iterated_variance_ie` per subset, the
recursion in a random order (`iterated_variance`, one `perm_rng` shuffle per
subset of two or more, in mask order) and the pair decomposition.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import all_brackets, identity_residuals, p0_chain
from .conditional import (
    CondExpCache,
    VarianceStates,
    axis_mean,
    cond_mean_mask,
    iterated_variance,
    iterated_variance_ie,
    var_sequence,
)
from .hoeffding import decompose
from .jackknife import JackknifeSpectrum, difference_moments
from .model import (
    DiscreteDistribution,
    IndexSet,
    Statistic,
    build_space,
    tabulate,
    variance,
)

IDENTITY_TOL = 1e-9
INEQUALITY_TOL = 1e-10

MIN_PROB = 0.05


def random_instance(rng: np.random.Generator):
    """One random (space, statistic) pair per the documented recipe."""
    n = int(rng.integers(1, 6))
    dists = []
    for _ in range(n):
        m = int(rng.integers(2, 5))
        support = rng.uniform(-1.0, 1.0, m)
        w = rng.random(m)
        w = w / w.sum()
        probs = MIN_PROB + (1.0 - MIN_PROB * m) * w
        dists.append(DiscreteDistribution(support, probs))
    space = build_space(dists)
    statistic = Statistic.table(rng.uniform(-1.0, 1.0, space.n_outcomes))
    return space, statistic


def instance_config(space, statistic) -> dict:
    """Replay-ready CLI config for one `table` instance, the kind `random_instance` draws."""
    return {
        "distributions": [
            {"support": list(d.support), "probs": list(d.probs)} for d in space.dists
        ],
        "statistic": {"kind": statistic.kind, "params": {"values": statistic.params.tolist()}},
        "engine": "exact",
    }


@dataclass
class InstanceChecks:
    """Normalized residuals/violations of every identity on one instance."""

    residuals: dict
    violations: dict
    scale: float


def check_instance(space, statistic, perm_rng: np.random.Generator) -> InstanceChecks:
    base = tabulate(statistic, space)
    cache = CondExpCache(base)
    scale = cache.scale
    decomp = decompose(cache)
    jack = JackknifeSpectrum.from_spectrum(decomp.spectrum, scale)
    var_exact = variance(base)
    n = space.n
    w = space.joint_weights()
    full = (1 << n) - 1

    res: dict[str, float] = {}
    vio: dict[str, float] = {}

    def _amax(arr) -> float:
        return float(np.max(np.abs(arr))) if np.size(arr) else 0.0

    # per-subset machinery, and the moment families summed from their
    # definitions: E var(I) of the base, of the base projected onto I, and
    # of the base averaged over the coordinates before min(I), all three roots
    # of one memo of iterated-variance states
    states = VarianceStates(space, base.array)
    moments = difference_moments(base)
    var_tables = {}
    paths = 0.0
    orders = 0.0
    superset = 0.0
    diff = 0.0
    jensen = 0.0
    total_terms = [[] for _ in range(n)]
    projected_terms = [[] for _ in range(n)]
    prefix_terms = [[] for _ in range(n)]
    for mask in range(1, 1 << n):
        iset = IndexSet.from_mask(mask)
        rec = cache.clamp(states.state(0, mask), f"iterated_variance({iset.indices})")
        ie = iterated_variance_ie(cache, iset)
        var_tables[mask] = rec
        paths = max(paths, _amax(rec - ie.array))
        if len(iset) >= 2:
            order = list(iset.indices)
            perm_rng.shuffle(order)
            permuted = iterated_variance(cache, order)
            orders = max(orders, _amax(rec - permuted.array))
        e_var = float(np.sum(w * rec))
        superset = max(superset, abs(e_var - decomp.superset_mass(iset)))
        diff = max(diff, abs(moments[mask] / 2.0 ** len(iset) - e_var))
        e_var_projected = float(np.sum(w * states.state(full & ~mask, mask)))
        prefix_mask = (1 << (iset.indices[0] - 1)) - 1
        e_var_smoothed = float(np.sum(w * states.state(prefix_mask, mask)))
        jensen = max(jensen, e_var_smoothed - e_var)
        total_terms[len(iset) - 1].append(e_var)
        projected_terms[len(iset) - 1].append(e_var_projected)
        prefix_terms[len(iset) - 1].append(e_var_smoothed)
    res["variance_paths"] = paths
    res["order_permutation"] = orders
    res["superset_mass"] = superset
    res["difference_moment"] = diff
    vio["jensen_prefix"] = max(jensen, 0.0)

    oracle = JackknifeSpectrum(
        n=n,
        scale=scale,
        ej=tuple(math.factorial(k) * math.fsum(t) for k, t in enumerate(total_terms, 1)),
        ek=tuple(math.factorial(k) * math.fsum(t) for k, t in enumerate(projected_terms, 1)),
        er=tuple(math.fsum(t) for t in prefix_terms),
    )
    res["oracle_vs_masses"] = max(
        abs(a - b)
        for family in ("ej", "ek", "er")
        for a, b in zip(getattr(oracle, family), getattr(jack, family))
    )

    # the series, recursion and spectrum identities, on the definitional sums
    res.update(asdict(identity_residuals(oracle, decomp.spectrum, var_exact)))

    # two-index decomposition: var(i,j) = avg_ij (S - avg_ij S)^2
    #                                      - var(i) avg_j S - var(j) avg_i S
    pair = 0.0
    for i, j in itertools.combinations(range(1, n + 1), 2):
        mij = (1 << (i - 1)) | (1 << (j - 1))
        center = cond_mean_mask(space, base.array, mij)
        spread = cond_mean_mask(space, (base.array - center) ** 2, mij)
        cross_i = var_sequence(space, axis_mean(space, base.array, j), [i])
        cross_j = var_sequence(space, axis_mean(space, base.array, i), [j])
        pair = max(pair, _amax(var_tables[mij] - (spread - cross_i - cross_j)))
    res["pair_decomposition"] = pair

    # Hoeffding structure
    recon = decomp.reconstruction()
    res["reconstruction"] = _amax(recon.array - base.array)
    degen = 0.0
    support_res = 0.0
    partial = 0.0
    for iset, comp in decomp.components.items():
        for s in iset.indices:
            degen = max(degen, _amax(axis_mean(space, comp.array, s)))
        for c in range(1, n + 1):
            if c not in iset:
                support_res = max(
                    support_res, _amax(comp.array - axis_mean(space, comp.array, c))
                )
    for mask in range(0, 1 << n):
        iset = IndexSet.from_mask(mask)
        lhs = cache._expect_mask(full & ~mask).array
        rhs = decomp.subset_sum_table(iset).array
        partial = max(partial, _amax(lhs - rhs))
    res["degeneracy"] = degen
    res["component_support"] = support_res
    res["partial_sums"] = partial
    res["orthogonality"] = max(
        abs(var_exact - sum(decomp.spectrum)),
        abs(var_exact - sum(decomp.masses.values())),
    )

    # inequality chains
    chain = 0.0
    for b in all_brackets(jack):
        chain = max(
            chain,
            b.lower_j - b.lower_jk,
            b.lower_jk - var_exact,
            var_exact - b.upper_jk,
            b.upper_jk - b.upper_j,
        )
    vio["bracket_chain"] = max(chain, 0.0)

    p0 = p0_chain(jack, var_exact)
    vio["p0_chain"] = max(
        0.0,
        -p0.ek1,
        p0.ek1 - p0.var,
        p0.var - p0.ej1,
        -p0.half_ek2,
        p0.half_ek2 - p0.bias,
        p0.bias - p0.half_ej2,
    )
    vio["efron_stein"] = max(0.0, var_exact - jack.ej[0])

    order_chain = 0.0
    for k in range(1, n + 1):
        kf = math.factorial(k)
        order_chain = max(
            order_chain,
            jack.ek[k - 1] - kf * jack.er[k - 1],
            kf * jack.er[k - 1] - jack.ej[k - 1],
        )
    vio["moment_order"] = max(order_chain, 0.0)

    inv = 1.0 / scale
    return InstanceChecks(
        residuals={k: v * inv for k, v in res.items()},
        violations={k: v * inv for k, v in vio.items()},
        scale=scale,
    )


@dataclass
class BatteryResult:
    instances: int
    seed: int
    identity_max: dict
    inequality_max: dict
    failures: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list[str]:
        lines = [f"{'identity':<24}{'max residual':>14}  tolerance"]
        for name in sorted(self.identity_max):
            lines.append(
                f"{name:<24}{self.identity_max[name]:>14.3e}  {IDENTITY_TOL:.0e}"
            )
        for name in sorted(self.inequality_max):
            lines.append(
                f"{name:<24}{self.inequality_max[name]:>14.3e}  {INEQUALITY_TOL:.0e}"
            )
        return lines


def run_battery(n_instances: int, seed: int) -> BatteryResult:
    """Draw instances, check everything, track worst normalized residuals."""
    master = np.random.Generator(np.random.Philox(key=seed))
    perm_rng = np.random.Generator(np.random.Philox(key=seed, counter=1 << 192))
    identity_max: dict[str, float] = {}
    inequality_max: dict[str, float] = {}
    failures = []
    t0 = time.perf_counter()
    for index in range(n_instances):
        space, statistic = random_instance(master)
        checks = check_instance(space, statistic, perm_rng)
        bad = {}
        for name, val in checks.residuals.items():
            identity_max[name] = max(identity_max.get(name, 0.0), val)
            if val > IDENTITY_TOL:
                bad[name] = val
        for name, val in checks.violations.items():
            inequality_max[name] = max(inequality_max.get(name, 0.0), val)
            if val > INEQUALITY_TOL:
                bad[name] = val
        if bad:
            failures.append(
                {
                    "index": index,
                    "bad": bad,
                    "config": instance_config(space, statistic),
                }
            )
    return BatteryResult(
        instances=n_instances,
        seed=seed,
        identity_max=identity_max,
        inequality_max=inequality_max,
        failures=failures,
        elapsed_s=time.perf_counter() - t0,
    )
