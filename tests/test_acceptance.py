"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with `pytest -s tests/test_acceptance.py` to see them inline).
"""

import json
import math
import time

import numpy as np
import pytest

import jackvar as jv
from jackvar import cli
from jackvar.selfcheck import IDENTITY_TOL, INEQUALITY_TOL, run_battery

import bruteforce as bf
from conftest import random_iid_space, symmetric_table_statistic

ACCEPT_SEED = 20260810

RAD = jv.DiscreteDistribution.rademacher()

FIXTURES = {
    # name -> (statistic, n, var, ej, ek, spectrum)
    "RAD2-PROD": (
        jv.Statistic.polynomial([(1.0, (1, 1))]),
        2,
        1.0,
        (2.0, 2.0),
        (0.0, 2.0),
        (0.0, 1.0),
    ),
    "RAD2-SUM": (
        jv.Statistic.linear([1.0, 1.0]),
        2,
        2.0,
        (2.0, 0.0),
        (2.0, 0.0),
        (2.0, 0.0),
    ),
    "RAD3-U2": (
        jv.Statistic.pair_interaction({-1.0: -1.0, 1.0: 1.0}),
        3,
        3.0,
        (6.0, 6.0, 0.0),
        (0.0, 6.0, 0.0),
        (0.0, 3.0, 0.0),
    ),
}


def _verdict(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def battery():
    return run_battery(200, ACCEPT_SEED)


def test_criterion_1_exact_identity_suite(battery):
    required = (
        "alternating_series",
        "mixed_series",
        "projected_series",
        "spectrum_total",
        "spectrum_projected",
        "spectrum_mix",
        "pair_decomposition",
        "difference_moment",
        "prefix_recursion",
        "reconstruction",
        "degeneracy",
        "component_support",
        "orthogonality",
        "partial_sums",
    )
    missing = [r for r in required if r not in battery.identity_max]
    worst = max(battery.identity_max.values())
    ok = (
        not missing
        and battery.instances == 200
        and worst <= IDENTITY_TOL
        and battery.elapsed_s < 60.0
    )
    _verdict(
        "criterion 1 (exact identity suite)",
        ok,
        f"200 instances, max residual {worst:.3e} <= {IDENTITY_TOL:.0e}, "
        f"{battery.elapsed_s:.1f}s",
    )


def test_criterion_2_inequality_suite(battery):
    worst = max(
        battery.inequality_max["bracket_chain"], battery.inequality_max["p0_chain"]
    )
    ok = worst <= INEQUALITY_TOL
    _verdict(
        "criterion 2 (inequality suite)",
        ok,
        f"max bracket/p0 violation {worst:.3e} <= {INEQUALITY_TOL:.0e}",
    )


def test_criterion_3_oracle_equivalence(battery):
    worst = max(
        battery.identity_max["variance_paths"], battery.identity_max["superset_mass"]
    )
    ok = worst <= IDENTITY_TOL
    _verdict(
        "criterion 3 (oracle equivalence)",
        ok,
        f"max pointwise/superset residual {worst:.3e} <= {IDENTITY_TOL:.0e}",
    )


def test_criterion_4_fixture_values():
    worst = 0.0
    for name, (stat, n, var, ej, ek, spectrum) in FIXTURES.items():
        space = jv.build_space([RAD] * n)
        cache = jv.CondExpCache(jv.tabulate(stat, space))
        jack = jv.jackknife_spectrum(cache)
        got = {
            "var": jv.variance(cache.base),
            "ej": jack.ej,
            "ek": jack.ek,
            "spectrum": jv.degree_spectrum(cache),
        }
        want = {"var": var, "ej": ej, "ek": ek, "spectrum": spectrum}
        brute = bf.fixture_summary(name)
        for key in want:
            w = np.atleast_1d(np.asarray(want[key]))
            g = np.atleast_1d(np.asarray(got[key]))
            b = np.atleast_1d(np.asarray(brute[key]))
            worst = max(worst, float(np.max(np.abs(g - w))), float(np.max(np.abs(b - w))))
    # corollary equality on the pure-degree fixture
    u2 = FIXTURES["RAD3-U2"][0]
    cache = jv.CondExpCache(jv.tabulate(u2, jv.build_space([RAD] * 3)))
    rep = jv.exact_report(cache)
    worst = max(worst, abs(rep.corollary.upper - 3.0), abs(rep.corollary.degree - 2))
    ok = worst <= 1e-12
    _verdict(
        "criterion 4 (fixture values)",
        ok,
        f"engine and brute-force both match frozen values to {worst:.3e} <= 1e-12",
    )


def test_criterion_5_symmetric_collapse():
    rng = np.random.Generator(np.random.Philox(key=ACCEPT_SEED + 1))
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 6))
        space = random_iid_space(rng, n)
        stat = symmetric_table_statistic(space, rng)
        cache = jv.CondExpCache(jv.tabulate(stat, space))
        w = space.joint_weights()
        ej = jv.jackknife_spectrum(cache).ej
        for k in range(1, n + 1):
            lead = float(np.sum(w * jv.iterated_variance(cache, range(1, k + 1)).array))
            got = ej[k - 1]
            want = math.perm(n, k) * lead
            worst = max(worst, abs(got - want) / max(1.0, abs(got), abs(want)))
    ok = worst <= 1e-9
    _verdict(
        "criterion 5 (symmetric collapse)",
        ok,
        f"20 symmetric statistics, max relative residual {worst:.3e} <= 1e-9",
    )


def test_criterion_6_mc_calibration(rad3, u2_stat):
    t0 = time.perf_counter()
    cache = jv.CondExpCache(jv.tabulate(u2_stat, rad3))
    jack = jv.jackknife_spectrum(cache)
    runs, samples = 200, 1000
    failures = []
    for k in (1, 2, 3):
        for label, fn, exact in (
            ("ej", jv.estimate_iterated_jackknife, jack.ej[k - 1]),
            ("ek", jv.estimate_projected_jackknife, jack.ek[k - 1]),
        ):
            means = np.empty(runs)
            ses = np.empty(runs)
            for r in range(runs):
                cfg = jv.McConfig(seed=1000 + r, outer_samples=samples)
                est = fn(rad3, u2_stat, k, cfg)
                means[r], ses[r] = est.mean, est.std_error
            grand = means.mean()
            pooled = math.sqrt(float(np.sum(ses**2))) / runs
            coverage = float(np.mean(np.abs(means - exact) <= 2 * ses))
            if abs(grand - exact) > 4 * pooled + 1e-12:
                failures.append(f"{label}[{k}] grand {grand:.4f} vs {exact}")
            if coverage < 0.90:
                failures.append(f"{label}[{k}] coverage {coverage:.2f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _verdict(
        "criterion 6 (MC calibration)",
        ok,
        f"200x1000 runs per order, all grand means within 4 pooled SE, "
        f"coverage >= 90%, {elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_7_classical_identity():
    rng = np.random.Generator(np.random.Philox(key=ACCEPT_SEED + 2))
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 41))
        scale = 10.0 ** rng.integers(0, 4)
        v = rng.normal(size=m) * scale
        got = jv.classical_jackknife(v)  # raises internally on disagreement
        want = bf.classical_pairwise(v.tolist())
        worst = max(worst, abs(got - want) / max(1.0, abs(got), abs(want)))
    ok_identity = worst <= 1e-12

    rng2 = np.random.Generator(np.random.Philox(key=ACCEPT_SEED + 3))
    bias_fixtures = [
        (jv.build_space([RAD] * 4), jv.Statistic.linear([0.25] * 4)),
        (jv.build_space([jv.DiscreteDistribution.uniform([0.0, 1.0])] * 3),
         jv.Statistic.coordinate_max()),
        (jv.build_space([RAD] * 3), jv.Statistic.pair_interaction({-1.0: -1.0, 1.0: 1.0})),
        (jv.build_space([RAD] * 4), jv.Statistic.polynomial([(1.0, (2, 0, 0, 0)),
                                                             (1.0, (0, 2, 0, 0)),
                                                             (1.0, (0, 0, 2, 0)),
                                                             (1.0, (0, 0, 0, 2))])),
    ]
    while len(bias_fixtures) < 10:
        space = random_iid_space(rng2, int(rng2.integers(3, 5)))
        bias_fixtures.append((space, symmetric_table_statistic(space, rng2)))
    min_sigma_margin = np.inf
    for i, (space, stat) in enumerate(bias_fixtures):
        est = jv.efron_stein_bias(space, stat, jv.McConfig(seed=500 + i, outer_samples=20000))
        if est.std_error > 0:
            min_sigma_margin = min(min_sigma_margin, est.mean / est.std_error)
        else:
            assert est.mean == 0.0
    ok_bias = min_sigma_margin >= -4.0
    ok = ok_identity and ok_bias
    _verdict(
        "criterion 7 (classical identity + upward bias)",
        ok,
        f"1000 vectors max relative residual {worst:.3e} <= 1e-12; "
        f"10 fixtures, worst bias t-stat {min_sigma_margin:.2f} >= -4",
    )


def test_criterion_8_cli(tmp_path, monkeypatch):
    config = {
        "distributions": [
            {"support": [-1.0, 1.0], "probs": [0.5, 0.5]},
            {"support": [-1.0, 1.0], "probs": [0.5, 0.5]},
        ],
        "statistic": {"kind": "poly", "params": {"terms": [[1.0, [1, 1]]]}},
        "engine": "exact",
        "output": {"format": "both", "path": str(tmp_path / "report")},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["run", str(cfg_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    exact = report["exact"]
    values_ok = (
        rc == 0
        and exact["var_exact"] == 1.0
        and exact["ej"] == [2.0, 2.0]
        and exact["ek"] == [0.0, 2.0]
        and exact["spectrum"] == [0.0, 1.0]
    )
    monkeypatch.chdir(tmp_path)
    rc_check = cli.main(["selfcheck", "--instances", "200", "--seed", "7"])
    ok = values_ok and rc_check == 0
    _verdict(
        "criterion 8 (CLI)",
        ok,
        f"run exit {rc} with fixture-exact report; selfcheck(200) exit {rc_check}",
    )
