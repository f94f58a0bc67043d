import dataclasses

import numpy as np

import jackvar as jv
from jackvar import selfcheck
from jackvar.selfcheck import (
    IDENTITY_TOL,
    INEQUALITY_TOL,
    check_instance,
    instance_config,
    random_instance,
    run_battery,
)


def test_battery_deterministic():
    a = run_battery(8, 123)
    b = run_battery(8, 123)
    assert a.identity_max == b.identity_max
    assert a.inequality_max == b.inequality_max


def test_instances_respect_recipe():
    rng = np.random.Generator(np.random.Philox(key=55))
    for _ in range(30):
        space, stat = random_instance(rng)
        assert 1 <= space.n <= 5
        for d in space.dists:
            assert 2 <= d.size <= 4
            assert min(d.probs) >= 0.05 - 1e-12
        assert stat.kind == "table"
        assert np.max(np.abs(stat.params)) <= 1.0


def test_degenerate_instance_passes():
    # point-mass coordinates and a constant statistic are legal inputs
    pm = jv.DiscreteDistribution.point_mass(2.0)
    rad = jv.DiscreteDistribution.rademacher()
    space = jv.build_space([pm, rad, pm])
    stat = jv.Statistic.table([0.7] * space.n_outcomes)
    perm = np.random.Generator(np.random.Philox(key=1))
    checks = check_instance(space, stat, perm)
    assert max(checks.residuals.values()) <= IDENTITY_TOL
    assert max(checks.violations.values()) <= INEQUALITY_TOL


def test_skewed_instance_passes():
    skew = jv.DiscreteDistribution([0.0, 1.0], [0.05, 0.95])
    space = jv.build_space([skew] * 3)
    stat = jv.Statistic.coordinate_max()
    perm = np.random.Generator(np.random.Philox(key=2))
    checks = check_instance(space, stat, perm)
    assert max(checks.residuals.values()) <= IDENTITY_TOL
    assert max(checks.violations.values()) <= INEQUALITY_TOL


def test_instance_config_replays():
    from jackvar.cli import parse_config

    rng = np.random.Generator(np.random.Philox(key=77))
    space, stat = random_instance(rng)
    cfg = parse_config(instance_config(space, stat))
    assert cfg.space.shape == space.shape
    assert np.array_equal(
        jv.tabulate(cfg.statistic, cfg.space).values, jv.tabulate(stat, space).values
    )


def test_instance_config_replays_the_statistic():
    from jackvar.cli import parse_config

    rng = np.random.Generator(np.random.Philox(key=78))
    for _ in range(5):
        space, stat = random_instance(rng)
        replayed = parse_config(instance_config(space, stat)).statistic
        assert replayed == stat and hash(replayed) == hash(stat)
        assert not replayed.params.flags.writeable


def test_oracle_catches_a_wrong_mass_path(monkeypatch):
    # the series identities run on the definitional sums, so a wrong
    # mass-derived moment shows only in the oracle comparison
    right = selfcheck.JackknifeSpectrum.from_spectrum

    def wrong(spectrum, scale):
        jack = right(spectrum, scale)
        return dataclasses.replace(jack, ek=(jack.ek[0] + 1e-6,) + jack.ek[1:])

    monkeypatch.setattr(selfcheck.JackknifeSpectrum, "from_spectrum", staticmethod(wrong))
    space, stat = random_instance(np.random.Generator(np.random.Philox(key=3)))
    checks = check_instance(space, stat, np.random.Generator(np.random.Philox(key=4)))
    assert checks.residuals["oracle_vs_masses"] > IDENTITY_TOL
    assert checks.residuals["projected_series"] <= IDENTITY_TOL


def test_report_and_battery_share_the_identity_names():
    space, stat = random_instance(np.random.Generator(np.random.Philox(key=5)))
    report = jv.exact_report(jv.CondExpCache(jv.tabulate(stat, space)))
    names = list(report.to_dict()["identity_residuals"])
    assert names == [f.name for f in dataclasses.fields(jv.IdentityResiduals)]
    checks = check_instance(space, stat, np.random.Generator(np.random.Philox(key=6)))
    assert set(names) <= set(checks.residuals)
