import dataclasses
import json
import math

import numpy as np
import pytest

import jackvar as jv
from jackvar import bounds, conditional, hoeffding, jackknife
from jackvar.selfcheck import random_instance


class TestBracketFixtures:
    def test_rad2_prod(self, prod_cache):
        jack = jv.jackknife_spectrum(prod_cache)
        b = jv.partial_sum_bracket(jack, 1)
        assert b.lower_j == pytest.approx(1.0, abs=1e-12)
        assert b.upper_j == pytest.approx(2.0, abs=1e-12)
        assert b.upper_jk == pytest.approx(1.0, abs=1e-12)
        # 2p+1 = 3 > n = 2, so the lower correction is zero
        assert b.lower_jk == pytest.approx(1.0, abs=1e-12)

    def test_rad3_u2(self, u2_cache):
        jack = jv.jackknife_spectrum(u2_cache)
        b = jv.partial_sum_bracket(jack, 1)
        assert b.lower_j == pytest.approx(3.0, abs=1e-12)
        assert b.upper_j == pytest.approx(6.0, abs=1e-12)
        assert b.upper_jk == pytest.approx(3.0, abs=1e-12)
        assert b.lower_jk == pytest.approx(3.0, abs=1e-12)
        assert jv.variance(u2_cache.base) == pytest.approx(3.0, abs=1e-12)

    def test_constant(self, rad2):
        cache = jv.CondExpCache(jv.tabulate(jv.Statistic.table([1.5] * 4), rad2))
        jack = jv.jackknife_spectrum(cache)
        b = jv.partial_sum_bracket(jack, 1)
        assert (b.lower_j, b.lower_jk, b.upper_jk, b.upper_j) == (0.0, 0.0, 0.0, 0.0)
        res = jv.identity_residuals(jack, jv.degree_spectrum(cache), 0.0)
        assert res.prefix_recursion == 0.0
        assert max(res.spectrum_total, res.spectrum_projected, res.spectrum_mix) == 0.0

    def test_p_out_of_range(self, u2_cache):
        jack = jv.jackknife_spectrum(u2_cache)
        for p in (0, 2):
            with pytest.raises(jv.ModelError):
                jv.partial_sum_bracket(jack, p)

    def test_chain_holds_on_random_instances(self):
        rng = np.random.Generator(np.random.Philox(key=89))
        for _ in range(15):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            jack = jv.jackknife_spectrum(cache)
            var = jv.variance(cache.base)
            tol = 1e-10 * cache.scale
            for b in jv.all_brackets(jack):
                assert b.lower_j <= b.lower_jk + tol
                assert b.lower_jk <= var + tol
                assert var <= b.upper_jk + tol
                assert b.upper_jk <= b.upper_j + tol


def _residuals(cache):
    """`identity_residuals` on the moments and spectrum of one cached instance."""
    jack = jv.jackknife_spectrum(cache)
    return jv.identity_residuals(jack, jv.degree_spectrum(cache), jv.variance(cache.base))


def _series(res) -> float:
    return max(res.alternating_series, res.mixed_series, res.projected_series)


def test_bracket_orders_past_170_are_refused():
    # p = 85 at n = 171 corrects with order 2p + 1 = 171, whose 1/k! is below the float range
    with pytest.raises(jv.ModelError, match=r"order k=171"):
        bounds.bracket_terms(171, 85)
    assert bounds.bracket_terms(170, 85)["upper_jk"][-1] == ("ek", 170, -1.0 / math.factorial(170))


class TestVarianceIdentities:
    def test_fixture_residuals(self, prod_cache, sum_cache, u2_cache):
        for cache in (prod_cache, sum_cache, u2_cache):
            assert _series(_residuals(cache)) <= 1e-12

    def test_rad2_prod_arithmetic(self, prod_cache):
        # var = 2 - 2/2 = ej1 - (1/2) ek2 = 0 + 2/2
        jack = jv.jackknife_spectrum(prod_cache)
        assert jack.ej[0] - jack.ej[1] / 2 == pytest.approx(1.0, abs=1e-12)
        assert jack.ej[0] - 0.5 * jack.ek[1] == pytest.approx(1.0, abs=1e-12)
        assert jack.ek[0] + jack.ek[1] / 2 == pytest.approx(1.0, abs=1e-12)

    def test_random_residuals(self):
        rng = np.random.Generator(np.random.Philox(key=97))
        for _ in range(15):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            assert _series(_residuals(cache)) <= 1e-9 * cache.scale


class TestRecursionCheck:
    def test_fixtures(self, prod_cache, u2_cache):
        for cache in (prod_cache, u2_cache):
            assert _residuals(cache).prefix_recursion <= 1e-12

    def test_random(self):
        rng = np.random.Generator(np.random.Philox(key=101))
        for _ in range(15):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            assert _residuals(cache).prefix_recursion <= 1e-9 * cache.scale


class TestP0Chain:
    def test_rad3_values(self, u2_cache):
        jack = jv.jackknife_spectrum(u2_cache)
        chain = jv.p0_chain(jack, jv.variance(u2_cache.base))
        assert chain.ek1 == pytest.approx(0.0, abs=1e-12)
        assert chain.var == pytest.approx(3.0, abs=1e-12)
        assert chain.ej1 == pytest.approx(6.0, abs=1e-12)
        assert chain.half_ek2 == pytest.approx(3.0, abs=1e-12)
        assert chain.bias == pytest.approx(3.0, abs=1e-12)
        assert chain.half_ej2 == pytest.approx(3.0, abs=1e-12)

    def test_single_coordinate(self):
        sp = jv.build_space([jv.DiscreteDistribution.rademacher()])
        cache = jv.CondExpCache(jv.tabulate(jv.Statistic.linear([1.0]), sp))
        chain = jv.p0_chain(jv.jackknife_spectrum(cache), jv.variance(cache.base))
        assert chain.half_ek2 == 0.0 and chain.half_ej2 == 0.0
        assert chain.bias == pytest.approx(0.0, abs=1e-12)

    def test_efron_stein_upper_bound(self):
        rng = np.random.Generator(np.random.Philox(key=103))
        for _ in range(10):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            jack = jv.jackknife_spectrum(cache)
            var = jv.variance(cache.base)
            assert var <= jack.ej[0] + 1e-10 * cache.scale


class TestDegreeBound:
    def test_rad3_pure_degree(self, u2_cache):
        rep = jv.exact_report(u2_cache)
        assert rep.corollary is not None
        assert rep.corollary.degree == 2
        assert rep.corollary.upper == pytest.approx(3.0, abs=1e-12)
        assert rep.corollary.lower == pytest.approx(3.0, abs=1e-12)

    def test_rad2_sum_first_degree(self, sum_cache):
        rep = jv.exact_report(sum_cache)
        assert rep.corollary.degree == 1
        assert rep.corollary.upper == pytest.approx(2.0, abs=1e-12)

    def test_constant_absent(self, rad2):
        cache = jv.CondExpCache(jv.tabulate(jv.Statistic.table([0.5] * 4), rad2))
        assert jv.exact_report(cache).corollary is None

    def test_bound_brackets_variance(self):
        rng = np.random.Generator(np.random.Philox(key=107))
        for _ in range(10):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            rep = jv.exact_report(cache)
            if rep.corollary is None:
                continue
            tol = 1e-10 * cache.scale
            assert rep.corollary.lower <= rep.var_exact + tol
            assert rep.var_exact <= rep.corollary.upper + tol


class TestReport:
    def test_fixture_report(self, prod_cache):
        rep = jv.exact_report(prod_cache)
        assert rep.var_exact == 1.0
        assert rep.ej == (2.0, 2.0)
        assert rep.ek == (0.0, 2.0)
        assert rep.spectrum == (0.0, 1.0)
        assert rep.identity_residuals.max_residual <= 1e-12

    def test_round_trip_field_for_field(self, u2_cache):
        rep = jv.exact_report(u2_cache)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert jv.BoundsReport.from_dict(doc) == rep

    def test_round_trip_random(self):
        rng = np.random.Generator(np.random.Philox(key=109))
        for _ in range(5):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            rep = jv.exact_report(cache)
            doc = json.loads(json.dumps(rep.to_dict()))
            assert jv.BoundsReport.from_dict(doc) == rep

    @pytest.mark.parametrize("stat, dists, p_values, brackets", [
        (jv.Statistic.table([0.5, -1.0, 2.0]), [jv.DiscreteDistribution.uniform([0.0, 1.0, 2.0])], None, []),
        (jv.Statistic.table([3.0] * 4), [jv.DiscreteDistribution.rademacher()] * 2, None, [1]),  # constant
        (jv.Statistic.polynomial([(1.0, (1, 1, 1, 1)), (0.5, (1, 0, 1, 0))]),
         [jv.DiscreteDistribution.rademacher()] * 4, [2], [2]),
    ], ids=["n1", "no-corollary", "p-subset"])
    def test_to_dict_is_the_json_form_of_asdict(self, stat, dists, p_values, brackets):
        space = jv.build_space(dists)
        rep = jv.exact_report(jv.CondExpCache(jv.tabulate(stat, space)), p_values=p_values)
        assert [b.p for b in rep.brackets] == brackets
        assert (rep.corollary is None) == (rep.var_exact == 0.0)
        assert rep.to_dict() == json.loads(json.dumps(dataclasses.asdict(rep)))
        assert jv.BoundsReport.from_dict(rep.to_dict()) == rep

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("var_exact"), "'var_exact' is missing"),
        (lambda d: d.update(extra=1.0), "'extra' is unknown"),
        (lambda d: d["identity_residuals"].pop("spectrum_total"),
         "'identity_residuals.spectrum_total' is missing"),
        # the key a report written before the spectrum_cross split carries
        (lambda d: d["identity_residuals"].update(spectrum_cross=0.0),
         "'identity_residuals.spectrum_cross' is unknown"),
        (lambda d: d["brackets"][0].pop("upper_j"), r"'brackets\[0\].upper_j' is missing"),
    ])
    def test_load_names_a_missing_or_unknown_field(self, u2_cache, edit, message):
        doc = json.loads(json.dumps(jv.exact_report(u2_cache).to_dict()))
        edit(doc)
        with pytest.raises(jv.ModelError, match=message):
            jv.BoundsReport.from_dict(doc)

    def test_spectrum_snap_keeps_raw(self, prod_cache):
        rep = jv.exact_report(prod_cache)
        # degree 1 mass is a pure rounding residue: snapped to exactly 0
        assert rep.spectrum[0] == 0.0
        assert abs(rep.spectrum_raw[0]) < 1e-12

    def test_selected_p_values(self, u2_cache):
        rep = jv.exact_report(u2_cache, p_values=[1])
        assert [b.p for b in rep.brackets] == [1]

    def test_binary_n14_table(self):
        rng = np.random.Generator(np.random.Philox(key=113))
        space = jv.build_space(
            [jv.DiscreteDistribution([0.0, 1.0], [p, 1.0 - p]) for p in rng.uniform(0.05, 0.95, 14)]
        )
        values = rng.uniform(-1.0, 1.0, space.n_outcomes)
        cache = jv.CondExpCache(jv.tabulate(jv.Statistic.table(values), space))
        rep = jv.exact_report(cache)
        tol = 1e-9 * cache.scale
        slack = 1e-10 * cache.scale
        assert rep.identity_residuals.max_residual <= tol
        assert len(rep.brackets) == 7
        chains = [(b.lower_j, b.lower_jk, rep.var_exact, b.upper_jk, b.upper_j) for b in rep.brackets]
        p0 = rep.p0_chain
        chains += [(0.0, p0.ek1, p0.var, p0.ej1), (0.0, p0.half_ek2, p0.bias, p0.half_ej2)]
        for chain in chains:
            assert all(lo <= hi + slack for lo, hi in zip(chain, chain[1:])), chain

    def test_builds_no_tables(self, u2_cache, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact report path built a table")

        for module, name in ((conditional, "var_sequence"), (jackknife, "var_sequence"),
                             (hoeffding, "hoeffding_component"), (hoeffding, "decompose")):
            monkeypatch.setattr(module, name, refuse)
        jv.exact_report(u2_cache)
        jv.jackknife_spectrum(u2_cache)
        jv.degree_spectrum(u2_cache)
