import dataclasses

import numpy as np
import pytest

import jackvar as jv
from jackvar.conditional import axis_mean
from jackvar.model import GridSizeError
from jackvar.selfcheck import random_instance

import bruteforce as bf


class TestComponentFixtures:
    def test_rad2_prod(self, prod_cache):
        pair = jv.hoeffding_component(prod_cache, [1, 2])
        assert np.array_equal(pair.values, prod_cache.base.values)
        single = jv.hoeffding_component(prod_cache, [1])
        assert np.allclose(single.array, 0.0)

    def test_rad2_sum(self, sum_cache, rad2):
        x1 = jv.tabulate(jv.Statistic.linear([1.0, 0.0]), rad2)
        assert np.allclose(jv.hoeffding_component(sum_cache, [1]).array, x1.array)
        assert np.allclose(jv.hoeffding_component(sum_cache, [1, 2]).array, 0.0)

    def test_constant(self, rad2):
        cache = jv.CondExpCache(jv.tabulate(jv.Statistic.table([3.0] * 4), rad2))
        for indices in ([1], [2], [1, 2]):
            assert np.allclose(jv.hoeffding_component(cache, indices).array, 0.0)

    def test_empty_rejected(self, prod_cache):
        with pytest.raises(jv.ModelError):
            jv.hoeffding_component(prod_cache, [])


class TestSpectrumFixtures:
    def test_values(self, prod_cache, sum_cache, u2_cache):
        assert jv.degree_spectrum(prod_cache) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert jv.degree_spectrum(sum_cache) == pytest.approx((2.0, 0.0), abs=1e-12)
        assert jv.degree_spectrum(u2_cache) == pytest.approx((0.0, 3.0, 0.0), abs=1e-12)


@pytest.fixture(scope="module")
def instances():
    rng = np.random.Generator(np.random.Philox(key=79))
    out = []
    for _ in range(15):
        space, stat = random_instance(rng)
        cache = jv.CondExpCache(jv.tabulate(stat, space))
        out.append((cache, jv.decompose(cache)))
    return out


class TestDecompositionInvariants:
    def test_degeneracy(self, instances):
        for cache, decomp in instances:
            for iset, comp in decomp.components.items():
                for s in iset:
                    killed = axis_mean(cache.space, comp.array, s)
                    assert np.max(np.abs(killed)) <= 1e-9 * cache.scale

    def test_support(self, instances):
        for cache, decomp in instances:
            for iset, comp in decomp.components.items():
                for c in range(1, cache.space.n + 1):
                    if c not in iset:
                        flat = axis_mean(cache.space, comp.array, c)
                        assert np.max(np.abs(comp.array - flat)) <= 1e-9 * cache.scale

    def test_reconstruction(self, instances):
        for cache, decomp in instances:
            recon = decomp.reconstruction()
            assert np.max(np.abs(recon.array - cache.base.array)) <= 1e-9 * cache.scale

    def test_orthogonality_totals(self, instances):
        for cache, decomp in instances:
            var = jv.variance(cache.base)
            assert abs(var - sum(decomp.spectrum)) <= 1e-9 * cache.scale
            assert abs(var - sum(decomp.masses.values())) <= 1e-9 * cache.scale

    def test_partial_sums_match_conditional_means(self, instances):
        # averaging out the complement of I keeps exactly the subsets of I
        for cache, decomp in instances:
            n = cache.space.n
            full = (1 << n) - 1
            for mask in range(1 << n):
                iset = jv.IndexSet.from_mask(mask)
                lhs = cache._expect_mask(full & ~mask).array
                rhs = decomp.subset_sum_table(iset).array
                assert np.max(np.abs(lhs - rhs)) <= 1e-9 * cache.scale

    def test_superset_mass_identity(self, instances):
        # E[var(I) S] collects the squared mass of every superset of I
        for cache, decomp in instances:
            w = cache.space.joint_weights()
            for mask in range(1, 1 << cache.space.n):
                iset = jv.IndexSet.from_mask(mask)
                e_var = float(np.sum(w * jv.iterated_variance(cache, iset).array))
                assert abs(e_var - decomp.superset_mass(iset)) <= 1e-9 * cache.scale


class TestAgainstBruteforce:
    def test_components_match_residualization(self):
        # the oracle builds components by peeling, the engine by Moebius sums
        rng = np.random.Generator(np.random.Philox(key=83))
        for _ in range(4):
            space, stat = random_instance(rng)
            if space.n > 3:
                continue  # keep the pure-python oracle cheap
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            decomp = jv.decompose(cache)
            bs = bf.BruteSpace(
                [d.support for d in space.dists], [d.probs for d in space.dists]
            )
            table = {idx: v for idx, v in zip(bs.indices, cache.base.values)}
            _, comps = bf.hoeffding_components(bs, table)
            for subset, want in comps.items():
                got = decomp.components[jv.IndexSet(subset)].values
                for idx, g in zip(bs.indices, got):
                    assert g == pytest.approx(want[idx], abs=1e-10)


class TestSubsetMasses:
    def test_match_residualization_masses(self):
        # mixed supports, including a zero-probability value and a one-point
        # coordinate; the oracle squares its peeled-off components
        rng = np.random.Generator(np.random.Philox(key=127))
        laws = [
            jv.DiscreteDistribution([-1.0, 0.5, 2.0], [0.3, 0.0, 0.7]),
            jv.DiscreteDistribution.point_mass(0.25),
            jv.DiscreteDistribution([0.0, 1.0], [0.2, 0.8]),
            jv.DiscreteDistribution([-2.0, -1.0, 1.0, 3.0], [0.1, 0.4, 0.3, 0.2]),
        ]
        for _ in range(6):
            picks = rng.permutation(len(laws))[: int(rng.integers(1, 4))]
            space = jv.build_space([laws[i] for i in picks])
            values = rng.uniform(-1.0, 1.0, space.n_outcomes)
            masses = jv.subset_masses(space, jv.tabulate(jv.Statistic.table(values), space).array)
            bs = bf.BruteSpace([d.support for d in space.dists], [d.probs for d in space.dists])
            table = dict(zip(bs.indices, values))
            total, comps = bf.hoeffding_components(bs, table)
            assert masses.shape == (1 << space.n,)
            assert masses[0] == pytest.approx(total**2, abs=1e-12)
            for subset, h in comps.items():
                want = bf.mean(bs, {idx: v * v for idx, v in h.items()})
                assert masses[jv.IndexSet(subset).mask] == pytest.approx(want, abs=1e-12)

    def test_constant_has_no_variance_mass(self, rad2):
        table = jv.tabulate(jv.Statistic.table([1.5] * 4), rad2)
        assert jv.subset_masses(rad2, table.array).tolist() == [2.25, 0.0, 0.0, 0.0]

    def test_decompose_counts_its_component_tables(self):
        # 16 outcomes and 16 masses fit a cap of 100; 2^4 tables of 16 values do not
        space = jv.build_space([jv.DiscreteDistribution.rademacher()] * 4, cap=100)
        cache = jv.CondExpCache(jv.tabulate(jv.Statistic.coordinate_max(), space))
        assert len(jv.degree_spectrum(cache)) == 4
        with pytest.raises(GridSizeError, match=r"component tables: 256 float64 values \(2048 bytes\)"):
            jv.decompose(cache)

    def test_decompose_masses_match_components(self, instances):
        for cache, decomp in instances:
            w = cache.space.joint_weights()
            for iset, comp in decomp.components.items():
                squared = float(np.sum(w * comp.array**2))
                assert abs(decomp.masses[iset] - squared) <= 1e-9 * cache.scale


def _spectrum_residual(jack, spectrum, var) -> float:
    res = jv.identity_residuals(jack, spectrum, var)
    return max(res.spectrum_total, res.spectrum_projected, res.spectrum_mix)


class TestSpectrumIdentities:
    def test_zero_residual_on_fixtures(self, prod_cache, u2_cache):
        for cache in (prod_cache, u2_cache):
            jack = jv.jackknife_spectrum(cache)
            var = jv.variance(cache.base)
            assert _spectrum_residual(jack, jv.degree_spectrum(cache), var) <= 1e-12

    def test_detects_corruption(self, u2_cache):
        jack = jv.jackknife_spectrum(u2_cache)
        spectrum = jv.degree_spectrum(u2_cache)
        var = jv.variance(u2_cache.base)
        bad = list(spectrum)
        bad[1] += 0.1
        assert _spectrum_residual(jack, bad, var) > 0.01
        # a wrong projected moment breaks the total/projected identity on its own
        wrong = dataclasses.replace(jack, ek=jack.ek[:2] + (jack.ek[2] + 0.6,))
        assert jv.identity_residuals(wrong, spectrum, var).spectrum_mix > 0.01

    def test_length_mismatch(self, u2_cache):
        jack = jv.jackknife_spectrum(u2_cache)
        with pytest.raises(jv.ModelError):
            jv.identity_residuals(jack, (1.0,), 0.0)
