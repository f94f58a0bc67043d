import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import jackvar as jv
from jackvar.selfcheck import random_instance

import bruteforce as bf

from conftest import random_iid_space, symmetric_table_statistic


class TestMomentFixtures:
    def test_rad2_prod(self, prod_cache):
        jack = jv.jackknife_spectrum(prod_cache)
        assert jack.ej == pytest.approx((2.0, 2.0), abs=1e-12)
        assert jack.ek == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_rad2_sum(self, sum_cache):
        jack = jv.jackknife_spectrum(sum_cache)
        assert jack.ej == pytest.approx((2.0, 0.0), abs=1e-12)
        assert jack.ek == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_rad3_u2(self, u2_cache):
        jack = jv.jackknife_spectrum(u2_cache)
        assert jack.ej == pytest.approx((6.0, 6.0, 0.0), abs=1e-12)
        assert jack.ek == pytest.approx((0.0, 6.0, 0.0), abs=1e-12)

    def test_constant(self, rad2):
        cache = jv.CondExpCache(jv.tabulate(jv.Statistic.table([2.0] * 4), rad2))
        jack = jv.jackknife_spectrum(cache)
        assert jack.ej == (0.0, 0.0)
        assert jack.ek == (0.0, 0.0)


class TestFloatRange:
    def test_orders_past_170_are_refused(self):
        with pytest.raises(jv.ModelError, match=r"order k=171: k! exceeds the float range"):
            jv.JackknifeSpectrum.from_spectrum([0.0] * 170 + [1.0], 1.0)

    def test_overflowing_moment_is_refused_not_inf(self):
        # every k! fits a float, but k! C(170, k) 1e10 does not for k near 160
        with pytest.raises(jv.ModelError, match=r"order k=(\d+): ej_\1 = inf leaves the float range"):
            jv.JackknifeSpectrum.from_spectrum([0.0] * 169 + [1e10], 1.0)

    def test_largest_order_that_fits(self):
        jack = jv.JackknifeSpectrum.from_spectrum([0.0] * 169 + [1.0], 1.0)
        assert jack.ek[169] == float(math.factorial(170))


class TestPrefixMoments:
    def test_first_order_is_variance(self):
        rng = np.random.Generator(np.random.Philox(key=53))
        for _ in range(5):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            assert jv.jackknife_spectrum(cache).er[0] == pytest.approx(
                jv.variance(cache.base), abs=1e-12 * cache.scale
            )

    def test_rad2_prod_chain(self, prod_cache):
        # er_2 = ej_1/1! - er_1 and 2! er_2 = ej_2
        jack = jv.jackknife_spectrum(prod_cache)
        er1, er2 = jack.er
        assert er1 == pytest.approx(1.0, abs=1e-12)
        assert er2 == pytest.approx(2.0 - 1.0, abs=1e-12)
        assert 2.0 * er2 == pytest.approx(jack.ej[1], abs=1e-12)

    def test_rad3_terminal(self, u2_cache):
        # n! er_n = ej_n
        jack = jv.jackknife_spectrum(u2_cache)
        assert math.factorial(3) * jack.er[2] == pytest.approx(jack.ej[2], abs=1e-12)

    def test_moment_ordering(self):
        # ek_k <= k! er_k <= ej_k
        rng = np.random.Generator(np.random.Philox(key=59))
        for _ in range(10):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            jack = jv.jackknife_spectrum(cache)
            tol = 1e-10 * cache.scale
            for k in range(1, space.n + 1):
                kf = math.factorial(k)
                assert jack.ek[k - 1] <= kf * jack.er[k - 1] + tol
                assert kf * jack.er[k - 1] <= jack.ej[k - 1] + tol


class TestAgainstBruteforce:
    def test_moments_match_definitions(self):
        # the engine derives every family from the subset masses; the oracle
        # sums the recursive iterated variances subset by subset
        rng = np.random.Generator(np.random.Philox(key=131))
        for _ in range(4):
            dists = []
            for _ in range(int(rng.integers(1, 4))):
                m = int(rng.integers(1, 4))
                dists.append(jv.DiscreteDistribution(rng.uniform(-1, 1, m), rng.dirichlet(np.ones(m))))
            space = jv.build_space(dists)
            values = rng.uniform(-1.0, 1.0, space.n_outcomes)
            cache = jv.CondExpCache(jv.tabulate(jv.Statistic.table(values), space))
            jack = jv.jackknife_spectrum(cache)
            bs = bf.BruteSpace([d.support for d in dists], [d.probs for d in dists])
            table = dict(zip(bs.indices, values))
            for k in range(1, space.n + 1):
                assert jack.ej[k - 1] == pytest.approx(bf.expected_j(bs, table, k), abs=1e-12)
                assert jack.ek[k - 1] == pytest.approx(bf.expected_k(bs, table, k), abs=1e-12)
                assert jack.er[k - 1] == pytest.approx(bf.expected_r(bs, table, k), abs=1e-12)


class TestDifferenceMoment:
    def test_rad2_prod_single(self, rad2, prod_stat):
        assert jv.iterated_difference_moment(jv.tabulate(prod_stat, rad2), [1]) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_rad2_prod_pair(self, rad2, prod_stat):
        assert jv.iterated_difference_moment(jv.tabulate(prod_stat, rad2), [1, 2]) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_constant(self, rad2):
        c = jv.Statistic.table([5.0] * 4)
        assert jv.iterated_difference_moment(jv.tabulate(c, rad2), [1, 2]) == 0.0

    def test_matches_scaled_iterated_variance(self):
        rng = np.random.Generator(np.random.Philox(key=61))
        for _ in range(8):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            w = space.joint_weights()
            for mask in range(1, 1 << space.n):
                iset = jv.IndexSet.from_mask(mask)
                moment = jv.iterated_difference_moment(cache.base, iset)
                e_var = float(np.sum(w * jv.iterated_variance(cache, iset).array))
                assert abs(moment / 2.0 ** len(iset) - e_var) <= 1e-9 * cache.scale

    def test_matches_bruteforce(self, rad3, u2_stat):
        bs, fn = bf.fixture("RAD3-U2")
        for subset in ([1], [2, 3], [1, 2, 3]):
            got = jv.iterated_difference_moment(jv.tabulate(u2_stat, rad3), subset)
            want = bf.difference_moment(bs, fn, subset)
            assert got == pytest.approx(want, abs=1e-12)

    def test_extended_overflow(self):
        d = jv.DiscreteDistribution.rademacher()
        sp = jv.build_space([d] * 4, cap=20)  # 16 outcomes fits, 32 does not
        with pytest.raises(jv.ModelError, match="cap"):
            jv.iterated_difference_moment(jv.tabulate(jv.Statistic.coordinate_max(), sp), [1])

    def test_extended_grid_axes(self):
        # 63 axes tabulate; two copy axes make 65, beyond numpy's 64
        sp = jv.build_space([jv.DiscreteDistribution.point_mass(0.0)] * 63)
        table = jv.tabulate(jv.Statistic.coordinate_max(), sp)
        assert jv.iterated_difference_moment(table, [1]) == 0.0
        with pytest.raises(jv.ModelError, match=r"grid for subset \[1, 2\]: 65 axes exceed numpy's 64"):
            jv.iterated_difference_moment(table, [1, 2])

    def test_empty_subset(self, rad2, prod_stat):
        with pytest.raises(jv.ModelError):
            jv.iterated_difference_moment(jv.tabulate(prod_stat, rad2), [])

    def test_sampled_mode_close(self, rad3, u2_stat):
        cfg = jv.McConfig(seed=9, outer_samples=20000)
        est = jv.estimate_difference_moment(rad3, u2_stat, [1, 2], cfg).mean
        exact = jv.iterated_difference_moment(jv.tabulate(u2_stat, rad3), [1, 2])
        assert abs(est - exact) < 0.5


class TestConsistencyAcrossOrders:
    def test_total_moment_from_difference_moments(self):
        # ej_k = k! * sum_I moment(I) / 2^k
        rng = np.random.Generator(np.random.Philox(key=67))
        for _ in range(5):
            space, stat = random_instance(rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            jack = jv.jackknife_spectrum(cache)
            import itertools

            for k in range(1, space.n + 1):
                total = sum(
                    jv.iterated_difference_moment(cache.base, subset)
                    for subset in itertools.combinations(range(1, space.n + 1), k)
                )
                want = math.factorial(k) * total / 2.0**k
                assert abs(jack.ej[k - 1] - want) <= 1e-9 * cache.scale


class TestSymmetricCollapse:
    def test_collapse_identity(self):
        # permutation-invariant S on iid coordinates:
        # ej_k = n (n-1) ... (n-k+1) * E[var(1..k) S]
        rng = np.random.Generator(np.random.Philox(key=71))
        for _ in range(5):
            n = int(rng.integers(3, 6))
            space = random_iid_space(rng, n)
            stat = symmetric_table_statistic(space, rng)
            cache = jv.CondExpCache(jv.tabulate(stat, space))
            w = space.joint_weights()
            ej = jv.jackknife_spectrum(cache).ej
            for k in range(1, n + 1):
                falling = math.perm(n, k)
                lead = float(
                    np.sum(w * jv.iterated_variance(cache, range(1, k + 1)).array)
                )
                got = ej[k - 1]
                want = falling * lead
                assert abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want))


class TestMonotoneVanishing:
    def test_depends_on_few_coordinates(self, rad3):
        # S = x1 * x2 ignores coordinate 3, so every order above 2 vanishes
        stat = jv.Statistic.polynomial([(1.0, (1, 1, 0))])
        cache = jv.CondExpCache(jv.tabulate(stat, rad3))
        ej = jv.jackknife_spectrum(cache).ej
        assert ej[2] == pytest.approx(0.0, abs=1e-12)
        assert ej[1] == pytest.approx(2.0, abs=1e-12)


class TestClassicalJackknife:
    def test_basic(self):
        assert jv.classical_jackknife([1.0, 2.0, 3.0]) == pytest.approx(2.0, abs=1e-14)
        assert jv.classical_jackknife([0.0, 2.0]) == pytest.approx(2.0, abs=1e-14)

    def test_all_equal(self):
        assert jv.classical_jackknife([4.0] * 6) == 0.0

    def test_too_short(self):
        with pytest.raises(jv.ModelError):
            jv.classical_jackknife([1.0])

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30))
    def test_pairwise_identity(self, values):
        got = jv.classical_jackknife(values)
        want = bf.classical_pairwise(values)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

    def test_matches_bruteforce(self):
        rng = np.random.Generator(np.random.Philox(key=73))
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(2, 12)))
            assert jv.classical_jackknife(v) == pytest.approx(
                bf.classical_jackknife(v.tolist()), abs=1e-11
            )

    def test_million_values(self):
        # the self-check is O(m): no m x m matrix
        v = np.random.Generator(np.random.Philox(key=137)).normal(3.0, 2.0, 10**6)
        want = bf.classical_jackknife(v.tolist())
        assert jv.classical_jackknife(v) == pytest.approx(want, rel=1e-9)
