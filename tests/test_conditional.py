import numpy as np
import pytest

import jackvar as jv
from jackvar.conditional import VarianceStates, axis_mean, cond_mean_mask, var_sequence
from jackvar.model import GridSizeError
from jackvar.selfcheck import random_instance

import bruteforce as bf


def make_cache(space, statistic):
    return jv.CondExpCache(jv.tabulate(statistic, space))


class TestCondExpect:
    def test_prod_kills_on_one_coordinate(self, prod_cache):
        t = prod_cache.cond_expect([1])
        assert np.allclose(t.array, 0.0)

    def test_sum_leaves_other_coordinate(self, sum_cache, rad2):
        t = sum_cache.cond_expect([2])
        x1 = jv.tabulate(jv.Statistic.linear([1.0, 0.0]), rad2)
        assert np.array_equal(t.values, x1.values)

    def test_empty_set_is_identity(self, u2_cache):
        assert u2_cache.cond_expect([]) is u2_cache.base

    def test_full_set_is_plain_mean(self, u2_cache):
        t = u2_cache.cond_expect([1, 2, 3])
        assert np.allclose(t.array, 0.0)
        assert u2_cache.mean() == 0.0

    def test_memoized(self, u2_cache):
        assert u2_cache.cond_expect([1, 3]) is u2_cache.cond_expect([3, 1])

    def test_out_of_range(self, u2_cache):
        with pytest.raises(jv.ModelError, match="out of range"):
            u2_cache.cond_expect([4])

    def test_commutation_exact(self):
        # averaging coordinate 1 then 2 equals the one-shot set operator,
        # bit for bit (ascending reduction is the canonical order)
        rng = np.random.Generator(np.random.Philox(key=17))
        for _ in range(10):
            space, stat = random_instance(rng)
            if space.n < 2:
                continue
            cache = make_cache(space, stat)
            one = cache.cond_expect([1])
            two_step = jv.CondExpCache(one).cond_expect([2])
            joint = cache.cond_expect([1, 2])
            assert np.array_equal(two_step.values, joint.values)

    def test_matches_bruteforce(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        for _ in range(5):
            space, stat = random_instance(rng)
            cache = make_cache(space, stat)
            bs = bf.BruteSpace(
                [d.support for d in space.dists], [d.probs for d in space.dists]
            )
            table = {idx: v for idx, v in zip(bs.indices, cache.base.values)}
            for mask in range(1, 1 << space.n):
                iset = jv.IndexSet.from_mask(mask)
                got = cache.cond_expect(iset).values
                want = bf.cond_mean(bs, table, list(iset.indices))
                for idx, g in zip(bs.indices, got):
                    assert g == pytest.approx(want[idx], abs=1e-12)


class TestPrefixExpect:
    def test_prefix_one_is_first_coordinate(self, sum_cache, rad2):
        t = sum_cache.cond_expect(range(2, 3))
        x1 = jv.tabulate(jv.Statistic.linear([1.0, 0.0]), rad2)
        assert np.array_equal(t.values, x1.values)

    def test_prefix_n_is_identity(self, u2_cache):
        assert u2_cache.cond_expect(range(4, 4)) is u2_cache.base

    def test_prefix_zero_is_constant_mean(self, sum_cache):
        t = sum_cache.cond_expect(range(1, 3))
        assert np.allclose(t.array, 0.0)

    def test_out_of_range(self, sum_cache):
        with pytest.raises(jv.ModelError):
            sum_cache.cond_expect(range(3, 4))


class TestIteratedVariance:
    def test_prod_full_set(self, prod_cache):
        t = jv.iterated_variance(prod_cache, [1, 2])
        assert np.allclose(t.array, 1.0)

    def test_sum_full_set(self, sum_cache):
        t = jv.iterated_variance(sum_cache, [1, 2])
        assert np.allclose(t.array, 0.0)

    def test_constant(self, rad2):
        cache = make_cache(rad2, jv.Statistic.table([7.0] * 4))
        t = jv.iterated_variance(cache, [1, 2])
        assert np.all(t.array == 0.0)

    def test_single_index_is_conditional_variance(self, u2_cache):
        space = u2_cache.space
        t = jv.iterated_variance(u2_cache, [2])
        e2 = u2_cache.cond_expect([2]).array
        sq = jv.CondExpCache(
            jv.FieldTable(space, u2_cache.base.array**2)
        ).cond_expect([2]).array
        assert np.allclose(t.array, sq - e2**2, atol=1e-12)

    def test_empty_rejected(self, u2_cache):
        with pytest.raises(jv.ModelError):
            jv.iterated_variance(u2_cache, [])
        with pytest.raises(jv.ModelError):
            jv.iterated_variance_ie(u2_cache, [])

    def test_constant_along_set(self, u2_cache):
        space = u2_cache.space
        for mask in range(1, 8):
            iset = jv.IndexSet.from_mask(mask)
            t = jv.iterated_variance(u2_cache, iset)
            for c in iset:
                rolled = np.take(t.array, [0], axis=c - 1)
                assert np.allclose(t.array, rolled, atol=1e-12)

    def test_nonnegative_after_clamp(self):
        rng = np.random.Generator(np.random.Philox(key=29))
        for _ in range(10):
            space, stat = random_instance(rng)
            cache = make_cache(space, stat)
            for mask in range(1, 1 << space.n):
                t = jv.iterated_variance(cache, jv.IndexSet.from_mask(mask))
                assert t.array.min() >= 0.0


class TestOracleEquivalence:
    def test_ie_matches_recursive_on_fixtures(self, prod_cache, u2_cache):
        for cache in (prod_cache, u2_cache):
            for mask in range(1, 1 << cache.space.n):
                iset = jv.IndexSet.from_mask(mask)
                a = jv.iterated_variance(cache, iset).array
                b = jv.iterated_variance_ie(cache, iset).array
                assert np.allclose(a, b, atol=1e-12)

    def test_ie_matches_recursive_random(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        for _ in range(20):
            space, stat = random_instance(rng)
            cache = make_cache(space, stat)
            for mask in range(1, 1 << space.n):
                iset = jv.IndexSet.from_mask(mask)
                a = jv.iterated_variance(cache, iset).array
                b = jv.iterated_variance_ie(cache, iset).array
                assert np.max(np.abs(a - b)) <= 1e-9 * cache.scale

    def test_order_irrelevance(self):
        rng = np.random.Generator(np.random.Philox(key=37))
        for _ in range(10):
            space, stat = random_instance(rng)
            if space.n < 2:
                continue
            cache = make_cache(space, stat)
            mask = (1 << space.n) - 1
            iset = jv.IndexSet.from_mask(mask)
            canonical = jv.iterated_variance(cache, iset).array
            for _ in range(2):
                order = list(iset.indices)
                rng.shuffle(order)
                permuted = jv.iterated_variance(cache, order).array
                assert np.max(np.abs(canonical - permuted)) <= 5e-12 * cache.scale

    def test_explicit_order_is_the_literal_recursion(self):
        # a list runs in its own order, bit for bit the clamped recursion along
        # it; an IndexSet or an int runs ascending
        rng = np.random.Generator(np.random.Philox(key=38))
        for _ in range(10):
            space, stat = random_instance(rng)
            cache = make_cache(space, stat)
            order = [int(i) for i in rng.permutation(np.arange(1, space.n + 1))]

            def recursion(seq):
                raw = cache.clamp(var_sequence(space, cache.base.array, seq), "")
                return np.broadcast_to(raw, space.shape)

            want = recursion(order)
            assert np.array_equal(jv.iterated_variance(cache, order).array, want)
            ascending = recursion(sorted(order))
            iset = jv.IndexSet(order)
            assert np.array_equal(jv.iterated_variance(cache, iset).array, ascending)
            single = recursion([1])
            assert np.array_equal(jv.iterated_variance(cache, 1).array, single)

    def test_averaged_axes_keep_length_one(self):
        # a conditional mean or iterated variance along coordinate i no longer
        # depends on it: axis i-1 has length 1, every other axis its full size
        space = jv.build_space([jv.DiscreteDistribution([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]),
                                jv.DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]),
                                jv.DiscreteDistribution([0.0, 1.0, 3.0, 4.0], [0.25] * 4)])
        arr = jv.tabulate(jv.Statistic.coordinate_max(), space).array
        for i in range(1, space.n + 1):
            want = space.shape[: i - 1] + (1,) + space.shape[i:]
            assert axis_mean(space, arr, i).shape == want
            assert var_sequence(space, arr, [i]).shape == want
        assert cond_mean_mask(space, arr, 0b101).shape == (1, 2, 1)
        assert var_sequence(space, arr, [3, 1]).shape == (1, 2, 1)

    def test_repeated_coordinate_refused(self, u2_cache):
        for order in ([1, 1], [2, 1, 2]):
            with pytest.raises(jv.ModelError, match="repeats a coordinate"):
                jv.iterated_variance(u2_cache, order)

    def test_matches_bruteforce_recursion(self):
        rng = np.random.Generator(np.random.Philox(key=41))
        for _ in range(4):
            space, stat = random_instance(rng)
            cache = make_cache(space, stat)
            bs = bf.BruteSpace(
                [d.support for d in space.dists], [d.probs for d in space.dists]
            )
            table = {idx: v for idx, v in zip(bs.indices, cache.base.values)}
            for mask in range(1, 1 << space.n):
                iset = jv.IndexSet.from_mask(mask)
                got = jv.iterated_variance(cache, iset).values
                want = bf.iterated_variance(bs, table, list(iset.indices))
                for idx, g in zip(bs.indices, got):
                    assert g == pytest.approx(want[idx], abs=1e-10)


class TestVarianceStates:
    def test_total_root_is_the_ascending_recursion_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(key=71))
        for _ in range(30):
            space, stat = random_instance(rng)
            cache = make_cache(space, stat)
            states = VarianceStates(space, cache.base.array)
            for mask in range(1, 1 << space.n):
                got = cache.clamp(states.state(0, mask), "")
                want = jv.iterated_variance(cache, jv.IndexSet.from_mask(mask)).array
                assert np.array_equal(np.broadcast_to(got, space.shape), want)

    def test_projected_and_prefix_roots_match_the_literal_recursion(self):
        rng = np.random.Generator(np.random.Philox(key=72))
        for _ in range(30):
            space, stat = random_instance(rng)
            cache = make_cache(space, stat)
            states = VarianceStates(space, cache.base.array)
            full = (1 << space.n) - 1
            for mask in range(1, 1 << space.n):
                indices = jv.IndexSet.from_mask(mask).indices
                prefix = (1 << (indices[0] - 1)) - 1
                for averaged in (full & ~mask, prefix):
                    literal = var_sequence(space, cache._expect_mask(averaged).array, indices)
                    got = states.state(averaged, mask)
                    assert np.max(np.abs(got - literal)) <= 1e-12 * cache.scale

    def test_states_keep_length_one_on_averaged_and_varied_axes(self):
        space = jv.build_space([jv.DiscreteDistribution([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]),
                                jv.DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]),
                                jv.DiscreteDistribution([0.0, 1.0, 3.0, 4.0], [0.25] * 4)])
        states = VarianceStates(space, jv.tabulate(jv.Statistic.coordinate_max(), space).array)
        assert states.state(0b001, 0).shape == (1, 2, 4)
        assert states.state(0b100, 0b001).shape == (1, 2, 1)
        assert states.state(0, 0b110).shape == (3, 1, 1)


class TestPairDecomposition:
    def test_two_index_identity(self):
        # var(i,j) = avg_ij (S - avg_ij S)^2 - var(i) avg_j S - var(j) avg_i S
        rng = np.random.Generator(np.random.Philox(key=43))
        for _ in range(10):
            space, stat = random_instance(rng)
            if space.n < 2:
                continue
            cache = make_cache(space, stat)
            base = cache.base.array
            lhs = jv.iterated_variance(cache, [1, 2]).array
            center = cache.cond_expect([1, 2]).array
            sq = jv.CondExpCache(
                jv.FieldTable(space, (base - center) ** 2)
            ).cond_expect([1, 2]).array
            a = var_sequence(space, cache.cond_expect([2]).array, [1])
            b = var_sequence(space, cache.cond_expect([1]).array, [2])
            assert np.max(np.abs(lhs - (sq - a - b))) <= 1e-9 * cache.scale


class TestJensen:
    def test_prefix_smoothing_shrinks_variance(self):
        # E[var(I) S] >= E[var(I) prefix-averaged S] for every subset
        rng = np.random.Generator(np.random.Philox(key=47))
        for _ in range(10):
            space, stat = random_instance(rng)
            cache = make_cache(space, stat)
            w = space.joint_weights()
            for mask in range(1, 1 << space.n):
                iset = jv.IndexSet.from_mask(mask)
                full_term = float(np.sum(w * jv.iterated_variance(cache, iset).array))
                prefix_mask = (1 << (iset.indices[0] - 1)) - 1
                smoothed = cache._expect_mask(prefix_mask).array
                smooth_term = float(
                    np.sum(w * var_sequence(space, smoothed, iset.indices))
                )
                assert smooth_term <= full_term + 1e-10 * cache.scale


class TestClamping:
    def test_small_negative_clamped(self, u2_cache):
        eps = u2_cache.clamp_eps
        arr = np.full(u2_cache.space.shape, -0.5 * eps)
        out = u2_cache.clamp(arr, "test")
        assert np.all(out == 0.0)

    def test_large_negative_raises(self, u2_cache):
        eps = u2_cache.clamp_eps
        arr = np.full(u2_cache.space.shape, -3.0 * eps)
        with pytest.raises(jv.ConsistencyError):
            u2_cache.clamp(arr, "test")


def test_exact_mode_n_cap():
    # no limit on n: 21 one-point coordinates have 2^21 subset masses, within the cap
    d = jv.DiscreteDistribution.point_mass(0.0)
    cache = jv.CondExpCache(jv.tabulate(jv.Statistic.table([1.0]), jv.build_space([d] * 21)))
    assert jv.degree_spectrum(cache) == (0.0,) * 21
    # but the masses are counted: one outcome does not make 2^11 masses fit in 2^10
    small = jv.CondExpCache(jv.tabulate(jv.Statistic.table([1.0]), jv.build_space([d] * 11, cap=2**10)))
    with pytest.raises(GridSizeError, match=r"the subset masses: 2048 float64 values"):
        jv.degree_spectrum(small)


def test_cond_tables_constant_along_their_set(u2_cache):
    for mask in range(1, 8):
        iset = jv.IndexSet.from_mask(mask)
        t = u2_cache.cond_expect(iset)
        for c in iset:
            first = np.take(t.array, [0], axis=c - 1)
            assert np.allclose(t.array, first, atol=1e-13)


def test_concurrent_reads_consistent(rad3, u2_stat):
    # lazy population is idempotent: hammer one cache from many threads
    from concurrent.futures import ThreadPoolExecutor

    cache = make_cache(rad3, u2_stat)
    masks = [jv.IndexSet.from_mask(m) for m in range(1, 8)] * 8

    def worker(iset):
        return jv.iterated_variance(cache, iset).values.sum()

    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(worker, masks))
    fresh = make_cache(rad3, u2_stat)
    want = [jv.iterated_variance(fresh, m).values.sum() for m in masks]
    assert got == want
