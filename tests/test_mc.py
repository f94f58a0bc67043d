import itertools
import math

import numpy as np
import pytest

import jackvar as jv
from jackvar import mc

from bruteforce import unrank_combination
from conftest import random_iid_space, symmetric_table_statistic

RAD = jv.DiscreteDistribution.rademacher()


def exact_moments(space, stat):
    cache = jv.CondExpCache(jv.tabulate(stat, space))
    return jv.jackknife_spectrum(cache), jv.variance(cache.base)


class TestSampling:
    def test_point_mass_always_same(self):
        sp = jv.build_space([jv.DiscreteDistribution.point_mass(3.0)] * 2)
        assert np.array_equal(jv.sample_outcomes(sp, 10, seed=1), np.full((10, 2), 3.0))

    def test_seed_determinism(self, rad2):
        a = jv.sample_outcomes(rad2, 64, seed=5)
        b = jv.sample_outcomes(rad2, 64, seed=5)
        assert np.array_equal(a, b)
        c = jv.sample_outcomes(rad2, 64, seed=6)
        assert not np.array_equal(a, c)

    def test_partition_invariance(self, rad2):
        whole = jv.sample_outcomes(rad2, 100, seed=5)
        parts = np.vstack(
            [jv.sample_outcomes(rad2, 37, seed=5), jv.sample_outcomes(rad2, 63, seed=5, start=37)]
        )
        assert np.array_equal(whole, parts)

    def test_coordinate_means_clt(self, rad2):
        draws = jv.sample_outcomes(rad2, 100_000, seed=11)
        sigma = 1.0 / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * sigma)

    def test_marginal_frequencies(self):
        d = jv.DiscreteDistribution([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        sp = jv.build_space([d])
        draws = jv.sample_outcomes(sp, 50_000, seed=13)
        for value, p in zip(d.support, d.probs):
            freq = np.mean(draws[:, 0] == value)
            assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / draws.shape[0])


def stream_rows(seed, tag, start, count, width):
    """The reference: one numpy Philox Generator per row."""
    return np.array([mc.stream_rng(seed, tag, start + r).random(width) for r in range(count)])


TOP = (1 << 64) - 1


class TestUniformBlock:
    EDGES = [
        (TOP, mc.TAG_VAR, 0, 5, 3),  # largest seed
        (7, TOP, 11, 4, 81),  # largest tag in use: TAG_DIFF_BASE + the largest bitmask that fits
        (7, mc.TAG_OUTCOME, TOP - 2, 3, 1),  # last rows of the counter
        (TOP, TOP, TOP, 1, 6),
        (3, mc.TAG_TOTAL_BASE + 2, 1000, mc._TILE_ROWS + 2, 3),  # crosses a tile boundary
    ]

    @pytest.mark.parametrize("case", EDGES)
    def test_edges_match_stream_rng(self, case):
        assert np.array_equal(mc._uniform_block(*case), stream_rows(*case))

    def test_random_cases_match_stream_rng(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            seed, tag, start = (int(v) for v in rng.integers(0, 1 << 63, 3, dtype=np.uint64) * 2 + 1)
            count, width = int(rng.integers(1, 40)), int(rng.integers(1, 90))
            case = (seed, tag, start, count, width)
            assert np.array_equal(mc._uniform_block(*case), stream_rows(*case)), case

    def test_pinned_rows(self):
        # written by the per-row np.random.Philox generator this one replaced
        pinned = {
            (TOP, TOP, TOP, 1, 6): [
                "0x1.5b62ee8f7696dp-1", "0x1.cb1c762e370b2p-2", "0x1.1d030cf020998p-3",
                "0x1.26d277a797054p-2", "0x1.e8fada70cf9f0p-4", "0x1.98328bc9987c2p-2"],
            (20181, mc.TAG_TOTAL_BASE + 2, 8191, 1, 5): [
                "0x1.412d1b1c246b2p-1", "0x1.daeddd5e87b0bp-1", "0x1.41bddf57f2614p-2",
                "0x1.1060b590cb04cp-1", "0x1.9560cdbdbf97cp-1"],
        }
        for case, row in pinned.items():
            assert mc._uniform_block(*case)[0].tolist() == [float.fromhex(h) for h in row]

    @pytest.mark.parametrize("tile", [1, 7, 4096])
    def test_tile_size_cannot_change_a_result(self, monkeypatch, tile):
        whole = mc._uniform_block(9, mc.TAG_BIAS, 123, 2500, 13)
        monkeypatch.setattr(mc, "_TILE_ROWS", tile)
        assert np.array_equal(mc._uniform_block(9, mc.TAG_BIAS, 123, 2500, 13), whole)

    @pytest.mark.parametrize("tag", [-1, 1 << 64])
    def test_refuses_tags_beyond_the_key_word(self, tag):
        with pytest.raises(jv.ModelError, match="64-bit"):
            mc._uniform_block(0, tag, 0, 1, 1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_refuses_seeds_beyond_the_key_word(self, rad2, seed):
        # they used to be masked: 2^64 ran as seed 0, -1 as seed 2^64 - 1
        with pytest.raises(jv.ModelError, match=f"seed {seed} is outside the 64-bit key word"):
            jv.sample_outcomes(rad2, 8, seed=seed)
        with pytest.raises(jv.ModelError, match=f"seed {seed} is outside the 64-bit key word"):
            mc.stream_rng(seed, mc.TAG_OUTCOME, 0)

    def test_refuses_rows_beyond_the_counter_word(self, rad2):
        last = jv.sample_outcomes(rad2, 1, seed=5, start=TOP)
        assert np.array_equal(last, jv.sample_outcomes(rad2, 2, seed=5, start=TOP - 1)[1:])
        for start, count in ((TOP, 2), (1 << 64, 1), (-1, 1)):
            with pytest.raises(jv.ModelError, match="64-bit counter"):
                jv.sample_outcomes(rad2, count, seed=5, start=start)


class TestConfig:
    def test_validation(self):
        with pytest.raises(jv.ModelError):
            jv.McConfig(seed=0, outer_samples=1)
        with pytest.raises(jv.ModelError):
            jv.McConfig(seed=0, outer_samples=10, inner_pairs=0)
        with pytest.raises(jv.ModelError):
            jv.McConfig(seed=0, outer_samples=10, subset_mode="bogus")
        with pytest.raises(jv.ModelError):
            jv.McConfig(seed=-1, outer_samples=10)

    def test_ks_normalized(self):
        cfg = jv.McConfig(seed=0, outer_samples=10, ks=[2, 1])
        assert cfg.ks == (2, 1)


class TestTotalMoment:
    def test_rad2_prod_order2(self, rad2, prod_stat):
        est = jv.estimate_iterated_jackknife(
            rad2, prod_stat, 2, jv.McConfig(seed=21, outer_samples=100_000)
        )
        assert abs(est.mean - 2.0) <= 4 * est.std_error

    def test_rad3_u2_order1(self, rad3, u2_stat):
        est = jv.estimate_iterated_jackknife(
            rad3, u2_stat, 1, jv.McConfig(seed=22, outer_samples=100_000)
        )
        assert abs(est.mean - 6.0) <= 4 * est.std_error

    def test_constant_is_exact_zero(self, rad2):
        const = jv.Statistic.table([2.5] * 4)
        est = jv.estimate_iterated_jackknife(
            rad2, const, 1, jv.McConfig(seed=23, outer_samples=500)
        )
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_determinism(self, rad3, u2_stat):
        cfg = jv.McConfig(seed=24, outer_samples=2000)
        a = jv.estimate_iterated_jackknife(rad3, u2_stat, 2, cfg)
        b = jv.estimate_iterated_jackknife(rad3, u2_stat, 2, cfg)
        assert a == b

    def test_sampled_subset_mode(self, rad3, u2_stat):
        cfg = jv.McConfig(seed=26, outer_samples=100_000, subset_mode="sample")
        est = jv.estimate_iterated_jackknife(rad3, u2_stat, 1, cfg)
        assert abs(est.mean - 6.0) <= 4 * est.std_error

    def test_k_out_of_range(self, rad2, prod_stat):
        with pytest.raises(jv.ModelError):
            jv.estimate_iterated_jackknife(
                rad2, prod_stat, 3, jv.McConfig(seed=0, outer_samples=10)
            )

    def test_orders_past_170_are_refused(self):
        # enough coordinates for k = 171, but k! leaves the float range
        space = jv.build_space([jv.DiscreteDistribution.rademacher()] * 172)
        stat = jv.Statistic.linear([1.0] * 172)
        cfg = jv.McConfig(seed=0, outer_samples=10)
        for estimate in (jv.estimate_iterated_jackknife, jv.estimate_projected_jackknife):
            with pytest.raises(jv.ModelError, match=r"order k=171: k! exceeds the float range"):
                estimate(space, stat, 171, cfg)


class TestProjectedMoment:
    def test_rad2_prod_order1_is_zero(self, rad2, prod_stat):
        est = jv.estimate_projected_jackknife(
            rad2, prod_stat, 1, jv.McConfig(seed=31, outer_samples=50_000)
        )
        assert abs(est.mean - 0.0) <= 4 * est.std_error + 1e-12
        assert est.flagged_negative == (est.mean < 0)

    def test_rad2_sum_order1(self, rad2, sum_stat):
        est = jv.estimate_projected_jackknife(
            rad2, sum_stat, 1, jv.McConfig(seed=32, outer_samples=50_000)
        )
        assert abs(est.mean - 2.0) <= 4 * est.std_error

    def test_rad3_u2_order2(self, rad3, u2_stat):
        est = jv.estimate_projected_jackknife(
            rad3, u2_stat, 2, jv.McConfig(seed=33, outer_samples=50_000)
        )
        assert abs(est.mean - 6.0) <= 4 * est.std_error

    def test_top_order_rad2_sum(self, rad2, sum_stat):
        # exact value 0; the naive squared-conditional-mean construction
        # would converge to 4 here, so this pins the unbiased form
        est = jv.estimate_projected_jackknife(
            rad2, sum_stat, 2, jv.McConfig(seed=34, outer_samples=50_000)
        )
        assert abs(est.mean - 0.0) <= 4 * est.std_error + 1e-12

    def test_inner_pairs_reduce_variance(self, rad3, u2_stat):
        base = jv.McConfig(seed=35, outer_samples=20_000)
        more = jv.McConfig(seed=35, outer_samples=20_000, inner_pairs=4)
        a = jv.estimate_projected_jackknife(rad3, u2_stat, 2, base)
        b = jv.estimate_projected_jackknife(rad3, u2_stat, 2, more)
        assert b.std_error < a.std_error
        assert abs(b.mean - 6.0) <= 4 * b.std_error


LAW = jv.DiscreteDistribution([-1.5, 0.25, 2.0], [0.2, 0.5, 0.3])


def catalog(n):
    """One statistic of every kind on n coordinates of LAW (no table past n = 8)."""
    return {
        "table": jv.Statistic.table(np.sin(np.arange(3**n) * 0.7) * 3.0) if n <= 8 else None,
        "sum": jv.Statistic.linear(np.linspace(-1.3, 2.9, n)),
        "max": jv.Statistic.coordinate_max(),
        "ustat2": jv.Statistic.pair_interaction({-1.5: 0.4, 0.25: -1.3, 2.0: 0.7}),
        "poly": jv.Statistic.polynomial([(1.0, (1, 1) + (0,) * (n - 2)), (-0.5, (0, 2, 1) + (3,) * (n - 3))]),
    }


IID = jv.build_space([LAW] * 4)
KINDS = catalog(4)
ESTIMATORS = {
    "var": lambda st, cfg: jv.estimate_variance(IID, st, cfg),
    "ej": lambda st, cfg: jv.estimate_iterated_jackknife(
        IID, st, 2, jv.McConfig(cfg.seed, cfg.outer_samples, subset_mode="enumerate")),
    "ej-sampled": lambda st, cfg: jv.estimate_iterated_jackknife(
        IID, st, 3, jv.McConfig(cfg.seed, cfg.outer_samples, subset_mode="sample")),
    "ek": lambda st, cfg: jv.estimate_projected_jackknife(
        IID, st, 2, jv.McConfig(cfg.seed, cfg.outer_samples, inner_pairs=2, subset_mode="enumerate")),
    "ek-sampled": lambda st, cfg: jv.estimate_projected_jackknife(
        IID, st, 3, jv.McConfig(cfg.seed, cfg.outer_samples, subset_mode="sample")),
    "diff": lambda st, cfg: jv.estimate_difference_moment(IID, st, [1, 3], cfg),
    "bias": lambda st, cfg: jv.efron_stein_bias(IID, st, cfg),
}


def driver_call(monkeypatch, estimate):
    """The arguments one public estimator hands the block driver."""
    calls = []
    drive = mc._contributions
    with monkeypatch.context() as patch:
        patch.setattr(mc, "_contributions", lambda *a: calls.append(a) or drive(*a))
        estimate()
    (args,) = calls
    return args


class TestBlockDriver:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_any_partition_is_bit_identical(self, monkeypatch, name, kind):
        cfg = jv.McConfig(seed=25, outer_samples=53)
        args = driver_call(monkeypatch, lambda: ESTIMATORS[name](KINDS[kind], cfg))
        whole = mc._contributions(*args)  # one block: 53 < BLOCK_ROWS
        assert whole.shape == (53,)
        monkeypatch.setattr(mc, "BLOCK_ROWS", 16)
        assert np.array_equal(mc._contributions(*args), whole)  # blocks of 16, 16, 16, 5
        monkeypatch.setattr(mc, "_TILE_ROWS", 3)
        assert np.array_equal(mc._contributions(*args), whole)  # tiles of 3 inside each block
        # odd split points, the second part straddling block boundaries at 16 and 32
        parts = [mc._contributions(*args, lo, hi - lo) for lo, hi in ((0, 7), (7, 37), (37, 53))]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("kind", ["sum", "max", "ustat2", "poly"])
    def test_statistic_is_row_local(self, kind):
        # rows this wide make a blocked BLAS product round differently per slice
        wide = jv.build_space([LAW] * 33)
        stat = catalog(33)[kind]
        idx = np.random.default_rng(5).integers(0, 3, (3000, 33))
        whole = stat.on_indices(wide, idx)
        for lo, hi in ((0, 1001), (1001, 3000), (7, 8)):
            assert np.array_equal(stat.on_indices(wide, idx[lo:hi]), whole[lo:hi])

    def test_real_block_boundary(self, monkeypatch, rad2, prod_stat):
        cfg = jv.McConfig(seed=27, outer_samples=mc.BLOCK_ROWS + 3)
        args = driver_call(monkeypatch, lambda: jv.estimate_variance(rad2, prod_stat, cfg))
        whole = mc._contributions(*args)
        lo = mc.BLOCK_ROWS - 2
        parts = [mc._contributions(*args, 0, lo), mc._contributions(*args, lo, 5)]
        assert np.array_equal(np.concatenate(parts), whole)
        monkeypatch.setattr(mc, "BLOCK_ROWS", 1 << 20)
        assert np.array_equal(mc._contributions(*args), whole)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises(self):
        big = jv.build_space([jv.DiscreteDistribution([1e200, 1.0], [0.5, 0.5])] * 2)
        cube = jv.Statistic.polynomial([(1.0, (3, 0))])
        with pytest.raises(jv.ModelError, match="non-finite"):
            jv.estimate_variance(big, cube, jv.McConfig(seed=0, outer_samples=64))


class TestVarianceEstimate:
    def test_rad3_u2(self, rad3, u2_stat):
        est = jv.estimate_variance(rad3, u2_stat, jv.McConfig(seed=41, outer_samples=50_000))
        assert abs(est.mean - 3.0) <= 4 * est.std_error


class TestBracketEstimate:
    def test_rad2_prod(self, rad2, prod_stat):
        b = jv.estimate_bracket(rad2, prod_stat, 1, jv.McConfig(seed=51, outer_samples=50_000))
        assert abs(b.upper_j.mean - 2.0) <= 4 * b.upper_j.std_error
        assert abs(b.lower_j.mean - 1.0) <= 4 * b.lower_j.std_error

    def test_rad3_u2_tight_side(self, rad3, u2_stat):
        b = jv.estimate_bracket(rad3, u2_stat, 1, jv.McConfig(seed=52, outer_samples=50_000))
        assert abs(b.upper_jk.mean - 3.0) <= 4 * b.upper_jk.std_error
        assert abs(b.lower_jk.mean - 3.0) <= 4 * b.lower_jk.std_error

    def test_constant(self, rad2):
        const = jv.Statistic.table([1.0] * 4)
        b = jv.estimate_bracket(rad2, const, 1, jv.McConfig(seed=53, outer_samples=500))
        for est in (b.lower_j, b.lower_jk, b.upper_jk, b.upper_j):
            assert est.mean == 0.0 and est.std_error == 0.0

    def test_p_out_of_range(self, rad2, prod_stat):
        with pytest.raises(jv.ModelError):
            jv.estimate_bracket(rad2, prod_stat, 2, jv.McConfig(seed=0, outer_samples=10))


class TestEfronSteinBias:
    def test_rejects_non_iid(self):
        sp = jv.build_space([RAD, jv.DiscreteDistribution([0.0, 1.0], [0.5, 0.5])])
        with pytest.raises(jv.ModelError, match="identically"):
            jv.efron_stein_bias(sp, jv.Statistic.coordinate_max(), jv.McConfig(seed=0, outer_samples=10))

    def test_constant_statistic_exact_zero(self, rad2):
        const = jv.Statistic.table([3.0] * 4)
        est = jv.efron_stein_bias(rad2, const, jv.McConfig(seed=61, outer_samples=500))
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_sample_mean_matches_exact_engine(self):
        # linear statistic: the first-order bound is tight, bias exactly 0
        sp = jv.build_space([RAD] * 4)
        stat = jv.Statistic.linear([0.25] * 4)
        jack, var = exact_moments(sp, stat)
        exact_bias = jack.ej[0] - var
        assert exact_bias == pytest.approx(0.0, abs=1e-12)
        est = jv.efron_stein_bias(sp, stat, jv.McConfig(seed=62, outer_samples=50_000))
        assert abs(est.mean - exact_bias) <= 4 * est.std_error + 1e-12

    def test_max_of_uniform_bits(self):
        d = jv.DiscreteDistribution.uniform([0.0, 1.0])
        sp = jv.build_space([d] * 3)
        stat = jv.Statistic.coordinate_max()
        jack, var = exact_moments(sp, stat)
        exact_bias = jack.ej[0] - var
        est = jv.efron_stein_bias(sp, stat, jv.McConfig(seed=63, outer_samples=50_000))
        assert est.mean + 4 * est.std_error >= 0.0
        assert abs(est.mean - exact_bias) <= 4 * est.std_error

    def test_symmetric_table_statistic(self):
        rng = np.random.Generator(np.random.Philox(key=113))
        sp = random_iid_space(rng, 3)
        stat = symmetric_table_statistic(sp, rng)
        jack, var = exact_moments(sp, stat)
        est = jv.efron_stein_bias(sp, stat, jv.McConfig(seed=64, outer_samples=50_000))
        assert abs(est.mean - (jack.ej[0] - var)) <= 4 * est.std_error + 1e-12


class TestDifferenceMomentEstimate:
    def test_matches_exact(self, rad3, u2_stat):
        cfg = jv.McConfig(seed=71, outer_samples=50_000)
        est = jv.estimate_difference_moment(rad3, u2_stat, [1, 2], cfg)
        exact = jv.iterated_difference_moment(jv.tabulate(u2_stat, rad3), [1, 2])
        assert abs(est.mean - exact) <= 4 * est.std_error

    @pytest.mark.parametrize("indices", [[65], [70], [3, 70]])
    def test_coordinates_past_64_are_refused_before_sampling(self, monkeypatch, indices):
        wide = jv.build_space([RAD] * 70)
        monkeypatch.setattr(mc, "_contributions", lambda *a: pytest.fail("sampled"))
        with pytest.raises(jv.ModelError, match="64-bit limit"):
            jv.estimate_difference_moment(
                wide, jv.Statistic.coordinate_max(), indices, jv.McConfig(seed=0, outer_samples=10))


class TestUnrank:
    def test_enumerates_lexicographically(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                got = mc._unrank_combinations(np.arange(math.comb(n, k)), n, k)
                assert list(map(tuple, got.tolist())) == list(itertools.combinations(range(n), k))

    @pytest.mark.parametrize("n, k", [(40, 3), (200, 5)])
    def test_sampled_ranks_match_the_scalar_unranker(self, n, k):
        total = math.comb(n, k)
        ranks = np.random.default_rng(n).integers(0, total, 2000)
        ranks[:2] = 0, total - 1
        want = [unrank_combination(int(r), n, k) for r in ranks]
        assert list(map(tuple, mc._unrank_combinations(ranks, n, k).tolist())) == want

    def test_too_many_subsets_for_int64_ranks(self):
        wide = jv.build_space([RAD] * 70)
        with pytest.raises(jv.ModelError, match="rank range"):
            jv.estimate_iterated_jackknife(
                wide, jv.Statistic.coordinate_max(), 35, jv.McConfig(seed=0, outer_samples=10))
