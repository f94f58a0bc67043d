import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import jackvar as jv
from jackvar import mc

from bruteforce import alternating_eval, philox4x64_10, unrank_combination
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
    """The reference: row r is words r*4B .. (r+1)*4B - 1 of the (seed, tag) stream, B = ceil(width/4).

    Raw words of numpy's Philox, turned into uniforms by hand.
    """
    blocks = -(-width // 4)
    raw = np.random.Philox(key=seed | tag << 64, counter=start * blocks).random_raw(count * 4 * blocks)
    return (raw.reshape(count, 4 * blocks)[:, :width] >> np.uint64(11)) * 2.0**-53


TOP = (1 << 64) - 1


class TestUniformBlock:
    EDGES = [
        (TOP, mc.TAG_VAR, 0, 5, 3),  # largest seed
        (7, TOP, 11, 4, 81),  # largest tag in use: TAG_DIFF_BASE + the largest bitmask that fits
        (7, mc.TAG_OUTCOME, TOP - 2, 3, 1),  # last rows of the counter
        (TOP, TOP, TOP, 1, 6),
        (3, mc.TAG_TOTAL_BASE + 2, 1000, 1030, 8),  # rows of whole 4-word blocks
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
        # written by the hand reference `stream_rows`
        pinned = {
            (TOP, TOP, TOP, 1, 6): [
                "0x1.b9d65f0c1933fp-1", "0x1.864d359306271p-1", "0x1.32691f8b9c97cp-1",
                "0x1.d07279aa607c8p-1", "0x1.e397b10acec2dp-1", "0x1.4286b02741190p-5"],
            (20181, mc.TAG_TOTAL_BASE + 2, 8191, 1, 5): [
                "0x1.6754961a8c994p-2", "0x1.dcc2193094838p-1", "0x1.2406555766574p-2",
                "0x1.46b6f768018f0p-3", "0x1.c65769692af88p-3"],
        }
        for case, row in pinned.items():
            assert mc._uniform_block(*case)[0].tolist() == [float.fromhex(h) for h in row]

    def test_stream_words_are_the_cipher(self):
        # the oracle gives Random123's known answers (counter 0, key 0 and all-ones) ...
        assert philox4x64_10((0, 0, 0, 0), (0, 0)) == (
            0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)
        assert philox4x64_10((TOP,) * 4, (TOP, TOP)) == (
            0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)
        # ... and word j of a stream is word j mod 4 of the cipher of the counter j // 4 + 1
        for seed, tag, start in ((0, 0, 0), (TOP, TOP, TOP), (5, mc.TAG_BIAS, (1 << 256) - 2)):
            raw = np.random.Philox(key=seed | tag << 64, counter=start).random_raw(8)
            counters = [(start + b) % (1 << 256) for b in (1, 2)]
            blocks = [philox4x64_10([c >> 64 * i & TOP for i in range(4)], (seed, tag)) for c in counters]
            assert raw.tolist() == [w for block in blocks for w in block]

    def test_random_is_the_hand_conversion_of_raw_words(self):
        # numpy's stream policy (NEP 19) fixes the raw words, not how Generator.random converts them
        for key, counter in ((0, 0), (TOP | TOP << 64, 5), (12345 | 7 << 64, (1 << 256) - 3)):
            raw = np.random.Philox(key=key, counter=counter).random_raw(1000)
            got = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(1000)
            assert got.tolist() == ((raw >> np.uint64(11)) * 2.0**-53).tolist()

    def test_any_split_gives_the_same_rows(self):
        whole = mc._uniform_block(9, mc.TAG_BIAS, 123, 2500, 13)
        rng = np.random.default_rng(23)
        for _ in range(10):
            cuts = sorted(rng.choice(np.arange(1, 2500), int(rng.integers(1, 8)), replace=False).tolist())
            edges = [0, *cuts, 2500]
            parts = [mc._uniform_block(9, mc.TAG_BIAS, 123 + lo, hi - lo, 13)
                     for lo, hi in zip(edges, edges[1:])]
            assert np.array_equal(np.vstack(parts), whole), cuts

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

    @pytest.mark.parametrize("index", [-1, 1 << 256], ids=["-1", "2^256"])
    def test_reference_refuses_indices_beyond_the_counter_word(self, index):
        # a 4-word block index is any position of the 256-bit counter, and nothing else
        with pytest.raises(jv.ModelError, match=f"block index {index} is outside the 256-bit counter"):
            mc.stream_rng(1, 1, index)
        assert mc.stream_rng(1, 1, TOP).random(2).tolist() == mc._uniform_block(1, 1, TOP, 1, 2)[0].tolist()
        # the largest index is taken, and its counter wraps to the start of the stream
        last = mc.stream_rng(1, 1, (1 << 256) - 1).random(8)
        assert last[4:].tolist() == mc.stream_rng(1, 1, 0).random(4).tolist()

    def test_refuses_rows_beyond_the_row_range(self, rad2):
        last = jv.sample_outcomes(rad2, 1, seed=5, start=TOP)
        assert np.array_equal(last, jv.sample_outcomes(rad2, 2, seed=5, start=TOP - 1)[1:])
        for start, count in ((TOP, 2), (1 << 64, 1), (-1, 1)):
            with pytest.raises(jv.ModelError, match=r"outside the row range 0\.\.2\^64-1"):
                jv.sample_outcomes(rad2, count, seed=5, start=start)


def searchsorted_indices(cdfs, u, coords):
    """The reference inverse CDF: one binary search per column."""
    return np.stack([np.minimum(np.searchsorted(cdfs[c - 1], u[:, j], side="right"), cdfs[c - 1].size - 1)
                     for j, c in enumerate(coords)], axis=1)


ATOM = jv.DiscreteDistribution([-1.0, 0.5, 2.0], [0.5, 0.0, 0.5])  # a zero-probability atom
TENTHS = jv.DiscreteDistribution(np.arange(10) * 0.3 - 1.0, [0.1] * 10)  # its CDF ends at 1 - 2^-53
BROAD = jv.DiscreteDistribution(np.linspace(-2.0, 2.0, 80), np.arange(1, 81) / 3240.0)  # past the switch
POINT = jv.DiscreteDistribution.point_mass(1.5)
MIXED_LAWS = [ATOM, TENTHS, BROAD, RAD, TENTHS, POINT]


class TestInverseCdf:
    def test_laws_cover_the_edges(self):
        cdfs = [np.cumsum(law.probs) for law in MIXED_LAWS]
        assert cdfs[0][0] == cdfs[0][1]  # repeated CDF value
        assert cdfs[1][-1] < 1.0
        assert len(BROAD.support) > mc._COUNT_SUPPORT >= len(TENTHS.support)

    @pytest.mark.parametrize("law", MIXED_LAWS + [jv.DiscreteDistribution.uniform(range(64))],
                             ids=lambda d: f"m{d.size}")
    def test_edges_match_searchsorted(self, law):
        cdf = np.cumsum(law.probs)
        below_one = np.nextafter(1.0, 0.0)
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), [0.0, below_one]])
        u = np.clip(u, 0.0, below_one)[:, None].repeat(3, axis=1)  # three columns of one law
        cdfs = [cdf] * 3
        got = mc._indices_from_uniform(cdfs, u)
        assert np.array_equal(got, searchsorted_indices(cdfs, u, [1, 2, 3]))
        assert got[:law.size - 1, 0].tolist() == [  # u at a CDF entry takes the next point
            min(int(np.searchsorted(cdf, c, side="right")), law.size - 1) for c in cdf[:-1]]

    def test_mixed_space_matches_searchsorted(self):
        space = jv.build_space(MIXED_LAWS + [BROAD, BROAD, ATOM])
        cdfs = mc._cdfs(space)
        u = mc._uniform_block(3, mc.TAG_OUTCOME, 0, 5000, space.n)
        for j, cdf in enumerate(cdfs):
            u[: cdf.size, j] = cdf  # u at every CDF entry of its column
        u[-2], u[-1] = 0.0, np.nextafter(1.0, 0.0)
        coords = range(1, space.n + 1)
        assert np.array_equal(mc._indices_from_uniform(cdfs, u), searchsorted_indices(cdfs, u, coords))
        picked = [2, 5, 9, 3, 1]  # columns of one law apart, runs of two, out of order
        got = mc._indices_from_uniform(cdfs, u[:, :5], coords=picked)
        assert np.array_equal(got, searchsorted_indices(cdfs, u[:, :5], picked))

    @pytest.mark.parametrize("switch", [0, 2, 1 << 20])
    def test_switch_cannot_change_a_result(self, monkeypatch, switch):
        space = jv.build_space(MIXED_LAWS)
        cdfs, u = mc._cdfs(space), mc._uniform_block(4, mc.TAG_OUTCOME, 0, 3000, space.n)
        whole = mc._indices_from_uniform(cdfs, u)
        monkeypatch.setattr(mc, "_COUNT_SUPPORT", switch)
        assert np.array_equal(mc._indices_from_uniform(cdfs, u), whole)


class TestConfig:
    def test_validation(self):
        with pytest.raises(jv.ModelError):
            jv.McConfig(seed=0, outer_samples=1)
        with pytest.raises(jv.ModelError):
            jv.McConfig(seed=-1, outer_samples=10)

    @pytest.mark.parametrize("field, value", [
        ("seed", 2.7), ("seed", 2.0), ("seed", True),
        ("outer_samples", 100.9), ("outer_samples", np.float64(100.0)),
        ("outer_samples", True), ("outer_samples", np.bool_(True)),
    ])
    def test_refuses_non_integers(self, field, value):
        settings = dict(seed=2, outer_samples=50)
        settings[field] = value
        with pytest.raises(jv.ModelError, match=f"{field} must be an integer"):
            jv.McConfig(**settings)

    def test_numpy_integers_accepted(self, rad2, prod_stat):
        cfg = jv.McConfig(seed=np.uint64(2), outer_samples=np.int64(50))
        est = jv.estimate_variance(rad2, prod_stat, cfg)
        assert est == jv.estimate_variance(rad2, prod_stat, jv.McConfig(2, 50))

    def test_fields_are_the_seed_and_the_sample_count(self):
        assert [f.name for f in dataclasses.fields(jv.McConfig)] == ["seed", "outer_samples"]


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

    def test_sampled_subset_mode(self, monkeypatch, rad3, u2_stat):
        monkeypatch.setattr(mc, "ENUMERATE_SUBSET_LIMIT", 0)  # sample even the 3 singletons
        cfg = jv.McConfig(seed=26, outer_samples=100_000)
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
# the "-sampled" entries run with ENUMERATE_SUBSET_LIMIT = 0, so each row samples one subset
ESTIMATORS = {
    "var": lambda st, cfg: jv.estimate_variance(IID, st, cfg),
    "ej": lambda st, cfg: jv.estimate_iterated_jackknife(IID, st, 2, cfg),
    "ej-sampled": lambda st, cfg: jv.estimate_iterated_jackknife(IID, st, 3, cfg),
    "ek": lambda st, cfg: jv.estimate_projected_jackknife(IID, st, 2, cfg),
    "ek-sampled": lambda st, cfg: jv.estimate_projected_jackknife(IID, st, 3, cfg),
    "diff": lambda st, cfg: jv.estimate_difference_moment(IID, st, [1, 3], cfg),
    "bias": lambda st, cfg: jv.efron_stein_bias(IID, st, cfg),
}


@pytest.fixture
def unranked(monkeypatch):
    """Calls of the sampled subset plan (mc._unrank_combinations) during the test."""
    calls = []
    unrank = mc._unrank_combinations
    monkeypatch.setattr(mc, "_unrank_combinations", lambda *a: calls.append(a) or unrank(*a))
    return calls


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
    def test_any_partition_is_bit_identical(self, monkeypatch, unranked, name, kind):
        cfg = jv.McConfig(seed=25, outer_samples=53)
        if name.endswith("-sampled"):
            monkeypatch.setattr(mc, "ENUMERATE_SUBSET_LIMIT", 0)
        args = driver_call(monkeypatch, lambda: ESTIMATORS[name](KINDS[kind], cfg))
        assert bool(unranked) == name.endswith("-sampled")  # the plan under test ran
        whole = mc._contributions(*args)  # one block: 53 < BLOCK_ROWS
        assert whole.shape == (53,)
        monkeypatch.setattr(mc, "BLOCK_ROWS", 16)
        assert np.array_equal(mc._contributions(*args), whole)  # blocks of 16, 16, 16, 5
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

    @pytest.mark.parametrize("samples", [30, mc.BLOCK_ROWS + 3])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_one_binding_per_estimate(self, monkeypatch, name, kind, samples):
        # every block used to bind S again (twice per block for the variance)
        if name.endswith("-sampled"):
            monkeypatch.setattr(mc, "ENUMERATE_SUBSET_LIMIT", 0)
        bound, blocks = [], []
        bind, draw = jv.Statistic._bind, mc._uniform_block
        monkeypatch.setattr(jv.Statistic, "_bind", lambda *a: bound.append(a) or bind(*a))
        monkeypatch.setattr(mc, "_uniform_block", lambda *a: blocks.append(a) or draw(*a))
        est = ESTIMATORS[name](KINDS[kind], jv.McConfig(seed=29, outer_samples=samples))
        assert est.samples == samples
        assert len(bound) == 1 and len(blocks) == -(-samples // mc.BLOCK_ROWS)

    def test_peak_memory_is_one_block(self):
        # a projected moment at n = 300 holds one block of 3n + 1 uniforms and as many
        # indices, whatever the sample count; blocks of up to 8192 rows peaked at 43 MiB
        # for 3000 samples and 115 MiB for 12000
        n = 300
        space, stat = jv.build_space([LAW] * n), catalog(n)["ustat2"]
        peaks = []
        for samples in (3000, 12000):
            tracemalloc.start()
            try:
                jv.estimate_projected_jackknife(space, stat, 2, jv.McConfig(seed=3, outer_samples=samples))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * min(peaks)
        assert max(peaks) < 3 * 8 * mc.BLOCK_ROWS * (3 * n + 4)

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

    def test_too_many_subsets_for_int64_ranks(self, monkeypatch):
        wide = jv.build_space([RAD] * 70)
        monkeypatch.setattr(mc, "_contributions", lambda *a: pytest.fail("sampled"))
        for estimate in (jv.estimate_iterated_jackknife, jv.estimate_projected_jackknife):
            with pytest.raises(jv.ModelError, match=r"C\(70,35\) = 112186277816662845432 .* rank range"):
                estimate(wide, jv.Statistic.coordinate_max(), 35, jv.McConfig(seed=0, outer_samples=10))


class TestSubsetPlan:
    @pytest.mark.parametrize("n, k, sampled", [
        (10, 1, False), (10, 2, False), (10, 3, True), (40, 1, False), (40, 2, True), (8, 3, False),
    ])
    def test_enumerates_up_to_the_limit_and_samples_past_it(self, unranked, n, k, sampled):
        # C(10,2) = 45, C(8,3) = 56 <= 64 < C(10,3) = 120, C(40,2) = 780
        space, cfg = jv.build_space([LAW] * n), jv.McConfig(seed=3, outer_samples=20)
        for estimate in (jv.estimate_iterated_jackknife, jv.estimate_projected_jackknife):
            estimate(space, jv.Statistic.coordinate_max(), k, cfg)
        assert len(unranked) == (2 if sampled else 0)


@pytest.fixture
def evaluated(monkeypatch):
    """Rows of every whole-row evaluation (`Statistic._on_rows`, under `on_indices` too) during the test."""
    rows = []
    on_rows = jv.Statistic._on_rows
    monkeypatch.setattr(jv.Statistic, "_on_rows", lambda *a: rows.append(len(a[3])) or on_rows(*a))
    return rows


ROUNDED_KINDS = ("sum", "ustat2")  # `_replaced` adds their float terms by deltas from the base row
ZEROS = jv.DiscreteDistribution([0.0, -0.0, 1.0], [0.25, 0.25, 0.5])  # 0.0 and -0.0 as two atoms
DELTA_LAWS = MIXED_LAWS + [ZEROS]


class TestSharedEvaluations:
    """The enumerated plan evaluates S once per replaced set J, not once per (subset, J)."""

    # the per-subset oracle sums full evaluations; `sum` and `ustat2` add
    # per-coordinate changes to the base row instead, which rounds differently
    @pytest.mark.parametrize("kind", KINDS)
    def test_differences_match_the_per_subset_oracle(self, kind):
        stat, n, rows = KINDS[kind], IID.n, 200
        scale = np.abs(stat.on_grid(IID)).max()
        rng = np.random.default_rng(9)
        base, repl = rng.integers(0, 3, (rows, n)), rng.integers(0, 3, (rows, n))
        for k in range(1, n + 1):
            subsets = list(itertools.combinations(range(n), k))
            masks = [sum(1 << c for c in subset) for subset in subsets]
            shared = mc._differences(mc._Setup(IID, stat), base, repl, np.arange(n), k, masks)
            assert len(shared) == len(subsets)
            for d, subset in zip(shared, subsets):
                positions = np.broadcast_to(np.asarray(subset), (rows, k))
                want = alternating_eval(IID, stat, base, repl, positions)
                if kind in ROUNDED_KINDS:
                    assert np.abs(d - want).max() <= 1e-12 * scale, (k, subset)
                else:
                    assert np.array_equal(d, want), (k, subset)

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_row_positions_match_the_oracle(self, kind):
        # the sampled plan: one sorted k-subset of columns per row, one full mask
        stat, n, rows = KINDS[kind], IID.n, 200
        scale = np.abs(stat.on_grid(IID)).max()
        rng = np.random.default_rng(10)
        base, repl = rng.integers(0, 3, (rows, n)), rng.integers(0, 3, (rows, n))
        for k in range(1, n + 1):
            positions = np.sort(rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)[:, :k], axis=1)
            (d,) = mc._differences(mc._Setup(IID, stat), base, repl, positions, k, [(1 << k) - 1])
            want = alternating_eval(IID, stat, base, repl, positions)
            if kind in ROUNDED_KINDS:
                assert np.abs(d - want).max() <= 1e-12 * scale, k
            else:
                assert d.tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("width", range(13))
    def test_mask_walk_lists_every_small_mask_in_order(self, width):
        for k in range(width + 1):
            want = [m for m in range(1 << width) if m.bit_count() <= k]
            assert list(mc._masks(width, k)) == want, k

    def test_mask_walk_is_lazy(self):
        walk = mc._masks(64, 1)
        assert list(itertools.islice(walk, 3)) == [0, 1, 2]
        assert list(walk) == [1 << t for t in range(2, 64)]
        assert list(itertools.islice(mc._masks(64, 2), 4)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("n, k", [(10, 1), (10, 2), (10, 3), (40, 1), (40, 2)])
    @pytest.mark.parametrize("family", ["ej", "ek"])
    def test_counted_evaluations_per_row(self, evaluated, family, n, k):
        space, samples = jv.build_space([LAW] * n), 30
        estimate = {"ej": jv.estimate_iterated_jackknife, "ek": jv.estimate_projected_jackknife}[family]
        estimate(space, jv.Statistic.coordinate_max(), k, jv.McConfig(seed=4, outer_samples=samples))
        per_row = mc.evaluations_per_row(space, family, k)
        assert sum(evaluated) == samples * per_row
        completions = {"ej": 1, "ek": 2}[family]
        if math.comb(n, k) <= mc.ENUMERATE_SUBSET_LIMIT:
            assert per_row == completions * sum(math.comb(n, j) for j in range(k + 1))
        else:
            assert per_row == completions << k

    def test_counted_evaluations_of_the_other_estimators(self, evaluated):
        cfg, stat = jv.McConfig(seed=4, outer_samples=30), KINDS["poly"]
        for family, k, estimate in [
            ("var", 0, lambda: jv.estimate_variance(IID, stat, cfg)),
            ("bias", 0, lambda: jv.efron_stein_bias(IID, stat, cfg)),
            ("diff", 3, lambda: jv.estimate_difference_moment(IID, stat, [1, 2, 4], cfg)),
        ]:
            evaluated.clear()
            estimate()
            assert sum(evaluated) == 30 * mc.evaluations_per_row(IID, family, k)
        assert [mc.evaluations_per_row(IID, f, 3) for f in ("var", "bias", "diff")] == [2, 6, 8]

    def test_counts_refuse_what_the_estimators_refuse(self):
        with pytest.raises(jv.ModelError, match="out of range"):
            mc.evaluations_per_row(IID, "ej", 5)
        with pytest.raises(jv.ModelError, match="rank range"):
            mc.evaluations_per_row(jv.build_space([RAD] * 70), "ek", 35)


def pinned_poly(n):
    """x1 x2 - 0.5 x2^2 x3 x4 ... xn: interactions of every order up to n - 1."""
    return jv.Statistic.polynomial([(1.0, (1, 1) + (0,) * (n - 2)), (-0.5, (0, 2, 1) + (1,) * (n - 3))])


def delta_catalog(laws):
    """One statistic of every kind on a space of these laws, g defined at every support value."""
    n, values = len(laws), {v for law in laws for v in law.support}  # the set keeps one of 0.0, -0.0
    return {
        "table": jv.Statistic.table(np.cos(np.arange(math.prod(law.size for law in laws)) * 0.37) * 5.0),
        "sum": jv.Statistic.linear(np.linspace(2.1, -0.7, n)),
        "max": jv.Statistic.coordinate_max(),
        "ustat2": jv.Statistic.pair_interaction({v: math.sin(3.0 * v) + 0.5 for v in values}),
        "poly": pinned_poly(n),
    }


def replaced_by_hand(base, repl, positions, mask):
    """base with the positions of the bits of mask taken from repl, one position column at a time."""
    rows = np.arange(base.shape[0])
    positions = np.broadcast_to(positions, (base.shape[0], np.shape(positions)[-1]))
    mix = base.copy()
    for t in range(positions.shape[1]):
        if mask >> t & 1:
            mix[rows, positions[:, t]] = repl[rows, positions[:, t]]
    return mix


class TestDeltaEvaluation:
    """`_replaced` against a full evaluation (`Statistic._at`) of each replaced block.

    `table` and `max` are bit-identical (integer flat indices, comparisons),
    `poly` too (it evaluates the mixed block); `sum` and `ustat2` add float
    changes to the base sums and agree to 1e-12 x the largest |S|.
    """

    SPACES = {"iid": (IID, KINDS), "mixed": (jv.build_space(DELTA_LAWS), delta_catalog(DELTA_LAWS))}

    @staticmethod
    def plans(space, rng, rows):
        """(label, base, repl, positions, masks) of every way the estimators call `_replaced`."""
        n, high = space.n, np.asarray(space.shape)
        base, repl = rng.integers(0, high, (rows, n)), rng.integers(0, high, (rows, n))
        k = 3
        per_row = np.sort(rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)[:, :k], axis=1)
        copy = rng.integers(0, high.min(), (rows, 1))  # efron_stein_bias: one copy for every coordinate
        cols = [1, n - 1]
        fresh = np.zeros_like(base)  # a difference moment's copies: only its columns are drawn
        fresh[:, cols] = repl[:, cols]
        all_masks = list(range(1 << k))
        return [
            ("enumerated", base, repl, np.arange(n), list(mc._masks(n, k))),
            ("shared", base, repl, [0, n // 2, n - 1], all_masks),
            ("per-row", base, repl, per_row, all_masks),
            ("bias", base, np.broadcast_to(copy, base.shape), np.arange(n), [1 << i for i in range(n)] + [0]),
            ("diff", base, fresh, cols, [0, 1, 2, 3]),
        ]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("space_name", SPACES)
    def test_delta_path_matches_full_evaluation(self, evaluated, space_name, kind):
        space, stats = self.SPACES[space_name]
        stat = stats[kind]
        rng = np.random.default_rng(23)
        for label, base, repl, positions, masks in self.plans(space, rng, 300):
            setup = mc._Setup(space, stat)
            evaluated.clear()
            got = list(mc._replaced(setup, base, repl, positions, masks))
            # max and poly evaluate one mixed block per set, the other kinds none
            assert len(evaluated) == (len(masks) if kind in ("max", "poly") else 0), label
            assert [mask for mask, _ in got] == masks, label
            want = [stat.on_indices(space, replaced_by_hand(base, repl, positions, mask)) for mask in masks]
            scale = max(np.abs(w).max() for w in want)
            for (mask, value), full in zip(got, want):
                if kind in ROUNDED_KINDS:
                    assert np.abs(value - full).max() <= 1e-12 * scale, (label, mask)
                else:
                    assert value.tobytes() == full.tobytes(), (label, mask)
            # the empty set is the base row's own evaluation, bit for bit
            if 0 in masks:
                assert dict(got)[0].tobytes() == stat.on_indices(space, base).tobytes(), label

    @pytest.mark.parametrize("kind", ["sum", "ustat2"])
    def test_enumerated_moment_evaluates_no_block(self, evaluated, kind):
        # ek1 at n = 40 enumerates 40 subsets; a fallback to evaluating mixed blocks fails here
        space, stat = jv.build_space([LAW] * 40), catalog(40)[kind]
        est = jv.estimate_projected_jackknife(space, stat, 1, jv.McConfig(seed=4, outer_samples=30))
        assert evaluated == [] and est.samples == 30


class TestPinnedEstimates:
    """Default-config estimates as float.hex (mean, standard error).

    A refactor that moves any bit of them fails here, not only the
    statistical tests.  The n = 4 moments enumerate their subsets and the
    n = 9 order-3 moments (C(9,3) = 84) sample one per row.
    """

    SMALL, WIDE = jv.build_space([LAW] * 4), jv.build_space([LAW] * 9)
    CFG = jv.McConfig(seed=81, outer_samples=2000)
    PINNED = {
        "ej2-enumerated": ("0x1.3d4337c666666p+4", "0x1.cffccf22c2d15p-1"),
        "ek2-enumerated": ("0x1.274aa8df3b646p+3", "0x1.430d4aeff705ep+0"),
        "ej3-sampled": ("0x1.5ffabbc84827dp+14", "0x1.674cff37cbe53p+13"),
        "ek3-sampled": ("0x1.fb52ba03ff7cfp+5", "0x1.14f9775719d2dp+6"),
        "var": ("0x1.c39959ec8b439p+2", "0x1.4d444c5174a66p-2"),
        "diff23": ("0x1.e5fc9df3b645ap+2", "0x1.1d53280d8d962p-1"),
        "bias": ("0x1.9dfc2703e425bp+3", "0x1.907e0f0910222p-1"),
        "bracket1.lower_j": ("0x1.3f4406c3126eap+2", "0x1.84d1f1c74c6c7p-1"),
        "bracket1.lower_jk": ("0x1.98aa6ef645a1dp+2", "0x1.ab41e348818eep-1"),
        "bracket1.upper_jk": ("0x1.493fe6b851eb8p+3", "0x1.c122a20cfb1dbp-1"),
        "bracket1.upper_j": ("0x1.dce53b27ef9dbp+3", "0x1.38068bf7bfa19p-1"),
    }

    def test_bit_identical(self):
        small, wide, cfg = self.SMALL, self.WIDE, self.CFG
        s4, s9 = pinned_poly(4), pinned_poly(9)
        got = {
            "ej2-enumerated": jv.estimate_iterated_jackknife(small, s4, 2, cfg),
            "ek2-enumerated": jv.estimate_projected_jackknife(small, s4, 2, cfg),
            "ej3-sampled": jv.estimate_iterated_jackknife(wide, s9, 3, cfg),
            "ek3-sampled": jv.estimate_projected_jackknife(wide, s9, 3, cfg),
            "var": jv.estimate_variance(small, s4, cfg),
            "diff23": jv.estimate_difference_moment(small, s4, [2, 3], cfg),
            "bias": jv.efron_stein_bias(small, s4, cfg),
        }
        bracket = jv.estimate_bracket(small, s4, 1, cfg)
        for side in ("lower_j", "lower_jk", "upper_jk", "upper_j"):
            got[f"bracket1.{side}"] = getattr(bracket, side)
        assert {name: (e.mean.hex(), e.std_error.hex()) for name, e in got.items()} == self.PINNED

    # laws of several support sizes: a zero-probability atom, a CDF ending
    # below 1.0, a support past the inverse CDF's switch, a point mass, and
    # one law on coordinates that are not adjacent
    MIXED_SMALL = jv.build_space(MIXED_LAWS)
    MIXED_WIDE = jv.build_space(MIXED_LAWS + [ATOM, BROAD, RAD])
    MIXED_CFG = jv.McConfig(seed=82, outer_samples=2000)
    PINNED_MIXED = {
        "ej2-enumerated": ("0x1.36ed562e57284p+3", "0x1.091e33fba5b6bp-1"),
        "ek2-enumerated": ("0x1.d3574d8554bfcp+1", "0x1.c98b0a68f3c25p-2"),
        "ej3-sampled": ("0x1.35c7b7ce2d6a7p+8", "0x1.f6e68e79c051bp+5"),
        "ek3-sampled": ("0x1.9951126160164p+4", "0x1.583baf0ab63afp+5"),
        "var": ("0x1.99dd11d23333fp+1", "0x1.1aebd5a5d338dp-3"),
        "diff235": ("0x1.5a99ce4914da9p+1", "0x1.10bc638fb3f11p-2"),
        "bracket1.lower_j": ("0x1.d1c14e858fea4p+0", "0x1.870fd1b7231ecp-2"),
        "bracket1.lower_jk": ("0x1.212187636c0eap+1", "0x1.d41205ffecfddp-2"),
        "bracket1.upper_jk": ("0x1.3687d66e65f2ep+2", "0x1.6f64d0b2bf964p-2"),
        "bracket1.upper_j": ("0x1.ab5da9cfbb22dp+2", "0x1.1f798f0638421p-2"),
    }

    def test_bit_identical_on_mixed_laws(self):
        small, wide, cfg = self.MIXED_SMALL, self.MIXED_WIDE, self.MIXED_CFG
        s6, s9 = pinned_poly(6), pinned_poly(9)
        got = {
            "ej2-enumerated": jv.estimate_iterated_jackknife(small, s6, 2, cfg),
            "ek2-enumerated": jv.estimate_projected_jackknife(small, s6, 2, cfg),
            "ej3-sampled": jv.estimate_iterated_jackknife(wide, s9, 3, cfg),
            "ek3-sampled": jv.estimate_projected_jackknife(wide, s9, 3, cfg),
            "var": jv.estimate_variance(small, s6, cfg),
            "diff235": jv.estimate_difference_moment(small, s6, [2, 3, 5], cfg),
        }
        bracket = jv.estimate_bracket(small, s6, 1, cfg)
        for side in ("lower_j", "lower_jk", "upper_jk", "upper_j"):
            got[f"bracket1.{side}"] = getattr(bracket, side)
        assert {name: (e.mean.hex(), e.std_error.hex()) for name, e in got.items()} == self.PINNED_MIXED
