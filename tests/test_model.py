import numpy as np
import pytest
from hypothesis import given, strategies as st

import jackvar as jv
from jackvar.model import DEFAULT_OUTCOME_CAP

from bruteforce import BruteSpace, mean as brute_mean, variance as brute_variance

RAD = jv.DiscreteDistribution.rademacher()


class TestDiscreteDistribution:
    def test_renormalizes_exactly(self):
        d = jv.DiscreteDistribution([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
        assert sum(d.probs) == 1.0

    def test_rejects_bad_sum(self):
        with pytest.raises(jv.ModelError, match="sum"):
            jv.DiscreteDistribution([0.0, 1.0], [0.5, 0.4])

    def test_rejects_negative_prob(self):
        with pytest.raises(jv.ModelError, match="negative"):
            jv.DiscreteDistribution([0.0, 1.0], [1.5, -0.5])

    def test_rejects_empty_support(self):
        with pytest.raises(jv.ModelError):
            jv.DiscreteDistribution([], [])

    def test_rejects_non_finite(self):
        with pytest.raises(jv.ModelError):
            jv.DiscreteDistribution([np.inf], [1.0])

    def test_rejects_nan_prob(self):
        with pytest.raises(jv.ModelError, match="finite"):
            jv.DiscreteDistribution([0.0, 1.0], [np.nan, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(jv.ModelError):
            jv.DiscreteDistribution([1.0, 2.0], [1.0])

    def test_point_mass(self):
        d = jv.DiscreteDistribution.point_mass(3.0)
        assert d.support == (3.0,) and d.probs == (1.0,)


class TestIndexSet:
    def test_canonicalizes(self):
        s = jv.IndexSet([3, 1, 3, 2])
        assert s.indices == (1, 2, 3)

    def test_mask_round_trip(self):
        s = jv.IndexSet([1, 4, 5])
        assert jv.IndexSet.from_mask(s.mask) == s
        assert s.mask == 0b11001

    def test_complement(self):
        assert jv.IndexSet([2]).complement(3).indices == (1, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(jv.ModelError):
            jv.IndexSet([0, 1])

    def test_range_check(self):
        with pytest.raises(jv.ModelError, match="out of range"):
            jv.IndexSet([4]).check_range(3)


class TestBuildSpace:
    def test_two_rademacher(self):
        sp = jv.build_space([RAD, RAD])
        assert sp.n_outcomes == 4
        w = sp.joint_weights()
        assert np.allclose(w, 0.25)

    def test_point_mass_space(self):
        sp = jv.build_space([jv.DiscreteDistribution.point_mass(3.0)])
        assert sp.n_outcomes == 1
        assert sp.joint_weights()[0] == 1.0

    def test_outcome_cap(self):
        with pytest.raises(jv.ModelError, match="cap"):
            jv.build_space([RAD] * 25)
        assert 2**25 > DEFAULT_OUTCOME_CAP

    def test_empty(self):
        with pytest.raises(jv.ModelError):
            jv.build_space([])

    def test_enumeration_order(self):
        # coordinate 1 varies fastest: (-,-), (+,-), (-,+), (+,+)
        sp = jv.build_space([RAD, RAD])
        assert [sp.outcome(i) for i in range(4)] == [
            (-1.0, -1.0),
            (1.0, -1.0),
            (-1.0, 1.0),
            (1.0, 1.0),
        ]

    def test_weights_read_only(self):
        sp = jv.build_space([RAD, RAD])
        with pytest.raises(ValueError):
            sp.joint_weights()[0, 0] = 9.0


class TestTabulate:
    def test_rad2_prod(self, rad2, prod_stat):
        t = jv.tabulate(prod_stat, rad2)
        assert t.values.tolist() == [1.0, -1.0, -1.0, 1.0]
        assert t.constant_coords == frozenset()

    def test_rad2_sum(self, rad2, sum_stat):
        t = jv.tabulate(sum_stat, rad2)
        assert t.values.tolist() == [-2.0, 0.0, 0.0, 2.0]

    def test_constant(self, rad2):
        t = jv.tabulate(jv.Statistic.table([4.5] * 4), rad2)
        assert np.all(t.array == 4.5)

    def test_round_trip(self, rad3, u2_stat):
        t = jv.tabulate(u2_stat, rad3)
        again = jv.tabulate(jv.Statistic.table(t.values), rad3)
        assert np.array_equal(t.values, again.values)

    def test_table_wrong_length(self, rad2):
        with pytest.raises(jv.ModelError, match="outcomes"):
            jv.tabulate(jv.Statistic.table([1.0, 2.0]), rad2)

    def test_ustat2_missing_entry(self, rad2):
        with pytest.raises(jv.ModelError, match="no entry"):
            jv.tabulate(jv.Statistic.pair_interaction({-1.0: 1.0}), rad2)

    def test_poly_bad_exponents(self, rad2):
        with pytest.raises(jv.ModelError, match="exponents"):
            jv.tabulate(jv.Statistic.polynomial([(1.0, (1, 1, 1))]), rad2)

    def test_sum_wrong_weights(self, rad2):
        with pytest.raises(jv.ModelError, match="weights"):
            jv.tabulate(jv.Statistic.linear([1.0]), rad2)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises(self):
        sp = jv.build_space([jv.DiscreteDistribution([1.0, 1e200], [0.5, 0.5])] * 2)
        cube = jv.Statistic.polynomial([(1.0, (3, 0)), (2.0, (0, 1))])
        with pytest.raises(jv.ModelError, match=r"not finite at outcome \(1e\+200, 1.0\)"):
            jv.tabulate(cube, sp)


class TestNonFiniteParams:
    """Statistics refuse non-finite numbers once, at construction."""

    def test_table_value(self):
        with pytest.raises(jv.ModelError, match=r"params.values\[2\]"):
            jv.Statistic.table([0.0, 1.0, np.nan, 3.0])

    def test_sum_weight(self):
        with pytest.raises(jv.ModelError, match=r"params.weights\[0\]"):
            jv.Statistic.linear([np.inf, 1.0])

    def test_ustat2_g_value(self):
        with pytest.raises(jv.ModelError, match=r"params.g\[1\]"):
            jv.Statistic.pair_interaction({-1.0: 1.0, 1.0: -np.inf})

    def test_poly_coefficient(self):
        with pytest.raises(jv.ModelError, match=r"params.terms\[1\]"):
            jv.Statistic.polynomial([(1.0, (1, 0)), (np.nan, (0, 1))])

    def test_direct_constructor(self):
        with pytest.raises(jv.ModelError, match="finite"):
            jv.Statistic("sum", (1.0, np.nan))


class TestMoments:
    def test_fixture_values(self, rad2, prod_stat, sum_stat):
        fp = jv.tabulate(prod_stat, rad2)
        fs = jv.tabulate(sum_stat, rad2)
        assert jv.expectation(fp) == 0.0 and jv.variance(fp) == 1.0
        assert jv.expectation(fs) == 0.0 and jv.variance(fs) == 2.0

    def test_constant(self, rad2):
        f = jv.tabulate(jv.Statistic.table([3.25] * 4), rad2)
        assert jv.expectation(f) == 3.25
        assert jv.variance(f) == 0.0

    def test_shifted_two_pass_is_stable(self):
        # large common offset must not destroy the variance
        sp = jv.build_space([RAD])
        f = jv.tabulate(jv.Statistic.table([1e9 - 1.0, 1e9 + 1.0]), sp)
        assert jv.variance(f) == pytest.approx(1.0, rel=1e-12)

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=4),
    )
    def test_variance_nonnegative(self, vals):
        sp = jv.build_space([RAD, RAD])
        f = jv.tabulate(jv.Statistic.table(vals), sp)
        assert jv.variance(f) >= 0.0

    def test_variance_zero_iff_constant(self, rad2):
        f = jv.tabulate(jv.Statistic.table([2.0, 2.0, 2.0, 2.0]), rad2)
        assert jv.variance(f) == 0.0
        g = jv.tabulate(jv.Statistic.table([2.0, 2.0, 2.0, 2.5]), rad2)
        assert jv.variance(g) > 1e-12

    def test_linear_tensorization_exact(self):
        # for S = sum w_i x_i the first-order bound is an equality
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(10):
            dists = [
                jv.DiscreteDistribution(rng.uniform(-1, 1, 3), [0.2, 0.3, 0.5])
                for _ in range(3)
            ]
            sp = jv.build_space(dists)
            w = rng.uniform(-2, 2, 3)
            f = jv.tabulate(jv.Statistic.linear(w), sp)
            per_coord = []
            for c, d in enumerate(dists):
                one = jv.build_space([d])
                per_coord.append(jv.variance(jv.tabulate(jv.Statistic.linear([1.0]), one)))
            expected = sum(w[c] ** 2 * per_coord[c] for c in range(3))
            assert jv.variance(f) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_against_bruteforce(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(5):
            n = int(rng.integers(1, 4))
            supports = [rng.uniform(-1, 1, int(rng.integers(2, 4))) for _ in range(n)]
            probs = []
            for s in supports:
                w = rng.random(len(s))
                probs.append((w / w.sum()).tolist())
            bs = BruteSpace([s.tolist() for s in supports], probs)
            sp = jv.build_space(
                [jv.DiscreteDistribution(s, p) for s, p in zip(supports, probs)]
            )
            vals = rng.uniform(-1, 1, sp.n_outcomes)
            f = jv.tabulate(jv.Statistic.table(vals), sp)
            table = {idx: vals[i] for i, idx in enumerate(bs.indices)}
            assert jv.expectation(f) == pytest.approx(brute_mean(bs, table), abs=1e-13)
            assert jv.variance(f) == pytest.approx(brute_variance(bs, table), abs=1e-13)


class TestOnIndices:
    @pytest.mark.parametrize(
        "stat",
        [
            jv.Statistic.linear([0.5, -1.0, 2.0]),
            jv.Statistic.coordinate_max(),
            jv.Statistic.pair_interaction({-1.0: -1.0, 1.0: 1.0}),
            jv.Statistic.polynomial([(1.0, (2, 0, 1)), (-0.5, (0, 1, 0))]),
        ],
    )
    def test_matches_grid(self, rad3, stat):
        rng = np.random.Generator(np.random.Philox(key=2))
        idx = rng.integers(0, 2, size=(50, 3))
        grid = stat.on_grid(rad3)
        direct = stat.on_indices(rad3, idx)
        for row, want in zip(idx, direct):
            assert grid[tuple(row)] == pytest.approx(want, abs=1e-14)

    def test_table_kind(self, rad3, u2_stat):
        table = jv.Statistic.table(jv.tabulate(u2_stat, rad3).values)
        rng = np.random.Generator(np.random.Philox(key=3))
        idx = rng.integers(0, 2, size=(40, 3))
        assert np.array_equal(
            table.on_indices(rad3, idx), u2_stat.on_indices(rad3, idx)
        )
