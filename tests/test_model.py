import copy
import dataclasses
import hashlib
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import jackvar as jv
from jackvar import bounds, mc
from jackvar.model import DEFAULT_OUTCOME_CAP, GridSizeError, as_index_set

from bruteforce import BruteSpace, mean as brute_mean, statistic_at, variance as brute_variance

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

    @pytest.mark.parametrize("values, message", [
        ([], "^support must contain at least one value$"),  # raised ZeroDivisionError
        (5, "^support: expected an array of reals, got 5$"),  # raised TypeError from len()
    ], ids=["empty", "scalar"])
    def test_uniform_decodes_its_support_first(self, values, message):
        with pytest.raises(jv.ModelError, match=message):
            jv.DiscreteDistribution.uniform(values)

    def test_uniform(self):
        d = jv.DiscreteDistribution.uniform(range(3))
        assert d.support == (0.0, 1.0, 2.0) and d.probs == (1 / 3,) * 3


class TestIndexSet:
    def test_canonicalizes(self):
        s = jv.IndexSet([3, 1, 3, 2])
        assert s.indices == (1, 2, 3)

    def test_mask_round_trip(self):
        s = jv.IndexSet([1, 4, 5])
        assert jv.IndexSet.from_mask(s.mask) == s
        assert s.mask == 0b11001

    def test_rejects_nonpositive(self):
        with pytest.raises(jv.ModelError):
            jv.IndexSet([0, 1])

    def test_range_check(self):
        with pytest.raises(jv.ModelError, match="out of range"):
            jv.IndexSet([4]).check_range(3)

    def test_negative_mask_refused(self):
        # shifting a negative mask right never reaches 0
        with pytest.raises(jv.ModelError, match="^subset mask must be non-negative, got -1$"):
            jv.IndexSet.from_mask(-1)


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
        # building a space allocates nothing of grid size, so any size builds
        assert jv.build_space([RAD] * 25).n_outcomes == 2**25 > DEFAULT_OUTCOME_CAP
        # the cap is checked where an exact array is built; a small one keeps
        # a missing check down to kilobytes
        sp = jv.build_space([RAD] * 10, cap=2**9)
        with pytest.raises(GridSizeError, match=r"the joint grid: 1024 float64 values \(8192 bytes\)"):
            jv.tabulate(jv.Statistic.coordinate_max(), sp)
        with pytest.raises(GridSizeError, match=r"the joint weights: 1024 .* cap of 512"):
            sp.joint_weights()
        assert jv.tabulate(jv.Statistic.coordinate_max(), jv.build_space([RAD] * 9, cap=2**9))

    def test_axes_beyond_numpy(self):
        sp = jv.build_space([jv.DiscreteDistribution.point_mass(0.0)] * 66)
        assert sp.n_outcomes == 1
        for build in (lambda: jv.tabulate(jv.Statistic.coordinate_max(), sp), sp.joint_weights):
            with pytest.raises(GridSizeError, match="66 axes exceed numpy's 64"):
                build()

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

    def test_axis_arrays_read_only_and_built_once(self):
        sp = jv.build_space([RAD, jv.DiscreteDistribution([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])])
        assert sp.probs_grid(2).shape == (1, 3)
        assert sp.axis_values(2).tolist() == [0.0, 1.0, 2.0]
        for get in (sp.axis_probs, sp.axis_values, sp.probs_grid):
            for c in (1, 2):
                arr = get(c)
                assert arr is get(c)
                with pytest.raises(ValueError):
                    arr[..., 0] = 9.0


class TestTabulate:
    def test_rad2_prod(self, rad2, prod_stat):
        t = jv.tabulate(prod_stat, rad2)
        assert t.values.tolist() == [1.0, -1.0, -1.0, 1.0]

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

    @pytest.mark.parametrize("g, message", [
        ([(1.0, 2.0), (1.0, 5.0)], r"^params.g\[1\]: support value 1.0 repeats params.g\[0\]$"),
        ([(0.0, 1.0), (1.0, 2.0), (-0.0, 5.0)], r"^params.g\[2\]: support value -0.0 repeats params.g\[0\]$"),
    ], ids=["equal", "signed-zero"])
    def test_ustat2_repeated_support_value(self, g, message):
        # a dict keeps only the last g of a repeated value, and looks 0.0 and -0.0 up as one
        with pytest.raises(jv.ModelError, match=message):
            jv.Statistic.pair_interaction(g)

    def test_poly_bad_exponents(self, rad2):
        with pytest.raises(jv.ModelError, match="exponents"):
            jv.tabulate(jv.Statistic.polynomial([(1.0, (1, 1, 1))]), rad2)

    def test_sum_wrong_weights(self, rad2):
        with pytest.raises(jv.ModelError, match="weights"):
            jv.tabulate(jv.Statistic.linear([1.0]), rad2)


    def test_overflow_raises(self):
        sp = jv.build_space([jv.DiscreteDistribution([1.0, 1e200], [0.5, 0.5])] * 2)
        cube = jv.Statistic.polynomial([(1.0, (3, 0)), (2.0, (0, 1))])
        with pytest.raises(jv.ModelError, match=r"not finite at outcome \(1e\+200, 1.0\)"):
            jv.tabulate(cube, sp)


class TestNonFiniteParams:
    """Statistics refuse non-finite numbers and malformed params once, at construction,
    for the factories and direct constructor calls alike."""

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

    def test_max_takes_no_params(self):
        with pytest.raises(jv.ModelError, match=r"^max statistic takes no params, got \(1.0,\)$"):
            jv.Statistic("max", (1.0,))
        assert jv.Statistic("max", []) == jv.Statistic.coordinate_max()

    @pytest.mark.parametrize("values", [np.zeros((2, 2)), [[1.0, 2.0], [3.0, 4.0]], 1.0])
    def test_table_must_be_one_dimensional(self, values):
        # a 2-D array would otherwise be gathered by its flat index without complaint
        with pytest.raises(jv.ModelError, match=r"^params.values: expected one real per outcome"):
            jv.Statistic.table(values)

    @pytest.mark.parametrize("call", [
        lambda: jv.Statistic.polynomial([(1.0, (1, -1))]),
        lambda: jv.Statistic("poly", ((2.0, (0, 0)), (1.0, (np.int64(-2), 1)))),
    ], ids=["factory", "constructor"])
    def test_negative_poly_exponent(self, call):
        # refused before any space is seen, not first by validate
        with pytest.raises(jv.ModelError, match=r"^poly term \d has a negative exponent$"):
            call()

    @pytest.mark.parametrize("field, call", [pytest.param(field, call, id=name) for name, field, call in [
        ("poly-no-exponents", r"params.terms\[0\]", lambda: jv.Statistic.polynomial([(1.0,)])),
        ("poly-scalar-exponents", r"params.terms\[1\]",
         lambda: jv.Statistic.polynomial([(1.0, (1, 0)), (1.0, 2)])),
        ("ustat2-triple", r"params.g\[0\]", lambda: jv.Statistic.pair_interaction([(1.0, 2.0, 3.0)])),
        ("ustat2-scalar", r"params.g\[0\]", lambda: jv.Statistic.pair_interaction([1.0])),
        ("table-ragged", r"params.values", lambda: jv.Statistic.table([[1.0], [2.0, 3.0]])),
    ]])
    def test_malformed_shape_names_the_field(self, field, call):
        # each used to raise a bare ValueError or TypeError from unpacking or numpy
        with pytest.raises(jv.ModelError, match=f"^{field}: expected "):
            call()

    def test_direct_constructor_decodes_like_the_factory(self):
        # a string is no real, as as_integer refuses "2": the sum weight "1.5" is refused alike by both
        messages = []
        for call in (lambda: jv.Statistic("sum", ("1.5", 2)), lambda: jv.Statistic.linear(("1.5", 2))):
            with pytest.raises(jv.ModelError, match=r"^params.weights: expected ") as refused:
                call()
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        direct = jv.Statistic("sum", (1, 2))
        assert direct == jv.Statistic.linear((1, 2)) and direct.params == (1.0, 2.0)
        assert jv.Statistic("ustat2", [(1, 2)]).params == ((1.0, 2.0),)
        assert jv.Statistic("poly", [(1, [np.int8(1), 0])]) == jv.Statistic.polynomial([(1.0, (1, 0))])


# the value of one array-of-reals slot: a scalar, or two entries with a bad first one
BAD_REALS = {"scalar": 0.5, "nested": [[0.5], 0.5], "bool": [True, 0.5], "string": ["0.5", 0.5],
             "none": [None, 0.5], "huge": [10**400, 0.5]}
# (field, constructor call with the slot's value) for every real field of both constructors
REAL_FIELDS = {
    "support": ("support", lambda x: jv.DiscreteDistribution(x, [0.5, 0.5])),
    "probs": ("probs", lambda x: jv.DiscreteDistribution([0.0, 1.0], x)),
    "table": ("params.values", jv.Statistic.table),
    "sum": ("params.weights", jv.Statistic.linear),
    "ustat2-value": (r"params.g\[0\]", lambda x: jv.Statistic.pair_interaction([x])),
    "ustat2-g": (r"params.g\[0\]", lambda x: jv.Statistic.pair_interaction([x[::-1] if isinstance(x, list) else x])),
    "poly-coef": ("params.terms",
                  lambda x: jv.Statistic.polynomial([(c, (1,)) for c in x] if isinstance(x, list) else x)),
}


class TestOneDecoder:
    """Each constructor decodes its reals with `_reals`: a real is a number, never a bool or a string."""

    @pytest.mark.parametrize("bad", BAD_REALS.values(), ids=BAD_REALS.keys())
    @pytest.mark.parametrize("field, call", REAL_FIELDS.values(), ids=REAL_FIELDS.keys())
    def test_refused(self, field, call, bad):
        # strings and booleans used to be taken as numbers, the rest raised bare TypeErrors or OverflowErrors
        with pytest.raises(jv.ModelError, match=f"^{field}: expected "):
            call(bad)

    @pytest.mark.parametrize("values", [np.array([True, False]), np.array(["1.5", "2"]), np.array([1.0, None])],
                             ids=["bool", "str", "object"])
    def test_arrays_need_a_numeric_dtype(self, values):
        for field, call in (REAL_FIELDS[name] for name in ("support", "probs", "table", "sum", "ustat2-value")):
            with pytest.raises(jv.ModelError, match=f"^{field}: expected .*, got an array of dtype "):
                call(values)

    def test_max_refuses_a_scalar(self):
        with pytest.raises(jv.ModelError, match=r"^max statistic takes no params, got 5$"):
            jv.Statistic("max", 5)

    @pytest.mark.parametrize("kind", [[], {}, None], ids=["list", "dict", "none"])
    def test_kind_must_be_a_known_string(self, kind):
        # an unhashable kind raised TypeError from the dict lookup
        with pytest.raises(jv.ModelError, match=r"^unknown statistic kind "):
            jv.Statistic(kind, ())

    def test_numbers_of_any_real_type(self):
        law = jv.DiscreteDistribution(np.array([0, 2], dtype=np.uint8), (Fraction(1, 4), np.float32(0.75)))
        assert law == jv.DiscreteDistribution([0.0, 2.0], [0.25, 0.75])
        assert jv.Statistic.linear([np.int64(1), Fraction(1, 2)]).params == (1.0, 0.5)


class TestTableParams:
    """A table statistic owns one read-only float64 array."""

    def test_copies_its_values(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        stat = jv.Statistic.table(a)
        a[0] = 99.0
        assert stat.params.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert jv.tabulate(stat, RAD2).values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert a.flags.writeable

    def test_read_only_float64(self):
        stat = jv.Statistic.table([1, 2, 3, 4])
        assert stat.params.dtype == np.float64 and stat.params.ndim == 1
        assert not stat.params.flags.writeable
        with pytest.raises(ValueError):
            stat.params[0] = 5.0

    def test_identity_sees_floats(self):
        stat = jv.Statistic.table(np.array([0.5, -1.0]))
        assert stat == jv.Statistic("table", (0.5, -1.0)) == jv.Statistic.table([0.5, -1])
        assert hash(stat) == hash(("table", (0.5, -1.0)))
        assert pickle.loads(pickle.dumps(stat)).params.tolist() == [0.5, -1.0]


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


# (id, supports, statistic): n = 1 for four kinds, one-point coordinates, a zero
# sum weight and poly terms that leave coordinates out or are constant
ORACLE_CASES = [
    ("table_n1", [[-1.0, 0.5, 2.0]], jv.Statistic.table([0.25, -3.0, 1.5])),
    ("table_mixed", [[0.0, 1.0], [7.0], [-1.0, 0.0, 2.0]],
     jv.Statistic.table([0.5, -1.0, 2.0, 0.125, -0.75, 3.0])),
    ("sum_n1", [[-1.0, 0.5, 2.0]], jv.Statistic.linear([-1.5])),
    ("sum_zero_weight", [[-1.0, 1.0], [3.0], [0.0, 2.0, 5.0], [-2.0, 0.5]],
     jv.Statistic.linear([0.5, 2.0, -1.25, 0.0])),
    ("max_n1", [[-1.0, 0.5, 2.0]], jv.Statistic.coordinate_max()),
    ("max_mixed", [[-1.0, 1.0], [0.25], [-3.0, 0.0, 2.0]], jv.Statistic.coordinate_max()),
    ("ustat2_n2", [[-1.0, 1.0], [-1.0, 1.0]],
     jv.Statistic.pair_interaction({-1.0: -1.0, 1.0: 1.0})),
    ("ustat2_mixed", [[-1.0, 1.0], [2.0], [-1.0, 0.5, 2.0]],
     jv.Statistic.pair_interaction({-1.0: 0.75, 0.5: -2.0, 1.0: 1.5, 2.0: 0.25})),
    ("poly_n1", [[-1.0, 0.5, 2.0]], jv.Statistic.polynomial([(1.5, (2,)), (-0.5, (0,))])),
    ("poly_mixed", [[-1.0, 1.0, 3.0], [0.5], [-2.0, 0.0]],
     jv.Statistic.polynomial([(1.0, (2, 0, 1)), (-0.5, (0, 3, 0)), (2.0, (0, 0, 0))])),
    ("poly_constant", [[-1.0, 1.0], [0.5, 2.0]], jv.Statistic.polynomial([(2.5, (0, 0))])),
]


class TestOnIndices:
    """Both evaluation paths against the per-outcome definitions in bruteforce."""

    @staticmethod
    def spaces(supports):
        probs = [[1.0 / len(s)] * len(s) for s in supports]
        sp = jv.build_space([jv.DiscreteDistribution(s, p) for s, p in zip(supports, probs)])
        return sp, BruteSpace(supports, probs)

    @pytest.mark.parametrize("supports, stat", [pytest.param(*c[1:], id=c[0]) for c in ORACLE_CASES])
    def test_on_grid_matches_definition(self, supports, stat):
        sp, bs = self.spaces(supports)
        grid = stat.on_grid(sp)
        assert grid.shape == sp.shape
        for idx in bs.indices:
            want = statistic_at(bs, stat.kind, stat.params, idx)
            assert grid[idx] == pytest.approx(want, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("supports, stat", [pytest.param(*c[1:], id=c[0]) for c in ORACLE_CASES])
    def test_on_indices_matches_definition(self, supports, stat):
        sp, bs = self.spaces(supports)
        rng = np.random.Generator(np.random.Philox(key=2))
        rows = bs.indices + [tuple(int(rng.integers(0, m)) for m in sp.shape) for _ in range(40)]
        got = stat.on_indices(sp, np.asarray(rows, dtype=np.int64))
        assert got.shape == (len(rows),)
        for idx, value in zip(rows, got):
            want = statistic_at(bs, stat.kind, stat.params, idx)
            assert value == pytest.approx(want, rel=1e-14, abs=1e-14)
        assert stat.on_indices(sp, np.zeros((0, sp.n), dtype=np.int64)).shape == (0,)

    def test_table_kind(self, rad3, u2_stat):
        table = jv.Statistic.table(jv.tabulate(u2_stat, rad3).values)
        rng = np.random.Generator(np.random.Philox(key=3))
        idx = rng.integers(0, 2, size=(40, 3))
        assert np.array_equal(
            table.on_indices(rad3, idx), u2_stat.on_indices(rad3, idx)
        )


# (id, statistic, message) on binary n = 3: each statistic does not fit the space
MISFITS = [
    ("table", jv.Statistic.table([1.0, 2.0, 3.0, 4.0]), "table statistic has 4 values, space has 8 outcomes"),
    ("sum", jv.Statistic.linear([1.0, 2.0]), "sum statistic has 2 weights for n=3"),
    ("ustat2", jv.Statistic.pair_interaction({1.0: 1.0}),
     "ustat2 value map has no entry for support value -1.0 of coordinate 1"),
    ("poly", jv.Statistic.polynomial([(1.0, (1, 1))]), "poly term 0 has 2 exponents for n=3"),
]


class TestBinding:
    """Every evaluation checks that the statistic fits its space (`Statistic._bind`).

    `max` takes any space, so it has no misfit; the other kinds fail alike
    wherever S is evaluated, with `validate`'s message."""

    SPACE = jv.build_space([RAD] * 3)

    @staticmethod
    def entry_points(space, stat):
        rows = np.zeros((4, space.n), dtype=np.int64)
        return {
            "validate": lambda: stat.validate(space),
            "on_grid": lambda: stat.on_grid(space),
            "on_indices": lambda: stat.on_indices(space, rows),
            "_replaced": lambda: list(mc._replaced(space, stat, rows, rows + 1, np.arange(space.n), [0, 1])),
            "estimate_variance": lambda: jv.estimate_variance(space, stat, jv.McConfig(seed=1, outer_samples=4)),
        }

    @pytest.mark.parametrize("stat, message", [pytest.param(*c[1:], id=c[0]) for c in MISFITS])
    def test_every_evaluation_refuses_a_misfit(self, stat, message):
        # on_indices and _replaced evaluated a misfit without the check: a sum
        # with too few weights dropped coordinate 3, a short table gathered
        # past its values, a missing ustat2 entry died with a bare KeyError
        for name, call in self.entry_points(self.SPACE, stat).items():
            with pytest.raises(jv.ModelError) as refused:
                call()
            assert str(refused.value) == message, name

    def test_ustat2_needs_two_coordinates(self):
        stat = jv.Statistic.pair_interaction({-1.0: 1.0, 1.0: 2.0})
        for call in self.entry_points(jv.build_space([RAD]), stat).values():
            with pytest.raises(jv.ModelError, match="^ustat2 needs at least two coordinates$"):
                call()

    def test_max_fits_every_space(self):
        stat = jv.Statistic.coordinate_max()
        for space in (jv.build_space([RAD]), self.SPACE):
            for call in self.entry_points(space, stat).values():
                call()

    def test_on_grid_checks_the_fit_before_the_grid_size(self):
        # binary n = 25 is past the default cap: the weights are named, not the grid
        with pytest.raises(jv.ModelError, match="^sum statistic has 3 weights for n=25$") as refused:
            jv.Statistic.linear([1.0, 2.0, 3.0]).on_grid(jv.build_space([RAD] * 25))
        assert not isinstance(refused.value, GridSizeError)
        with pytest.raises(GridSizeError):
            jv.Statistic.linear([1.0] * 25).on_grid(jv.build_space([RAD] * 25))


class TestIndexRows:
    """`on_indices` checks its rows once: shape (N, n), an integer dtype, column c in 0..m_c-1."""

    SPACE = jv.build_space([RAD] * 3)
    STATISTICS = [jv.Statistic.table(np.arange(8.0)), jv.Statistic.linear([1.0, 2.0, 4.0]),
                  jv.Statistic.coordinate_max(), jv.Statistic.pair_interaction({-1.0: 1.0, 1.0: 2.0}),
                  jv.Statistic.polynomial([(1.0, (1, 1, 1))])]

    @pytest.mark.parametrize("rows, message", [
        ([[1, 1]], r"^index rows: expected integers of shape \(rows, 3\), got int\d+ of shape \(1, 2\)$"),
        ([[0, 0, 0], [-1, -1, -1]], r"^index row 1, coordinate 1: -1 is outside 0..1$"),
        ([[0, 1, 2]], r"^index row 0, coordinate 3: 2 is outside 0..1$"),
        (np.array([[0.0, 1.0, 1.0]]), r"^index rows: expected integers .*, got float64 of shape \(1, 3\)$"),
    ], ids=["two-columns", "minus-one", "two", "float"])
    def test_refused(self, rows, message):
        # a sum dropped coordinate 3 of a 2-column row, -1 wrapped to the last
        # support value, and index 2 raised a bare IndexError or gathered
        # another outcome's table entry
        for stat in self.STATISTICS:
            with pytest.raises(jv.ModelError, match=message):
                stat.on_indices(self.SPACE, rows)

    def test_every_index_in_range_is_taken(self):
        rows = np.array(list(np.ndindex(*self.SPACE.shape)), dtype=np.uint8)
        for stat in self.STATISTICS:
            assert np.array_equal(stat.on_indices(self.SPACE, rows), stat.on_grid(self.SPACE).ravel())
        # past the narrowest support, the columns are checked one by one
        mixed = jv.build_space([RAD, jv.DiscreteDistribution.uniform([0.0, 1.0, 2.0])])
        assert jv.Statistic.linear([1.0, 1.0]).on_indices(mixed, [[1, 2]]).tolist() == [3.0]


class TestStatisticIdentity:
    """==, hash and pickle see (kind, params) only, not the arrays decoded from them."""

    @pytest.mark.parametrize("supports, stat", [pytest.param(*c[1:], id=c[0]) for c in ORACLE_CASES])
    def test_eq_hash_pickle(self, supports, stat):
        twin = jv.Statistic(stat.kind, list(stat.params))
        assert twin == stat and hash(twin) == hash(stat)
        assert [f.name for f in dataclasses.fields(stat)] == ["kind", "params"]
        blob = pickle.dumps(stat)
        assert blob == pickle.dumps(twin) and b"numpy" not in blob
        back = pickle.loads(blob)
        assert back == stat and hash(back) == hash(stat)
        sp = jv.build_space([jv.DiscreteDistribution.uniform(s) for s in supports])
        assert np.array_equal(back.on_grid(sp), stat.on_grid(sp))
        assert np.array_equal(copy.deepcopy(stat).on_grid(sp), stat.on_grid(sp))

    def test_params_decide_equality(self):
        assert jv.Statistic.table([1.0, 2.0]) != jv.Statistic.table([1.0, 3.0])
        assert jv.Statistic.table([1.0]) != jv.Statistic.linear([1.0])


# three non-iid spaces with dyadic supports, so every power x^e is exact
# whatever pow the platform uses: a zero-probability atom, 0.0 and -0.0 as
# two atoms and a point mass; six coordinates of sizes 1 to 4; and one
# 24-point axis
PIN_LAWS = {
    "signed-zeros": [
        jv.DiscreteDistribution([-1.0, 0.5, 2.0], [0.5, 0.0, 0.5]),
        jv.DiscreteDistribution([0.0, -0.0, 1.0], [0.25, 0.25, 0.5]),
        jv.DiscreteDistribution([-1.5, 0.25, 0.75, 3.0], [0.1, 0.2, 0.3, 0.4]),
        jv.DiscreteDistribution.point_mass(-2.0),
    ],
    "wide": [
        RAD,
        jv.DiscreteDistribution([0.5, -2.0, 1.25], [0.2, 0.5, 0.3]),
        jv.DiscreteDistribution.point_mass(2.0),
        jv.DiscreteDistribution([-0.75, 0.25], [0.9, 0.1]),
        jv.DiscreteDistribution([1.0, 3.0, -0.5, 0.125], [0.25] * 4),
        jv.DiscreteDistribution([-0.25, 1.5, 0.0], [0.3, 0.3, 0.4]),
    ],
    "long-axis": [
        jv.DiscreteDistribution.uniform([k / 8.0 - 2.0 for k in range(24)]),
        jv.DiscreteDistribution([4.0, -1.0], [0.5, 0.5]),
        jv.DiscreteDistribution.uniform([k / 4.0 - 1.0 for k in range(9)]),
    ],
}


def pin_catalog(laws):
    """One statistic of every kind fitting these laws, from rational arithmetic only."""
    n, outcomes = len(laws), math.prod(law.size for law in laws)
    values = {v for law in laws for v in law.support}  # the set keeps one of 0.0, -0.0
    return {
        "table": jv.Statistic.table([(37 * i % 101) / 7.0 - 6.0 for i in range(outcomes)]),
        "sum": jv.Statistic.linear([(5 * c % 7) / 3.0 - 1.1 for c in range(n)]),
        "max": jv.Statistic.coordinate_max(),
        "ustat2": jv.Statistic.pair_interaction({v: v / 3.0 + 0.7 for v in values}),
        "poly": jv.Statistic.polynomial([
            (0.3, tuple(c % 4 for c in range(n))),
            (-1.0 / 7.0, tuple((c + 2) % 3 for c in range(n))),
            (2.5, (0,) * n),
        ]),
    }


def pin_rows(space, count=50):
    """(count, n) fixed index rows: row r, coordinate c is (r (2c + 3) + c) mod m_c."""
    return np.array([[(r * (2 * c + 3) + c) % m for c, m in enumerate(space.shape)] for r in range(count)])


class TestEvaluationPins:
    """SHA-256 of the bytes of `on_grid` and of `on_indices` on fixed rows.

    A change to how a statistic is evaluated that moves any bit of S fails
    here, before any moment built from S does.
    """

    PINNED = {
        ("signed-zeros", "table"): ("b5c974514f9bdd2fab42baada982cf7bf36968e2fe036a40d89e6a55837c9549",
                                    "9d8f9ada13fc7b1e68450356797bee9711e65b26172958adfd06a5dbdc2b815e"),
        ("signed-zeros", "sum"): ("1debbba36a2abcf2b8ab204587ec63eaa31249f2f0f95b8a764bcf8e01d706ab",
                                  "cdf6b354344f26641b80e94404937f84d46fbb89377da0bab700f2fd7489048d"),
        ("signed-zeros", "max"): ("d2d81150aba47f75e2ec9506c0c4c0cb68704b83b08079acf58441c2782e72b1",
                                  "22f48f571cf51187649457d66096025400bba296440c826d183c2670827928d5"),
        ("signed-zeros", "ustat2"): ("bca0321062fd3a57d20ea1bf40903c53746cf5771c4ff8f405b2bdce2624b39f",
                                     "c1c811e92438db5944e6b6d12b9c32d37ea3a5a7c09ee76089646e00eaa52f31"),
        ("signed-zeros", "poly"): ("24f258e34189812de50896fd3934bf2c341b5a65abbed29951059ff1ded6ab86",
                                   "da0a27d540cde53faa80210bdeadf9963545785dfa2283ae790b2a2744c9a329"),
        ("wide", "table"): ("cb095a55a25f7c1fb3416f845cd0d63ebb6a677382a71cdb8c2c373af085d018",
                            "987fb9f6abffedfaf5e44db164313d5ee1b1b52d9e47e213e114533dba96562e"),
        ("wide", "sum"): ("68f1d924db26749b927a1def7858d58616a19c16c35a3278cb71e51433d0413d",
                          "61f62ad9f93d1f66bdabfaa72215ba1e4cebaab7ef30a1349c337c8202d85832"),
        ("wide", "max"): ("cf323301a642144342b964c00c3248cb7c4d1970df58359e7fb1c41ab2226d42",
                          "a4b46ea1f0dc4b18ebf6f2dc3efb1e39d459dec8530b05174431b7b85aad048b"),
        ("wide", "ustat2"): ("4fd399a92edd8acaf71ab2639cbeb17a1842771ba1671f26171214e89e72e41e",
                             "bd9a2436e64f434e48c6c01f24425c384b03a300c4f95e54f2f30c84d98662d2"),
        ("wide", "poly"): ("ea7ed1986d18a4d72a79653c1d2e04aa8428fdac24d22d8ffca9365ef0698c14",
                           "56a620811602706708b7f3f2c94a0b032c1bc5a10012a43550669378b9f3903f"),
        ("long-axis", "table"): ("60ac214688cb910b4b18fcdd25cf3b63416fa96ad5fbb487bb9e1584dcca79bd",
                                 "68e7bd71ba150d17f19bf790323c3b85673f96d5fefaff58ac5569595a191231"),
        ("long-axis", "sum"): ("e3aaa248b147e58c8adae2cd8dc541353f060a7cc885fe0b3b87be57e572ea0e",
                               "c7dbd4d5f9c633e60c07fad07fa6839f4fba369ce5a68277b5237946930743e6"),
        ("long-axis", "max"): ("a26723b5d563a95567e73d8bbcd355f8e494239bddec623357e6b5102b8a5744",
                               "3d752f8b902f2110e736c4ff2083cdc062aaf7d04f2586d5afee26c352174f23"),
        ("long-axis", "ustat2"): ("081fdc141801c2258bada186fb85b0c65929abec17a7906f9d0aadf528604840",
                                  "d1167cc432cfa958478b622e00c6bae0ac98c7fd024b8f1d44e317f3b7e3c7ea"),
        ("long-axis", "poly"): ("8c59008c25ecf773f57ffa0fd4ab5a0c1a55d694debb609f1de0f8a48b987830",
                                "fed61497a8fad34293d701dc56dd46562e65a904c6f2ec0b0c49df5da5b674e4"),
    }

    @pytest.mark.parametrize("laws, kind", PINNED)
    def test_bit_identical(self, laws, kind):
        space, stat = jv.build_space(PIN_LAWS[laws]), pin_catalog(PIN_LAWS[laws])[kind]
        got = (hashlib.sha256(stat.on_grid(space).tobytes()).hexdigest(),
               hashlib.sha256(stat.on_indices(space, pin_rows(space)).tobytes()).hexdigest())
        assert got == self.PINNED[laws, kind]


RAD2 = jv.build_space([RAD, RAD])
PROD = jv.Statistic.polynomial([(1.0, (1, 1))])
CFG = jv.McConfig(seed=1, outer_samples=10)


class TestIntegerInputs:
    """Every integer input of the library takes Python or numpy integers and
    refuses booleans and non-integers with a ModelError naming it, never
    truncating or failing with a raw TypeError."""

    @pytest.mark.parametrize("what, call", [pytest.param(what, call, id=name) for name, what, call in [
        ("sample_outcomes-seed", "seed", lambda: jv.sample_outcomes(RAD2, 4, seed=2.7)),
        ("sample_outcomes-count", "count", lambda: jv.sample_outcomes(RAD2, 2.5, seed=1)),
        ("sample_outcomes-start", "start", lambda: jv.sample_outcomes(RAD2, 2, seed=1, start=1.0)),
        ("stream_rng-seed", "seed", lambda: mc.stream_rng(True, 1, 0)),
        ("stream_rng-tag", "stream tag", lambda: mc.stream_rng(1, 1.5, 0)),
        ("stream_rng-index", "block index", lambda: mc.stream_rng(1, 1, 0.5)),
        ("McConfig-seed", "seed", lambda: jv.McConfig(seed=np.float64(2.0), outer_samples=10)),
        ("McConfig-outer_samples", "outer_samples", lambda: jv.McConfig(seed=1, outer_samples=10.0)),
        ("IndexSet-float", "coordinate index", lambda: jv.IndexSet([1.7, 2])),
        ("IndexSet-bool", "coordinate index", lambda: jv.IndexSet([True])),
        ("IndexSet.from_mask-float", "subset mask", lambda: jv.IndexSet.from_mask(2.5)),
        ("iterated_variance-order", "coordinate index",
         lambda: jv.iterated_variance(jv.CondExpCache(jv.tabulate(PROD, RAD2)), [1.9])),
        ("iterated_variance-scalar", "coordinate index",
         lambda: jv.iterated_variance(jv.CondExpCache(jv.tabulate(PROD, RAD2)), 2.0)),
        ("cond_expect-numpy-bool", "coordinate index",
         lambda: jv.CondExpCache(jv.tabulate(PROD, RAD2)).cond_expect(np.True_)),
        ("difference-moment-scalar", "coordinate index", lambda: jv.estimate_difference_moment(RAD2, PROD, 1.0, CFG)),
        ("polynomial-float", "poly exponent", lambda: jv.Statistic.polynomial([(1.0, (1.7, 0))])),
        ("polynomial-bool", "poly exponent", lambda: jv.Statistic.polynomial([(1.0, (True, 0))])),
        ("Statistic-poly-float", "poly exponent", lambda: jv.Statistic("poly", ((1.0, (1.5, 1)),))),
        ("Statistic-poly-bool", "poly exponent", lambda: jv.Statistic("poly", ((1.0, (True, 1)),))),
        ("total-k", "order k", lambda: jv.estimate_iterated_jackknife(RAD2, PROD, 1.5, CFG)),
        ("projected-k", "order k", lambda: jv.estimate_projected_jackknife(RAD2, PROD, True, CFG)),
        ("estimate_bracket-p", "p", lambda: jv.estimate_bracket(RAD2, PROD, 1.0, CFG)),
        ("bracket_terms-p", "p", lambda: bounds.bracket_terms(4, np.float64(1.0))),
    ]])
    def test_refused(self, what, call):
        with pytest.raises(jv.ModelError, match=f"^{what} must be an integer, got "):
            call()

    def test_numpy_integers_accepted(self):
        assert np.array_equal(jv.sample_outcomes(RAD2, np.int32(4), seed=np.uint64(2), start=np.int64(3)),
                              jv.sample_outcomes(RAD2, 4, seed=2, start=3))
        assert jv.IndexSet([np.int64(2), 1]).indices == (1, 2)
        assert jv.Statistic.polynomial([(1.0, (np.int8(1), 0))]) == jv.Statistic.polynomial([(1.0, (1, 0))])
        assert bounds.bracket_terms(4, np.int64(2)) == bounds.bracket_terms(4, 2)
        cache = jv.CondExpCache(jv.tabulate(PROD, RAD2))
        assert np.array_equal(jv.iterated_variance(cache, [np.int64(2), 1]).array,
                              jv.iterated_variance(cache, [2, 1]).array)
        k = np.int16(2)
        assert jv.estimate_iterated_jackknife(RAD2, PROD, k, CFG) == jv.estimate_iterated_jackknife(RAD2, PROD, 2, CFG)

    def test_numpy_integer_is_a_one_coordinate_set(self):
        # each raised "TypeError: 'numpy.int64' object is not iterable"
        two = np.int64(2)
        assert as_index_set(two) == jv.IndexSet([2])
        cache = jv.CondExpCache(jv.tabulate(PROD, RAD2))
        assert np.array_equal(cache.cond_expect(two).array, cache.cond_expect(2).array)
        assert np.array_equal(jv.iterated_variance(cache, two).array, jv.iterated_variance(cache, 2).array)
        assert jv.estimate_difference_moment(RAD2, PROD, two, CFG) == jv.estimate_difference_moment(RAD2, PROD, 2, CFG)
