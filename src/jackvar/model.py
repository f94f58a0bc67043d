"""Product spaces of independent finite discrete variables and statistics on them.

Everything downstream (conditional operators, jackknife moments, degree
spectra) works on tabulated functions over the joint outcome grid, so this
module fixes the one convention the whole library shares: joint outcomes are
enumerated in mixed-radix order with coordinate 1 varying fastest.  For a
space with per-coordinate support sizes (m_1, ..., m_n), the flat index of
the outcome with per-coordinate indices (i_1, ..., i_n) is

    flat = i_1 + m_1 * (i_2 + m_2 * (i_3 + ...))

which is the Fortran-order raveling of an array indexed [i_1, ..., i_n].

A whole outcome is evaluated by one routine, `Statistic._at`, from the
tables of `Statistic._bind`, the one place a statistic reads a space and
is checked against it: the exact engine passes an open grid of support
indices and gets the joint table, the Monte Carlo engine passes sampled
index rows.  Three kinds (`table`, `sum`, `ustat2`) are a finish applied
to sums of per-coordinate terms; `_at` adds them up, and the Monte Carlo
engine's replaced sets (`mc._replaced`) add the changed coordinates'
terms to a base row's sums.  Each input is decoded and checked once, by
its constructor (`DiscreteDistribution`, `Statistic`; every real through
`_reals`), and `STATISTIC_PARAMS` is the CLI's schema too.  A `table`
keeps one read-only float64 array, which `==`, hash and pickle see as floats.

All containers are immutable after construction; arrays are marked
read-only, so any operation may run concurrently on shared inputs.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_OUTCOME_CAP = 1 << 24
PROB_SUM_TOL = 1e-12
_SHORT_REALS = 16  # longest list `_reals` checks in Python

# each statistic kind and its params fields (at most one, whose value is `Statistic`'s params)
STATISTIC_PARAMS = {"table": ("values",), "sum": ("weights",), "max": (), "ustat2": ("g",), "poly": ("terms",)}


class ModelError(ValueError):
    """Invalid distribution, space, or statistic construction."""


class GridSizeError(ModelError):
    """An exact array would hold more float64 values than the space's cap."""


class NonFiniteError(ModelError):
    """A statistic evaluates to inf or NaN on the grid or on sampled outcomes."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed far beyond numerical noise.

    Raised when a quantity that is non-negative (or an identity that is
    exact) by convexity/algebra comes out wrong by more than the documented
    tolerance.  This always indicates a bug, never sampling noise.
    """


def as_integer(what: str, value) -> int:
    """`value` as an int: Python and numpy integers pass, booleans and the rest raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ModelError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _pair(what: str, expected: str, value) -> tuple:
    """`value` unpacked into two items, or a ModelError naming `what`."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ModelError(f"{what}: expected {expected}, got {value!r}") from None
    return first, second


def _entries(what: str, expected: str, values) -> list:
    """`values` as a list, or a ModelError naming `what`: a str or a mapping is refused, not read as its items."""
    if not isinstance(values, (str, bytes, Mapping)):
        try:
            return list(values)
        except TypeError:  # not iterable, or a 0-d array
            pass
    raise ModelError(f"{what}: expected {expected}, got {values!r}")


def _reals(what: str, values, expected: str = "an array of reals") -> np.ndarray:
    """`values` as a fresh 1-D float64 array of finite reals, or a ModelError naming `what`.

    An entry is a `numbers.Real`, never a bool or a string, an array has an
    int, uint or float dtype, and an int past the float range is refused.
    A list of at most _SHORT_REALS Python ints and floats is checked in
    Python, where numpy's per-call cost would dominate; the array and every
    refusal are the same either way."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise ModelError(f"{what}: expected {expected}, got an array of dtype {values.dtype}")
        arr = np.array(values, dtype=np.float64)
    else:
        items = _entries(what, expected, values)
        if not set(map(type, items)) <= {float, int}:  # bool is not int here
            for i, v in enumerate(items):
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise ModelError(f"{what}: expected {expected}; entry {i} is {v!r}")
        elif len(items) <= _SHORT_REALS:
            try:
                items = [float(v) for v in items]
            except OverflowError:
                raise ModelError(f"{what}: expected {expected}, got a number outside the float range") from None
            for i, v in enumerate(items):
                if not math.isfinite(v):
                    raise ModelError(f"{what}[{i}]: {v!r} is not a finite real")
            return np.array(items)
        try:
            arr = np.array(items, dtype=np.float64)
        except OverflowError:
            raise ModelError(f"{what}: expected {expected}, got a number outside the float range") from None
    if arr.ndim != 1:
        raise ModelError(f"{what}: expected {expected}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        i = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ModelError(f"{what}[{i}]: {float(arr[i])!r} is not a finite real")
    return arr


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite discrete law: outcome values and their probabilities, each decoded by `_reals`.

    Probabilities must sum to 1 within ``PROB_SUM_TOL`` on input; they are
    renormalized exactly once here and never again downstream.
    """

    support: tuple[float, ...]
    probs: tuple[float, ...]

    def __init__(self, support: Sequence[float], probs: Sequence[float]):
        support = tuple(_reals("support", support).tolist())
        probs = tuple(_reals("probs", probs).tolist())
        if len(support) < 1:
            raise ModelError("support must contain at least one value")
        if len(support) != len(probs):
            raise ModelError(
                f"support has {len(support)} values but probs has {len(probs)}"
            )
        if any(p < 0 for p in probs):
            raise ModelError("negative probability")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ModelError(
                f"probabilities sum to {total!r}, outside tolerance {PROB_SUM_TOL}"
            )
        probs = tuple(p / total for p in probs)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return len(self.support)

    @classmethod
    def rademacher(cls) -> "DiscreteDistribution":
        return cls((-1.0, 1.0), (0.5, 0.5))

    @classmethod
    def point_mass(cls, value: float) -> "DiscreteDistribution":
        return cls((value,), (1.0,))

    @classmethod
    def uniform(cls, values: Sequence[float]) -> "DiscreteDistribution":
        support = _reals("support", values)  # decoded before its size is used
        return cls(support, np.ones(support.size) / support.size)


@dataclass(frozen=True)
class IndexSet:
    """A canonically sorted set of distinct 1-based coordinate indices.

    The iterated operators are invariant under reordering of their index
    tuple, so sets of coordinates are the right key; the bitmask form is
    what the memo caches use.
    """

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int]):
        idx = tuple(sorted(set(as_integer("coordinate index", i) for i in indices)))
        if any(i < 1 for i in idx):
            raise ModelError(f"coordinate indices must be >= 1, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    @property
    def mask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << (i - 1)
        return m

    @classmethod
    def from_mask(cls, mask: int) -> "IndexSet":
        mask = as_integer("subset mask", mask)
        if mask < 0:
            raise ModelError(f"subset mask must be non-negative, got {mask}")
        out = []
        i = 1
        while mask:
            if mask & 1:
                out.append(i)
            mask >>= 1
            i += 1
        return cls(out)

    def check_range(self, n: int) -> "IndexSet":
        if self.indices and self.indices[-1] > n:
            raise ModelError(
                f"index {self.indices[-1]} out of range for a space with n={n}"
            )
        return self


def as_index_set(indices) -> IndexSet:
    """Accept an IndexSet, a single Python or numpy integer, or any iterable of them."""
    if isinstance(indices, IndexSet):
        return indices
    if not isinstance(indices, Iterable):  # one coordinate: IndexSet refuses all but an integer
        return IndexSet((indices,))
    return IndexSet(indices)


class ProductSpace:
    """n independent finite discrete coordinates and their joint outcome grid.

    The joint law is the product of the per-coordinate laws; independence is
    structural (joint weights are built as an outer product, nothing else is
    ever assumed).  Building one allocates nothing of grid size; `cap`
    bounds only the exact arrays, each checked by `check_grid` where it is built.
    """

    def __init__(self, dists: Sequence[DiscreteDistribution], cap: int = DEFAULT_OUTCOME_CAP):
        dists = tuple(dists)
        if len(dists) < 1:
            raise ModelError("a product space needs at least one coordinate")
        if not all(isinstance(d, DiscreteDistribution) for d in dists):
            raise ModelError("dists must be DiscreteDistribution instances")
        self.dists = dists
        self.shape = tuple(d.size for d in dists)
        self.n = len(dists)
        self.n_outcomes = math.prod(self.shape)
        self.cap = cap
        self._weights = None
        self._probs = tuple(_readonly(d.probs) for d in dists)
        self._values = tuple(_readonly(d.support) for d in dists)

    def axis_probs(self, coord: int) -> np.ndarray:
        """Marginal probabilities of 1-based coordinate `coord` (read-only)."""
        return self._probs[coord - 1]

    def axis_values(self, coord: int) -> np.ndarray:
        """Support values of 1-based coordinate `coord` (read-only)."""
        return self._values[coord - 1]

    def probs_grid(self, coord: int) -> np.ndarray:
        """axis_probs(coord) shaped to broadcast along axis coord - 1 of the grid."""
        return self._probs_grids[coord - 1]

    @cached_property
    def _probs_grids(self) -> tuple[np.ndarray, ...]:
        # built on first use: an n-dimensional view exists only for n <= 64
        return tuple(
            p.reshape((1,) * c + p.shape + (1,) * (self.n - c - 1)) for c, p in enumerate(self._probs)
        )

    def check_grid(self, what: str, entries: int | None = None, axes: int | None = None) -> None:
        """Refuse an exact array of more than `cap` float64 values or numpy's 64 axes.

        The library's one size rule; both counts default to the joint grid's."""
        entries = self.n_outcomes if entries is None else entries
        axes = self.n if axes is None else axes
        if axes > 64:
            raise GridSizeError(f"{what}: {axes} axes exceed numpy's 64; use the Monte Carlo estimators")
        if entries > self.cap:
            raise GridSizeError(
                f"{what}: {entries} float64 values ({8 * entries} bytes) exceed the cap "
                f"of {self.cap} values; use the Monte Carlo estimators"
            )

    @cached_property
    def open_grid(self) -> tuple[np.ndarray, ...]:
        """Per-coordinate support indices broadcasting to the joint grid (np.ix_ style)."""
        self.check_grid("the joint grid")
        return np.indices(self.shape, sparse=True)

    def joint_weights(self) -> np.ndarray:
        """Full joint probability grid (outer product of the marginals)."""
        if self._weights is None:
            self.check_grid("the joint weights")
            w = np.ones(self.shape, dtype=np.float64)
            for c in range(1, self.n + 1):
                w = w * self.probs_grid(c)
            self._weights = _readonly(w)
        return self._weights

    def outcome(self, flat: int) -> tuple[float, ...]:
        """Outcome values at a flat index in the documented enumeration."""
        if not 0 <= flat < self.n_outcomes:
            raise ModelError(f"flat index {flat} out of range")
        vals = []
        r = flat
        for d, m in zip(self.dists, self.shape):
            vals.append(d.support[r % m])
            r //= m
        return tuple(vals)

    def flat_strides(self) -> np.ndarray:
        """Mixed-radix strides: flat = sum_i idx_i * stride_i."""
        s = [1]
        for c in range(1, self.n):
            s.append(s[-1] * self.shape[c - 1])
        # conversion raises OverflowError rather than wrapping silently
        return np.asarray(s, dtype=np.int64)

    def iid(self) -> bool:
        first = self.dists[0]
        return all(d == first for d in self.dists)

    def __repr__(self):
        return f"ProductSpace(n={self.n}, shape={self.shape})"


def build_space(dists: Sequence[DiscreteDistribution], cap: int = DEFAULT_OUTCOME_CAP) -> ProductSpace:
    return ProductSpace(dists, cap=cap)


@dataclass(frozen=True, eq=False)
class Statistic:
    """A real-valued function of the n coordinates, from a fixed catalog.

    kinds:
      table  -- params {"values": one real per joint outcome, enumeration order}
      sum    -- params {"weights": w}, S = sum_i w_i x_i
      max    -- no params, S = max_i x_i
      ustat2 -- params {"g": ((value, g_value), ...)}, S = sum_{i<j} g(x_i) g(x_j)
      poly   -- params {"terms": ((coef, (e_1..e_n)), ...)}, S = sum_t c_t prod_i x_i^e_ti

    The constructor is the one decoder of params, for every factory, direct
    call and `jackvar run`: a table becomes one fresh read-only 1-D float64
    array, the other kinds tuples of floats (poly exponents non-negative
    integers, no params for `max`).  Every real is a finite number read by
    `_reals`, so no evaluation rechecks, and a repeated ustat2 support
    value, which the g map would drop, is refused.  `==`, hash and pickle
    see `_key()`, where a table's values are a tuple of floats, so a pickle
    holds no numpy object.

    `_bind`, the one method that reads a space, checks the fit and writes
    each kind's formula as per-coordinate tables, which `validate`,
    `on_grid`, `on_indices` and the Monte Carlo engine all start from (an
    estimate binds once and hands the tables to `_on_rows` and
    `mc._replaced` for every block).  `_at`
    evaluates them for the exact grid and Monte Carlo rows alike, as an
    elementwise accumulation over the coordinates in ascending order, so
    an entry reads only its own indices and gets the same operations
    whatever the array shape.  That row-local property is what keeps Monte
    Carlo estimates bit-identical under any block partition of the
    samples.  `mc._replaced` adds the terms of the replaced coordinates to
    the base row's sums instead: exact for the integer `table` index, a
    different rounding for `sum` and `ustat2`.
    """

    kind: str
    params: tuple | np.ndarray

    def __init__(self, kind: str, params=()):
        if not isinstance(kind, str) or kind not in STATISTIC_PARAMS:  # an unhashable kind is not a key
            raise ModelError(f"unknown statistic kind {kind!r}; expected one of {tuple(STATISTIC_PARAMS)}")
        if kind == "table":
            params = _reals("params.values", params, "one real per outcome")  # a copy the caller cannot write
            params.setflags(write=False)
        elif kind == "sum":
            params = tuple(_reals("params.weights", params, "one real per coordinate").tolist())
        elif kind == "max":
            if not isinstance(params, (tuple, list)) or params:
                raise ModelError(f"max statistic takes no params, got {params!r}")
            params = ()
        elif kind == "ustat2":
            pairs = enumerate(_entries("params.g", "an array of (value, g_value) pairs", params))
            params = tuple(_pair(f"params.g[{i}]", "(value, g_value)",
                                 _reals(f"params.g[{i}]", pair, "(value, g_value)").tolist()) for i, pair in pairs)
            first = {}  # support value -> its first entry; 0.0 and -0.0 are one key
            for i, (value, _) in enumerate(params):
                j = first.setdefault(value, i)
                if j != i:
                    raise ModelError(f"params.g[{i}]: support value {value!r} repeats params.g[{j}]")
        else:  # poly
            coefs, exponents = [], []
            for t, term in enumerate(_entries("params.terms", "an array of (coef, exponents) terms", params)):
                coef, exps = _pair(f"params.terms[{t}]", "(coef, exponents)", term)
                if isinstance(exps, (str, Mapping)) or not isinstance(exps, Iterable):
                    raise ModelError(f"params.terms[{t}]: expected (coef, exponents), got {term!r}")
                exps = tuple(as_integer("poly exponent", e) for e in exps)
                if any(e < 0 for e in exps):
                    raise ModelError(f"poly term {t} has a negative exponent")
                coefs.append(coef)
                exponents.append(exps)
            coefs = _reals("params.terms", coefs, "a real coefficient in each term").tolist()
            params = tuple(zip(coefs, exponents))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        # the ustat2 value map `_bind` reads; it takes no part in ==, hash or pickle
        object.__setattr__(self, "_g", dict(params) if kind == "ustat2" else None)

    def _key(self) -> tuple:
        """(kind, params) with a table's values as a tuple of floats: what ==, hash and pickle see."""
        return self.kind, (tuple(self.params.tolist()) if self.kind == "table" else self.params)

    def __eq__(self, other):
        return isinstance(other, Statistic) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return Statistic, self._key()

    @classmethod
    def table(cls, values: Sequence[float]) -> "Statistic":
        return cls("table", values)

    @classmethod
    def linear(cls, weights: Sequence[float]) -> "Statistic":
        return cls("sum", weights)

    @classmethod
    def coordinate_max(cls) -> "Statistic":
        return cls("max")

    @classmethod
    def pair_interaction(cls, g: Mapping[float, float] | Sequence) -> "Statistic":
        return cls("ustat2", g.items() if isinstance(g, Mapping) else g)

    @classmethod
    def polynomial(cls, terms: Sequence) -> "Statistic":
        return cls("poly", terms)

    def _bind(self, space: ProductSpace):
        """(tables, finish) of S on `space`: the one method that reads a space.

        Raises `ModelError` if the statistic does not fit.  For `table`,
        `sum` and `ustat2`, S = finish(*sums), sums[f] the `_accumulate` of
        feature f, whose tables[f][c] holds its term at each support index of
        coordinate c+1: stride_c * i (int64) for `table`, w_c * x_c for
        `sum`, g(x_c) and g(x_c)^2 for `ustat2`.  For `max` the tables are
        the support values, for `poly` (coef, [x_c^e, None where e = 0]) per
        term, and finish is None.  A term past the float range is held as
        inf, without a numpy warning: where S is evaluated, `tabulate` and
        `mc._contributions` refuse it.  The tables are never written, so a
        binding may be reused for every evaluation on the same space.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "table":
                if len(self.params) != space.n_outcomes:
                    raise ModelError(f"table statistic has {len(self.params)} values, space has {space.n_outcomes} outcomes")
                flat = [np.arange(m, dtype=np.int64) * s for m, s in zip(space.shape, space.flat_strides())]
                return (flat,), self.params.__getitem__
            if self.kind == "sum":
                if len(self.params) != space.n:
                    raise ModelError(f"sum statistic has {len(self.params)} weights for n={space.n}")
                return ([w * space.axis_values(c) for c, w in enumerate(self.params, 1)],), lambda total: total
            if self.kind == "ustat2":
                if space.n < 2:
                    raise ModelError("ustat2 needs at least two coordinates")
                axes = {}  # support -> g at each of its values, built once per distinct support
                for c, d in enumerate(space.dists, 1):
                    if d.support not in axes:
                        try:
                            axes[d.support] = _readonly([self._g[v] for v in d.support])
                        except KeyError as missing:
                            raise ModelError(f"ustat2 value map has no entry for support value {missing.args[0]!r} "
                                             f"of coordinate {c}") from None
                g = [axes[d.support] for d in space.dists]
                # sum_{i<j} g_i g_j from T = sum g_i and Q = sum g_i^2
                return (g, [v * v for v in g]), lambda total, total_sq: 0.5 * (total * total - total_sq)
            if self.kind == "max":
                return [space.axis_values(c) for c in range(1, space.n + 1)], None
            for t, (_, exps) in enumerate(self.params):
                if len(exps) != space.n:
                    raise ModelError(f"poly term {t} has {len(exps)} exponents for n={space.n}")
            return [(coef, [space.axis_values(c) ** e if e else None for c, e in enumerate(exps, 1)])
                    for coef, exps in self.params], None

    def validate(self, space: ProductSpace) -> None:
        """Raise `ModelError` unless the statistic fits `space`."""
        self._bind(space)

    def on_grid(self, space: ProductSpace) -> np.ndarray:
        """Evaluate on the full joint grid; returns an array of space.shape."""
        return self._at(self._bind(space), space.open_grid)  # the fit is checked before the grid size

    def on_indices(self, space: ProductSpace, idx: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at per-coordinate support indices.

        idx is an integer (N, n) array, column c in 0..m_{c+1}-1 (else
        `ModelError` names the row and the coordinate); returns shape (N,).
        It never builds the joint grid.
        """
        return self._on_rows(space, self._bind(space), idx)

    def _on_rows(self, space: ProductSpace, binding, idx) -> np.ndarray:
        """`on_indices` with `binding = self._bind(space)` made by the caller.

        The Monte Carlo engine's one whole-row evaluator: an estimate binds
        once and evaluates every block through here; the index rows are
        still checked on each call.
        """
        idx = np.asarray(idx)
        if idx.ndim != 2 or idx.shape[1] != space.n or idx.dtype.kind not in "iu":
            raise ModelError(f"index rows: expected integers of shape (rows, {space.n}), "
                             f"got {idx.dtype} of shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= min(space.shape)):  # else every column is in range
            bad = np.argwhere((idx < 0) | (idx >= space.shape))
            if bad.size:
                row, c = bad[0].tolist()
                raise ModelError(f"index row {row}, coordinate {c + 1}: {idx[row, c]} is outside 0..{space.shape[c] - 1}")
        return self._at(binding, idx.T)

    def _at(self, binding, cols) -> np.ndarray:
        """S from `_bind`'s tables at support indices: cols[c] indexes coordinate c+1; the n arrays broadcast."""
        tables, finish = binding
        if finish is not None:
            return finish(*(_accumulate(feature, cols) for feature in tables))
        if self.kind == "max":
            return functools.reduce(np.maximum, [values[col] for values, col in zip(tables, cols)])
        # poly: a term may leave coordinates out, so start from the full shape
        out = np.zeros(np.broadcast_shapes(*(np.shape(col) for col in cols)))
        for coef, powers in tables:
            term = coef
            for power, col in zip(powers, cols):
                if power is not None:
                    term = term * power[col]
            out = out + term
        return out


def _accumulate(tables, cols):
    """0 + tables[c][cols[c]] over the coordinates in ascending order.

    Every coordinate enters, so the sum has the full shape.  The integer 0
    adds as 0.0 to float terms, so an all -0.0 sum is 0.0.
    """
    total = 0
    for table, col in zip(tables, cols):
        total = total + table[col]
    return total


@dataclass(frozen=True, eq=False)
class FieldTable:
    """A real value per joint outcome: the common currency of the library.

    `array` is shaped like the space (axis j = coordinate j+1); the flat
    `values` view follows the documented enumeration order.  The full grid
    is always stored, even for a table constant along some coordinates.
    """

    space: ProductSpace
    array: np.ndarray

    def __init__(self, space: ProductSpace, array: np.ndarray):
        arr = np.asarray(array, dtype=np.float64)
        if arr.shape != space.shape:
            if arr.size == space.n_outcomes and arr.ndim == 1:
                arr = arr.reshape(space.shape, order="F")
            else:
                raise ModelError(
                    f"table shape {arr.shape} does not match space shape {space.shape}"
                )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "array", _readonly(arr))

    @property
    def values(self) -> np.ndarray:
        """Flat values, coordinate 1 fastest."""
        return self.array.ravel(order="F")

    def __repr__(self):
        return f"FieldTable(n={self.space.n}, outcomes={self.space.n_outcomes})"


def tabulate(statistic: Statistic, space: ProductSpace) -> FieldTable:
    """Evaluate a statistic at every joint outcome; a non-finite value raises NonFiniteError, not a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):  # the non-finite S is refused just below
        grid = statistic.on_grid(space)
    if not np.isfinite(grid).all():
        flat = int(np.flatnonzero(~np.isfinite(grid.ravel(order="F")))[0])
        raise NonFiniteError(f"{statistic.kind} statistic is not finite at outcome {space.outcome(flat)}")
    return FieldTable(space, grid)


def expectation(f: FieldTable) -> float:
    return float(np.sum(f.space.joint_weights() * f.array))


def variance(f: FieldTable) -> float:
    """Two-pass variance: subtract the mean first, then average the square.

    The shifted form avoids the catastrophic cancellation E f^2 - (E f)^2
    suffers for large offsets.
    """
    m = expectation(f)
    return float(np.sum(f.space.joint_weights() * (f.array - m) ** 2))
