"""Product spaces of independent finite discrete variables and statistics on them.

Everything downstream (conditional operators, jackknife moments, degree
spectra) works on tabulated functions over the joint outcome grid, so this
module fixes the one convention the whole library shares: joint outcomes are
enumerated in mixed-radix order with coordinate 1 varying fastest.  For a
space with per-coordinate support sizes (m_1, ..., m_n), the flat index of
the outcome with per-coordinate indices (i_1, ..., i_n) is

    flat = i_1 + m_1 * (i_2 + m_2 * (i_3 + ...))

which is the Fortran-order raveling of an array indexed [i_1, ..., i_n].

A statistic is evaluated by one routine, `Statistic._at`, whatever asks
for it: the exact engine passes an open grid of support indices and gets
the joint table, the Monte Carlo engine passes sampled index rows.  Each
kind's parameters are decoded once, when the statistic is built.

All containers are immutable after construction; arrays are marked
read-only, so any operation may run concurrently on shared inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_OUTCOME_CAP = 1 << 24
PROB_SUM_TOL = 1e-12

STATISTIC_KINDS = ("table", "sum", "max", "ustat2", "poly")


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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite discrete law: outcome values and their probabilities.

    Probabilities must sum to 1 within ``PROB_SUM_TOL`` on input; they are
    renormalized exactly once here and never again downstream.
    """

    support: tuple[float, ...]
    probs: tuple[float, ...]

    def __init__(self, support: Sequence[float], probs: Sequence[float]):
        support = tuple(float(v) for v in support)
        probs = tuple(float(p) for p in probs)
        if len(support) < 1:
            raise ModelError("support must contain at least one value")
        if len(support) != len(probs):
            raise ModelError(
                f"support has {len(support)} values but probs has {len(probs)}"
            )
        if not all(math.isfinite(v) for v in support):
            raise ModelError("support values must be finite reals")
        if not all(math.isfinite(p) for p in probs):
            raise ModelError("probabilities must be finite reals")
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
        m = len(values)
        return cls(tuple(values), (1.0 / m,) * m)


@dataclass(frozen=True)
class IndexSet:
    """A canonically sorted set of distinct 1-based coordinate indices.

    The iterated operators are invariant under reordering of their index
    tuple, so sets of coordinates are the right key; the bitmask form is
    what the memo caches use.
    """

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int]):
        idx = tuple(sorted(set(int(i) for i in indices)))
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
    """Accept an IndexSet, a single int, or any iterable of ints."""
    if isinstance(indices, IndexSet):
        return indices
    if isinstance(indices, int):
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


@dataclass(frozen=True)
class Statistic:
    """A real-valued function of the n coordinates, from a fixed catalog.

    kinds:
      table  -- params {"values": one real per joint outcome, enumeration order}
      sum    -- params {"weights": w}, S = sum_i w_i x_i
      max    -- no params, S = max_i x_i
      ustat2 -- params {"g": ((value, g_value), ...)}, S = sum_{i<j} g(x_i) g(x_j)
      poly   -- params {"terms": ((coef, (e_1..e_n)), ...)}, S = sum_t c_t prod_i x_i^e_ti

    Table values, weights, g values and coefficients must be finite; the
    constructor refuses NaN and infinities once, so no evaluation rechecks.
    It also decodes the kind data once (the table as a float64 array, the
    ustat2 value-to-g map as a dict).

    Each kind's formula is written once, in `_at`, and serves both the
    exact grid (`on_grid`) and Monte Carlo rows (`on_indices`).  It is an
    elementwise accumulation over the coordinates in ascending order, so an
    entry reads only its own indices and gets the same operations whatever
    the array shape.  That row-local property is what keeps Monte Carlo
    estimates bit-identical under any block partition of the samples.
    """

    kind: str
    params: tuple

    def __init__(self, kind: str, params: tuple = ()):
        if kind not in STATISTIC_KINDS:
            raise ModelError(f"unknown statistic kind {kind!r}; expected one of {STATISTIC_KINDS}")
        params = tuple(params)
        if kind == "ustat2":
            field, reals = "g", [g for _, g in params]
        elif kind == "poly":
            field, reals = "terms", [coef for coef, _ in params]
        else:  # table values or sum weights; max has no params
            field, reals = ("values" if kind == "table" else "weights"), params
        arr = np.asarray(reals, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            i = int(bad[0])
            raise ModelError(f"params.{field}[{i}]: {reals[i]!r} is not a finite real")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        # decoded once: _at gathers table values from _reals and maps ustat2
        # supports through _g into the per-support arrays of _g_axes; none of
        # the three takes part in ==, hash or pickle
        object.__setattr__(self, "_reals", _readonly(arr))
        object.__setattr__(self, "_g", dict(params) if kind == "ustat2" else None)
        object.__setattr__(self, "_g_axes", {})

    def __reduce__(self):
        return (Statistic, (self.kind, self.params))

    @classmethod
    def table(cls, values: Sequence[float]) -> "Statistic":
        return cls("table", tuple(float(v) for v in values))

    @classmethod
    def linear(cls, weights: Sequence[float]) -> "Statistic":
        return cls("sum", tuple(float(w) for w in weights))

    @classmethod
    def coordinate_max(cls) -> "Statistic":
        return cls("max")

    @classmethod
    def pair_interaction(cls, g: Mapping[float, float] | Sequence) -> "Statistic":
        if isinstance(g, Mapping):
            items = g.items()
        else:
            items = g
        return cls("ustat2", tuple((float(v), float(gv)) for v, gv in items))

    @classmethod
    def polynomial(cls, terms: Sequence) -> "Statistic":
        canon = []
        for coef, exps in terms:
            canon.append((float(coef), tuple(int(e) for e in exps)))
        return cls("poly", tuple(canon))

    def validate(self, space: ProductSpace) -> None:
        if self.kind == "table":
            if len(self.params) != space.n_outcomes:
                raise ModelError(
                    f"table statistic has {len(self.params)} values, "
                    f"space has {space.n_outcomes} outcomes"
                )
        elif self.kind == "sum":
            if len(self.params) != space.n:
                raise ModelError(
                    f"sum statistic has {len(self.params)} weights for n={space.n}"
                )
        elif self.kind == "ustat2":
            if space.n < 2:
                raise ModelError("ustat2 needs at least two coordinates")
            for c in range(1, space.n + 1):
                for v in space.dists[c - 1].support:
                    if v not in self._g:
                        raise ModelError(
                            f"ustat2 value map has no entry for support value {v!r} "
                            f"of coordinate {c}"
                        )
        elif self.kind == "poly":
            for t, (_, exps) in enumerate(self.params):
                if len(exps) != space.n:
                    raise ModelError(
                        f"poly term {t} has {len(exps)} exponents for n={space.n}"
                    )
                if any(e < 0 for e in exps):
                    raise ModelError(f"poly term {t} has a negative exponent")

    def on_grid(self, space: ProductSpace) -> np.ndarray:
        """Evaluate on the full joint grid; returns an array of space.shape."""
        self.validate(space)
        return self._at(space, space.open_grid)

    def on_indices(self, space: ProductSpace, idx: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at per-coordinate support indices.

        idx has shape (N, n); returns shape (N,).  This is the path the
        Monte Carlo engine uses, so it never materializes the joint grid.
        """
        return self._at(space, np.asarray(idx).T)

    def _g_axis(self, support: tuple) -> np.ndarray:
        """g at each support value, built once per support and then reused."""
        axis = self._g_axes.get(support)
        if axis is None:
            axis = self._g_axes[support] = _readonly([self._g[v] for v in support])
        return axis

    def _at(self, space: ProductSpace, cols) -> np.ndarray:
        """S at support indices: cols[c] indexes coordinate c+1; the n arrays broadcast."""
        if self.kind == "table":
            flat = 0
            for col, stride in zip(cols, space.flat_strides()):
                flat = flat + col * stride
            return self._reals[flat]
        if self.kind == "ustat2":  # g(x_c) in place of x_c
            lookups = [self._g_axis(d.support) for d in space.dists]
        else:
            lookups = [space.axis_values(c) for c in range(1, space.n + 1)]
        values = [lookup[col] for lookup, col in zip(lookups, cols)]
        if self.kind == "max":
            out = values[0]
            for v in values[1:]:
                out = np.maximum(out, v)
            return out
        if self.kind == "sum":  # every coordinate enters, so the sum has the full shape
            out = 0.0
            for w, v in zip(self.params, values):
                out = out + w * v
            return out
        if self.kind == "ustat2":
            total = total_sq = 0.0
            for g in values:
                total = total + g
                total_sq = total_sq + g * g
            return 0.5 * (total * total - total_sq)
        # poly: a term may leave coordinates out, so start from the full shape
        out = np.zeros(np.broadcast_shapes(*(np.shape(col) for col in cols)))
        for coef, exps in self.params:
            term = coef
            for e, v in zip(exps, values):
                if e:
                    term = term * v**e
            out = out + term
        return out


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
    """Evaluate a statistic at every joint outcome; overflow raises ModelError."""
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
