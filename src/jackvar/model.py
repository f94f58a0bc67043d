"""Product spaces of independent finite discrete variables and statistics on them.

Everything downstream (conditional operators, jackknife moments, degree
spectra) works on tabulated functions over the joint outcome grid, so this
module fixes the one convention the whole library shares: joint outcomes are
enumerated in mixed-radix order with coordinate 1 varying fastest.  For a
space with per-coordinate support sizes (m_1, ..., m_n), the flat index of
the outcome with per-coordinate indices (i_1, ..., i_n) is

    flat = i_1 + m_1 * (i_2 + m_2 * (i_3 + ...))

which is the Fortran-order raveling of an array indexed [i_1, ..., i_n].

All containers are immutable after construction; arrays are marked
read-only, so any operation may run concurrently on shared inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_OUTCOME_CAP = 1 << 24
PROB_SUM_TOL = 1e-12

STATISTIC_KINDS = ("table", "sum", "max", "ustat2", "poly")


class ModelError(ValueError):
    """Invalid distribution, space, or statistic construction."""


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

    def support_array(self) -> np.ndarray:
        return np.asarray(self.support, dtype=np.float64)

    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)

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

    def complement(self, n: int) -> "IndexSet":
        return IndexSet(i for i in range(1, n + 1) if i not in self.indices)

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
    ever assumed).
    """

    def __init__(self, dists: Sequence[DiscreteDistribution], cap: int = DEFAULT_OUTCOME_CAP):
        dists = tuple(dists)
        if len(dists) < 1:
            raise ModelError("a product space needs at least one coordinate")
        if not all(isinstance(d, DiscreteDistribution) for d in dists):
            raise ModelError("dists must be DiscreteDistribution instances")
        shape = tuple(d.size for d in dists)
        count = 1
        for m in shape:
            count *= m
            if count > cap:
                raise ModelError(
                    f"joint outcome count exceeds cap {cap}; "
                    "use the Monte Carlo estimators for spaces this large"
                )
        self.dists = dists
        self.shape = shape
        self.n = len(dists)
        self.n_outcomes = count
        self.cap = cap
        self._weights = None

    def axis_probs(self, coord: int) -> np.ndarray:
        """Marginal probabilities of 1-based coordinate `coord`."""
        return self.dists[coord - 1].probs_array()

    def axis_values(self, coord: int) -> np.ndarray:
        return self.dists[coord - 1].support_array()

    def _axis_shaped(self, coord: int, arr: np.ndarray) -> np.ndarray:
        shape = [1] * self.n
        shape[coord - 1] = self.shape[coord - 1]
        return arr.reshape(shape)

    def probs_grid(self, coord: int) -> np.ndarray:
        return self._axis_shaped(coord, self.axis_probs(coord))

    def values_grid(self, coord: int) -> np.ndarray:
        return self._axis_shaped(coord, self.axis_values(coord))

    def joint_weights(self) -> np.ndarray:
        """Full joint probability grid (outer product of the marginals)."""
        if self._weights is None:
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
        bad = np.flatnonzero(~np.isfinite(np.asarray(reals, dtype=np.float64)))
        if bad.size:
            i = int(bad[0])
            raise ModelError(f"params.{field}[{i}]: {reals[i]!r} is not a finite real")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

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
            gmap = dict(self.params)
            for c in range(1, space.n + 1):
                for v in space.dists[c - 1].support:
                    if v not in gmap:
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

    def _g_arrays(self, space: ProductSpace) -> list[np.ndarray]:
        gmap = dict(self.params)
        return [
            np.asarray([gmap[v] for v in d.support], dtype=np.float64)
            for d in space.dists
        ]

    def on_grid(self, space: ProductSpace) -> np.ndarray:
        """Evaluate on the full joint grid; returns an array of space.shape."""
        self.validate(space)
        if self.kind == "table":
            return np.asarray(self.params, dtype=np.float64).reshape(space.shape, order="F")
        if self.kind == "sum":
            out = np.zeros(space.shape)
            for c, w in enumerate(self.params, start=1):
                out = out + w * space.values_grid(c)
            return out
        if self.kind == "max":
            out = np.broadcast_to(space.values_grid(1), space.shape).copy()
            for c in range(2, space.n + 1):
                out = np.maximum(out, space.values_grid(c))
            return out
        if self.kind == "ustat2":
            garrs = self._g_arrays(space)
            total = np.zeros(space.shape)
            total_sq = np.zeros(space.shape)
            for c in range(1, space.n + 1):
                g = space._axis_shaped(c, garrs[c - 1])
                total = total + g
                total_sq = total_sq + g * g
            return 0.5 * (total * total - total_sq)
        # poly
        out = np.zeros(space.shape)
        for coef, exps in self.params:
            term = np.full(space.shape, coef)
            for c, e in enumerate(exps, start=1):
                if e:
                    term = term * space.values_grid(c) ** e
            out = out + term
        return out

    def on_indices(self, space: ProductSpace, idx: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at per-coordinate support indices.

        idx has shape (N, n); returns shape (N,).  This is the path the
        Monte Carlo engine uses, so it never materializes the joint grid.
        Every kind is row-local (row i of the result reads only row i of
        idx, with the same operations whatever N is), which is what makes
        Monte Carlo contributions independent of the block partition.
        """
        idx = np.asarray(idx)
        if self.kind == "table":
            flat = idx @ space.flat_strides()
            return np.asarray(self.params, dtype=np.float64)[flat]
        if self.kind == "sum":
            out = np.zeros(idx.shape[0])
            for c, w in enumerate(self.params):
                out = out + w * space.axis_values(c + 1)[idx[:, c]]
            return out
        if self.kind == "ustat2":
            garrs = self._g_arrays(space)
            g = np.empty(idx.shape, dtype=np.float64)
            for c in range(space.n):
                g[:, c] = garrs[c][idx[:, c]]
            tot = g.sum(axis=1)
            return 0.5 * (tot * tot - (g * g).sum(axis=1))
        vals = np.empty(idx.shape, dtype=np.float64)
        for c in range(space.n):
            vals[:, c] = space.axis_values(c + 1)[idx[:, c]]
        if self.kind == "max":
            return vals.max(axis=1)
        out = np.zeros(idx.shape[0])
        for coef, exps in self.params:
            term = np.full(idx.shape[0], coef)
            for c, e in enumerate(exps):
                if e:
                    term = term * vals[:, c] ** e
            out = out + term
        return out


@dataclass(frozen=True, eq=False)
class FieldTable:
    """A real value per joint outcome: the common currency of the library.

    `array` is shaped like the space (axis j = coordinate j+1); the flat
    `values` view follows the documented enumeration order.  constant_coords
    lists coordinates the table is known constant along (bookkeeping only;
    the full grid is always stored, uniform indexing beats compressed
    layouts at these sizes).
    """

    space: ProductSpace
    array: np.ndarray
    constant_coords: frozenset = frozenset()

    def __init__(self, space: ProductSpace, array: np.ndarray, constant_coords=frozenset()):
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
        object.__setattr__(self, "constant_coords", frozenset(constant_coords))

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
        raise ModelError(f"{statistic.kind} statistic is not finite at outcome {space.outcome(flat)}")
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
