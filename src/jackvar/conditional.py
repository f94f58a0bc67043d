"""Conditional expectation operators and iterated conditional variances.

For a function f of independent coordinates X_1..X_n, the operator indexed
by a coordinate set I averages f over the coordinates in I against their
marginals, leaving the other coordinates fixed.  Averaging over disjoint
coordinates commutes, so the operator is well defined by the *set* I alone;
the empty set is the identity and the full set is the plain expectation.

The iterated conditional variance along a nonempty index sequence is

    var(i1, rest) f = avg_{i1}( var(rest) f ) - var(rest)( avg_{i1} f )
    var(i) f       = avg_i( (f - avg_i f)^2 )

It is order-independent and non-negative (conditional Jensen), but for two
or more indices it is *not* a plain conditional variance.  A closed form,
obtained by unrolling the recursion (induction on |I|):

    var(I) f = sum over J subset of I of (-1)^|J| avg_{I \\ J}( (avg_J f)^2 )

is implemented separately as `iterated_variance_ie` and kept as an
independent oracle for the recursive path.

Numerics: results of either path are clamped to zero on [-eps, 0) with
eps = 1e-10 * scale, scale = max(1, E f^2).  Anything below -eps raises
ConsistencyError: convexity guarantees non-negativity, so a large negative
is a bug, not noise.

Concurrency: the cache memoizes one table per coordinate subset (bitmask
key, lazily populated, at most 2^n tables, each of grid size; only the
tables asked for are built).  Entries are immutable once stored and two
concurrent builders of the same entry compute identical tables, so
population is idempotent.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ConsistencyError,
    FieldTable,
    ModelError,
    ProductSpace,
    as_index_set,
)

CLAMP_REL = 1e-10


def axis_mean(space: ProductSpace, arr: np.ndarray, coord: int) -> np.ndarray:
    """Average along one 1-based coordinate, broadcast back to full shape."""
    p = space.probs_grid(coord)
    reduced = (arr * p).sum(axis=coord - 1, keepdims=True)
    return np.broadcast_to(reduced, space.shape)


def cond_mean_mask(space: ProductSpace, arr: np.ndarray, mask: int) -> np.ndarray:
    """Average along every coordinate in the bitmask, ascending axis order.

    The ascending order is the canonical reduction the whole library uses;
    it makes repeated single-coordinate averaging bit-identical to the
    one-shot set operation.
    """
    coord = 1
    while mask:
        if mask & 1:
            arr = axis_mean(space, arr, coord)
        mask >>= 1
        coord += 1
    return arr


def var_single(space: ProductSpace, arr: np.ndarray, coord: int) -> np.ndarray:
    m = axis_mean(space, arr, coord)
    return axis_mean(space, (arr - m) ** 2, coord)


def var_sequence(space: ProductSpace, arr: np.ndarray, order) -> np.ndarray:
    """Iterated conditional variance along an explicit index sequence.

    Follows the defining recursion literally, peeling indices from the
    front of `order`; unclamped.
    """
    order = list(order)
    if not order:
        raise ModelError("iterated variance needs a nonempty index sequence")
    head = order[0]
    rest = order[1:]
    if not rest:
        return var_single(space, arr, head)
    a = axis_mean(space, var_sequence(space, arr, rest), head)
    b = var_sequence(space, axis_mean(space, arr, head), rest)
    return a - b


def var_mask_ie(space: ProductSpace, arr: np.ndarray, mask: int,
                cond_of_base=None) -> np.ndarray:
    """Closed-form iterated variance via inclusion-exclusion; unclamped.

    var(I) f = sum_{J subset I} (-1)^|J| avg_{I\\J}((avg_J f)^2).  When
    `cond_of_base(submask)` is given it supplies the memoized avg_J f
    tables; otherwise they are recomputed.
    """
    if mask == 0:
        raise ModelError("iterated variance needs a nonempty index set")
    acc = np.zeros(space.shape)
    sub = mask
    while True:
        inner = cond_of_base(sub) if cond_of_base else cond_mean_mask(space, arr, sub)
        sign = -1.0 if bin(sub).count("1") % 2 else 1.0
        acc = acc + sign * cond_mean_mask(space, inner * inner, mask & ~sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return acc


class CondExpCache:
    """Memoized conditional-expectation tables of one base function.

    Keys are coordinate-set bitmasks; entry 0 is the base itself (the
    identity operator), the full mask is the globally constant table equal
    to E base.  Entries are built lazily by averaging out the highest new
    coordinate of a previously built subset, so every stored table is the
    product of ascending single-axis averages.
    """

    def __init__(self, base: FieldTable):
        self.space = base.space
        self.base = base
        self._tables: dict[int, FieldTable] = {0: base}
        self.scale = max(1.0, float(np.sum(self.space.joint_weights() * base.array**2)))
        self.clamp_eps = CLAMP_REL * self.scale

    def _mask_of(self, indices) -> int:
        iset = as_index_set(indices).check_range(self.space.n)
        return iset.mask

    def cond_expect(self, indices) -> FieldTable:
        """The base function averaged over the coordinates in `indices`."""
        return self._expect_mask(self._mask_of(indices))

    def _expect_mask(self, mask: int) -> FieldTable:
        hit = self._tables.get(mask)
        if hit is not None:
            return hit
        high = mask.bit_length()  # 1-based coordinate of the highest set bit
        parent = self._expect_mask(mask & ~(1 << (high - 1)))
        arr = axis_mean(self.space, parent.array, high)
        table = FieldTable(self.space, arr)
        self._tables[mask] = table
        return table

    def prefix_expect(self, i: int) -> FieldTable:
        """Condition ON the first i coordinates: average out {i+1, ..., n}.

        i = 0 gives the constant E base, i = n gives base itself.
        """
        n = self.space.n
        if not 0 <= i <= n:
            raise ModelError(f"prefix index {i} out of range 0..{n}")
        return self._expect_mask(((1 << n) - 1) & ~((1 << i) - 1))

    def mean(self) -> float:
        return float(self._expect_mask((1 << self.space.n) - 1).array.flat[0])

    def clamp(self, arr: np.ndarray, context: str) -> np.ndarray:
        """Zero out tiny negatives; refuse large ones."""
        low = float(arr.min())
        if low < -self.clamp_eps:
            raise ConsistencyError(
                f"{context}: value {low} below -{self.clamp_eps}; "
                "a convexity-guaranteed non-negative quantity went negative"
            )
        if low < 0.0:
            arr = np.where(arr < 0.0, 0.0, arr)
        return arr


def iterated_variance(cache: CondExpCache, indices) -> FieldTable:
    """Iterated conditional variance of the base along a coordinate set.

    Computed by the defining recursion in ascending index order; the result
    is constant along every coordinate in the set and non-negative after
    the documented clamp.
    """
    iset = as_index_set(indices).check_range(cache.space.n)
    if len(iset) == 0:
        raise ModelError("iterated variance needs a nonempty index set")
    raw = var_sequence(cache.space, cache.base.array, iset.indices)
    arr = cache.clamp(raw, f"iterated_variance({iset.indices})")
    return FieldTable(cache.space, arr)


def iterated_variance_ordered(cache: CondExpCache, order) -> FieldTable:
    """Same quantity, but following the recursion along an explicit order.

    Exists so order-irrelevance can be tested against the canonical path.
    """
    order = [int(i) for i in order]
    if len(set(order)) != len(order):
        raise ModelError("index sequence must be distinct")
    as_index_set(order).check_range(cache.space.n)
    raw = var_sequence(cache.space, cache.base.array, order)
    arr = cache.clamp(raw, f"iterated_variance_ordered({order})")
    return FieldTable(cache.space, arr)


def iterated_variance_ie(cache: CondExpCache, indices) -> FieldTable:
    """Inclusion-exclusion form of the iterated variance (oracle path).

    Non-recursive: every term comes straight from the cache's memoized
    conditional means.  Must agree pointwise with `iterated_variance`.
    """
    iset = as_index_set(indices).check_range(cache.space.n)
    if len(iset) == 0:
        raise ModelError("iterated variance needs a nonempty index set")
    raw = var_mask_ie(
        cache.space,
        cache.base.array,
        iset.mask,
        cond_of_base=lambda sub: cache._expect_mask(sub).array,
    )
    arr = cache.clamp(raw, f"iterated_variance_ie({iset.indices})")
    return FieldTable(cache.space, arr)
