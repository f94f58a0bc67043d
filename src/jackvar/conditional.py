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

Shapes: averaging along a coordinate leaves a table that no longer depends
on it, so `axis_mean`, `cond_mean_mask`, `var_sequence` and the states of
`VarianceStates` are arrays of length 1 on every averaged axis and let numpy
broadcasting stand in for the constant copies.  The full joint shape is
built only where a `FieldTable` is handed out (the cache's tables and
`iterated_variance`), by one `np.broadcast_to` at each such site.

Concurrency: the cache memoizes one table per coordinate subset (bitmask
key, lazily populated, at most 2^n tables, each of grid size; only the
tables asked for are built).  Entries are immutable once stored and two
concurrent builders of the same entry compute identical tables, so
population is idempotent.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .model import (
    ConsistencyError,
    FieldTable,
    IndexSet,
    ModelError,
    ProductSpace,
    as_index_set,
    as_integer,
)

CLAMP_REL = 1e-10


def axis_mean(space: ProductSpace, arr: np.ndarray, coord: int) -> np.ndarray:
    """Average along one 1-based coordinate; that axis keeps length 1.

    `arr` may itself be reduced (length 1 on axes averaged before); the
    result broadcasts against any array of the space's shape.
    """
    return (arr * space.probs_grid(coord)).sum(axis=coord - 1, keepdims=True)


def cond_mean_mask(space: ProductSpace, arr: np.ndarray, mask: int) -> np.ndarray:
    """Average along every coordinate in the bitmask, ascending axis order.

    The ascending order is the canonical reduction the whole library uses;
    it makes repeated single-coordinate averaging bit-identical to the
    one-shot set operation.  Every averaged axis has length 1 in the result.
    """
    coord = 1
    while mask:
        if mask & 1:
            arr = axis_mean(space, arr, coord)
        mask >>= 1
        coord += 1
    return arr


def var_sequence(space: ProductSpace, arr: np.ndarray, order) -> np.ndarray:
    """Iterated conditional variance along an explicit index sequence.

    Follows the defining recursion literally, peeling indices from the
    front of `order`; unclamped.  The result is constant along every index
    in `order` and has length 1 on those axes.
    """
    order = list(order)
    if not order:
        raise ModelError("iterated variance needs a nonempty index sequence")
    head = order[0]
    rest = order[1:]
    if not rest:
        m = axis_mean(space, arr, head)
        return axis_mean(space, (arr - m) ** 2, head)
    a = axis_mean(space, var_sequence(space, arr, rest), head)
    b = var_sequence(space, axis_mean(space, arr, head), rest)
    return a - b


class VarianceStates:
    """Memo of the iterated-variance states var(B, S) of one base array.

    var(B, S) is the defining recursion along S in ascending order, applied
    to the base averaged over B in ascending order (`cond_mean_mask`'s
    canonical order); var(B, {}) is that average itself.  Peeling s = min S:

        var(B, S) = avg_s var(B, S \\ s) - var(B + s, S \\ s)
        var(B, s) = avg_s (var(B, {}) - var(B + s, {}))^2

    Keys are the bitmask pair (B, S) of disjoint sets, so every state is
    built once and a memo holds at most 3^n.  The moment families are roots:
    the total family is var({}, I), the projected var(~I, I) and the prefix
    var({1..min I - 1}, I).  Where every coordinate of B lies below min S,
    as in the total and prefix roots, the averages run in `var_sequence`'s
    own order, so var({}, I) is bit for bit `var_sequence` along ascending I.
    States are unclamped and, like `var_sequence`'s, have length 1 on every
    axis of B and S.
    """

    def __init__(self, space: ProductSpace, base: np.ndarray):
        self.space = space
        self._states: dict[tuple[int, int], np.ndarray] = {(0, 0): base}

    def state(self, averaged: int, varied: int) -> np.ndarray:
        """var(B, S) for the bitmasks B = `averaged` and S = `varied`."""
        key = (averaged, varied)
        hit = self._states.get(key)
        if hit is not None:
            return hit
        if not varied:
            high = averaged.bit_length()
            arr = axis_mean(self.space, self.state(averaged & ~(1 << (high - 1)), 0), high)
        else:
            low = varied & -varied
            rest = varied & ~low
            if rest:
                arr = (axis_mean(self.space, self.state(averaged, rest), low.bit_length())
                       - self.state(averaged | low, rest))
            else:
                arr = self._single(averaged, low.bit_length())
        self._states[key] = arr
        return arr

    def _single(self, averaged: int, coord: int) -> np.ndarray:
        """The base case var(B, c) = avg_c (var(B, {}) - var(B + c, {}))^2."""
        spread = self.state(averaged, 0) - self.state(averaged | 1 << (coord - 1), 0)
        return axis_mean(self.space, spread**2, coord)


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

    def cond_expect(self, indices) -> FieldTable:
        """The base function averaged over the coordinates in `indices`."""
        return self._expect_mask(as_index_set(indices).check_range(self.space.n).mask)

    def _expect_mask(self, mask: int) -> FieldTable:
        hit = self._tables.get(mask)
        if hit is not None:
            return hit
        high = mask.bit_length()  # 1-based coordinate of the highest set bit
        parent = self._expect_mask(mask & ~(1 << (high - 1)))
        arr = axis_mean(self.space, parent.array, high)
        table = FieldTable(self.space, np.broadcast_to(arr, self.space.shape))
        self._tables[mask] = table
        return table

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
    """Iterated conditional variance of the base along a coordinate sequence.

    Follows the defining recursion in the order given: an `IndexSet` or a
    single integer runs ascending, any other iterable in its own order, so
    order-irrelevance can be tested against the ascending path.  Repeated
    coordinates are refused.  The result is constant along every coordinate
    in the sequence and non-negative after the documented clamp.
    """
    if isinstance(indices, IndexSet) or not isinstance(indices, Iterable):
        order = list(as_index_set(indices))
    else:
        order = [as_integer("coordinate index", i) for i in indices]
    if len(set(order)) != len(order):
        raise ModelError(f"index sequence {order} repeats a coordinate")
    as_index_set(order).check_range(cache.space.n)
    raw = var_sequence(cache.space, cache.base.array, order)
    arr = cache.clamp(raw, f"iterated_variance({tuple(order)})")
    return FieldTable(cache.space, np.broadcast_to(arr, cache.space.shape))


def iterated_variance_ie(cache: CondExpCache, indices) -> FieldTable:
    """Inclusion-exclusion form of the iterated variance (oracle path).

    var(I) f = sum_{J subset I} (-1)^|J| avg_{I\\J}((avg_J f)^2), with every
    avg_J f taken from the cache's memoized conditional means; non-recursive.
    Must agree pointwise with `iterated_variance`.
    """
    iset = as_index_set(indices).check_range(cache.space.n)
    if len(iset) == 0:
        raise ModelError("iterated variance needs a nonempty index set")
    mask = iset.mask
    raw = np.zeros(cache.space.shape)
    sub = mask
    while True:
        inner = cache._expect_mask(sub).array
        sign = -1.0 if bin(sub).count("1") % 2 else 1.0
        raw = raw + sign * cond_mean_mask(cache.space, inner * inner, mask & ~sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    arr = cache.clamp(raw, f"iterated_variance_ie({iset.indices})")
    return FieldTable(cache.space, arr)
