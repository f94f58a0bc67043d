"""Hoeffding (functional ANOVA) decomposition and the degree spectrum.

Any square-integrable function of independent coordinates splits uniquely as

    S = E S + sum over nonempty subsets I of h_I,

where h_I depends only on the coordinates in I and every h_I is degenerate:
averaging it over any single one of its own coordinates gives zero.  The
components are pairwise orthogonal, so the variance splits by degree:

    Var S = sum_d Var f_d,   Var f_d = sum_{|I|=d} E h_I^2.

The subset masses E h_I^2 are the one exact path of the library:
`subset_masses` gets all 2^n of them from one orthonormal change of basis
per axis, without building any component table.  The degree spectrum is
their sum by degree, and every jackknife moment is a linear image of the
spectrum (Hoeffding 1948; Efron & Stein 1981):

    total_k / k!     = sum_{j>=k} C(j,k) Var f_j
    projected_k / k! = Var f_k
    total_k          = sum_{j>=k} projected_j / (j-k)!

`bounds.identity_residuals` evaluates all three.  On moments derived from
the masses they hold by construction; `selfcheck` runs them against moments
summed from their subset definitions, which is where they test something.

The component tables themselves (`decompose`) are built by Moebius
inclusion-exclusion over conditional means, h_I = sum_{J subset I}
(-1)^{|I|-|J|} E[S | X_J]; the tests check them against the recursive
peel-off construction and their masses against `subset_masses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .conditional import CondExpCache, axis_mean
from .model import FieldTable, IndexSet, ModelError, ProductSpace, as_index_set


def subset_masses(space: ProductSpace, arr) -> np.ndarray:
    """E h_I^2 for every coordinate subset I, indexed by bitmask.

    Bit c-1 of the index marks coordinate c.  Entry 0 is (E S)^2; the
    other entries sum to Var S.  Each axis is expanded in an orthonormal
    basis of L2(p_c): the constant coefficient is the axis mean and the
    m_c - 1 others project the centred residual onto an orthonormal
    completion of sqrt(p_c).  Squaring every coefficient and folding each
    axis into {constant, non-constant} leaves the 2^n masses, even when
    every coordinate has one point, so max(outcomes, 2^n) values are checked.
    """
    space.check_grid("the subset masses", max(space.n_outcomes, 1 << space.n))
    coeffs = np.asarray(arr, dtype=np.float64)
    for c in range(1, space.n + 1):
        axis = c - 1
        root = np.sqrt(space.axis_probs(c))
        q, _ = np.linalg.qr(np.column_stack([root, np.eye(root.size)]))
        basis = root[:, None] * q[:, 1:]
        mean = axis_mean(space, coeffs, c)
        resid = np.moveaxis(coeffs - mean, axis, -1) @ basis
        coeffs = np.concatenate(
            [mean.take([0], axis=axis), np.moveaxis(resid, -1, axis)], axis=axis
        )
    sq = coeffs * coeffs
    for axis in range(space.n):
        head, tail = np.split(sq, [1], axis=axis)
        sq = np.concatenate([head, tail.sum(axis=axis, keepdims=True)], axis=axis)
    return sq.ravel(order="F")


def _by_degree(masses: np.ndarray, n: int) -> tuple[float, ...]:
    """Sum the nonempty subset masses by subset size d = 1..n."""
    mask = np.arange(masses.size)
    degree = sum((mask >> c) & 1 for c in range(n))
    return tuple(np.bincount(degree, weights=masses, minlength=n + 1)[1:].tolist())


def hoeffding_component(cache: CondExpCache, indices) -> FieldTable:
    """The degenerate component attached to one nonempty coordinate subset."""
    iset = as_index_set(indices).check_range(cache.space.n)
    k = len(iset)
    if k == 0:
        raise ModelError("components are indexed by nonempty subsets")
    full = (1 << cache.space.n) - 1
    mask = iset.mask
    acc = np.zeros(cache.space.shape)
    sub = mask
    while True:
        # E[S | X_J] averages out the complement of J
        sign = 1.0 if (k - bin(sub).count("1")) % 2 == 0 else -1.0
        acc = acc + sign * cache._expect_mask(full & ~sub).array
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return FieldTable(cache.space, acc)


@dataclass(frozen=True, eq=False)
class HoeffdingDecomposition:
    """Full set of components plus the variance-by-degree spectrum."""

    mean: float
    components: Mapping[IndexSet, FieldTable]
    spectrum: tuple[float, ...]
    masses: Mapping[IndexSet, float]  # E h_I^2 per subset

    @property
    def n(self) -> int:
        return len(self.spectrum)

    def superset_mass(self, indices) -> float:
        """Sum of E h_J^2 over supersets J of the given subset."""
        iset = as_index_set(indices)
        target = set(iset.indices)
        vals = [m for s, m in self.masses.items() if target <= set(s.indices)]
        return float(np.sum(np.asarray(vals))) if vals else 0.0

    def subset_sum_table(self, indices) -> FieldTable:
        """mean + sum of components over subsets of the given set.

        Equals the base averaged over the complement of the set, which the
        tests verify against the conditional cache directly.
        """
        iset = as_index_set(indices)
        target = set(iset.indices)
        space = next(iter(self.components.values())).space if self.components else None
        if space is None:
            raise ModelError("decomposition has no components (n = 0?)")
        acc = np.full(space.shape, self.mean)
        for s, tab in self.components.items():
            if set(s.indices) <= target:
                acc = acc + tab.array
        return FieldTable(space, acc)

    def reconstruction(self) -> FieldTable:
        return self.subset_sum_table(range(1, self.n + 1))


def decompose(cache: CondExpCache) -> HoeffdingDecomposition:
    """Every component table, with masses and spectrum from `subset_masses`."""
    n = cache.space.n
    cache.space.check_grid("the Hoeffding component tables", cache.space.n_outcomes << n)
    masses = subset_masses(cache.space, cache.base.array)
    subsets = {mask: IndexSet.from_mask(mask) for mask in range(1, 1 << n)}
    return HoeffdingDecomposition(
        mean=cache.mean(),
        components={iset: hoeffding_component(cache, iset) for iset in subsets.values()},
        spectrum=_by_degree(masses, n),
        masses={iset: float(masses[mask]) for mask, iset in subsets.items()},
    )


def degree_spectrum(cache: CondExpCache) -> tuple[float, ...]:
    """Variance carried by each interaction degree d = 1..n."""
    return _by_degree(subset_masses(cache.space, cache.base.array), cache.space.n)

