"""Hoeffding (functional ANOVA) decomposition and the degree spectrum.

Any square-integrable function of independent coordinates splits uniquely as

    S = E S + sum over nonempty subsets I of h_I,

where h_I depends only on the coordinates in I and every h_I is degenerate:
averaging it over any single one of its own coordinates gives zero.  The
components are pairwise orthogonal, so the variance splits by degree:

    Var S = sum_d Var f_d,   Var f_d = sum_{|I|=d} E h_I^2.

The subset masses E h_I^2 are the one exact path of the library:
`subset_masses` gets all 2^n of them from one closed-form orthonormal
matrix per axis (no QR, no centring pass, no component table), applied as
a stacked product that keeps BLAS on one thread.  The degree spectrum is
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

from .conditional import CondExpCache
from .model import FieldTable, IndexSet, ModelError, ProductSpace, as_index_set


def subset_masses(space: ProductSpace, arr) -> np.ndarray:
    """E h_I^2 for every coordinate subset I, indexed by bitmask (bit c-1 marks c).

    Entry 0 is (E S)^2; the others sum to Var S.  Axis c takes one matrix:
    row 0 is p_c (the axis mean), rows 1.. are sqrt(p_c) times columns 2..m_c
    of the reflection I - v v^T/v_0, v = sqrt(p_c) + e_1 (v_0 >= 1), which
    maps e_1 to -sqrt(p_c).  Those rows vanish on constants: nothing is centred.
    A stacked product over the moved axis applies it on one BLAS thread.  The
    squares, folded per axis into {constant, rest}, are the 2^n masses.  The
    size rule counts the grid, the 2^n masses and the widest axis's m_c^2 matrix.
    """
    space.check_grid("the subset masses", max(space.n_outcomes, 1 << space.n, max(space.shape) ** 2))
    coeffs = np.asarray(arr, dtype=np.float64)
    for axis in range(space.n):
        p = space.axis_probs(axis + 1)
        v = np.sqrt(p)
        v[0] += 1.0
        basis = (np.eye(p.size) - np.outer(v, v) / v[0]) * np.sqrt(p)
        basis[0] = p
        # a stacked product over the moved axis runs on one BLAS thread; one big gemm uses all
        coeffs = np.moveaxis(np.moveaxis(coeffs, axis, -1) @ basis.T, -1, axis)
    coeffs *= coeffs
    for axis in range(space.n):
        head, tail = np.split(coeffs, [1], axis=axis)
        coeffs = np.concatenate([head, tail.sum(axis=axis, keepdims=True)], axis=axis)
    return coeffs.ravel(order="F")


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
        space = next(iter(self.components.values())).space
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

