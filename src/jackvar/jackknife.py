"""Iterated jackknife moments and the classical data-side jackknife.

Three families of expected moments, defined as sums over sorted k-subsets I
of the coordinates, all held by `JackknifeSpectrum` for k = 1..n:

  * ej, the total moment      E[ k! * sum_I var(I) S ]
  * ek, the projected moment  E[ k! * sum_I var(I) avg_{~I} S ], with S
    first projected onto the coordinates of I by averaging out the complement
  * er, the prefix moment     E[ sum_I var(I) avg_{1..min(I)-1} S ], each
    term pre-smoothed over the coordinates before the subset's first index

The projected moment never exceeds the total one (Jensen), and the prefix
family interpolates: ej_k/k! >= er_k >= ek_k/k!, with the telescoping
recursion er_k = ej_{k-1}/(k-1)! - er_{k-1} checked in `bounds`.

None of the three is computed from its definition here.  E var(I) S is the
Hoeffding mass of the supersets of I, so every family is a linear image of
the degree spectrum s (`hoeffding.subset_masses`):

    EK_k = k! s_k,   EJ_k = k! sum_{j>=k} C(j,k) s_j,
    ER_k = sum_{j>=k} C(j-1,k-1) s_j.

Sums of squares cannot go negative, so no clamping is needed.  k! leaves
the float range at k = 171, so `factorial` refuses such orders, and a
moment that overflows is refused rather than returned as inf.  The
definitional subset sums run in `selfcheck.check_instance` and the tests,
as the independent oracle for these closed forms, together with
`iterated_difference_moment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# var_sequence is not called here.  The name stays bound because perfbench's
# tracer counts calls made through it, which shows the engine makes none.
from .conditional import CondExpCache, var_sequence  # noqa: F401
from .hoeffding import degree_spectrum
from .model import ConsistencyError, FieldTable, ModelError, as_index_set


def factorial(k: int) -> float:
    """k! as a float; an order whose k! leaves the float range (k >= 171) raises."""
    try:
        return float(math.factorial(k))
    except OverflowError:
        raise ModelError(f"order k={k}: k! exceeds the float range, which ends at 170!") from None


@dataclass(frozen=True)
class JackknifeSpectrum:
    """All three moment families for k = 1..n."""

    n: int
    scale: float
    ej: tuple[float, ...]
    ek: tuple[float, ...]
    er: tuple[float, ...]

    @classmethod
    def from_spectrum(cls, spectrum, scale: float) -> "JackknifeSpectrum":
        """The three families from the degree spectrum by their closed forms."""
        s = tuple(float(x) for x in spectrum)
        n = len(s)
        orders = range(1, n + 1)
        out = cls(
            n=n,
            scale=scale,
            ej=tuple(
                factorial(k) * math.fsum(math.comb(j, k) * s[j - 1] for j in range(k, n + 1))
                for k in orders
            ),
            ek=tuple(factorial(k) * s[k - 1] for k in orders),
            er=tuple(
                math.fsum(math.comb(j - 1, k - 1) * s[j - 1] for j in range(k, n + 1))
                for k in orders
            ),
        )
        for family in ("ej", "ek", "er"):
            for k, value in enumerate(getattr(out, family), 1):
                if not math.isfinite(value):
                    raise ModelError(f"order k={k}: {family}_{k} = {value} leaves the float range")
        return out


def jackknife_spectrum(cache: CondExpCache) -> JackknifeSpectrum:
    """All three families for every order, from one pass over the masses."""
    return JackknifeSpectrum.from_spectrum(degree_spectrum(cache), cache.scale)


def iterated_difference_moment(table: FieldTable, indices) -> float:
    """Second moment of the iterated replace-one difference over a subset.

    The difference replaces each subset coordinate in turn by an independent
    copy and alternates signs over which coordinates are replaced:
    sum over J subset of I of (-1)^|J| S(X with coords J swapped for copies).
    Its second moment equals 2^|I| times E[var(I) S], which is what makes it
    an engine-independent oracle for the conditional machinery.

    It is computed on the extended grid of the tabulated statistic (base
    outcomes times one fresh copy axis per subset coordinate), which
    `check_grid` must admit, in k = |I| passes: pass c applies (1 - P_c),
    where P_c swaps coordinate c's axis with its copy axis.  The swaps
    commute, so the product of the k factors is the signed sum over all 2^k
    subsets J.  `mc.estimate_difference_moment` samples the same moment.
    """
    space = table.space
    iset = as_index_set(indices).check_range(space.n)
    k = len(iset)
    if k == 0:
        raise ModelError("difference moment needs a nonempty index set")

    copy_sizes = tuple(space.shape[i - 1] for i in iset)
    extended = space.n_outcomes * math.prod(copy_sizes)
    space.check_grid(f"the extended grid for subset {list(iset.indices)}", extended, space.n + k)

    n = space.n
    diff = table.array.reshape(space.shape + (1,) * k)
    for pos, coord in enumerate(iset.indices):  # (1 - P_c): coordinate c's axis swapped with its copy's
        diff = diff - np.swapaxes(diff, coord - 1, n + pos)

    weights = space.joint_weights().reshape(space.shape + (1,) * k)
    for pos, coord in enumerate(iset.indices):
        p = space.axis_probs(coord)
        shape = [1] * (n + k)
        shape[n + pos] = p.size
        weights = weights * p.reshape(shape)
    return float(np.sum(weights * diff * diff))


def classical_jackknife(values) -> float:
    """Centered sum of squares of observed resampled values.

    Returns sum_i (v_i - vbar)^2, which equals the pairwise form
    sum_{i<j} (v_i - v_j)^2 / m (m = number of values).  Every call checks
    the numpy sum against a two-pass `math.fsum` evaluation (correctly
    rounded mean, then correctly rounded sum of squares); disagreement
    beyond 1e-12 relative raises ConsistencyError.  A non-finite value, or
    a sum that leaves the float range, raises ModelError.  Time and memory
    are O(m).  This is a pure data-side statistic: it never touches a
    product space.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ModelError("classical jackknife needs a flat list of at least 2 values")
    if not np.isfinite(v).all():
        raise ModelError(f"classical jackknife: value {v[~np.isfinite(v)][0]} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        centered = v - v.mean()
        total = float(np.sum(centered * centered))
    if not math.isfinite(total):
        raise ModelError(f"classical jackknife: the centered sum of squares {total} leaves the float range")
    mean = math.fsum(v.tolist()) / v.size
    two_pass = math.fsum(((v - mean) ** 2).tolist())
    if abs(total - two_pass) > 1e-12 * max(1.0, abs(total), abs(two_pass)):
        raise ConsistencyError(
            f"centered form {total} and two-pass form {two_pass} disagree"
        )
    return total
