"""Two-sided variance brackets, exact identities, and the report object.

The alternating series sum_k (-1)^(k+1) total_k / k! equals Var S exactly
when run to k = n; truncating after an odd number of terms gives an upper
bound, after an even number a lower bound (valid for p = 1..floor(n/2)).
Each bracket is tightened by one projected-moment correction:

    lower:  partial sum to 2p   + projected_{2p+1} / (2p+1)!
    upper:  partial sum to 2p-1 - projected_{2p}   / (2p)!

The statement ranges p up to floor(n/2) but the lower correction references
order 2p+1; when 2p+1 > n (even n, p = n/2) the correction is defined as 0,
the unique value consistent with the exact identities.  `bracket_terms`
is the one place these orders, signs and factorials are written down; the
exact report and the Monte Carlo bracket estimates both evaluate it.

Whether brackets are nested as p grows is not asserted anywhere: every
bracket is reported and only each p's own validity is guaranteed.

Residual scale is max(1, E S^2) throughout, so relative tolerances degrade
gracefully for tiny statistics.

`identity_residuals` is the one place the exact identities are written
down: the three series for Var S, the prefix recursion, and the three
cross-identities between the moment families and the degree spectrum.
`exact_report` takes every moment from the Hoeffding subset masses
(`hoeffding.subset_masses`), so there the residuals compare the closed
forms with the independently computed two-pass variance.  `selfcheck`
runs the same routine on moments summed from their subset definitions,
where it cross-checks two independent paths.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Optional

from .conditional import CondExpCache
from .hoeffding import degree_spectrum
from .jackknife import JackknifeSpectrum, factorial
from .model import ConsistencyError, ModelError, as_integer, expectation, variance

SPECTRUM_ZERO_REL = 1e-12
INEQ_TOL_REL = 1e-10


@dataclass(frozen=True)
class Bracket:
    """One two-sided bracket: plain bounds and their tightened versions."""

    p: int
    lower_j: float
    lower_jk: float
    upper_jk: float
    upper_j: float


@dataclass(frozen=True)
class P0Chain:
    """The depth-zero inequality chains.

    0 <= ek1 <= var <= ej1   and   0 <= half_ek2 <= bias <= half_ej2,
    where bias = ej1 - var is the upward bias of the first-order bound.
    """

    ek1: float
    var: float
    ej1: float
    half_ek2: float
    bias: float
    half_ej2: float


@dataclass(frozen=True)
class IdentityResiduals:
    """Absolute residuals of the exact variance identities.

    alternating_series: var = sum (-1)^(k+1) ej_k / k!
    mixed_series:       var = ej_1 - sum_{k>=2} (k-1)/k! ek_k
    projected_series:   var = sum ek_k / k!
    prefix_recursion:   er_1 = var, er_k = ej_{k-1}/(k-1)! - er_{k-1}, n! er_n = ej_n
    spectrum_total:     ej_k / k! = sum_{j>=k} C(j,k) s_j
    spectrum_projected: ek_k / k! = s_k
    spectrum_mix:       ej_k = sum_{j>=k} ek_j / (j-k)!

    The last four are the worst residual over their orders k = 1..n.
    """

    alternating_series: float
    mixed_series: float
    projected_series: float
    prefix_recursion: float
    spectrum_total: float
    spectrum_projected: float
    spectrum_mix: float

    @property
    def max_residual(self) -> float:
        return max(asdict(self).values())


@dataclass(frozen=True)
class DegreeBound:
    """Bound pair from the lowest active interaction degree.

    If every degree below d carries no variance, then
    ek_d / d! <= Var S <= ej_d / d!.
    """

    degree: int
    lower: float
    upper: float


def _alternating_terms(upto: int) -> tuple:
    return tuple(("ej", k, (-1.0) ** (k + 1) / factorial(k)) for k in range(1, upto + 1))


def bracket_terms(n: int, p: int) -> dict[str, tuple]:
    """The (family, order, coefficient) terms of each bracket scalar at depth p.

    Each scalar is sum coef * moment, where family "ej" is the total and
    "ek" the projected moment of that order.  `partial_sum_bracket`
    evaluates the terms on exact moments, `mc.assemble_bracket` on
    estimates.  An order whose k! leaves the float range raises.
    """
    p = as_integer("p", p)
    if not 1 <= p <= n // 2:
        raise ModelError(f"p={p} out of range 1..{n // 2}")
    upper_j = _alternating_terms(2 * p - 1)
    lower_j = _alternating_terms(2 * p)
    correction = (("ek", 2 * p + 1, 1.0 / factorial(2 * p + 1)),) if 2 * p + 1 <= n else ()
    return {
        "lower_j": lower_j,
        "lower_jk": lower_j + correction,
        "upper_jk": upper_j + (("ek", 2 * p, -1.0 / factorial(2 * p)),),
        "upper_j": upper_j,
    }


def _evaluate(jack: JackknifeSpectrum, terms) -> float:
    moments = {"ej": jack.ej, "ek": jack.ek}
    return sum(coef * moments[family][k - 1] for family, k, coef in terms)


def partial_sum_bracket(jack: JackknifeSpectrum, p: int) -> Bracket:
    """The four bracket scalars for one truncation depth p."""
    terms = bracket_terms(jack.n, p)
    return Bracket(p=p, **{side: _evaluate(jack, t) for side, t in terms.items()})


def all_brackets(jack: JackknifeSpectrum) -> tuple[Bracket, ...]:
    return tuple(partial_sum_bracket(jack, p) for p in range(1, jack.n // 2 + 1))


def p0_chain(jack: JackknifeSpectrum, var_exact: float) -> P0Chain:
    ej2 = jack.ej[1] if jack.n >= 2 else 0.0
    ek2 = jack.ek[1] if jack.n >= 2 else 0.0
    return P0Chain(
        ek1=jack.ek[0],
        var=var_exact,
        ej1=jack.ej[0],
        half_ek2=0.5 * ek2,
        bias=jack.ej[0] - var_exact,
        half_ej2=0.5 * ej2,
    )


def identity_residuals(jack: JackknifeSpectrum, spectrum, var_exact: float) -> IdentityResiduals:
    """Absolute residuals of every exact identity between the moments, spectrum and Var S.

    On moments derived from the spectrum the cross-identities and the
    recursion hold by construction; on the definitional sums that
    `selfcheck` builds they genuinely cross-check two paths.
    """
    spectrum = tuple(float(x) for x in spectrum)
    n = jack.n
    if len(spectrum) != n:
        raise ModelError(f"spectrum has {len(spectrum)} degrees for n={n}")
    mixed = jack.ej[0] - sum((k - 1) / math.factorial(k) * jack.ek[k - 1] for k in range(2, n + 1))
    projected = sum(jack.ek[k - 1] / math.factorial(k) for k in range(1, n + 1))
    recursion = [abs(jack.er[0] - var_exact)]
    for k in range(2, n + 1):
        recursion.append(
            abs(jack.er[k - 1] - (jack.ej[k - 2] / math.factorial(k - 1) - jack.er[k - 2]))
        )
    recursion.append(abs(math.factorial(n) * jack.er[n - 1] - jack.ej[n - 1]))
    total, proj, mix = [], [], []
    for k in range(1, n + 1):
        kf = math.factorial(k)
        from_spectrum = sum(math.comb(j, k) * spectrum[j - 1] for j in range(k, n + 1))
        total.append(abs(jack.ej[k - 1] / kf - from_spectrum))
        proj.append(abs(jack.ek[k - 1] / kf - spectrum[k - 1]))
        from_projected = sum(jack.ek[j - 1] / math.factorial(j - k) for j in range(k, n + 1))
        mix.append(abs(jack.ej[k - 1] - from_projected))
    return IdentityResiduals(
        alternating_series=abs(var_exact - _evaluate(jack, _alternating_terms(n))),
        mixed_series=abs(var_exact - mixed),
        projected_series=abs(var_exact - projected),
        prefix_recursion=max(recursion),
        spectrum_total=max(total),
        spectrum_projected=max(proj),
        spectrum_mix=max(mix),
    )


def degree_bound(
    spectrum, jack: JackknifeSpectrum, var_exact: float, scale: float
) -> Optional[DegreeBound]:
    """Locate the lowest variance-carrying degree and its bound pair.

    Returns None for a constant statistic.  The pair is verified against
    the exact variance before being returned.
    """
    spectrum = tuple(float(x) for x in spectrum)
    d = None
    for i, v in enumerate(spectrum, start=1):
        if v > SPECTRUM_ZERO_REL * scale:
            d = i
            break
    if d is None:
        return None
    df = math.factorial(d)
    out = DegreeBound(degree=d, lower=jack.ek[d - 1] / df, upper=jack.ej[d - 1] / df)
    tol = INEQ_TOL_REL * scale
    if out.lower > var_exact + tol or var_exact > out.upper + tol:
        raise ConsistencyError(
            f"degree bound violated: {out.lower} <= {var_exact} <= {out.upper} fails"
        )
    return out


@functools.cache
def _plan(cls) -> dict:
    """{name: load} over the fields of dataclass `cls`, in field order; built once per class.

    load(value, path) rebuilds the field's value of its resolved type hint
    from its `to_dict` form (a list for a tuple, a dict for a dataclass).
    """
    hints = typing.get_type_hints(cls)
    return {f.name: _loader(hints[f.name]) for f in fields(cls)}


def _loader(tp):
    """load(value, path) for annotated type `tp`; a null value loads as None.

    A missing or unknown dataclass field raises ModelError naming its dotted path.
    """
    args = typing.get_args(tp)
    if is_dataclass(tp):
        plan = _plan(tp)

        def load(value, path):
            prefix = path + "." if path else ""
            if not isinstance(value, dict) or value.keys() != plan.keys():
                for key in (*plan, *value):
                    if (key in plan) != (key in value):
                        state = "missing" if key in plan else "unknown"
                        raise ModelError(f"report field {prefix + key!r} is {state}")
            return tp(**{name: field(value[name], prefix + name) for name, field in plan.items()})
    elif typing.get_origin(tp) is tuple:
        item = _loader(args[0])

        def load(value, path):
            return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
    elif args:  # Optional[X]
        return _loader(args[0])
    else:
        def load(value, path):
            return tp(value)
    return lambda value, path: None if value is None else load(value, path)


def _dump(value):
    """`value` as JSON loads it back: a dataclass as a dict of its fields, a tuple as a list."""
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    if is_dataclass(value):
        return {name: _dump(getattr(value, name)) for name in _plan(type(value))}
    return value


@dataclass(frozen=True)
class BoundsReport:
    """Everything the exact engine knows about one instance."""

    n: int
    mean: float
    var_exact: float
    scale: float
    ej: tuple[float, ...]
    ek: tuple[float, ...]
    er: tuple[float, ...]
    spectrum: tuple[float, ...]
    spectrum_raw: tuple[float, ...]
    brackets: tuple[Bracket, ...]
    p0_chain: P0Chain
    identity_residuals: IdentityResiduals
    corollary: Optional[DegreeBound]

    @property
    def p0(self) -> P0Chain:
        """Short name for `p0_chain`."""
        return self.p0_chain

    def to_dict(self) -> dict:
        """The report as JSON loads it back: one pass that turns each dataclass
        into a dict of its fields and each tuple into a list, sharing the floats."""
        return _dump(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BoundsReport":
        """Rebuild a report from its `to_dict` form; a missing or unknown field
        raises ModelError naming its dotted path, e.g. 'brackets[0].upper_j'."""
        return _loader(cls)(d, "")


def exact_report(cache: CondExpCache, p_values=None) -> BoundsReport:
    """Run the whole exact engine on one cached instance."""
    spectrum_raw = degree_spectrum(cache)
    scale = cache.scale
    jack = JackknifeSpectrum.from_spectrum(spectrum_raw, scale)
    var_exact = variance(cache.base)

    if p_values is None:
        brackets = all_brackets(jack)
    else:
        brackets = tuple(partial_sum_bracket(jack, p) for p in p_values)
    return BoundsReport(
        n=jack.n,
        mean=expectation(cache.base),
        var_exact=var_exact,
        scale=scale,
        ej=jack.ej,
        ek=jack.ek,
        er=jack.er,
        spectrum=tuple(0.0 if abs(v) < SPECTRUM_ZERO_REL * scale else v for v in spectrum_raw),
        spectrum_raw=spectrum_raw,
        brackets=brackets,
        p0_chain=p0_chain(jack, var_exact),
        identity_residuals=identity_residuals(jack, spectrum_raw, var_exact),
        corollary=degree_bound(spectrum_raw, jack, var_exact, scale),
    )
