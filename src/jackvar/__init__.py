"""Variance decomposition for functions of independent discrete variables.

Exact engine: tabulate a statistic over a finite product space, then compute
conditional means, iterated conditional variances, jackknife moments, the
Hoeffding degree spectrum, and two-sided alternating variance brackets, with
every identity cross-checked by independent computation paths.

Monte Carlo engine: unbiased, seed-reproducible estimators of the same
moments for spaces too large to enumerate.
"""

__version__ = "0.1.0"

from .bounds import (
    Bracket,
    BoundsReport,
    DegreeBound,
    IdentityResiduals,
    P0Chain,
    all_brackets,
    degree_bound,
    exact_report,
    identity_residuals,
    p0_chain,
    partial_sum_bracket,
)
from .conditional import (
    CondExpCache,
    iterated_variance,
    iterated_variance_ie,
)
from .hoeffding import (
    HoeffdingDecomposition,
    decompose,
    degree_spectrum,
    hoeffding_component,
    subset_masses,
)
from .jackknife import (
    JackknifeSpectrum,
    classical_jackknife,
    iterated_difference_moment,
    jackknife_spectrum,
)
from .mc import (
    BracketEstimate,
    McConfig,
    McEstimate,
    efron_stein_bias,
    estimate_bracket,
    estimate_difference_moment,
    estimate_iterated_jackknife,
    estimate_projected_jackknife,
    estimate_variance,
    sample_outcomes,
)
from .model import (
    ConsistencyError,
    DiscreteDistribution,
    FieldTable,
    IndexSet,
    ModelError,
    ProductSpace,
    Statistic,
    build_space,
    expectation,
    tabulate,
    variance,
)

__all__ = [
    "Bracket",
    "BoundsReport",
    "BracketEstimate",
    "CondExpCache",
    "ConsistencyError",
    "DegreeBound",
    "DiscreteDistribution",
    "FieldTable",
    "HoeffdingDecomposition",
    "IdentityResiduals",
    "IndexSet",
    "JackknifeSpectrum",
    "McConfig",
    "McEstimate",
    "ModelError",
    "P0Chain",
    "ProductSpace",
    "Statistic",
    "all_brackets",
    "build_space",
    "classical_jackknife",
    "decompose",
    "degree_bound",
    "degree_spectrum",
    "efron_stein_bias",
    "estimate_bracket",
    "estimate_difference_moment",
    "estimate_iterated_jackknife",
    "estimate_projected_jackknife",
    "estimate_variance",
    "exact_report",
    "expectation",
    "hoeffding_component",
    "identity_residuals",
    "iterated_difference_moment",
    "iterated_variance",
    "iterated_variance_ie",
    "jackknife_spectrum",
    "p0_chain",
    "partial_sum_bracket",
    "sample_outcomes",
    "subset_masses",
    "tabulate",
    "variance",
]
