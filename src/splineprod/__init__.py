"""Exact products of univariate B-splines, with a collocation baseline.

The product of two splines is itself a spline on a predictable knot
vector; its coefficients can be computed exactly as averaged products of
local de Boor kernels.  This package implements that computation, the
cheaper distinct-term variant of it, a banded collocation baseline, the
knot-insertion machinery underneath, and a benchmark CLI comparing them.
"""

from .core import (
    BreakpointRun,
    KnotVector,
    Spline,
    bernstein_knots,
    evaluate,
    find_span,
    greville_abscissae,
    make_open,
    make_spline,
    multiplicity,
    product_knot_vector,
    uniform_open_knots,
)
from .oslo import (
    InsertionMatrix,
    LocalWindow,
    deboor_kernel,
    insertion_matrix,
    oslo_coefficients,
)
from .product import (
    CombinationSet,
    NaiveInfeasibleError,
    ProductResult,
    binomial,
    improved_morken_product,
    knot_combinations,
    morken_product,
)
from .collocation import (
    BandedMatrix,
    collocation_matrix,
    collocation_product,
    condition_estimate_1norm,
    solve_banded,
)
from .bench import (
    ExperimentConfig,
    ExperimentRow,
    SplitMix64,
    build_family_case,
    relative_linf_error,
    run_experiment,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BreakpointRun",
    "KnotVector",
    "Spline",
    "bernstein_knots",
    "evaluate",
    "find_span",
    "greville_abscissae",
    "make_open",
    "make_spline",
    "multiplicity",
    "product_knot_vector",
    "uniform_open_knots",
    "InsertionMatrix",
    "LocalWindow",
    "deboor_kernel",
    "insertion_matrix",
    "oslo_coefficients",
    "CombinationSet",
    "NaiveInfeasibleError",
    "ProductResult",
    "binomial",
    "improved_morken_product",
    "knot_combinations",
    "morken_product",
    "BandedMatrix",
    "collocation_matrix",
    "collocation_product",
    "condition_estimate_1norm",
    "solve_banded",
    "ExperimentConfig",
    "ExperimentRow",
    "SplitMix64",
    "build_family_case",
    "relative_linf_error",
    "run_experiment",
    "write_csv",
    "__version__",
]
