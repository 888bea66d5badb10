"""Sharp constants and extremizers for weighted L^1 -> H^k_0 inequalities.

For a non-negative weight rho on (0, 1) and clamped functions u (all
derivatives up to order k-1 vanish at both endpoints), the library computes
the smallest Lambda with

    integral |u| rho dx  <=  Lambda * (integral (u^(k))^2 dx)^(1/2)

together with the extremizer achieving it, using exact rational arithmetic
for piecewise-polynomial-type weights, and verifies the results with
independent Galerkin, finite-difference and maximum-principle oracles.

The ``oracles`` and ``quadrature`` modules, and the names taken from them
below, are loaded on first access, so a process that solves without
verifying never compiles them.
"""

import sys

from .closed_forms import (
    HardyExtremizer,
    dirac_mu,
    indicator_mu,
    pointload_series_profile,
    uniform_minimizer,
    uniform_mu,
)
from .polynomials import PiecewisePolynomial, Polynomial
from .scalars import EXACT, FLOAT, ModeMismatchError
from .solver import (
    BoundaryResidualError,
    ClosedFormMismatchError,
    DerivativeSeeds,
    ExtremalSolution,
    LinearSystem,
    ProblemSpec,
    SingularMatrixError,
    SolverError,
    ZeroWeightError,
    assemble_u,
    assemble_uk,
    build_matrix,
    closed_form,
    compute_mu,
    solve,
    solve_seeds,
)
from .weights import (
    DiracWeight,
    HardyWeight,
    IndicatorWeight,
    MomentVector,
    PiecewiseWeight,
    PolyWeight,
    PowerWeight,
    UnsupportedWeightError,
    Weight,
    WeightDomainError,
    WeightSyntaxError,
    eval_weight,
    format_weight,
    iterated_integral,
    moments,
    parse_weight,
    reflect_weight,
    scale_weight,
)

__version__ = "0.1.0"

_LAZY = {
    "oracles": (
        "GalerkinConfig",
        "OracleReport",
        "PositivityViolatedError",
        "galerkin_lambda",
        "max_principle_check",
        "sign_iteration",
    ),
    "quadrature": ("QuadratureNonConvergence", "QuadratureResult", "quad_numeric"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """Load a lazy submodule, or one of its names, on first access (PEP 562)."""
    module = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, which python -X importtime reports
    # (importlib.import_module would load the module unreported)
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


__all__ = [
    "EXACT",
    "FLOAT",
    "BoundaryResidualError",
    "ClosedFormMismatchError",
    "DerivativeSeeds",
    "DiracWeight",
    "ExtremalSolution",
    "GalerkinConfig",
    "HardyExtremizer",
    "HardyWeight",
    "IndicatorWeight",
    "LinearSystem",
    "ModeMismatchError",
    "MomentVector",
    "OracleReport",
    "PiecewisePolynomial",
    "PiecewiseWeight",
    "PolyWeight",
    "Polynomial",
    "PositivityViolatedError",
    "PowerWeight",
    "ProblemSpec",
    "QuadratureNonConvergence",
    "QuadratureResult",
    "SingularMatrixError",
    "SolverError",
    "UnsupportedWeightError",
    "Weight",
    "WeightDomainError",
    "WeightSyntaxError",
    "ZeroWeightError",
    "assemble_u",
    "assemble_uk",
    "build_matrix",
    "closed_form",
    "compute_mu",
    "dirac_mu",
    "eval_weight",
    "format_weight",
    "galerkin_lambda",
    "indicator_mu",
    "iterated_integral",
    "max_principle_check",
    "moments",
    "parse_weight",
    "pointload_series_profile",
    "quad_numeric",
    "reflect_weight",
    "scale_weight",
    "sign_iteration",
    "solve",
    "solve_seeds",
    "uniform_minimizer",
    "uniform_mu",
]
