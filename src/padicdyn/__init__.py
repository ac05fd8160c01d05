"""padicdyn: exact p-adic arithmetic dynamics over Q_p.

Capped-relative-precision arithmetic, truncated power series with certified
tail bounds, Koenigs linearization at attracting fixed points, Newton-polygon
zero counting, and a certified decision procedure for the intersection of a
coordinatewise polynomial orbit with an affine variety.
"""

from ._core import BACKEND
from .errors import PrecisionError, ValidationError
from .padic import Ball, PadicContext, PadicNumber, is_prime
from .series import TailBound, TruncatedSeries, ZeroCount
from .multipoly import MultivariatePoly
from .dynamics import (
    ATTRACTING,
    INDIFFERENT,
    REPELLING,
    SUPERATTRACTING,
    FixedPointInfo,
    FixedPointScan,
    Polynomial,
    find_fixed_points,
)
from .linearize import (
    Linearization,
    conjugate_to_origin,
    inverse_koenigs_coefficients,
    isometry_radius,
    koenigs_coefficients,
    linearize,
    mutual_inversion_residual,
    verify_functional_equation,
)
from .checker import (
    AnalysisReport,
    GeneratorReport,
    SystemSpec,
    ValidatedSystem,
    analyze,
    build_F,
    compute_lambdas,
    direct_orbit_scan,
    validate,
)
from .problemfile import load_problem, render_padic, render_report

__version__ = "0.1.0"

__all__ = [
    "ATTRACTING",
    "AnalysisReport",
    "BACKEND",
    "Ball",
    "FixedPointInfo",
    "FixedPointScan",
    "GeneratorReport",
    "INDIFFERENT",
    "Linearization",
    "MultivariatePoly",
    "PadicContext",
    "PadicNumber",
    "Polynomial",
    "PrecisionError",
    "REPELLING",
    "SUPERATTRACTING",
    "SystemSpec",
    "TailBound",
    "TruncatedSeries",
    "ValidatedSystem",
    "ValidationError",
    "ZeroCount",
    "analyze",
    "build_F",
    "compute_lambdas",
    "conjugate_to_origin",
    "direct_orbit_scan",
    "find_fixed_points",
    "inverse_koenigs_coefficients",
    "is_prime",
    "isometry_radius",
    "koenigs_coefficients",
    "linearize",
    "load_problem",
    "mutual_inversion_residual",
    "render_padic",
    "render_report",
    "validate",
    "verify_functional_equation",
]
