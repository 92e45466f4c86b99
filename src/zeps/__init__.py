"""Exact Z-domain and Tustin-mapped Laplace-domain closed forms for the
Levi-Civita symbol, cross-verified against brute-force oracles."""

from .algebra import LaurentPoly, RationalFn, det, scale_value
from .epsilon import (
    check_index,
    enumerate_indices,
    epsilon_generalized,
    epsilon_product,
    gamma_int,
    kron_delta,
    sign_oracle,
)
from .errors import (
    DegenerateDenominatorError,
    EvaluationPoleError,
    IdentityViolationError,
    InputDomainError,
    MapSingularityError,
    UnsupportedDimensionError,
    ZepsError,
)
from .sdomain import (
    LaplaceResult,
    PoleZeroReport,
    TustinParams,
    factored_laplace_value,
    laplace_2d_closed,
    laplace_compact_3d,
    laplace_determinant,
    pole_zero_report_2d,
    r_sum,
    tustin_map,
)
from .ztransform import (
    ROCSpec,
    TransformResult,
    brute_force_ztransform,
    compact_form_3d,
    determinant_ztransform,
    factored_value,
    heaviside,
    roc,
    s_sum,
    scale_constant,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateDenominatorError",
    "EvaluationPoleError",
    "IdentityViolationError",
    "InputDomainError",
    "LaplaceResult",
    "LaurentPoly",
    "MapSingularityError",
    "PoleZeroReport",
    "ROCSpec",
    "RationalFn",
    "TransformResult",
    "TustinParams",
    "UnsupportedDimensionError",
    "ZepsError",
    "brute_force_ztransform",
    "check_index",
    "compact_form_3d",
    "det",
    "determinant_ztransform",
    "enumerate_indices",
    "epsilon_generalized",
    "epsilon_product",
    "factored_laplace_value",
    "factored_value",
    "gamma_int",
    "heaviside",
    "kron_delta",
    "laplace_2d_closed",
    "laplace_compact_3d",
    "laplace_determinant",
    "pole_zero_report_2d",
    "r_sum",
    "roc",
    "s_sum",
    "scale_constant",
    "scale_value",
    "sign_oracle",
    "tustin_map",
]
