"""Exact Fox calculus in free group algebras and their completions.

Free group words, rational group-algebra arithmetic, Fox derivatives,
truncated completed group algebras with their Hopf structure, Fox
pairings with derived forms, generalized Dehn twists, surface presets,
and the symplectic tensor correspondence.  All arithmetic is exact over
the rationals.
"""

from .errors import (
    DomainError,
    FoxTwistError,
    IsotropyError,
    NilpotencyCapExceeded,
    NotInvertible,
    NotNondegenerate,
    SolverError,
)
from .words import GroupWord, format_word, parse_word
from .group_algebra import (
    GroupAlgebraElement,
    conjugation_sum,
    fox_derivative,
    fox_derivative_left,
    fox_derivative_right,
)
from .series import TruncatedSeries, commutator, series_matrix_inverse
from .truncated_completion import (
    TruncatedTensor,
    antipode,
    conjugation_sum_series,
    coproduct,
    embed,
    fundamental_power_contains,
    is_group_like,
    is_primitive,
)
from .fox_pairings import (
    FoxPairing,
    NablaElement,
    nabla_of_pairing,
    pairing_of_nabla,
)
from .derived_twists import (
    TwistAutomorphism,
    derived_form_exact,
    derived_form_truncated,
    exp_derivation,
    sigma_log_squared,
    twist,
)
from .surfaces import (
    CurveSpec,
    SurfaceSpec,
    classical_dehn_twist,
    figure_eight_scenario,
    generalized_dehn_twist,
    surface_pairing,
    surface_pairing_exact,
)
from .symplectic_tensor import (
    SymplecticExpansion,
    build_symplectic_expansion,
    contraction,
    cyclicize,
    derivation_pairing,
    derivation_values,
    omega,
    tensorial_rho,
    verify_section9,
)

__version__ = "0.1.0"

__all__ = [
    "CurveSpec",
    "DomainError",
    "FoxPairing",
    "FoxTwistError",
    "GroupAlgebraElement",
    "GroupWord",
    "IsotropyError",
    "NablaElement",
    "NilpotencyCapExceeded",
    "NotInvertible",
    "NotNondegenerate",
    "SolverError",
    "SurfaceSpec",
    "SymplecticExpansion",
    "TruncatedSeries",
    "TruncatedTensor",
    "TwistAutomorphism",
    "antipode",
    "build_symplectic_expansion",
    "classical_dehn_twist",
    "commutator",
    "conjugation_sum",
    "conjugation_sum_series",
    "contraction",
    "coproduct",
    "cyclicize",
    "derivation_pairing",
    "derivation_values",
    "derived_form_exact",
    "derived_form_truncated",
    "embed",
    "exp_derivation",
    "figure_eight_scenario",
    "format_word",
    "fox_derivative",
    "fox_derivative_left",
    "fox_derivative_right",
    "fundamental_power_contains",
    "generalized_dehn_twist",
    "is_group_like",
    "is_primitive",
    "nabla_of_pairing",
    "omega",
    "pairing_of_nabla",
    "parse_word",
    "series_matrix_inverse",
    "sigma_log_squared",
    "surface_pairing",
    "surface_pairing_exact",
    "tensorial_rho",
    "twist",
    "verify_section9",
]
