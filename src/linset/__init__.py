"""Exact iteration of linear maps X -> aX - bX on eventually periodic
integer sets, with residue-class structure theory and stability checks."""

from .analysis import (
    DensityReport,
    difference_fully_periodic_check,
    dplus,
    freiman_doubling_check,
    gap_bound_check,
    iterated_sumset,
    kneser_dichotomy,
    stability_time,
    stability_time_bounds,
)
from .constructions import (
    TruncatedSet,
    ap_counterexample,
    bohr_truncation,
    parity_flip_sequence,
    scaled_divergence,
    sparse_interval_union,
    sqrt2_minus_one,
)
from .epset import (EPSet, InputError, ResourceLimitExceeded, WindowCapExceeded,
                    set_window_cap, window_cap)
from .linops import (
    CoefficientExpansion,
    LinearOp,
    OpSequence,
    apply_composition,
    apply_linear_op,
    compose_coefficients,
    dominant_coefficient_pair,
)
from .residue import (
    DecompositionCertificate,
    DecompositionFailure,
    ResidueSet,
    cardinality_check,
    decompose_equality_case,
    gamma_mod,
    nonperiodic_absorption_check,
    period,
    residue_orbit,
)
from .stability import (
    IterationTrace,
    StabilizationReport,
    full_periodicity_onset,
    iterate_trace,
    verify_stabilization,
)

__version__ = "0.1.0"

__all__ = [
    "EPSet", "InputError", "ResourceLimitExceeded", "WindowCapExceeded",
    "set_window_cap", "window_cap",
    "LinearOp", "OpSequence", "CoefficientExpansion",
    "apply_linear_op", "apply_composition", "compose_coefficients",
    "dominant_coefficient_pair",
    "ResidueSet", "DecompositionCertificate", "DecompositionFailure",
    "gamma_mod", "period", "cardinality_check", "decompose_equality_case",
    "residue_orbit", "nonperiodic_absorption_check",
    "difference_fully_periodic_check",
    "DensityReport", "freiman_doubling_check", "gap_bound_check",
    "kneser_dichotomy", "iterated_sumset", "dplus", "stability_time",
    "stability_time_bounds",
    "TruncatedSet", "ap_counterexample", "scaled_divergence",
    "bohr_truncation", "sparse_interval_union", "parity_flip_sequence",
    "sqrt2_minus_one",
    "IterationTrace", "StabilizationReport", "iterate_trace",
    "full_periodicity_onset", "verify_stabilization",
]
