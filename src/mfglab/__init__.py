"""Numerical laboratory for a coefficient inverse problem in a coupled
value/density system: geometry and discrete calculus, interaction kernels,
forward solvers, exponential-weight functionals, data extraction, and the
difference machinery behind the stability estimate."""

__version__ = "0.1.0"

from .grid import (
    Face,
    Field,
    Grid,
    Prism,
    make_grid,
    snap_epsilon,
)
from .norms import norm, norm_spatial, trace_norm
from .kernels import HeavisideCausal, SeparableDelta
from .carleman import (
    CarlemanParams,
    CarlemanReport,
    LemmaReport,
    carleman_sweep,
    estimate_c0,
    random_family,
    verify_lemma,
    weight_extrema,
)
from .mfg import (
    BlowupError,
    MFGTriple,
    PicardNonConvergence,
    ProblemSpec,
    manufacture_triple,
    residual,
    solve_fokker_planck,
    solve_hjb,
    solve_mfg_picard,
    spec_for_triple,
)
from .cip import CIPData, NoiseSpec, extract, inject_noise, measure_delta
from .stability import (
    DifferencePack,
    StabilityParams,
    SweepReport,
    assemble_final_estimate,
    check_inequality,
    compute_F,
    form_difference,
    holder_sweep,
    reconstruct_k_tilde,
    residual_derived_system,
    select_parameters,
)

__all__ = [
    "__version__",
    "Face", "Field", "Grid", "Prism", "make_grid", "snap_epsilon",
    "norm", "norm_spatial", "trace_norm",
    "HeavisideCausal", "SeparableDelta",
    "CarlemanParams", "CarlemanReport", "LemmaReport", "carleman_sweep",
    "estimate_c0", "random_family", "verify_lemma", "weight_extrema",
    "BlowupError", "MFGTriple", "PicardNonConvergence", "ProblemSpec",
    "manufacture_triple", "residual", "solve_fokker_planck", "solve_hjb",
    "solve_mfg_picard", "spec_for_triple",
    "CIPData", "NoiseSpec", "extract", "inject_noise", "measure_delta",
    "DifferencePack", "StabilityParams", "SweepReport", "assemble_final_estimate",
    "check_inequality", "compute_F", "form_difference", "holder_sweep",
    "reconstruct_k_tilde", "residual_derived_system", "select_parameters",
]
