"""Smoothing-spline selection criteria in the unified power family, with
oracle diagnostics (ideal/central smoothing parameters, risk decomposition),
criterion geometry (curvature, reversal probability), and a simulation lab.
"""

from .errors import ConfigError, NumericError
from .specfun import (
    MomentSet,
    abs_moment,
    asym_sum,
    c_q,
    kummer_m,
    log_gamma_and_beta,
    moment_set,
    signed_moment,
)
from .spectrum import (
    DesignGrid,
    DesignSpectrum,
    build_design,
    cached_decompose,
    decompose,
    df,
    lambdas_for_df,
    load_spectrum,
    penalty_matrix,
    rotate,
    save_spectrum,
    smooth,
    weights,
)
from .criteria import (
    CP,
    EE,
    GML,
    BlockSelection,
    Criterion,
    SelectionResult,
    criterion_by_name,
    loss,
    loss_derivs,
    make_criterion,
    select,
    select_block,
    selection_window,
    sigma_estimate,
)
from .oracle import (
    DecompositionReport,
    LambdaPoint,
    RateProbe,
    TruthSpectrum,
    central_lambda,
    decomposition_approx,
    decomposition_mc,
    ideal_lambda,
    make_truth,
    rate_probes,
    risk,
    setting,
)
from .geometry import (
    ReversalSummary,
    curvature_sq,
    reversal_moments,
    reversal_probs_mc,
)
from .simlab import RunRecord, SimConfig, emit_tables, run_simulation, truth_curve

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "NumericError",
    "MomentSet", "abs_moment", "asym_sum", "c_q", "kummer_m",
    "log_gamma_and_beta", "moment_set", "signed_moment",
    "DesignGrid", "DesignSpectrum", "build_design",
    "cached_decompose", "decompose", "df", "lambdas_for_df",
    "load_spectrum", "penalty_matrix", "rotate", "save_spectrum", "smooth", "weights",
    "CP", "EE", "GML", "BlockSelection", "Criterion", "SelectionResult",
    "criterion_by_name", "loss", "loss_derivs", "make_criterion",
    "select", "select_block", "selection_window", "sigma_estimate",
    "DecompositionReport", "LambdaPoint", "RateProbe", "TruthSpectrum",
    "central_lambda", "decomposition_approx", "decomposition_mc",
    "ideal_lambda", "make_truth", "rate_probes", "risk", "setting",
    "ReversalSummary", "curvature_sq", "reversal_moments", "reversal_probs_mc",
    "RunRecord", "SimConfig", "emit_tables", "run_simulation", "truth_curve",
]
