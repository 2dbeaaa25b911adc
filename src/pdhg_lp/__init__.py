"""Restarted PDHG solver for linear programs.

Public entry points: build an LpProblem (directly, from MPS via parse_mps,
or from a generator), then call solve() and read the SolveReport.
"""

__version__ = "0.1.0"

from .exceptions import (
    DimensionMismatch,
    DuplicateColumn,
    DuplicateRow,
    InconsistentBounds,
    InvalidGeneratorSpec,
    InvalidRadius,
    MpsNameError,
    MpsParseError,
    MpsSyntaxError,
    NonFiniteData,
    NonFiniteIterate,
    NonPositiveInput,
    NonPositiveQuadraticForm,
    NotACertificate,
    SolverError,
    StepSizeUnderflow,
    UnknownRowReference,
    ValidationError,
)
from .generators import (
    PagerankSpec,
    barabasi_albert_edges,
    generate_bilinear_toy,
    generate_dual_infeasible_toy,
    generate_pagerank,
    generate_primal_infeasible_toy,
)
from .mps import MpsDialect, parse_mps, read_mps, write_mps
from .pdhg import IterateState, StepState, pdhg_step, project_dual, project_primal, ps_norm
from .problem import LpProblem, SaddleForm, lagrangian, to_saddle, validate
from .reports import (
    config_flags,
    config_from_flags,
    render_json,
    render_text,
    report_to_dict,
)
from .restarts import RestartConfig, apply_restart, normalized_duality_gap, should_restart
from .scaling import (
    ScalingInfo,
    apply_scaling,
    combined_rescale,
    ruiz_rescale,
    unscale_solution,
)
from .solver import (
    STATUS_DUAL_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_NUMERICAL_ERROR,
    STATUS_OPTIMAL,
    STATUS_PRIMAL_INFEASIBLE,
    STATUS_TIME_LIMIT,
    SolveReport,
    SolverConfig,
    solve,
    solve_vanilla,
)
from .sparse import SparseMatrix, SpectralEstimate, spectral_norm_estimate
from .stepsize import (
    StepPolicy,
    WeightPolicy,
    adaptive_step,
    initialize_step_state,
    update_primal_weight,
)
from .termination import (
    CertificateCandidate,
    CertificateVerdict,
    KktReport,
    TerminationCriteria,
    check_dual_infeasible,
    check_optimal,
    check_primal_infeasible,
    extract_certificates,
    kkt_error,
)

__all__ = [name for name in dir() if not name.startswith("_")]
