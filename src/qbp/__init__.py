"""Sparse recovery from systems of quadratic equations.

The package lifts quadratic measurements of an unknown vector to linear
constraints on a rank-one Hermitian matrix, solves the resulting
trace-plus-l1 semidefinite relaxation with a consensus ADMM, and ships the
recoverability diagnostics and classical baselines used to evaluate it.
"""

from qbp.model import (
    DimensionMismatchError,
    NonFiniteValueError,
    QuadraticMeasurement,
    QuadraticSystem,
    constraint_system,
    evaluate,
    hermitianize,
    is_phase_invariant,
    lift,
    measure_lifted,
    real_measurement_matrix,
    realvec,
    unrealvec,
    vec_measurement_matrix,
)
from qbp.admm import (
    InfeasibleProjectionError,
    SolverConfig,
    SolverResult,
    data_residual,
    project_psd,
    soft_threshold,
    solve,
    solve_denoising,
)
from qbp.recovery import (
    CoherenceCertificate,
    DegenerateMatrixError,
    RecoveryReport,
    RipEstimate,
    align_phase,
    build_report,
    certify_coherence,
    extract_phase_signal,
    extract_signal,
    judge_success,
    mutual_coherence,
    sample_rip,
)
from qbp.baselines import (
    InfeasibleLinearSystemError,
    LinearizedProblem,
    basis_pursuit,
    hard_threshold,
    iht_gradient,
    iht_objective,
    iterative_hard_thresholding,
    linearize,
)
from qbp.generators import (
    fourier_basis,
    fourier_sparse_image,
    general_quadratic,
    phantom_image,
    phantom_instance,
    pure_phase,
    truncate_fourier,
)
from qbp.serialize import (
    InstanceFormatError,
    load_system,
    report_to_dict,
    system_from_dict,
    system_to_dict,
)
from qbp.montecarlo import (
    CSV_COLUMNS,
    ExperimentSpec,
    TrialRecord,
    run_monte_carlo,
    run_trial,
    summarize,
    write_csv,
)

__version__ = "0.1.0"
