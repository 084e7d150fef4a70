"""Robust regularized least-squares MVDR beamforming.

Library core (eigendecomposition kernel, array signal model, secular-equation
regularization selection, beamformer weights) plus a seeded Monte-Carlo SINR
harness and a small CLI for sweeps and plots.
"""

__version__ = "0.1.0"

from .arraysim import (
    ArrayGeometry,
    Scenario,
    SnapshotSet,
    draw_scenario,
    interference_noise_covariance,
    sample_covariance,
    steering_vector,
    synthesize_snapshots,
    true_covariance,
)
from .beamformers import (
    BeamformerWeights,
    copra_weights,
    diagonal_loading_weights,
    mvdr_weights,
    optimal_weights,
    quasi_optimal_gamma,
)
from .config import ExperimentConfig, QuasiGridOptions, load_config
from .harness import SweepResult, TrialRecord, output_sinr, run_sweep, run_trial
from .linalg import HermitianEigensystem, hermitian_evd
from .secular import (
    CopraDiagnostics,
    EigenSplit,
    SecularSolveReport,
    SolverOptions,
    copra_gammas,
    lambda_o_sq,
    secular_function,
    solve_secular,
    split_eigenvalues,
)
