"""Sparse-recovery thresholds and solvers for lp-minimization (0 <= p <= 1)
under Gaussian measurement ensembles: limiting and finite-ratio recovery
thresholds, null-space condition certification, l0/l1/lp solvers, and the
Monte Carlo experiments that corroborate them.
"""

from .bounds import (
    BoundResult,
    ExponentSearchConfig,
    binary_entropy,
    chernoff_indicator_exponent,
    chernoff_upper_exponent,
    compute_lambda_max,
    compute_lambda_min,
    compute_lambda_tilde_max,
    strong_bound,
    weak_bound,
)
from .conditions import ConditionVerdict, SearchBudget, SupportPattern, certify
from .gaussian import (
    abs_moment,
    mgf_neg,
    mgf_pos,
)
from .limits import (
    LimitThreshold,
    sectional_limit_threshold,
    solve_z_star,
    strong_limit_threshold,
    strong_threshold_derivative,
    weak_limit_threshold,
)
from .linalg import RngSeed, min_norm_weighted_solve, null_space_basis, sample_gaussian_matrix
from .quadrature import QuadratureError
from .solvers import (
    RecoveryInstance,
    SolverResult,
    lp_quasinorm,
    solve_l0_exhaustive,
    solve_l1,
    solve_lp_irls,
)

__version__ = "0.1.0"
