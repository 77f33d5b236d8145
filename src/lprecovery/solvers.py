"""The three recovery programs.

* ``solve_l1``            exact basis pursuit via linear programming on the
                          split formulation x = u - v, u, v >= 0.
* ``solve_lp_irls``       local lp-quasinorm minimization (0 < p < 1) by
                          iteratively reweighted least squares with a
                          shrinking smoothing parameter; local minimum only.
* ``solve_l0_exhaustive`` support enumeration in increasing cardinality, a
                          small-instance oracle for the combinatorial
                          program.

A solve is a "recovery" when the output lands within 1e-4 (Euclidean) of the
ground truth, matching the experiment protocol used throughout.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from .linalg import IllConditionedError, min_norm_weighted_solve, read_matrix_csv, read_vector_csv

__all__ = [
    "RecoveryInstance",
    "SolverResult",
    "IrlsConfig",
    "SolverError",
    "BudgetExceededError",
    "lp_quasinorm",
    "solve_l1",
    "solve_lp_irls",
    "solve_l0_exhaustive",
    "load_instance",
    "result_to_dict",
    "RECOVERY_TOL",
]

RECOVERY_TOL = 1e-4
_ZERO_REL_TOL = 1e-12


class SolverError(RuntimeError):
    pass


class BudgetExceededError(SolverError):
    """Exhaustive search exhausted its support budget without a feasible fit."""


@dataclass
class RecoveryInstance:
    """One recovery job: measurements y = A x for an unknown sparse x."""

    A: np.ndarray
    y: np.ndarray
    p: float = 1.0
    x_true: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.A.ndim != 2 or self.y.shape != (self.A.shape[0],):
            raise ValueError("measurement shapes inconsistent")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.x_true is not None:
            self.x_true = np.asarray(self.x_true, dtype=float)
            if self.x_true.shape != (self.A.shape[1],):
                raise ValueError("x_true has wrong length")
            residual = np.linalg.norm(self.A @ self.x_true - self.y)
            if residual > 1e-8 * (1.0 + np.linalg.norm(self.y)):
                raise ValueError(f"x_true is not consistent with y (residual {residual:.2e})")


@dataclass
class SolverResult:
    x_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    recovered: bool | None = None

    def check_feasibility(self, inst: RecoveryInstance) -> float:
        return float(np.linalg.norm(inst.A @ self.x_hat - inst.y))


@dataclass(frozen=True)
class IrlsConfig:
    """Smoothing schedule for the reweighted least-squares solver."""

    epsilon_init: float = 1.0
    epsilon_floor: float = 1e-8
    epsilon_shrink: float = 0.1
    inner_tol: float = 1e-9
    max_outer: int = 500

    def __post_init__(self) -> None:
        if not self.epsilon_init > self.epsilon_floor > 0:
            raise ValueError("need epsilon_init > epsilon_floor > 0")
        if not 0.0 < self.epsilon_shrink < 1.0:
            raise ValueError("epsilon_shrink must lie in (0, 1)")
        if not (self.inner_tol > 0 and self.max_outer >= 1):
            raise ValueError("inner_tol must be positive, max_outer >= 1")


def lp_quasinorm(x: np.ndarray, p: float) -> float:
    """sum |x_i|^p for p > 0; nonzero count for p = 0 (0^0 = 0 convention).

    For p = 0, entries below 1e-12 of the max magnitude count as zeros.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    x = np.asarray(x, dtype=float)
    if p == 0.0:
        if x.size == 0:
            return 0.0
        scale = np.abs(x).max()
        if scale == 0.0:
            return 0.0
        return float(np.count_nonzero(np.abs(x) > _ZERO_REL_TOL * scale))
    return float(np.sum(np.abs(x) ** p))


def _finish(inst: RecoveryInstance, x: np.ndarray, objective: float, iterations: int, converged: bool) -> SolverResult:
    recovered = None
    if inst.x_true is not None:
        recovered = bool(np.linalg.norm(x - inst.x_true) <= RECOVERY_TOL)
    return SolverResult(x_hat=x, objective=objective, iterations=iterations, converged=converged, recovered=recovered)


def solve_l1(inst: RecoveryInstance) -> SolverResult:
    """Global minimizer of ||x||_1 subject to A x = y.

    Split formulation solved by the HiGHS simplex; the returned vertex is
    refit by least squares on its support and re-certified from the dual:
    |A^T lam|_inf <= 1 and y . lam equals the objective (complementary
    slackness of the split program).  HiGHS presolve is off: it finds
    nothing to remove in the dense split program [A, -A], so it only adds
    time; the simplex reaches the same vertex in the same number of
    iterations without it, and handles zero, duplicated or dependent rows
    of A as they are.
    """
    A, y = inst.A, inst.y
    m, n = A.shape
    if np.allclose(y, 0.0, atol=1e-300):
        return _finish(inst, np.zeros(n), 0.0, 0, True)
    cost = np.ones(2 * n)
    res = linprog(
        cost,
        A_eq=np.hstack([A, -A]),
        b_eq=y,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    if res.status == 2:
        raise SolverError("l1 program infeasible (A not full row rank?)")
    if res.status != 0:
        raise SolverError(f"l1 program did not converge: {res.message}")
    x = res.x[:n] - res.x[n:]
    # HiGHS meets A x = y only to its feasibility tolerance (~1e-7), which
    # alone can break the duality-gap test; refit the vertex on its support
    support = np.abs(x) > 1e-9 * np.abs(x).max()
    x = np.zeros(n)
    x[support] = np.linalg.lstsq(A[:, support], y, rcond=None)[0]
    objective = float(np.abs(x).sum())
    lam = np.asarray(res.eqlin.marginals)
    gap = abs(float(y @ lam) - objective)
    if np.abs(A.T @ lam).max() > 1.0 + 1e-7 or gap > 1e-8 * (1.0 + objective):
        raise SolverError(f"l1 optimality certificate failed (gap {gap:.2e})")
    iterations = int(getattr(res, "nit", 0))
    return _finish(inst, x, objective, iterations, True)


def _smoothed_objective(x: np.ndarray, eps: float, p: float) -> float:
    return float(np.sum((x * x + eps * eps) ** (p / 2.0)))


def solve_lp_irls(inst: RecoveryInstance, cfg: IrlsConfig = IrlsConfig()) -> SolverResult:
    """Local minimum of ||x||_p^p subject to A x = y, for 0 < p < 1.

    Each outer step solves a weighted minimum-norm problem with weights
    (x_i^2 + eps^2)^{p/2-1}; eps shrinks by ``epsilon_shrink`` whenever the
    iterate stalls (||dx|| <= sqrt(eps)/100).  Converged means the iterate
    stopped moving at the smoothing floor.  No global optimality is claimed.
    """
    if not 0.0 < inst.p < 1.0:
        raise ValueError("IRLS handles 0 < p < 1")
    A, p = inst.A, inst.p
    n = A.shape[1]
    if np.allclose(inst.y, 0.0, atol=1e-300):
        return _finish(inst, np.zeros(n), 0.0, 1, True)
    # the program is positively homogeneous: solve at unit measurement scale
    # so the smoothing schedule and conditioning guard see O(1) magnitudes
    scale = float(np.linalg.norm(inst.y))
    y = inst.y / scale
    x = min_norm_weighted_solve(A, y, np.ones(n))
    eps = cfg.epsilon_init
    smoothed = _smoothed_objective(x, eps, p)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_outer + 1):
        w = (x * x + eps * eps) ** (p / 2.0 - 1.0)
        try:
            x_new = min_norm_weighted_solve(A, y, w)
        except IllConditionedError:
            # the shrinking smoothing floor can exhaust the conditioning
            # budget on the last polish steps; the current iterate is a
            # valid feasible point, so stop instead of discarding it
            break
        step = float(np.linalg.norm(x_new - x))
        new_smoothed = _smoothed_objective(x_new, eps, p)
        if new_smoothed > smoothed + cfg.inner_tol:
            # reweighting is a descent scheme for fixed eps; a genuine
            # increase signals numerical trouble, keep the old iterate
            x_new, new_smoothed = x, smoothed
        x, smoothed = x_new, new_smoothed
        at_floor = eps <= cfg.epsilon_floor * (1.0 + 1e-12)
        if step <= cfg.inner_tol * max(1.0, float(np.linalg.norm(x))) and at_floor:
            converged = True
            break
        if step <= math.sqrt(eps) / 100.0 and not at_floor:
            eps = max(eps * cfg.epsilon_shrink, cfg.epsilon_floor)
            smoothed = _smoothed_objective(x, eps, p)
    x = _debias_on_support(A, y, x, p, cfg.inner_tol)
    x = scale * x
    return _finish(inst, x, lp_quasinorm(x, p), iterations, converged)


def _debias_on_support(A: np.ndarray, y: np.ndarray, x: np.ndarray, p: float, tol: float) -> np.ndarray:
    """Remove the smoothing bias by re-solving on the detected support.

    The support boundary is the largest gap in the sorted magnitudes; the
    polished point is kept only if it reproduces the measurements exactly
    and does not increase the quasinorm objective.
    """
    m = A.shape[0]
    order = np.argsort(np.abs(x))[::-1]
    mags = np.abs(x)[order]
    limit = min(m, x.size - 1)
    if limit < 1 or mags[0] == 0.0:
        return x
    with np.errstate(divide="ignore"):
        ratios = mags[:limit] / np.maximum(mags[1 : limit + 1], 1e-300)
    # amplitude mixtures create several gaps; try the strongest first
    cuts = [int(c) for c in np.argsort(ratios)[::-1] if ratios[c] >= 50.0][:8]
    objective = lp_quasinorm(x, p)
    y_norm = np.linalg.norm(y)
    for cut in cuts:
        support = order[: cut + 1]
        coef, _, _, _ = np.linalg.lstsq(A[:, support], y, rcond=None)
        polished = np.zeros_like(x)
        polished[support] = coef
        feasible = np.linalg.norm(A @ polished - y) <= 1e-9 * (1.0 + y_norm)
        if feasible and lp_quasinorm(polished, p) <= objective + tol:
            return polished
    return x


def solve_l0_exhaustive(inst: RecoveryInstance, max_support: int | None = None) -> SolverResult:
    """Sparsest solution by support enumeration (small instances only).

    Supports are scanned in increasing cardinality; the first one whose
    least-squares fit reaches relative residual 1e-9 is the exact minimum.
    """
    A, y = inst.A, inst.y
    m, n = A.shape
    if max_support is None:
        max_support = min(m, n)
    if n > 24 and max_support > 4:
        raise ValueError("exhaustive search guard: need n <= 24 or max_support <= 4")
    y_norm = np.linalg.norm(y)
    if y_norm <= 1e-300:
        return _finish(inst, np.zeros(n), 0.0, 0, True)
    checked = 0
    for size in range(1, min(max_support, m, n) + 1):
        for support in itertools.combinations(range(n), size):
            checked += 1
            cols = A[:, support]
            coef, _, _, _ = np.linalg.lstsq(cols, y, rcond=None)
            if np.linalg.norm(cols @ coef - y) <= 1e-9 * y_norm:
                x = np.zeros(n)
                x[list(support)] = coef
                return _finish(inst, x, float(size), checked, True)
    raise BudgetExceededError(f"no support of size <= {max_support} fits the measurements")


def load_instance(path) -> RecoveryInstance:
    """Instance from a JSON job file referencing matrix/vector CSV paths."""
    path = Path(path)
    with open(path) as fh:
        job = json.load(fh)
    base = path.parent
    A = read_matrix_csv(base / job["matrix"])
    y = read_vector_csv(base / job["y"])
    x_true = read_vector_csv(base / job["x_true"]) if "x_true" in job and job["x_true"] else None
    return RecoveryInstance(A=A, y=y, p=float(job.get("p", 1.0)), x_true=x_true)


def result_to_dict(result: SolverResult) -> dict:
    out = {
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "x_hat": [float(v) for v in result.x_hat],
    }
    if result.recovered is not None:
        out["recovered"] = result.recovered
    return out
