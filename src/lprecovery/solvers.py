"""The three recovery programs.

* ``solve_l1``            exact basis pursuit by the l1 homotopy (the LASSO
                          path down to lam = 0), checked by a dual
                          certificate; the split linear program x = u - v,
                          u, v >= 0 on the HiGHS simplex runs only where the
                          path fails that certificate.
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
import math
from dataclasses import dataclass

import numpy as np

from .linalg import IllConditionedError, min_norm_weighted_solve

__all__ = [
    "RecoveryInstance",
    "SolverResult",
    "SolverError",
    "BudgetExceededError",
    "lp_quasinorm",
    "solve_l1",
    "solve_lp_irls",
    "solve_l0_exhaustive",
    "result_to_dict",
    "RECOVERY_TOL",
]

RECOVERY_TOL = 1e-4
_ZERO_REL_TOL = 1e-12
# an l1 solution's entries below this fraction of its largest are zeros
_SUPPORT_REL_TOL = 1e-9

# the l1 homotopy: a breakpoint within this fraction of lam is the event just
# taken, a joining column this close to T's span is dependent, and a path
# whose lam falls this far below its start has lost its precision; it walks
# at most this many segments per column of A
_PATH_TOL = 1e-10
_PATH_STEPS_PER_COLUMN = 4

# the smoothing schedule of solve_lp_irls
_IRLS_EPS_INIT = 1.0
_IRLS_EPS_FLOOR = 1e-8
_IRLS_EPS_SHRINK = 0.1
_IRLS_INNER_TOL = 1e-9
_IRLS_MAX_OUTER = 500


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

    The l1 homotopy walks the LASSO path min 1/2 ||y - A x||^2 + lam ||x||_1
    from lam = ||A^T y||_inf down to lam = 0, where its end point solves
    basis pursuit; below the weak threshold that takes about k breakpoints.
    Its end point is refit by least squares on its support and certified:
    ||A x - y|| <= 1e-9 (1 + ||y||), the dual nu from the path's last segment
    has |A^T nu|_inf <= 1 + 1e-7, and |y . nu - ||x||_1| <= 1e-8 (1 + ||x||_1).
    Only when the path fails that certificate, or stops short of lam = 0
    (``_l1_homotopy`` says when), does the split linear program x = u - v,
    u, v >= 0 run on the HiGHS simplex, its vertex refit and certified the
    same way (with the equality marginals as nu); ``SolverError`` when that
    fails too, or when the program is infeasible.  ``iterations`` counts the
    path's segments, or the simplex iterations when the linear program ran.
    """
    A, y = inst.A, inst.y
    n = A.shape[1]
    if np.allclose(y, 0.0, atol=1e-300):
        return _finish(inst, np.zeros(n), 0.0, 0, True)
    path = _l1_homotopy(A, y)
    if path is not None:
        end, nu, segments = path
        x, objective, failure = _certified_l1(A, y, end, nu)
        if failure is None:
            return _finish(inst, x, objective, segments, True)
    vertex, marginals, iterations = _l1_simplex(A, y)
    x, objective, failure = _certified_l1(A, y, vertex, marginals)
    if failure is not None:
        raise SolverError(failure)
    return _finish(inst, x, objective, iterations, True)


def _l1_homotopy(A: np.ndarray, y: np.ndarray):
    """The l1 homotopy down to lam = 0 -> (end point, dual nu, segments), or None.

    On a segment with active set T and signs s, x_T moves by d = (A_T^T A_T)^{-1} s
    per unit decrease of lam, and the correlations c = A^T (y - A x) by
    A^T nu with nu = A_T d.  The segment stops at the first breakpoint: an
    inactive correlation reaching +-lam (that column joins T with the sign it
    reaches, and with it every column tied there, see ``_join_ties``; at the
    start every column tied at the largest correlation joins) or an active
    coefficient reaching 0 (that column leaves T).  A
    segment whose end at lam = 0 meets the measurements without a sign
    change is the last one, and its nu the dual certificate.  The solves use
    a reduced QR of A_T kept by column inserts and deletes.  None when a
    joining column is (numerically) dependent on T or T already has m
    columns, when the path reaches lam = 0 off the measurements (y outside
    A's range), or when lam falls below ``_PATH_TOL`` of its start or
    4 n segments do not reach the end.
    """
    import scipy.linalg  # loads on the first l1 solve, not with the package

    m, n = A.shape
    corr = A.T @ y
    first = int(np.argmax(np.abs(corr)))
    lam = lam_start = float(abs(corr[first]))
    if not lam > 0.0:
        return None
    active, signs = [first], [math.copysign(1.0, corr[first])]
    corr[first] = np.nan  # an active column's correlation is lam * sign; NaN keeps it from joining again
    Q, R = scipy.linalg.qr(A[:, [first]], mode="economic")
    Q, R = _join_ties(A, Q, R, corr, lam, np.zeros(n), active, signs)
    coef = np.zeros(len(active))
    y_tol = 1e-9 * (1.0 + float(np.linalg.norm(y)))
    trtrs = scipy.linalg.lapack.dtrtrs
    for step in range(1, _PATH_STEPS_PER_COLUMN * n + 1):
        s = np.array(signs)
        w = trtrs(R, s, trans=1)[0]
        d = trtrs(R, w)[0]
        nu = Q @ w
        end = coef + lam * d
        # sign changes below the refit's support threshold do not count
        if (end * s).min() >= -_SUPPORT_REL_TOL * np.abs(end).max() and np.linalg.norm(y - Q @ (R @ end)) <= y_tol:
            x = np.zeros(n)
            x[active] = end
            return x, nu, step
        slope = A.T @ nu
        floor = _PATH_TOL * lam
        with np.errstate(divide="ignore", invalid="ignore"):
            join = np.concatenate(((lam - corr) / (1.0 - slope), (lam + corr) / (1.0 + slope)))
            leave = -coef / d
        join = np.where(join > floor, join, np.inf)
        leave = np.where(leave > floor, leave, np.inf)
        j, i = int(join.argmin()), int(leave.argmin())
        gamma = min(join[j], leave[i])
        if gamma >= lam:
            return None
        coef += gamma * d
        corr -= gamma * slope
        lam -= gamma
        if lam <= _PATH_TOL * lam_start:
            return None
        if leave[i] <= join[j]:
            corr[active.pop(i)] = lam * signs.pop(i)
            coef = np.delete(coef, i)
            Q, R = scipy.linalg.qr_delete(Q, R, i, 1, which="col", check_finite=False)
            # from a square A_T, the update returns the full factors; keep them reduced
            Q, R = Q[:, : len(active)], R[: len(active)]
        else:
            if len(active) == m:
                return None
            sign, j = divmod(j, n)  # join's first half holds the crossings of +lam
            try:
                Q, R = scipy.linalg.qr_insert(
                    Q, R, A[:, j], len(active), which="col", rcond=_PATH_TOL, check_finite=False
                )
            except np.linalg.LinAlgError:
                return None
            active.append(j)
            signs.append(-1.0 if sign else 1.0)
            corr[j] = np.nan
            Q, R = _join_ties(A, Q, R, corr, lam, slope, active, signs)
            coef = np.append(coef, np.zeros(len(active) - coef.size))
    return None


def _join_ties(A, Q, R, corr, lam, slope, active, signs):
    """Join the inactive columns tied with the one that just joined -> the updated (Q, R).

    A column is tied when its correlation lies within ``_PATH_TOL`` lam of
    +-lam and moved outward on the segment just ended (sign(c_j) slope_j < 1).
    Each joins by one QR insert with the sign of its correlation; one that is
    dependent on T, or that comes once T has m columns, stays inactive.
    ``active``, ``signs`` and ``corr`` are updated in place.
    """
    near = np.abs(corr) >= (1.0 - _PATH_TOL) * lam  # an active column's NaN compares False
    if not np.count_nonzero(near):
        return Q, R
    import scipy.linalg

    for t in np.flatnonzero(near & (np.sign(corr) * slope < 1.0)):
        if len(active) == A.shape[0]:
            break
        try:
            Q, R = scipy.linalg.qr_insert(
                Q, R, A[:, t], len(active), which="col", rcond=_PATH_TOL, check_finite=False
            )
        except np.linalg.LinAlgError:
            continue
        active.append(int(t))
        signs.append(math.copysign(1.0, corr[t]))
        corr[t] = np.nan
    return Q, R


def _l1_simplex(A: np.ndarray, y: np.ndarray):
    """The split linear program by the HiGHS simplex -> (vertex, equality marginals, iterations).

    HiGHS presolve is off: it finds nothing to remove in the dense split
    program [A, -A], so it only adds time; the simplex reaches the same
    vertex in the same number of iterations without it, and handles zero,
    duplicated or dependent rows of A as they are.
    """
    from scipy.optimize import linprog  # the LP stack loads on the first fallback, not on import

    n = A.shape[1]
    res = linprog(
        np.ones(2 * n),
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
    return res.x[:n] - res.x[n:], np.asarray(res.eqlin.marginals), int(getattr(res, "nit", 0))


def _certified_l1(A: np.ndarray, y: np.ndarray, x: np.ndarray, nu: np.ndarray):
    """Refit x by least squares on its support and check it -> (x, objective, failure or None).

    The refit removes the path's rounding and the simplex's feasibility
    tolerance (~1e-7, which alone can break the duality-gap test).  The
    failure names the first test the refit point or the dual nu misses.
    """
    support = np.abs(x) > _SUPPORT_REL_TOL * np.abs(x).max()
    x = np.zeros(A.shape[1])
    x[support] = np.linalg.lstsq(A[:, support], y, rcond=None)[0]
    objective = float(np.abs(x).sum())
    residual = float(np.linalg.norm(A @ x - y))
    if not residual <= 1e-9 * (1.0 + float(np.linalg.norm(y))):
        return x, objective, f"l1 solution misses the measurements (residual {residual:.2e})"
    gap = abs(float(y @ nu) - objective)
    if not (np.abs(A.T @ nu).max() <= 1.0 + 1e-7 and gap <= 1e-8 * (1.0 + objective)):
        return x, objective, f"l1 optimality certificate failed (gap {gap:.2e})"
    return x, objective, None


def _smoothed_objective(x: np.ndarray, eps: float, p: float) -> float:
    return float(np.sum((x * x + eps * eps) ** (p / 2.0)))


def solve_lp_irls(inst: RecoveryInstance) -> SolverResult:
    """Local minimum of ||x||_p^p subject to A x = y, for 0 < p < 1.

    Each outer step solves a weighted minimum-norm problem with weights
    (x_i^2 + eps^2)^{p/2-1}.  The smoothing eps starts at 1 and shrinks
    tenfold whenever the iterate stalls (||dx|| <= sqrt(eps)/100), down to a
    floor of 1e-8; steps and objective increases are judged against 1e-9,
    and at most 500 reweighted solves run.  Converged means the iterate
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
    eps = _IRLS_EPS_INIT
    smoothed = _smoothed_objective(x, eps, p)
    converged = False
    iterations = 0
    for iterations in range(1, _IRLS_MAX_OUTER + 1):
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
        if new_smoothed > smoothed + _IRLS_INNER_TOL:
            # reweighting is a descent scheme for fixed eps; a genuine
            # increase signals numerical trouble, keep the old iterate
            x_new, new_smoothed = x, smoothed
        x, smoothed = x_new, new_smoothed
        at_floor = eps <= _IRLS_EPS_FLOOR * (1.0 + 1e-12)
        if step <= _IRLS_INNER_TOL * max(1.0, float(np.linalg.norm(x))) and at_floor:
            converged = True
            break
        if step <= math.sqrt(eps) / 100.0 and not at_floor:
            eps = max(eps * _IRLS_EPS_SHRINK, _IRLS_EPS_FLOOR)
            smoothed = _smoothed_objective(x, eps, p)
    x = _debias_on_support(A, y, x, p, _IRLS_INNER_TOL)
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
    elif max_support < 1:
        raise ValueError(f"max_support must be at least 1, got {max_support}")
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
