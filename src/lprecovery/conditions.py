"""Null-space recovery conditions: evaluation and falsification search.

All conditions quantify over every nonzero z in the kernel-coefficient
space.  They are positively homogeneous in z, so only unit directions
matter; for a one-dimensional kernel the two directions +-1 decide the
verdict exactly.  ``weak_l1`` is decided exactly at any dimension by one
linear program (a dual certificate or a witness), which a numpy vertex walk
on its dual solves in dim unknowns; HiGHS solves it only where the walk
stops short or its verdict does not re-check.  Otherwise sampling cannot
decide the quantifier, so ``certify`` reports either a concrete
counterexample (with a re-verifiable witness) or "not falsified within
budget", flagged through ``certificate_exact``.

Modes and their inequalities at a given z (B_i the rows of the basis):

* strong     sum of the s largest |B_i z|^p  <  remaining sum     (strict)
* weak_l1    ||B_{T-}z||_1 < ||B_{Tc}z||_1 + ||B_{T+}z||_1        (strict)
* weak_lp    ||B_{T-}z||_p^p <= ||B_{Tc}z||_p^p, strict when B_{T+}z = 0
* weak_l0    ||B_{T-}z||_0 < ||B_{Tc}z||_0                        (strict)
* sectional  ||B_T z||_p^p < ||B_{Tc}z||_p^p                      (strict)

T- collects support indices whose kernel direction fights the sign
pattern; ties (B_i z = 0) follow the sign-agreeing side uniformly across
all modes.

``certify`` evaluates every direction through the mode's public evaluator,
so a falsified verdict's (lhs, rhs) are that evaluator's own floats.  Per
run it prepares one evaluator, which computes what depends on (B, mode,
spec) alone once: the support and complement indices, the signs and
2||B||_F.  A public evaluator handed certify's basis reuses it; any other
call prepares the same evaluator for itself, so both give the same floats.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import RngSeed

__all__ = [
    "SupportPattern",
    "ConditionVerdict",
    "SearchBudget",
    "MODES",
    "partition_support",
    "strong_condition_holds_for",
    "weak_condition_holds_for",
    "sectional_condition_holds_for",
    "certify",
]

MODES = ("strong", "weak_l1", "weak_lp", "weak_l0", "sectional")
_ZERO_REL_TOL = 1e-12
# the run certify has in progress, as (basis, p, spec, evaluate): the basis is a
# view certify made for the run, so only certify's own calls pass it
_prepared = None
# the pattern search multiplies its step by this after a round with no improving move
_STEP_SHRINK = 0.5
# the weak-l1 vertex walk: a residual or move below this fraction of its scale
# is zero and a multiplier up to 1 + this is in bounds; a vertex system past
# this condition number is singular; it visits at most this many vertices per row
_WALK_TOL = 1e-12
_WALK_COND = 1e12
_WALK_STEPS_PER_ROW = 4


@dataclass(frozen=True)
class SupportPattern:
    """Support indices with one sign (+-1) per index; a weak-recovery class."""

    support: tuple
    signs: tuple

    def __post_init__(self) -> None:
        rows = np.array(self.support)
        if rows.dtype.kind in "bO":  # bools and number-like objects compare as the numbers they are
            rows = rows.astype(float)
        if rows.ndim != 1 or rows.dtype.kind not in "iuf":
            raise TypeError("support indices must be numbers")
        if not (rows[1:] > rows[:-1]).all():
            if np.unique(rows).size != rows.size:
                raise ValueError("support indices must be distinct")
            raise ValueError("support must be sorted")
        if rows.size and rows[0] < 0:
            raise ValueError("support indices must be nonnegative")
        try:
            signs = np.array(self.signs)
        except ValueError:  # a ragged sequence
            signs = None
        if signs is None or signs.shape != rows.shape or not ((signs == 1) | (signs == -1)).all():
            raise ValueError("signs must be +-1, one per support index")
        # shared by every evaluation of the pattern, so read-only
        integral = rows.dtype.kind == "i"
        arrays = {
            "support_array": rows.astype(int, copy=False) if integral else np.array(self.support, dtype=int),
            "sign_array": signs.astype(float) if signs.dtype.kind in "biuf" else np.array(self.signs, dtype=float),
        }
        for name, value in arrays.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def nonnegative(cls, size: int) -> "SupportPattern":
        """The all-plus pattern on the first ``size`` indices."""
        return cls(support=tuple(range(size)), signs=(1,) * size)


@dataclass(frozen=True)
class SearchBudget:
    sphere_samples: int = 256
    refine_steps: int = 120
    seed: RngSeed = RngSeed(0)

    def __post_init__(self) -> None:
        if self.sphere_samples < 1:
            raise ValueError("sphere_samples must be at least 1")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be non-negative")


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a certification run.

    ``holds`` means "not falsified"; it is a proof only when
    ``certificate_exact`` is set (one-dimensional kernels, and ``weak_l1``
    at any dimension, whose ``detail`` then carries the dual certificate
    ``lambda``, ``tau`` = its sup norm and ``margin`` = 1 - tau, from the
    vertex walk or, where it stops short, from HiGHS).  A falsified verdict
    carries a witness (z, lhs, rhs) that re-evaluates to a violation with
    the public condition evaluators alone; an exact ``weak_l1`` one is the
    walk's optimal y, scaled to c^T y = 1, or HiGHS's equality marginals.
    """

    mode: str
    holds: bool
    certificate_exact: bool
    witness: dict | None = None
    detail: dict = field(default_factory=dict, compare=False)


def partition_support(B: np.ndarray, z: np.ndarray, pat: SupportPattern):
    """Split the support into sign-fighting (T-) and sign-agreeing (T+) parts.

    An index fights the pattern when sign(B_i z) * sign_i < 0; exact zeros
    (relative tolerance 1e-12) count as agreeing.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    z = np.asarray(z, dtype=float)
    rows = pat.support_array
    fro2 = 2.0 * np.linalg.norm(B)
    fighting = _fighting((B @ z)[rows], pat.sign_array, math.sqrt(z @ z), fro2, lambda: np.linalg.norm(B[rows], axis=1))
    return tuple(int(i) for i in rows[fighting]), tuple(int(i) for i in rows[~fighting])


def _fighting(vals: np.ndarray, signs: np.ndarray, norm_z: float, fro2: float, row_norms) -> np.ndarray:
    """Mask over the support: True where the row fights the sign pattern.

    ``vals`` is B_T z, in support order.  A row fights when (B_i z) * sign_i < 0
    and |B_i z| exceeds 1e-12 |z| |B_i|; ``row_norms()`` (the support rows'
    norms) is asked for only for the rare rows under the coarser bound
    1e-12 |z| * ``fro2``, with ``fro2`` = 2|B|_F.
    """
    fighting = vals * signs < 0
    near_zero = fighting & (np.abs(vals) <= _ZERO_REL_TOL * norm_z * fro2)
    if near_zero.any():
        idx = np.flatnonzero(near_zero)
        scale = _ZERO_REL_TOL * norm_z * row_norms()[idx]
        fighting[idx[np.abs(vals[idx]) <= scale]] = False
    return fighting


def _complement(n: int, rows: np.ndarray) -> np.ndarray:
    """The indices in range(n) outside ``rows``, in increasing order."""
    mask = np.ones(n, dtype=bool)
    mask[rows] = False
    return mask.nonzero()[0]


def strong_condition_holds_for(B: np.ndarray, z: np.ndarray, p: float, rho_n: int):
    """(lhs, rhs) of the strong condition at this z for supports of size rho_n.

    The adversarial support is the set of the rho_n largest |B_i z|^p, so
    lhs is that top sum and rhs the rest; the caller compares lhs < rhs.
    """
    return _prepare(B, "strong", p, rho_n)(np.asarray(z, dtype=float))[2:]


def _entry_powers(bz: np.ndarray, p: float) -> np.ndarray:
    if p == 0.0:
        scale = np.abs(bz).max() if bz.size else 0.0
        if scale == 0.0:
            return np.zeros_like(bz)
        return (np.abs(bz) > _ZERO_REL_TOL * scale).astype(float)
    return np.abs(bz) ** p


def weak_condition_holds_for(B: np.ndarray, z: np.ndarray, p: float, pat: SupportPattern):
    """Evaluate the weak condition for this z -> (holds_at_z, lhs, rhs)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    violated, _, lhs, rhs = _prepare(B, "weak_lp", p, pat)(np.asarray(z, dtype=float))
    return not violated, lhs, rhs


def sectional_condition_holds_for(B: np.ndarray, z: np.ndarray, p: float, support):
    """(lhs, rhs) of the sectional condition on a fixed support."""
    return _prepare(B, "sectional", p, support)(np.asarray(z, dtype=float))[2:]


def _prepare(B, mode: str, p: float, spec):
    """The evaluator of a public call: certify's prepared one when the call
    comes from certify's run, else one built for this call."""
    prepared = _prepared
    if prepared is not None and B is prepared[0] and spec is prepared[2] and p == prepared[1]:
        return prepared[3]
    return _evaluator(np.atleast_2d(np.asarray(B, dtype=float)), mode, p, spec)


def _evaluator(B: np.ndarray, mode: str, p: float, spec):
    """Prepared evaluator of one condition on one basis: z -> (violated, margin, lhs, rhs).

    margin = rhs - lhs.  ``B`` is a 2-D float array and z a 1-D float array.
    What depends on (B, spec) alone is computed here, once; the weak modes'
    tie-only constants (the support row norms and max(1, max|B_ij|)) only when
    a tie first needs them.
    """
    if mode == "strong":
        if not 0 <= spec <= B.shape[0]:
            raise ValueError("support size out of range")

        def evaluate(z):
            vals = _entry_powers(B @ z, p)
            vals.sort()
            lhs = float(vals[len(vals) - spec :].sum()) if spec else 0.0
            rhs = float(vals.sum() - lhs)
            return lhs >= rhs, rhs - lhs, lhs, rhs

        return evaluate
    if mode == "sectional":
        rows = np.unique(np.array([int(i) for i in spec], dtype=int))
        if rows.size and (rows[0] < 0 or rows[-1] >= B.shape[0]):
            raise ValueError("support index out of range")
        comp = _complement(B.shape[0], rows)

        def evaluate(z):
            bz = B @ z
            lhs = float(_entry_powers(bz[rows], p).sum())
            rhs = float(_entry_powers(bz[comp], p).sum())
            return lhs >= rhs, rhs - lhs, lhs, rhs

        return evaluate
    if mode not in ("weak_l1", "weak_lp", "weak_l0"):
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    rows, signs = spec.support_array, spec.sign_array
    comp = _complement(B.shape[0], rows)
    fro2 = 2.0 * np.linalg.norm(B)
    row_norms = _once(lambda: np.linalg.norm(B[rows], axis=1))
    b_max = _once(lambda: max(1.0, float(np.abs(B).max())))

    def evaluate(z):
        bz = B @ z
        vals = bz[rows]
        norm_z = math.sqrt(z @ z)
        fighting = _fighting(vals, signs, norm_z, fro2, row_norms)
        minus = vals[fighting]
        if p == 1.0:
            lhs = float(np.abs(minus).sum())
            rhs = float(np.abs(bz[comp]).sum() + np.abs(vals[~fighting]).sum())
            holds = lhs < rhs
        else:
            lhs = float(_entry_powers(minus, p).sum())
            rhs = float(_entry_powers(bz[comp], p).sum())
            if p == 0.0 or lhs != rhs:
                holds = lhs < rhs
            else:
                # a tie holds only where B_{T+}z does not vanish
                holds = not bool(np.all(np.abs(vals[~fighting]) <= _ZERO_REL_TOL * (norm_z * b_max())))
        return not holds, rhs - lhs, lhs, rhs

    return evaluate


def _once(compute):
    """A function returning compute(), computed on its first call only.

    Cheaper to build than a ``functools.cache`` wrapper, which matters to a
    public call outside certify: it builds an evaluator for one evaluation,
    and only ties ever call these.
    """
    value = []

    def get():
        if not value:
            value.append(compute())
        return value[0]

    return get


def _mode_p(mode: str, p: float) -> float:
    if mode == "weak_l1":
        return 1.0
    if mode == "weak_l0":
        return 0.0
    return p


def certify(B: np.ndarray, mode: str, p: float, pattern_or_rho, budget: SearchBudget = SearchBudget()) -> ConditionVerdict:
    """Certify or falsify a null-space condition over all kernel directions.

    One-column B: exact (z = +-1 by homogeneity).  ``weak_l1`` with two or
    more columns: exact by one linear program, solved by a vertex walk on
    its dual (numpy only) or, where the walk stops short or its verdict does
    not re-check, by HiGHS; the search below runs only if that certificate
    does not re-check either.  Two columns: dense
    angle sweep plus refinement.  Otherwise: random unit directions followed
    by a derivative-free pattern search with shrinking steps on the best
    candidates; any violation is returned as a witness.
    """
    global _prepared
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[1] < 1:
        raise ValueError("basis must have at least one column")
    if not np.all(np.isfinite(B)):
        raise ValueError("basis entries must be finite")
    p = _mode_p(mode, p)
    spec = pattern_or_rho
    if mode == "strong":
        spec = int(pattern_or_rho)
    elif mode == "sectional":
        spec = tuple(int(i) for i in pattern_or_rho)
    elif not isinstance(spec, SupportPattern):
        raise ValueError("weak modes need a SupportPattern")
    elif spec.support and spec.support[-1] >= B.shape[0]:
        raise ValueError(f"support index {spec.support[-1]} lies outside the basis's {B.shape[0]} rows")

    dim = B.shape[1]
    if mode == "weak_l1" and dim > 1:
        verdict = _certify_weak_l1_lp(B, spec)
        if verdict is not None:
            return verdict
    B = B.view()
    B.flags.writeable = False
    _prepared = (B, p, spec, _evaluator(B, mode, p, spec))
    try:
        evaluate = _public_evaluator(B, mode, p, spec)
        if dim == 1:
            return _certify_exact_1d(mode, evaluate)
        return _search(mode, dim, evaluate, budget)
    finally:
        _prepared = None


def _public_evaluator(B: np.ndarray, mode: str, p: float, spec):
    """z -> (violated, margin, lhs, rhs) from one call of the mode's public evaluator."""
    if mode == "strong":

        def evaluate(z):
            lhs, rhs = strong_condition_holds_for(B, z, p, spec)
            return lhs >= rhs, rhs - lhs, lhs, rhs

    elif mode == "sectional":

        def evaluate(z):
            lhs, rhs = sectional_condition_holds_for(B, z, p, spec)
            return lhs >= rhs, rhs - lhs, lhs, rhs

    else:

        def evaluate(z):
            holds, lhs, rhs = weak_condition_holds_for(B, z, p, spec)
            return not holds, rhs - lhs, lhs, rhs

    return evaluate


def _search(mode: str, dim: int, evaluate, budget: SearchBudget) -> ConditionVerdict:
    if dim == 2:
        candidates = _angle_candidates(max(budget.sphere_samples, 4096))
    else:
        rng = budget.seed.generator()
        candidates = rng.normal(size=(budget.sphere_samples, dim))
        candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)

    margins = []
    for z in candidates:
        violated, margin, lhs, rhs = evaluate(z)
        if violated:
            return _falsified(mode, z, lhs, rhs)
        margins.append(margin)
    order = np.argsort(margins)
    rng = budget.seed.child(1).generator()
    best_margin = float(margins[order[0]])
    for idx in order[: max(1, min(8, len(order)))]:
        z, (violated, margin, lhs, rhs) = _refine(evaluate, candidates[idx].copy(), budget, rng)
        if violated:
            return _falsified(mode, z, lhs, rhs)
        best_margin = min(best_margin, margin)
    return ConditionVerdict(
        mode=mode,
        holds=True,
        certificate_exact=False,
        witness=None,
        detail={"min_margin": best_margin, "samples": len(candidates)},
    )


def _angle_candidates(count: int) -> np.ndarray:
    # full circle: z and -z are not equivalent for the weak conditions
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _certify_exact_1d(mode: str, evaluate) -> ConditionVerdict:
    for direction in (1.0, -1.0):
        z = np.array([direction])
        violated, _, lhs, rhs = evaluate(z)
        if violated:
            return dataclasses.replace(_falsified(mode, z, lhs, rhs), certificate_exact=True)
    return ConditionVerdict(mode=mode, holds=True, certificate_exact=True, witness=None)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first weak-l1 HiGHS fallback.

    The LP stack stays off the package's import path; the name stays a
    module attribute, so it can be stubbed.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _certify_weak_l1_lp(B: np.ndarray, pat: SupportPattern) -> ConditionVerdict | None:
    """Exact weak-l1 verdict by linear programming, or None if undecided.

    With s the pattern's signs and c = -B_T^T s, rhs - lhs at z is f(z) =
    ||B_Tc z||_1 - c^T z, so the condition is f > 0 on every z != 0.  It
    holds iff tau = min ||lam||_inf subject to B_Tc^T lam = c is below 1,
    when B_Tc has full column rank.  tau is the optimum of the scale program

        s* = max s  subject to  B_Tc^T mu = s c,  -1 <= mu_i <= 1,  s >= 0

    (dim equality rows, box bounds), as tau = 1/s* with lam = mu*/s*.  Its
    dual is min ||B_Tc y||_1 subject to c^T y = 1, of value 1/tau, and
    ``_l1_dual_walk`` solves it by a vertex walk in dim unknowns: its optimal
    vertex y and multipliers give tau and lam.  If tau < 1, lam is the
    certificate: with r = B_Tc^T lam - c and sigma_min the smallest singular
    value of B_Tc, f(z) >= ((1 - tau) sigma_min - |r|) |z|, which must come
    out positive.  If tau >= 1, the witness y (up to sign and scale) gives
    f(y) = 1/tau - 1 <= 0, re-evaluated through ``weak_condition_holds_for``.
    At c = 0 (an empty support, or B_T^T s = 0) the program is unbounded
    while tau = 0, so lam = 0 is the certificate and nothing is solved.  A
    rank-deficient B_Tc is broken by its null direction.  Where the walk
    stops short (it returns None) or its verdict does not re-check, the
    scale program runs on HiGHS (presolve off: with dim rows it has little
    to reduce), its equality marginals as the witness; anything that still
    does not re-check returns None and leaves the verdict to the search.
    """
    rows = pat.support_array
    comp = B[_complement(B.shape[0], rows)]
    target = -(B[rows].T @ pat.sign_array)
    m, dim = comp.shape
    # zero rows pad a short B_Tc so that vt always spans R^dim
    padded = np.vstack([comp, np.zeros((max(0, dim - m), dim))])
    _, sigma, vt = np.linalg.svd(padded, full_matrices=False)
    sigma_min = float(sigma[-1])
    if sigma_min <= max(padded.shape) * np.finfo(float).eps * sigma[0]:
        return _lp_witness(B, pat, vt[-1], {})
    if not target.any():
        return _weak_l1_verdict(B, pat, comp, target, sigma_min, np.zeros(m), None)
    walk = _l1_dual_walk(comp, target)
    if walk is not None:
        verdict = _weak_l1_verdict(B, pat, comp, target, sigma_min, *walk)
        if verdict is not None:
            return verdict
    res = linprog(
        np.r_[np.zeros(m), -1.0],
        A_eq=np.hstack([comp.T, -target[:, None]]),
        b_eq=np.zeros(dim),
        bounds=[(-1.0, 1.0)] * m + [(0.0, None)],
        method="highs",
        options={"presolve": False},
    )
    if res.status != 0 or res.x[m] <= 0.0:
        return None
    lam = res.x[:m] / res.x[m]
    return _weak_l1_verdict(B, pat, comp, target, sigma_min, lam, np.asarray(res.eqlin.marginals, dtype=float))


def _weak_l1_verdict(B, pat, comp, target, sigma_min, lam, y) -> ConditionVerdict | None:
    """Exact verdict from a solution (lam, y) of the scale program and its dual, or None if it does not re-check."""
    tau = float(np.abs(lam).max())
    if tau >= 1.0:
        return _lp_witness(B, pat, y, {"tau": tau})
    residual = float(np.linalg.norm(comp.T @ lam - target))
    if (1.0 - tau) * sigma_min <= residual:
        return None
    detail = {
        "tau": tau,
        "margin": 1.0 - tau,
        "lambda": [float(v) for v in lam],
        "sigma_min": sigma_min,
        "residual": residual,
    }
    return ConditionVerdict(mode="weak_l1", holds=True, certificate_exact=True, detail=detail)


def _l1_dual_walk(C: np.ndarray, c: np.ndarray):
    """min ||C y||_1 subject to c^T y = 1 by a walk over its vertices -> (lam, y), or None.

    C (m x dim, full column rank) is B_Tc and c != 0.  A vertex is a y with
    dim - 1 rows J of C y at zero; it is the long-step dual simplex
    (bounded variables) of the scale program, with lam_i = +-1/theta on the
    other rows.  From y = c/|c|^2 the walk descends in {c^T h = 0, C_J h = 0}
    along the projected negative gradient, each exact line search adding the
    row it zeroes to J, until J has dim - 1 rows.  At a vertex one dim x dim
    solve [C_J^T, -c] (u_J, theta) = -C_N^T s_N gives the multipliers, with
    s_N = sign(C_N y) (a row at zero keeps the side it last had).  If
    max |u_J| <= 1 the vertex is optimal: lam = (s_N, u_J)/theta, with u_J
    clipped to [-1, 1] and theta = ||C y||_1 / c^T y the objective at y, so
    tau = 1/theta.  Otherwise the row of the largest |u_j| leaves J, moving
    so that sign(C_j h) = sign(u_j), and an exact line search
    (``_walk_line``, a weighted median over the breakpoints -r_i/g_i with
    r = C y, g = C h) finds the row that enters.  Residuals and moves below
    ``_WALK_TOL`` of their scale count as zero.
    None when a vertex system is singular (condition number past
    ``_WALK_COND``), no breakpoint ends a line search, or
    ``_WALK_STEPS_PER_ROW`` m vertices do not reach the optimum.
    """
    m, dim = C.shape
    zero = _WALK_TOL * float(np.abs(C).max())
    side = np.ones(m)  # the sign each row's residual has, or last had
    J = []
    y = c / (c @ c)
    basis = (c / math.sqrt(c @ c))[:, None]  # orthonormal, spans c and C_J
    while len(J) < dim - 1:
        r, s = _walk_signs(C, y, side, J, zero)
        grad = C.T @ s
        h = basis @ (basis.T @ grad) - grad
        if not h @ h > _WALK_TOL * (grad @ grad):
            # the objective is flat on the subspace: any direction in it reaches a vertex
            a = int(np.argmin((basis * basis).sum(axis=1)))
            h = -(basis @ basis[a])
            h[a] += 1.0
        g = _walk_snapped(C, h, zero)
        step = _walk_line(r, g, s, 0.0)
        if step is None:
            return None
        t, k, passed = step
        y = y + t * h
        side[passed] = np.sign(g[passed])
        J.append(k)
        q = C[k] - basis @ (basis.T @ C[k])
        q -= basis @ (basis.T @ q)  # twice is enough
        basis = np.column_stack([basis, q / math.sqrt(q @ q)])
    M = np.empty((dim, dim))
    M[:, -1] = -c
    for _ in range(_WALK_STEPS_PER_ROW * m):
        M[:, :-1] = C[J].T
        try:
            M_inv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            return None
        if np.abs(M).sum(axis=1).max() * np.abs(M_inv).sum(axis=1).max() > _WALK_COND:
            return None
        y = -M_inv[-1]  # C_J y = 0, c^T y = 1
        r, s = _walk_signs(C, y, side, J, zero)
        u = (M_inv @ -(C.T @ s))[:-1]
        i = int(np.abs(u).argmax())
        if abs(u[i]) <= 1.0 + _WALK_TOL:
            # lam from the box and the dual objective at y, so an exact tau stays exact
            s[J] = np.clip(u, -1.0, 1.0)
            return s * (c @ y / np.abs(C @ y).sum()), y
        h = math.copysign(1.0, u[i]) * M_inv[i]  # C_J h = e_i sign(u_i), c^T h = 0
        g = _walk_snapped(C, h, zero)
        step = _walk_line(r, g, s, abs(g[J[i]]))
        if step is None:
            return None
        _, k, passed = step
        side[J[i]] = math.copysign(1.0, u[i])
        side[passed] = np.sign(g[passed])
        J[i] = k
    return None


def _walk_snapped(C: np.ndarray, v: np.ndarray, zero: float) -> np.ndarray:
    """C v with entries at most zero * |v|_1 set to 0."""
    w = C @ v
    w[np.abs(w) <= zero * float(np.abs(v).sum())] = 0.0
    return w


def _walk_signs(C, y, side, J, zero):
    """-> (r, s): the residual C y, and the signs s of the rows off J (0 on J).

    ``side`` is updated in place: a nonzero residual sets its row's side, a
    zero one keeps it.
    """
    r = _walk_snapped(C, y, zero)
    nonzero = r != 0.0
    side[nonzero] = np.sign(r[nonzero])
    s = side.copy()
    s[J] = 0.0
    return r, s


def _walk_line(r, g, s, slope):
    """Exact line search on sum_i |r_i + t g_i| over t >= 0 -> (t, entering row, rows passed), or None.

    The rows off J (s_i != 0) whose residual meets zero ahead (s_i g_i < 0;
    at t = 0 for a residual already at zero) are the breakpoints.  The slope
    at t = 0 is ``slope`` (the leaving row's |g_j|, 0 on a descent to the
    first vertex) plus s^T g, and rises by 2 |g_i| at each breakpoint; the
    step ends at the first one past which it is no longer negative.
    """
    idx = np.flatnonzero(s * g < 0.0)
    stops = -r[idx] / g[idx]
    order = np.argsort(stops, kind="stable")
    pos = int(np.searchsorted(slope + s @ g + 2.0 * np.cumsum(np.abs(g[idx[order]])), 0.0))
    if pos == idx.size:
        return None
    return float(stops[order[pos]]), int(idx[order[pos]]), idx[order[:pos]]


def _lp_witness(B, pat, y, detail) -> ConditionVerdict | None:
    """Exact falsified verdict at the first of +-y, +-y/||y||_inf that the public evaluator rejects.

    At an exact tie f(y) = 0 the public evaluator can round one scaling of y
    to a hold and another to the violation it is.
    """
    scaled = y / np.abs(y).max()
    for z in (y, -y, scaled, -scaled):
        holds, lhs, rhs = weak_condition_holds_for(B, z, 1.0, pat)
        if not holds:
            verdict = _falsified("weak_l1", z, lhs, rhs)
            return dataclasses.replace(verdict, certificate_exact=True, detail={**verdict.detail, **detail})
    return None


def _falsified(mode: str, z: np.ndarray, lhs: float, rhs: float) -> ConditionVerdict:
    return ConditionVerdict(
        mode=mode,
        holds=False,
        certificate_exact=False,
        witness={"z": [float(v) for v in np.asarray(z).ravel()], "lhs": lhs, "rhs": rhs},
        detail={"margin": rhs - lhs},
    )


def _refine(evaluate, z: np.ndarray, budget: SearchBudget, rng):
    """Pattern search minimizing the margin -> (z, evaluate(z)) at the first
    violation or the smallest margin; the sort and sign partition make the
    margin non-smooth, so no gradients."""
    dim = z.size
    best = evaluate(z)
    step = 0.5
    for _ in range(budget.refine_steps):
        improved = False
        for j in rng.permutation(dim):
            for direction in (1.0, -1.0):
                trial = z.copy()
                trial[j] += direction * step
                norm = math.sqrt(trial @ trial)
                if norm == 0.0:
                    continue
                trial /= norm
                result = evaluate(trial)
                if result[0]:
                    return trial, result
                if result[1] < best[1]:
                    z, best = trial, result
                    improved = True
        if not improved:
            step *= _STEP_SHRINK
            if step < 1e-9:
                break
    return z, best
