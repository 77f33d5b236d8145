"""Reproducible Monte Carlo experiments and exact worked-example reports.

Every experiment derives one independent sub-seed per (grid point, trial)
from the master seed, so results are identical no matter how trials are
scheduled; ``LP_RECOVERY_THREADS`` (or the ``workers`` argument) only
changes the wall time.  Reports echo their full specification and ship the
per-trial records that produced every aggregate number.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .conditions import SearchBudget, SupportPattern, certify
from .gaussian import abs_moment
from .linalg import IllConditionedError, RngSeed, sample_gaussian_matrix
from .solvers import (
    IrlsConfig,
    RecoveryInstance,
    SolverError,
    lp_quasinorm,
    solve_l0_exhaustive,
    solve_l1,
    solve_lp_irls,
)

__all__ = [
    "PhaseDiagramSpec",
    "ExperimentReport",
    "run_example1",
    "run_phase_transition",
    "run_strong_vs_weak",
    "run_weak_threshold_probe",
    "run_concentration_check",
    "worker_count",
    "report_to_csv",
]

AMPLITUDE_MODELS = ("standard_normal", "spike_mixture")


def worker_count(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("LP_RECOVERY_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


@dataclass(frozen=True)
class PhaseDiagramSpec:
    """Grid specification for a recovery phase-transition sweep."""

    n: int
    m: int
    p_list: tuple
    rho_grid: tuple
    trials_per_point: int
    amplitude_model: str = "standard_normal"
    seed: RngSeed = RngSeed(0)

    def __post_init__(self) -> None:
        if not self.m < self.n:
            raise ValueError("need m < n")
        rhos = list(self.rho_grid)
        if rhos != sorted(rhos) or not all(0.0 < r < 1.0 for r in rhos):
            raise ValueError("rho grid must be ascending within (0, 1)")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be at least 1")
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise ValueError(f"amplitude_model must be one of {AMPLITUDE_MODELS}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seed"] = self.seed.seed
        d["p_list"] = list(self.p_list)
        d["rho_grid"] = list(self.rho_grid)
        return d


@dataclass
class ExperimentReport:
    """Aggregated results plus the per-trial records behind them."""

    kind: str
    spec: dict
    points: list
    wall_time: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {"kind": self.kind, "spec": self.spec, "points": self.points}
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def report_to_csv(report: ExperimentReport, path) -> None:
    """Grid summary CSV: one row per point (mode,p,rho,success_rate,trials)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "p", "rho", "success_rate", "trials"])
        for point in report.points:
            writer.writerow(
                [
                    point.get("mode", report.kind),
                    point.get("p", ""),
                    point.get("rho", ""),
                    point.get("success_rate", ""),
                    point.get("trials", ""),
                ]
            )


def _map_trials(fn, args_list, workers: int):
    if workers <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda a: fn(*a), args_list))


# ---------------------------------------------------------------------------
# worked example on the explicit one-dimensional kernel
# ---------------------------------------------------------------------------


def example1_kernel(k: int) -> np.ndarray:
    """The explicit kernel direction: k ones, k minus-ones, 4k entries 1/64."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return np.concatenate([np.ones(k), -np.ones(k), np.full(4 * k, 1.0 / 64.0)])


def example1_matrix(k: int) -> np.ndarray:
    """A (6k-1) x 6k measurement matrix whose kernel is spanned by the
    explicit direction; rows form an orthonormal complement."""
    beta = example1_kernel(k)
    seed_cols = np.eye(6 * k)
    seed_cols[:, 0] = beta
    Q, _ = np.linalg.qr(seed_cols)
    return Q[:, 1:].T


def _strong_max_sparsity(beta: np.ndarray, p: float) -> int:
    from .conditions import strong_condition_holds_for

    B = beta.reshape(-1, 1)
    size = 0
    while size < beta.size:
        lhs, rhs = strong_condition_holds_for(B, np.ones(1), p, size + 1)
        if lhs < rhs:
            size += 1
        else:
            break
    return size


def run_example1(k: int, p: float = 0.5) -> dict:
    """Exact report on the explicit-kernel example: strong sparsity limits
    for exponents 1 and p, weak verdicts for the nonnegative pattern on the
    first 2k coordinates, and the dense-vs-sparse objective comparison."""
    beta = example1_kernel(k)
    B = beta.reshape(-1, 1)
    claims = {}

    l1_max = _strong_max_sparsity(beta, 1.0)
    claims["strong_max_sparsity_l1"] = {
        "value": l1_max,
        "expected": int(np.ceil(33 * k / 32)) - 1,
        "matches_expected": l1_max == int(np.ceil(33 * k / 32)) - 1,
    }
    lp_max = _strong_max_sparsity(beta, p)
    claims["strong_max_sparsity_lp"] = {
        "p": p,
        "value": lp_max,
        "expected": int(np.ceil(5 * k / 4)) - 1,
        "matches_expected": lp_max == int(np.ceil(5 * k / 4)) - 1,
    }

    pattern = SupportPattern.nonnegative(2 * k)
    weak_l1 = certify(B, "weak_l1", 1.0, pattern)
    claims["weak_l1_holds"] = {
        "value": weak_l1.holds,
        "expected": True,
        "exact": weak_l1.certificate_exact,
        "matches_expected": weak_l1.holds,
    }
    weak_lp = certify(B, "weak_lp", p, pattern)
    witness = weak_lp.witness
    reverified = False
    if witness is not None:
        from .conditions import weak_condition_holds_for

        holds_again, lhs, rhs = weak_condition_holds_for(B, np.asarray(witness["z"]), p, pattern)
        reverified = (not holds_again) and lhs == witness["lhs"] and rhs == witness["rhs"]
    claims["weak_lp_falsified"] = {
        "p": p,
        "value": not weak_lp.holds,
        "expected": True,
        "witness": witness,
        "witness_reverified": reverified,
        "matches_expected": (not weak_lp.holds) and reverified,
    }

    x_star = np.concatenate([np.full(k, 9.0), np.ones(k), np.zeros(4 * k)])
    x_dense = x_star + beta
    obj_star = lp_quasinorm(x_star, 0.5)
    obj_dense = lp_quasinorm(x_dense, 0.5)
    expected_dense = (np.sqrt(10.0) + 0.5) * k
    claims["denser_solution_wins"] = {
        "objective_sparse": obj_star,
        "objective_dense": obj_dense,
        "expected_dense": expected_dense,
        # the objective comparison is only claimed for k >= 2
        "matches_expected": bool(
            k >= 2
            and obj_dense < obj_star
            and abs(obj_star - 4.0 * k) <= 1e-12 * max(1.0, 4.0 * k)
            and abs(obj_dense - expected_dense) <= 1e-12 * max(1.0, expected_dense)
        ),
    }

    return {
        "kind": "example1",
        "k": k,
        "p": p,
        "claims": claims,
        "all_match": all(c["matches_expected"] for c in claims.values()),
    }


# ---------------------------------------------------------------------------
# Monte Carlo experiments
# ---------------------------------------------------------------------------


def _sample_amplitudes(rng: np.random.Generator, size: int, model: str, nonnegative: bool) -> np.ndarray:
    if model == "standard_normal":
        amps = rng.normal(size=size)
        return np.abs(amps) if nonnegative else amps
    if nonnegative:
        # half moderate, half huge, all nonnegative
        spikes = rng.random(size) < 0.5
        amps = np.abs(rng.normal(size=size))
        amps[spikes] = rng.normal(loc=1000.0, scale=1.0, size=int(spikes.sum()))
        return np.abs(amps)
    # signed: half moderate, quarter +1000-ish, quarter -1000-ish
    amps = rng.normal(size=size)
    u = rng.random(size)
    up = u < 0.25
    down = (u >= 0.25) & (u < 0.5)
    amps[up] = rng.normal(loc=1000.0, scale=1.0, size=int(up.sum()))
    amps[down] = rng.normal(loc=-1000.0, scale=1.0, size=int(down.sum()))
    return amps


def _solve_for(inst: RecoveryInstance, irls: IrlsConfig):
    if inst.p == 1.0:
        return solve_l1(inst)
    if inst.p == 0.0:
        return solve_l0_exhaustive(inst)
    return solve_lp_irls(inst, irls)


def _phase_trial(spec: PhaseDiagramSpec, p: float, rho: float, pi: int, ri: int, trial: int, irls: IrlsConfig):
    seed = spec.seed.child(pi, ri, trial)
    rng = seed.generator()
    size = max(1, int(round(rho * spec.n)))
    support = rng.choice(spec.n, size=size, replace=False)
    x_true = np.zeros(spec.n)
    x_true[support] = _sample_amplitudes(rng, size, spec.amplitude_model, nonnegative=False)
    A = sample_gaussian_matrix(spec.m, spec.n, seed.child(1))
    record = {"trial": trial, "seed": seed.seed}
    try:
        inst = RecoveryInstance(A=A, y=A @ x_true, p=p, x_true=x_true)
        result = _solve_for(inst, irls)
        record["recovered"] = bool(result.recovered)
        record["objective"] = result.objective
        record["converged"] = result.converged
    except (SolverError, IllConditionedError) as exc:
        record["recovered"] = False
        record["error"] = str(exc)
    return record


def run_phase_transition(
    spec: PhaseDiagramSpec,
    irls: IrlsConfig = IrlsConfig(),
    workers: int | None = None,
) -> ExperimentReport:
    """Recovery success rate over a (p, rho) grid; deterministic per seed."""
    start = time.monotonic()
    workers = worker_count(workers)
    points = []
    for pi, p in enumerate(spec.p_list):
        for ri, rho in enumerate(spec.rho_grid):
            args = [(spec, p, rho, pi, ri, trial, irls) for trial in range(spec.trials_per_point)]
            records = _map_trials(_phase_trial, args, workers)
            successes = sum(1 for r in records if r.get("recovered"))
            points.append(
                {
                    "mode": "phase",
                    "p": p,
                    "rho": rho,
                    "sparsity": max(1, int(round(rho * spec.n))),
                    "success_rate": successes / spec.trials_per_point,
                    "trials": spec.trials_per_point,
                    "records": records,
                }
            )
    return ExperimentReport(
        kind="phase",
        spec=spec.to_dict(),
        points=points,
        wall_time=time.monotonic() - start,
    )


def _strong_vs_weak_point(n, m, p, rho, mode, mi, pi, ri, vectors, seed, irls):
    matrix_seed = seed.child(0 if mode == "strong" else 1, mi)
    A = sample_gaussian_matrix(m, n, matrix_seed)
    size = max(1, int(round(rho * n)))
    all_ok = True
    for v in range(vectors):
        rng = matrix_seed.child(pi, ri, v).generator()
        x_true = np.zeros(n)
        if mode == "weak":
            support = np.arange(size)
            x_true[support] = _sample_amplitudes(rng, size, "spike_mixture", nonnegative=True)
        else:
            support = rng.choice(n, size=size, replace=False)
            x_true[support] = _sample_amplitudes(rng, size, "spike_mixture", nonnegative=False)
        try:
            inst = RecoveryInstance(A=A, y=A @ x_true, p=p, x_true=x_true)
            result = _solve_for(inst, irls)
            ok = bool(result.recovered)
        except (SolverError, IllConditionedError):
            ok = False
        if not ok:
            all_ok = False
            break
    return {"matrix": mi, "all_recovered": all_ok}


def run_strong_vs_weak(
    n: int,
    m: int,
    p_list,
    rho_grid,
    matrices: int,
    vectors_per_point: int,
    seed: RngSeed,
    irls: IrlsConfig = IrlsConfig(),
    workers: int | None = None,
) -> ExperimentReport:
    """Strong- versus weak-recovery comparison on a shared matrix ensemble.

    Weak mode fixes the support to a prefix with nonnegative spike-mixture
    amplitudes; strong mode draws a fresh support and signed mixture per
    vector.  A (matrix, rho) point succeeds only if every sampled vector is
    recovered.
    """
    if not m < n:
        raise ValueError("need m < n")
    start = time.monotonic()
    workers = worker_count(workers)
    points = []
    for mode in ("weak", "strong"):
        for pi, p in enumerate(p_list):
            for ri, rho in enumerate(rho_grid):
                args = [
                    (n, m, p, rho, mode, mi, pi, ri, vectors_per_point, seed, irls)
                    for mi in range(matrices)
                ]
                records = _map_trials(_strong_vs_weak_point, args, workers)
                rate = sum(1 for r in records if r["all_recovered"]) / matrices
                points.append(
                    {
                        "mode": mode,
                        "p": p,
                        "rho": rho,
                        "success_rate": rate,
                        "trials": matrices,
                        "vectors_per_point": vectors_per_point,
                        "records": records,
                    }
                )
    return ExperimentReport(
        kind="strong_vs_weak",
        spec={
            "n": n,
            "m": m,
            "p_list": list(p_list),
            "rho_grid": list(rho_grid),
            "matrices": matrices,
            "vectors_per_point": vectors_per_point,
            "seed": seed.seed,
        },
        points=points,
        wall_time=time.monotonic() - start,
    )


def _probe_trial(n, codim, p, rho, ri, trial, budget, seed):
    trial_seed = seed.child(ri, trial)
    B = sample_gaussian_matrix(n, codim, trial_seed)
    size = max(1, int(round(rho * n)))
    pattern = SupportPattern.nonnegative(size)
    mode = "weak_l1" if p == 1.0 else ("weak_l0" if p == 0.0 else "weak_lp")
    trial_budget = SearchBudget(
        sphere_samples=budget.sphere_samples,
        refine_steps=budget.refine_steps,
        step_shrink=budget.step_shrink,
        seed=trial_seed.child(1),
    )
    verdict = certify(B, mode, p, pattern, trial_budget)
    return {"trial": trial, "seed": trial_seed.seed, "falsified": not verdict.holds, "witness": verdict.witness}


def run_weak_threshold_probe(
    n: int,
    codim: int,
    p: float,
    rho_list,
    trials: int,
    budget: SearchBudget = SearchBudget(),
    seed: RngSeed = RngSeed(0),
    workers: int | None = None,
) -> ExperimentReport:
    """Falsification frequency of the weak condition on random kernels.

    Below the 2/3 weak limit the condition should essentially always
    survive the search; above it a violation is typically found on the
    first few directions.
    """
    if codim > 12:
        raise ValueError("probe is meaningful only for small codimension (<= 12)")
    start = time.monotonic()
    workers = worker_count(workers)
    points = []
    for ri, rho in enumerate(rho_list):
        args = [(n, codim, p, rho, ri, trial, budget, seed) for trial in range(trials)]
        records = _map_trials(_probe_trial, args, workers)
        falsified = sum(1 for r in records if r["falsified"])
        points.append(
            {
                "mode": "weak_probe",
                "p": p,
                "rho": rho,
                "falsification_frequency": falsified / trials,
                "success_rate": 1.0 - falsified / trials,
                "trials": trials,
                "records": records,
            }
        )
    return ExperimentReport(
        kind="weak_probe",
        spec={
            "n": n,
            "codim": codim,
            "p": p,
            "rho_list": list(rho_list),
            "trials": trials,
            "seed": seed.seed,
            "budget": {
                "sphere_samples": budget.sphere_samples,
                "refine_steps": budget.refine_steps,
                "step_shrink": budget.step_shrink,
            },
        },
        points=points,
        wall_time=time.monotonic() - start,
    )


def _concentration_trial(n, p, rho, trial, seed, mu):
    rng = seed.child(trial).generator()
    x = rng.normal(size=n)
    powers = np.abs(x) ** p
    top = max(1, int(np.ceil(rho * n)))
    part = np.partition(powers, n - top)
    s_rho = float(part[n - top :].sum())
    s_one = float(powers.sum())
    size = top
    mismatch = float(powers[:size][x[:size] < 0].sum())  # nonnegative pattern on a prefix support
    comp = float(powers[size:].sum())
    # a full support leaves no complement; its bracket is vacuously centered
    comp_mean = comp / ((n - size) * mu) if size < n else 1.0
    return {
        "trial": trial,
        "ratio": s_rho / s_one,
        "mismatch_mean": mismatch / (0.5 * size * mu),
        "complement_mean": comp_mean,
    }


def run_concentration_check(
    n: int,
    p: float,
    rho: float,
    trials: int,
    seed: RngSeed = RngSeed(0),
    band: float = 0.02,
    bracket_eps_factor: float = 0.03,
    workers: int | None = None,
) -> ExperimentReport:
    """Concentration of the top-fraction sum and of the pattern sub-sums.

    Reports how often the top-``rho`` share of the total lies within
    ``band`` of one half (meaningful when rho is the strong limit), and how
    often the sign-mismatch and complement sums stay inside a relative
    ``bracket_eps_factor`` envelope of their means.
    """
    if n < 1000:
        raise ValueError("concentration check needs n >= 1000")
    start = time.monotonic()
    workers = worker_count(workers)
    mu = abs_moment(p)
    args = [(n, p, rho, trial, seed, mu) for trial in range(trials)]
    records = _map_trials(_concentration_trial, args, workers)
    ratios = np.array([r["ratio"] for r in records])
    mismatch = np.array([r["mismatch_mean"] for r in records])
    comp = np.array([r["complement_mean"] for r in records])
    lo, hi = 1.0 - bracket_eps_factor, 1.0 + bracket_eps_factor
    point = {
        "mode": "concentration",
        "p": p,
        "rho": rho,
        "trials": trials,
        "ratio_half_band": band,
        "ratio_in_band": float(np.mean((ratios >= 0.5 - band) & (ratios <= 0.5 + band))),
        "mismatch_in_bracket": float(np.mean((mismatch > lo) & (mismatch < hi))),
        "complement_in_bracket": float(np.mean((comp > lo) & (comp < hi))),
        "ratio_quantiles": {
            "q05": float(np.quantile(ratios, 0.05)),
            "q50": float(np.quantile(ratios, 0.50)),
            "q95": float(np.quantile(ratios, 0.95)),
        },
        "success_rate": float(np.mean((ratios >= 0.5 - band) & (ratios <= 0.5 + band))),
        "records": records,
    }
    return ExperimentReport(
        kind="concentration",
        spec={"n": n, "p": p, "rho": rho, "trials": trials, "seed": seed.seed, "band": band,
              "bracket_eps_factor": bracket_eps_factor},
        points=[point],
        wall_time=time.monotonic() - start,
    )
