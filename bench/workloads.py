"""The benchmark's workloads: inputs from a seed, operations, checks.

A workload turns ``--seed`` into a list of timed operations, each a call
into the package's public entry points.  One round runs every timed
operation once and times each call on its own; ``run.py`` repeats rounds
and keeps, per operation, its fastest call.  Each timed operation takes
about 1 to 50 ms: on a shared host other tenants slow the program in
bursts, so a call that short often runs in a quiet gap and its fastest
call is steady from run to run, while a call of a second or more never
is (see README.md).

The bound workloads also make ``certified`` operations: whole bounds, run
once per run after the timed rounds and outside the timed span.  Their
certificates are re-checked and their rho is ``rho_certified``.

* ``strong_bound``  upper-family tilt solves at p = 1 and p = 0.5, at
  coefficients a strong bound at alpha = 0.99 visits, plus the limiting
  thresholds at both p; certified: strong bounds at (0.99, 1) and
  (0.99, 0.5) on a 6 gamma x 3 eps grid.
* ``weak_bound``    sign-mismatch (indicator) and upper tilt solves at
  p = 0.3, at coefficients a weak bound at alpha = 0.9 visits; certified:
  the weak bound at (0.9, 0.3) on a 3 gamma x 2 eps grid.
* ``weak_probe``    weak-threshold probe trials on n = 600, codim = 6
  kernels: the conditions layer without quadrature, the whole (small)
  search budget where the condition survives and an early exit where it
  is falsified.
* ``recovery``      l1 solves of 50 x 100 Gaussian instances made here,
  across the l1 transition, and IRLS (p = 0.5) solves of those below it:
  only the solvers and linalg layers.

Only ``recovery`` draws its inputs from ``--seed``; the other workloads have
fixed inputs and ignore it.
"""

from __future__ import annotations

import resource
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lprecovery import bounds, experiments, limits, linalg, solvers
from lprecovery.conditions import SearchBudget

import checks

STRONG_ALPHA = 0.99
# Coefficients a of the upper-family tilt solves, per p: spread over the
# range a strong bound at alpha = 0.99 visits on the 6 x 3 grid (its
# lambda_max stage just above the mean, its rho stage further up).
STRONG_TILTS = {
    1.0: (0.9, 1.0, 1.1, 1.4, 2.0, 3.5, 4.1, 6.4),
    0.5: (0.85, 0.95, 1.0, 1.5, 1.7, 1.8, 2.5, 3.3),
}
LIMIT_PS = (1.0, 0.5)
# The default 60 x 20 grid takes ~15 s per bound; 6 x 3 takes ~1 s.
STRONG_GRID = (6, 3)

WEAK_CASE = (0.9, 0.3)
# Coefficients of the tilt solves a weak bound at (0.9, 0.3) visits: the
# lambda-tilde stage (indicator family) and the lambda(alpha') stages (upper).
WEAK_INDICATOR_TILTS = (0.85, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8, 2.0)
WEAK_UPPER_TILTS = (1.1, 1.2, 1.25, 1.45, 1.75)

PROBE_N, PROBE_CODIM = 600, 6
# A small search budget keeps a surviving trial near 25 ms.
PROBE_BUDGET = SearchBudget(sphere_samples=4, refine_steps=2)
# Master seeds of acceptance criterion 8 and the next one; the kernels do
# not follow --seed.  With one trial per setting and seed the frequency
# checks need every verdict, and one unlucky kernel at n = 600 would be a
# statistical miss, not a fault.
PROBE_SEEDS = (600, 601)
PROBE_LP_RHOS = (0.5, 0.8)  # p = 0.5: below and above the 2/3 weak threshold
PROBE_L1_RHO = 0.8  # p = 1: below its weak threshold of 1

RECOVERY_N, RECOVERY_M, RECOVERY_P = 100, 50, 0.5
RECOVERY_SPARSITIES = (5, 12, 28)  # the l1 weak threshold sits near k = 19
# IRLS runs below the l1 threshold only: above it, its iteration count on
# four random instances varies by 0.3 (interquartile over median) between
# seeds, so the work would follow --seed more than the bound allows.
RECOVERY_IRLS_SPARSITIES = (5, 12)
RECOVERY_INSTANCES = 6


@dataclass(frozen=True)
class Operation:
    """One call into the package."""

    label: str
    call: Callable[[], object]


@dataclass(frozen=True)
class Failed:
    """Output slot of an operation that raised."""

    label: str
    error: str


def _no_check(outputs) -> None:
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    make_operations: Callable[[int], tuple]  # seed -> (inputs, timed operations)
    check: Callable[[object, list], None]  # (inputs, timed outputs); raises CheckFailed
    rho_certified: Callable[[list, list], float]  # (timed outputs, certified outputs)
    exercised: tuple  # per-layer metrics that must be nonzero in a traced run
    certified: Callable[[], list] = list  # whole bounds, run once per run, untimed
    check_certified: Callable[[list], None] = _no_check


def _cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def call(op: Operation):
    try:
        return op.call()
    except Exception as exc:  # a failed operation is counted, the run goes on
        traceback.print_exc()
        return Failed(op.label, repr(exc))


def run_round(operations):
    """Run every operation once -> (wall_s per operation, cpu_s per operation, outputs)."""
    walls, cpus, outputs = [], [], []
    clock = time.perf_counter
    for op in operations:
        cpu0 = _cpu_s()
        start = clock()
        outputs.append(call(op))
        walls.append(clock() - start)
        cpus.append(_cpu_s() - cpu0)
    return walls, cpus, outputs


def run_rounds(operations, seconds: float, count: int | None = None):
    """Rounds until ``seconds`` have passed (at least one), or exactly ``count`` rounds."""
    rounds = []
    start = time.perf_counter()
    while not rounds or (len(rounds) < count if count else time.perf_counter() - start < seconds):
        rounds.append(run_round(operations))
    return rounds


def fastest(rounds, column: int) -> float:
    """Sum over operations of each one's fastest call; column 0 is wall time, 1 is CPU."""
    return sum(min(values) for values in zip(*(r[column] for r in rounds)))


def _ok(outputs):
    return [out for out in outputs if not isinstance(out, Failed)]


# The lambdas look functions up on their module at call time, so a traced
# round reaches the wrappers the tracer installs there.


def _tilt(family: str, a: float, p: float, cfg) -> Operation:
    """A tilt solve whose output keeps its arguments, so the check needs nothing else."""
    name = f"chernoff_{family}_exponent"
    return Operation(f"{name}({a}, {p})", lambda: (family, a, p, getattr(bounds, name)(a, p, cfg)))


def _tilt_check(inputs, outputs) -> None:
    for out in _ok(outputs):
        if isinstance(out, limits.LimitThreshold):
            checks.check_limit(out)
        else:
            checks.check_tilt(*out)


def _bound_rho_sum(outputs, certified) -> float:
    return sum(out.rho_bound for out in _ok(certified))


def strong_search_config(alpha: float) -> bounds.ExponentSearchConfig:
    gamma_points, epsilon_points = STRONG_GRID
    return bounds.ExponentSearchConfig.default(alpha, gamma_points=gamma_points, epsilon_points=epsilon_points)


def _strong_operations(seed: int):
    cfg = strong_search_config(STRONG_ALPHA)
    ops = [_tilt("upper", a, p, cfg) for p, tilts in STRONG_TILTS.items() for a in tilts]
    ops += [
        Operation(f"strong_limit_threshold({p})", lambda p=p: limits.strong_limit_threshold(p)) for p in LIMIT_PS
    ]
    return None, ops


def _strong_certified():
    cfg = strong_search_config(STRONG_ALPHA)
    return [
        Operation(f"strong_bound({STRONG_ALPHA}, {p})", lambda p=p: bounds.strong_bound(STRONG_ALPHA, p, cfg))
        for p in STRONG_TILTS
    ]


def _strong_certified_check(outputs) -> None:
    for out in _ok(outputs):
        checks.check_strong_bound(out)


def weak_search_config(alpha: float) -> bounds.ExponentSearchConfig:
    """3 gamma x 2 eps, t_tol 1e-9, a_tol 3e-2: ~2 s, where acceptance
    criterion 7's 12 x 6 grid with a_tol 1e-3 takes ~20 s."""
    base = bounds.ExponentSearchConfig.default(alpha, gamma_points=3, epsilon_points=2)
    return bounds.ExponentSearchConfig(
        gamma_grid=base.gamma_grid,
        epsilon_grid=base.epsilon_grid,
        t_tol=1e-9,
        a_tol=3e-2,
        rho_grid_resolution=16,
    )


def _weak_operations(seed: int):
    alpha, p = WEAK_CASE
    cfg = weak_search_config(alpha)
    ops = [_tilt("indicator", a, p, cfg) for a in WEAK_INDICATOR_TILTS]
    ops += [_tilt("upper", a, p, cfg) for a in WEAK_UPPER_TILTS]
    return None, ops


def _weak_certified():
    alpha, p = WEAK_CASE
    cfg = weak_search_config(alpha)
    return [Operation(f"weak_bound({alpha}, {p})", lambda: bounds.weak_bound(alpha, p, cfg))]


def _weak_certified_check(outputs) -> None:
    for out in _ok(outputs):
        checks.check_weak_bound(out)


def _probe(p: float, rho: float, seed: int) -> Operation:
    return Operation(
        f"run_weak_threshold_probe(p={p}, rho={rho}, seed={seed})",
        lambda: experiments.run_weak_threshold_probe(
            n=PROBE_N, codim=PROBE_CODIM, p=p, rho_list=(rho,), trials=1, budget=PROBE_BUDGET,
            seed=linalg.RngSeed(seed),
        ),
    )


def _probe_operations(seed: int):
    ops = []
    for master in PROBE_SEEDS:
        ops += [_probe(0.5, rho, master) for rho in PROBE_LP_RHOS]
        ops.append(_probe(1.0, PROBE_L1_RHO, master))
    return None, ops


def _probe_check(inputs, outputs) -> None:
    for report in _ok(outputs):
        (point,) = report.points
        if point["p"] == 1.0:
            size = max(1, int(round(point["rho"] * PROBE_N)))
            for record in point["records"]:
                B = linalg.sample_gaussian_matrix(PROBE_N, PROBE_CODIM, linalg.RngSeed(record["seed"]))
                checks.check_weak_l1_verdict(B, size, holds=not record["falsified"])
        elif point["rho"] < 2.0 / 3.0:
            checks.check_falsification_frequency(point, at_most=0.1)
        else:
            checks.check_falsification_frequency(point, at_least=0.9)


def _probe_rho_sum(outputs, certified) -> float:
    """Sum of the probed rho at which no trial was falsified."""
    return sum(
        point["rho"] for report in _ok(outputs) for point in report.points if point["falsification_frequency"] == 0.0
    )


def make_recovery_instances(seed: int, sparsities=RECOVERY_SPARSITIES, instances=RECOVERY_INSTANCES):
    """Gaussian A (m x n) and k-sparse x with standard normal amplitudes, drawn here, not by the package."""
    rng = np.random.default_rng(seed)
    out = []
    for k in sparsities:
        for _ in range(instances):
            A = rng.standard_normal((RECOVERY_M, RECOVERY_N))
            x = np.zeros(RECOVERY_N)
            x[rng.choice(RECOVERY_N, size=k, replace=False)] = rng.standard_normal(k)
            out.append((k, solvers.RecoveryInstance(A=A, y=A @ x, p=RECOVERY_P, x_true=x)))
    return out


def _recovery_operations(seed: int):
    """-> ([(solver, k, instance)] in the order of the operations, operations)."""
    inputs, ops = [], []
    for k, inst in make_recovery_instances(seed):
        inputs.append(("l1", k, inst))
        ops.append(Operation(f"solve_l1(k={k})", lambda inst=inst: solvers.solve_l1(inst)))
        if k in RECOVERY_IRLS_SPARSITIES:
            inputs.append(("irls", k, inst))
            ops.append(Operation(f"solve_lp_irls(k={k})", lambda inst=inst: solvers.solve_lp_irls(inst)))
    return inputs, ops


def _recovery_check(inputs, outputs) -> None:
    successes = {"l1": {}, "irls": {}}
    for (name, k, inst), out in zip(inputs, outputs):
        if isinstance(out, Failed):
            continue
        checks.check_solution(inst.A, inst.y, out.x_hat, f"{name} at k={k}")
        successes[name].setdefault(k, []).append(checks.recovered(out.x_hat, inst.x_true))
        if name == "l1":
            checks.check_l1_optimality(out.x_hat, inst.x_true, f"l1 at k={k}")
    for name, by_k in successes.items():
        rates = [sum(by_k[k]) / len(by_k[k]) for k in sorted(by_k)]
        if rates:
            checks.check_recovery_rates(rates, RECOVERY_INSTANCES, name)


def _recovery_rho(outputs, certified) -> float:
    """Sum over the two solvers of the sparsity ratio k/n at which the check requires full recovery."""
    return 2.0 * min(RECOVERY_SPARSITIES) / RECOVERY_N


_TILT_LAYERS = ("quadrature.calls", "quadrature.points", "gaussian.mgf_calls", "gaussian.ratio_calls")

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "strong_bound", _strong_operations, _tilt_check, _bound_rho_sum,
            _TILT_LAYERS + ("bounds.upper_tilt_solves", "limits.calls"),
            certified=_strong_certified, check_certified=_strong_certified_check,
        ),
        Workload(
            "weak_bound", _weak_operations, _tilt_check, _bound_rho_sum,
            _TILT_LAYERS + ("bounds.upper_tilt_solves", "bounds.indicator_tilt_solves"),
            certified=_weak_certified, check_certified=_weak_certified_check,
        ),
        Workload(
            "weak_probe", _probe_operations, _probe_check, _probe_rho_sum,
            ("conditions.certify_calls", "conditions.evals", "conditions.falsified", "linalg.matrix_samples",
             "experiments.trials"),
        ),
        Workload(
            "recovery", _recovery_operations, _recovery_check, _recovery_rho,
            ("solvers.l1_solves", "solvers.irls_solves", "solvers.irls_iters", "linalg.weighted_solves"),
        ),
    )
}
