"""Command-line front end.

Exit codes: 0 success, 1 usage/input error, 2 numerical or infeasibility
error.  Every run logs its fully resolved configuration to stderr; the
primary artifact (stdout or ``--output``) is byte-identical across runs
with the same arguments and seed.
"""

from __future__ import annotations

import csv
import json
import logging
import sys
from pathlib import Path

import click

from . import bounds, conditions, experiments, limits, solvers
from .linalg import (
    IllConditionedError,
    MatrixFormatError,
    RankDeficientError,
    RngSeed,
    null_space_basis,
    read_matrix_csv,
    write_vector_csv,
)
from .quadrature import QuadratureError

log = logging.getLogger("lprecovery")

_USAGE_ERRORS = (MatrixFormatError, json.JSONDecodeError)
_NUMERICAL_ERRORS = (
    QuadratureError,
    bounds.BoundSearchError,
    solvers.SolverError,
    IllConditionedError,
    RankDeficientError,
)


def _emit(payload: dict, output: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if output:
            Path(output).write_text(text)
        click.echo(text, nl=False)
        return
    rows = payload.get("points")
    if rows is None:
        rows = [{k: v for k, v in payload.items() if isinstance(v, (int, float, str, bool))}]
    columns = sorted({key for row in rows for key in row if isinstance(row.get(key), (int, float, str, bool))})
    target = open(output, "w", newline="") if output else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(col, "") for col in columns])
    finally:
        if output:
            target.close()


def _log_config(command: str, **params) -> None:
    log.info("%s %s", command, json.dumps(params, sort_keys=True, default=str))


_output_option = click.option("--output", type=click.Path(dir_okay=False), help="Write the result to this file as well as stdout.")
_format_option = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True, help="Output format.")


@click.group()
def cli() -> None:
    """Sparse-recovery thresholds, solvers, and null-space certification."""


@cli.group()
def threshold() -> None:
    """Recovery-threshold computations."""


@threshold.command("strong-limit")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in (0, 1]; 0 reports the limiting value 0.5.")
@_output_option
@_format_option
def strong_limit(p: float, output, fmt) -> None:
    """Strong recovery threshold in the nearly-square limit."""
    _log_config("threshold strong-limit", p=p, output=output, format=fmt)
    if p == 0.0:
        # excluded from the solver's domain; the limiting value is 1/2
        payload = {"command": "strong-limit", "p": p, "value": 0.5, "note": "limit value as p -> 0"}
    else:
        result = limits.strong_limit_threshold(p)
        payload = {
            "command": "strong-limit",
            "p": p,
            "value": result.rho_star,
            "z_star": result.z_star,
            "derivative": result.derivative,
            "residual": result.residual,
        }
    _emit(payload, output, fmt)


@threshold.command("weak-limit")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in [0, 1].")
@_output_option
@_format_option
def weak_limit(p: float, output, fmt) -> None:
    """Weak (fixed support and signs) recovery threshold in the limit."""
    _log_config("threshold weak-limit", p=p, output=output, format=fmt)
    _emit({"command": "weak-limit", "p": p, "value": limits.weak_limit_threshold(p)}, output, fmt)


@threshold.command("sectional-limit")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in [0, 1].")
@_output_option
@_format_option
def sectional_limit(p: float, output, fmt) -> None:
    """Sectional (fixed support, any signs) recovery threshold in the limit."""
    _log_config("threshold sectional-limit", p=p, output=output, format=fmt)
    _emit({"command": "sectional-limit", "p": p, "value": limits.sectional_limit_threshold(p)}, output, fmt)


def _search_config(alpha: float, gamma_points: int, epsilon_points: int, a_tol: float) -> bounds.ExponentSearchConfig:
    base = bounds.ExponentSearchConfig.default(alpha, gamma_points=gamma_points, epsilon_points=epsilon_points)
    if a_tol == base.a_tol:
        return base
    return bounds.ExponentSearchConfig(
        gamma_grid=base.gamma_grid,
        epsilon_grid=base.epsilon_grid,
        t_max=base.t_max,
        t_tol=base.t_tol,
        a_tol=a_tol,
        rho_grid_resolution=base.rho_grid_resolution,
    )


@threshold.command("strong-bound")
@click.option("--alpha", type=float, required=True, help="Undersampling ratio m/n in (0, 1).")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in (0, 1].")
@click.option("--gamma-points", type=int, default=60, show_default=True, help="Size of the net-radius grid.")
@click.option("--epsilon-points", type=int, default=20, show_default=True, help="Size of the feasibility-slack grid.")
@click.option("--a-tol", type=float, default=1e-6, show_default=True, help="Bisection tolerance.")
@_output_option
@_format_option
def strong_bound_cmd(alpha, p, gamma_points, epsilon_points, a_tol, output, fmt) -> None:
    """Certified strong-recovery sparsity bound at a fixed undersampling ratio."""
    _log_config(
        "threshold strong-bound",
        alpha=alpha, p=p, gamma_points=gamma_points, epsilon_points=epsilon_points, a_tol=a_tol,
        output=output, format=fmt,
    )
    cfg = _search_config(alpha, gamma_points, epsilon_points, a_tol)
    result = bounds.strong_bound(alpha, p, cfg)
    payload = {"command": "strong-bound", "value": result.rho_bound}
    payload.update(result.to_record(cfg))
    _emit(payload, output, fmt)


@threshold.command("weak-bound")
@click.option("--alpha", type=float, required=True, help="Undersampling ratio m/n in (0, 1).")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in (0, 1].")
@click.option("--gamma-points", type=int, default=60, show_default=True, help="Size of the net-radius grid.")
@click.option("--epsilon-points", type=int, default=20, show_default=True, help="Size of the feasibility-slack grid.")
@click.option("--a-tol", type=float, default=1e-6, show_default=True, help="Bisection tolerance.")
@_output_option
@_format_option
def weak_bound_cmd(alpha, p, gamma_points, epsilon_points, a_tol, output, fmt) -> None:
    """Certified weak-recovery sparsity bound at a fixed undersampling ratio."""
    _log_config(
        "threshold weak-bound",
        alpha=alpha, p=p, gamma_points=gamma_points, epsilon_points=epsilon_points, a_tol=a_tol,
        output=output, format=fmt,
    )
    cfg = _search_config(alpha, gamma_points, epsilon_points, a_tol)
    result = bounds.weak_bound(alpha, p, cfg)
    payload = {"command": "weak-bound", "value": result.rho_bound}
    payload.update(result.to_record(cfg))
    _emit(payload, output, fmt)


@cli.command("solve")
@click.option("--instance", type=click.Path(exists=True, dir_okay=False), required=True,
              help="JSON job file referencing matrix/vector CSV paths.")
@click.option("--method", type=click.Choice(["l0", "l1", "lp"]), required=True)
@click.option("--max-support", type=int, default=None, help="Support budget for the exhaustive method.")
@click.option("--x-out", type=click.Path(dir_okay=False), help="Write the solution vector to this CSV.")
@_output_option
@_format_option
def solve_cmd(instance, method, max_support, x_out, output, fmt) -> None:
    """Solve one recovery instance."""
    _log_config("solve", instance=instance, method=method, max_support=max_support, output=output, format=fmt)
    inst = solvers.load_instance(instance)
    if method == "l1":
        result = solvers.solve_l1(inst)
    elif method == "lp":
        result = solvers.solve_lp_irls(inst)
    else:
        result = solvers.solve_l0_exhaustive(inst, max_support)
    payload = {"command": "solve", "method": method, "p": inst.p}
    payload.update(solvers.result_to_dict(result))
    if x_out:
        write_vector_csv(x_out, result.x_hat)
        payload["x_out"] = x_out
    _emit(payload, output, fmt)


def _load_pattern(path) -> conditions.SupportPattern:
    with open(path) as fh:
        raw = json.load(fh)
    support = tuple(int(i) - 1 for i in raw["support"])  # file uses 1-based indices
    signs = tuple(int(s) for s in raw["signs"])
    return conditions.SupportPattern(support=support, signs=signs)


@cli.command("certify")
@click.option("--matrix", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV holding the kernel basis (or the measurement matrix with --measurement).")
@click.option("--measurement", is_flag=True, help="Treat --matrix as the measurement matrix and derive its kernel.")
@click.option("--mode", type=click.Choice(list(conditions.MODES)), required=True)
@click.option("--p", type=float, required=True, help="Quasinorm exponent in [0, 1].")
@click.option("--rho", type=float, default=None, help="Sparsity fraction (strong mode and prefix-support weak modes).")
@click.option("--pattern", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file with 1-based support indices and signs (weak modes).")
@click.option("--support", default=None, help="Comma-separated 1-based support indices (sectional mode).")
@click.option("--samples", type=int, default=256, show_default=True, help="Sphere directions searched before refinement.")
@click.option("--refine-steps", type=int, default=120, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--witness-out", type=click.Path(dir_okay=False), help="Write a falsifying direction to this CSV.")
@_output_option
@_format_option
def certify_cmd(matrix, measurement, mode, p, rho, pattern, support, samples, refine_steps, seed, witness_out, output, fmt) -> None:
    """Certify or falsify a null-space recovery condition on a concrete matrix."""
    _log_config(
        "certify",
        matrix=matrix, measurement=measurement, mode=mode, p=p, rho=rho, pattern=pattern,
        support=support, samples=samples, refine_steps=refine_steps, seed=seed,
        output=output, format=fmt,
    )
    M = read_matrix_csv(matrix)
    B = null_space_basis(M) if measurement else M
    n = B.shape[0] if B.ndim == 2 else B.size
    if mode == "strong":
        if rho is None:
            raise click.UsageError("strong mode needs --rho")
        spec = int(round(rho * n))
    elif mode == "sectional":
        if support is None:
            raise click.UsageError("sectional mode needs --support")
        spec = tuple(int(tok) - 1 for tok in support.split(","))
    else:
        if pattern is not None:
            spec = _load_pattern(pattern)
        elif rho is not None:
            spec = conditions.SupportPattern.nonnegative(max(1, int(round(rho * n))))
        else:
            raise click.UsageError("weak modes need --pattern or --rho")
    budget = conditions.SearchBudget(
        sphere_samples=samples, refine_steps=refine_steps, seed=RngSeed(seed)
    )
    verdict = conditions.certify(B, mode, p, spec, budget)
    payload = {
        "command": "certify",
        "mode": verdict.mode,
        "p": p,
        "holds": verdict.holds,
        "certificate_exact": verdict.certificate_exact,
        "witness": verdict.witness,
        "detail": verdict.detail,
    }
    if witness_out and verdict.witness is not None:
        write_vector_csv(witness_out, verdict.witness["z"])
        payload["witness_csv"] = witness_out
    _emit(payload, output, fmt)


@cli.command("experiment")
@click.argument("kind", type=click.Choice(["example1", "phase", "strong-vs-weak", "weak-probe", "concentration"]))
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="JSON file with the experiment parameters.")
@click.option("--workers", type=int, default=None, help="Worker threads (default: LP_RECOVERY_THREADS or 1).")
@click.option("--csv-out", type=click.Path(dir_okay=False), help="Write the grid summary CSV here.")
@_output_option
@_format_option
def experiment_cmd(kind, spec_path, workers, csv_out, output, fmt) -> None:
    """Run a seeded experiment described by a JSON spec file."""
    with open(spec_path) as fh:
        raw = json.load(fh)
    _log_config("experiment", kind=kind, spec=raw, workers=workers, output=output, format=fmt)
    if kind == "example1":
        payload = experiments.run_example1(int(raw["k"]), float(raw.get("p", 0.5)))
        _emit(payload, output, fmt)
        return
    if kind == "phase":
        spec = experiments.PhaseDiagramSpec(
            n=int(raw["n"]),
            m=int(raw["m"]),
            p_list=tuple(raw["p_list"]),
            rho_grid=tuple(raw["rho_grid"]),
            trials_per_point=int(raw["trials_per_point"]),
            amplitude_model=raw.get("amplitude_model", "standard_normal"),
            seed=RngSeed(int(raw.get("seed", 0))),
        )
        report = experiments.run_phase_transition(spec, workers=workers)
    elif kind == "strong-vs-weak":
        report = experiments.run_strong_vs_weak(
            n=int(raw["n"]),
            m=int(raw["m"]),
            p_list=tuple(raw["p_list"]),
            rho_grid=tuple(raw["rho_grid"]),
            matrices=int(raw["matrices"]),
            vectors_per_point=int(raw["vectors_per_point"]),
            seed=RngSeed(int(raw.get("seed", 0))),
            workers=workers,
        )
    elif kind == "weak-probe":
        budget_raw = raw.get("budget", {})
        if "seed" in budget_raw:
            raise click.BadParameter(
                "budget.seed has no effect: every trial's search seed derives from the "
                "top-level seed; set that instead",
                param_hint="'--spec'",
            )
        budget = conditions.SearchBudget(
            sphere_samples=int(budget_raw.get("sphere_samples", 256)),
            refine_steps=int(budget_raw.get("refine_steps", 120)),
            step_shrink=float(budget_raw.get("step_shrink", 0.5)),
        )
        report = experiments.run_weak_threshold_probe(
            n=int(raw["n"]),
            codim=int(raw["codim"]),
            p=float(raw["p"]),
            rho_list=tuple(raw["rho_list"]),
            trials=int(raw["trials"]),
            budget=budget,
            seed=RngSeed(int(raw.get("seed", 0))),
            workers=workers,
        )
    else:
        report = experiments.run_concentration_check(
            n=int(raw["n"]),
            p=float(raw["p"]),
            rho=float(raw["rho"]),
            trials=int(raw["trials"]),
            seed=RngSeed(int(raw.get("seed", 0))),
            workers=workers,
        )
    log.info("experiment finished in %.2fs", report.wall_time)
    if csv_out:
        experiments.report_to_csv(report, csv_out)
    _emit(report.to_dict(), output, fmt)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except _USAGE_ERRORS as exc:
        click.echo(f"input error: {exc}", err=True)
        return 1
    except _NUMERICAL_ERRORS as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return 2
    except ValueError as exc:
        click.echo(f"invalid parameter: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
