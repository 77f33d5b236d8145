"""Command-line front end.

Exit codes: 0 success, 1 usage/input error, 2 numerical or infeasibility
error.  Every command is a ``_LoggedCommand``: it logs its path and all of its
options to stderr in one line before it runs, and its wall time after.  The
artifact is indented, key-sorted JSON on stdout (and in ``--output``),
byte-identical across runs with the same arguments and seed; the grid
experiments can also write a summary CSV (``--csv-out``).

Every JSON input (a solve job, a support pattern, an experiment spec) is one
object holding its kind's required keys and any of its optional ones.  Each
value goes through the one converter ``_KEYS`` gives its key, so a key means
the same in every file.  A file that is not an object, lacks a key, has an
unknown key or holds a value of the wrong type exits 1 with a message naming
the option and the key; so does an input file that cannot be read.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import sys
import time
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
    read_vector_csv,
    write_vector_csv,
)
from .quadrature import QuadratureError

log = logging.getLogger("lprecovery")

_USAGE_ERRORS = (MatrixFormatError, json.JSONDecodeError, OSError)
_NUMERICAL_ERRORS = (
    QuadratureError,
    bounds.BoundSearchError,
    solvers.SolverError,
    IllConditionedError,
    RankDeficientError,
)


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        Path(output).write_text(text)
    click.echo(text, nl=False)


_GRID_COLUMNS = ("mode", "p", "rho", "success_rate", "trials")


def _write_grid_csv(report: experiments.ExperimentReport, path) -> None:
    """The grid summary: one row per point under the header ``mode,p,rho,success_rate,trials``."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, _GRID_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(report.points)


class _LoggedCommand(click.Command):
    """A command that logs its path and every parameter before it runs, and its wall time after."""

    def invoke(self, ctx: click.Context):
        log.info("%s %s", ctx.command_path, json.dumps(ctx.params, sort_keys=True, default=str))
        start = time.monotonic()
        result = super().invoke(ctx)
        log.info("%s finished in %.2fs", ctx.command_path, time.monotonic() - start)
        return result


class _LoggedGroup(click.Group):
    """A group whose commands, and its subgroups' commands, are all ``_LoggedCommand``."""

    command_class = _LoggedCommand
    group_class = type


class _BadValue(ValueError):
    """A JSON value of the wrong type, named by option and key."""


def _checked(raw, required, optional, option: str, prefix: str = "") -> dict:
    """``raw``'s values converted by ``_KEYS``, once ``raw`` is an object with only the keys allowed."""
    hint = f"'--{option}'"
    if not isinstance(raw, dict):
        what = prefix.rstrip(".") or f"the {option}"
        raise click.BadParameter(f"{what} must be a JSON object, got {type(raw).__name__}", param_hint=hint)
    missing = [key for key in required if key not in raw]
    if missing:
        raise click.BadParameter(f"missing key {prefix + missing[0]!r}", param_hint=hint)
    unknown = sorted(set(raw) - set(required) - set(optional))
    if unknown:
        expected = ", ".join(prefix + key for key in required + optional)
        raise click.BadParameter(f"unknown key {prefix + unknown[0]!r}; expected {expected}", param_hint=hint)
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _KEYS[key](value)
        except _BadValue:
            raise
        except (TypeError, ValueError) as exc:
            raise _BadValue(f"{option} key {prefix + key!r}: {exc}") from None
    return values


# numbers are checked, never coerced: int() would read 2.7 as 2, "20" as 20 and true as 1
def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _list(value, entry) -> tuple:
    """``value`` as given, once it is a list whose every item ``entry`` accepts."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    for item in value:
        entry(item)
    return tuple(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _budget(value) -> conditions.SearchBudget:
    if isinstance(value, dict) and "seed" in value:
        raise click.BadParameter(
            "budget.seed has no effect: every trial's search seed derives from the "
            "top-level seed; set that instead",
            param_hint="'--spec'",
        )
    return conditions.SearchBudget(**_checked(value, (), ("sphere_samples", "refine_steps"), "spec", "budget."))


# the conversion of each JSON key's value, the same in every file
_KEYS = {
    **dict.fromkeys(("k", "n", "m", "codim", "trials", "trials_per_point", "matrices", "vectors_per_point"), _integer),
    **dict.fromkeys(("sphere_samples", "refine_steps"), _integer),
    **dict.fromkeys(("p", "rho"), _number),
    **dict.fromkeys(("p_list", "rho_grid", "rho_list"), lambda value: _list(value, _number)),
    "seed": lambda value: RngSeed(_integer(value)),
    "amplitude_model": _text,
    "budget": _budget,
    "support": lambda value: tuple(i - 1 for i in _list(value, _integer)),  # files use 1-based indices
    "signs": lambda value: _list(value, _integer),
    "matrix": _text,
    "y": _text,
    "x_true": lambda value: None if value is None else _text(value),
}


_output_option = click.option("--output", type=click.Path(dir_okay=False), help="Write the result to this file as well as stdout.")


@click.group(cls=_LoggedGroup)
def cli() -> None:
    """Sparse-recovery thresholds, solvers, and null-space certification."""


@cli.group()
def threshold() -> None:
    """Recovery-threshold computations."""


@threshold.command("strong-limit")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in (0, 1]; 0 reports the limiting value 0.5.")
@_output_option
def strong_limit(p: float, output) -> None:
    """Strong recovery threshold in the nearly-square limit."""
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
    _emit(payload, output)


@threshold.command("weak-limit")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in [0, 1].")
@_output_option
def weak_limit(p: float, output) -> None:
    """Weak (fixed support and signs) recovery threshold in the limit."""
    _emit({"command": "weak-limit", "p": p, "value": limits.weak_limit_threshold(p)}, output)


@threshold.command("sectional-limit")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in [0, 1].")
@_output_option
def sectional_limit(p: float, output) -> None:
    """Sectional (fixed support, any signs) recovery threshold in the limit."""
    _emit({"command": "sectional-limit", "p": p, "value": limits.sectional_limit_threshold(p)}, output)


@threshold.command("strong-bound")
@click.option("--alpha", type=float, required=True, help="Undersampling ratio m/n in (0, 1).")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in (0, 1].")
@click.option("--gamma-points", type=int, default=60, show_default=True, help="Size of the net-radius grid.")
@click.option("--epsilon-points", type=int, default=20, show_default=True, help="Size of the feasibility-slack grid.")
@_output_option
def strong_bound_cmd(alpha, p, gamma_points, epsilon_points, output) -> None:
    """Certified strong-recovery sparsity bound at a fixed undersampling ratio."""
    cfg = bounds.ExponentSearchConfig.default(alpha, gamma_points=gamma_points, epsilon_points=epsilon_points)
    result = bounds.strong_bound(alpha, p, cfg)
    payload = {"command": "strong-bound", "value": result.rho_bound}
    payload.update(result.to_record(cfg))
    _emit(payload, output)


@threshold.command("weak-bound")
@click.option("--alpha", type=float, required=True, help="Undersampling ratio m/n in (0, 1).")
@click.option("--p", type=float, required=True, help="Quasinorm exponent in (0, 1].")
@click.option("--gamma-points", type=int, default=60, show_default=True, help="Size of the net-radius grid.")
@click.option("--epsilon-points", type=int, default=20, show_default=True, help="Size of the feasibility-slack grid.")
@click.option("--a-tol", type=float, default=1e-6, show_default=True, help="Bisection tolerance on rho.")
@_output_option
def weak_bound_cmd(alpha, p, gamma_points, epsilon_points, a_tol, output) -> None:
    """Certified weak-recovery sparsity bound at a fixed undersampling ratio."""
    base = bounds.ExponentSearchConfig.default(alpha, gamma_points=gamma_points, epsilon_points=epsilon_points)
    cfg = dataclasses.replace(base, a_tol=a_tol)
    result = bounds.weak_bound(alpha, p, cfg)
    payload = {"command": "weak-bound", "value": result.rho_bound}
    payload.update(result.to_record(cfg))
    _emit(payload, output)


@cli.command("solve")
@click.option("--instance", type=click.Path(exists=True, dir_okay=False), required=True,
              help="JSON job file referencing matrix/vector CSV paths.")
@click.option("--method", type=click.Choice(["l0", "l1", "lp"]), required=True)
@click.option("--max-support", type=int, default=None, help="Support budget for the exhaustive method.")
@click.option("--x-out", type=click.Path(dir_okay=False), help="Write the solution vector to this CSV.")
@_output_option
def solve_cmd(instance, method, max_support, x_out, output) -> None:
    """Solve one recovery instance."""
    if max_support is not None and method != "l0":
        raise click.UsageError(f"{method} method ignores --max-support; only l0 reads it")
    job = _checked(json.loads(Path(instance).read_text()), ("matrix", "y"), ("p", "x_true"), "instance")
    base = Path(instance).parent  # CSV paths are relative to the job file
    x_true = job.get("x_true")  # absent, null or "": no ground truth
    inst = solvers.RecoveryInstance(
        A=read_matrix_csv(base / job["matrix"]),
        y=read_vector_csv(base / job["y"]),
        p=job.get("p", 1.0),
        x_true=read_vector_csv(base / x_true) if x_true else None,
    )
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
    _emit(payload, output)


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
def certify_cmd(matrix, measurement, mode, p, rho, pattern, support, samples, refine_steps, seed, witness_out, output) -> None:
    """Certify or falsify a null-space recovery condition on a concrete matrix."""
    # strong mode reads --rho, sectional mode --support, weak modes --pattern or else --rho
    used = {"strong": "--rho", "sectional": "--support"}.get(mode, "--rho" if pattern is None else "--pattern")
    for option, value in {"--rho": rho, "--pattern": pattern, "--support": support}.items():
        if value is not None and option != used:
            raise click.UsageError(f"{mode} mode ignores {option}; it reads {used}")
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
            raw = json.loads(Path(pattern).read_text())
            spec = conditions.SupportPattern(**_checked(raw, ("support", "signs"), (), "pattern"))
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
    _emit(payload, output)


# each experiment kind: (runner, required spec keys, optional spec keys)
_EXPERIMENTS = {
    "example1": (experiments.run_example1, ("k",), ("p",)),
    "phase": (lambda **spec: experiments.run_phase_transition(experiments.PhaseDiagramSpec(**spec)),
              ("n", "m", "p_list", "rho_grid", "trials_per_point"), ("amplitude_model", "seed")),
    "strong-vs-weak": (experiments.run_strong_vs_weak,
                       ("n", "m", "p_list", "rho_grid", "matrices", "vectors_per_point"), ("seed",)),
    "weak-probe": (experiments.run_weak_threshold_probe, ("n", "codim", "p", "rho_list", "trials"), ("seed", "budget")),
    "concentration": (experiments.run_concentration_check, ("n", "p", "rho", "trials"), ("seed",)),
}


@cli.command("experiment")
@click.argument("kind", type=click.Choice(list(_EXPERIMENTS)))
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="JSON file with the experiment parameters.")
@click.option("--csv-out", type=click.Path(dir_okay=False), help="Write the grid summary CSV here (every kind but example1).")
@_output_option
def experiment_cmd(kind, spec_path, csv_out, output) -> None:
    """Run a seeded experiment described by a JSON spec file."""
    if csv_out and kind == "example1":
        raise click.UsageError("example1 reports claims, not a grid, so it takes no --csv-out")
    raw = json.loads(Path(spec_path).read_text())
    log.info("experiment spec %s", json.dumps(raw, sort_keys=True))
    run, required, optional = _EXPERIMENTS[kind]
    result = run(**_checked(raw, required, optional, "spec"))
    if isinstance(result, experiments.ExperimentReport):
        if csv_out:
            _write_grid_csv(result, csv_out)
        result = result.to_dict()
    _emit(result, output)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    try:
        cli.main(args=argv, prog_name="lprecovery", standalone_mode=False)
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
