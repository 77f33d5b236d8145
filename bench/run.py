"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload strong_bound --seed 1 --seconds 5 --trace 0

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (a fresh
interpreter importing ``lprecovery`` and ``lprecovery.cli``), ``wall_s``
and ``cpu_s`` of one round, the process's ``peak_rss_mib`` and
``rho_certified``.  Rounds repeat the same operations until ``--seconds``
have passed, at least once, and time each operation on its own; a round's
``wall_s`` is the sum over its operations of each one's fastest call, and
``cpu_s`` likewise.  On a shared host other tenants only ever add time, in
bursts, so the fastest of many short calls is far steadier from run to run
than a median or a single long call (see README.md).  The bound workloads
then compute their ``certified`` bounds once, outside the timed span.

``--trace 1`` runs rounds untraced for half of ``--seconds``, then rounds
with every public function of the package wrapped (see ``tracer.py``) for
the other half, requires both to give identical outputs, and reports the
per-layer metrics per round plus ``trace.overhead_s``.

Outputs are checked against independent computations (``checks.py``); a
failed check prints the result with ``"correct": false`` and exits 1.  The
full record of the run goes to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """The package could not be imported from ``src/``."""


def measure_setup() -> float:
    """Seconds for a fresh interpreter to import the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import lprecovery, lprecovery.cli"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"importing lprecovery from {SRC} failed:\n{proc.stderr}")
    return elapsed


def import_package():
    sys.path.insert(0, str(SRC))
    import lprecovery
    import lprecovery.cli  # noqa: F401  (so the tracer also patches the CLI's namespace)

    if SRC not in Path(lprecovery.__file__).resolve().parents:
        raise SetupError(f"lprecovery imported from {lprecovery.__file__}, not from {SRC}")


def canonical(obj):
    """Outputs as plain, exactly comparable data (report timings left out)."""
    if hasattr(obj, "to_dict"):
        return canonical(obj.to_dict())
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def peak_rss_mib() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def operation_record(operations, rounds) -> list:
    """Per operation: its label and its fastest and median call."""
    walls = list(zip(*(r[0] for r in rounds)))
    return [
        {"label": op.label, "fastest_s": min(w), "median_s": statistics.median(w)} for op, w in zip(operations, walls)
    ]


def traced_metrics(operations, rounds, seconds: float, reference, record) -> dict:
    """Per-layer metrics from traced rounds run for ``seconds`` (at least one)."""
    import checks
    from tracer import Tracer
    from workloads import fastest, run_rounds

    tracer = Tracer()
    with tracer:
        traced = run_rounds(operations, seconds)
    checks.require(all(canonical(r[2]) == reference for r in traced), "traced outputs differ from untraced outputs")
    metrics = tracer.metrics(len(traced))
    metrics["trace.overhead_s"] = (fastest(traced, 0) - fastest(rounds, 0), "s")
    record["traced_rounds"] = len(traced)
    record["traced_operations"] = operation_record(operations, traced)
    record["functions"] = {
        key: {"calls": tracer.calls[key], "outer_calls": tracer.outer_calls[key], "total_s": tracer.total_s[key]}
        for key in sorted(tracer.calls)
    }
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, setup_s: float):
    """Run, check and measure one workload -> (result line, full record)."""
    import checks
    from workloads import Failed, call, fastest, run_rounds

    inputs, operations = workload.make_operations(seed)
    rounds = run_rounds(operations, seconds / 2 if trace else seconds)
    outputs = rounds[0][2]
    certified_ops = workload.certified()
    certified = [call(op) for op in certified_ops]
    record = {"rounds": len(rounds), "operations": operation_record(operations, rounds)}
    metrics = {}
    check_error = None
    try:
        reference = canonical(outputs)
        checks.require(
            all(canonical(r[2]) == reference for r in rounds[1:]), "rounds of the same operations gave different outputs"
        )
        workload.check(inputs, outputs)
        workload.check_certified(certified)
        if trace:
            metrics = traced_metrics(operations, rounds, seconds / 2, reference, record)
            checks.check_layers(metrics, workload.exercised)
    except checks.CheckFailed as exc:
        check_error = str(exc)
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (fastest(rounds, 0), "s"),
            "cpu_s": (fastest(rounds, 1), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "rho_certified": (workload.rho_certified(outputs, certified), "ratio"),
        }
    failed_per_round = sum(isinstance(out, Failed) for out in outputs)
    result = {
        "correct": check_error is None,
        "attempted": len(operations) * len(rounds) + len(certified),
        "failed": failed_per_round * len(rounds) + sum(isinstance(out, Failed) for out in certified),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(
        workload=workload.name,
        seed=seed,
        trace=trace,
        check_error=check_error,
        certified=[canonical(out) for out in certified],
        failures=[dataclasses.asdict(out) for out in outputs + certified if isinstance(out, Failed)],
        environment=environment(),
    )
    return result, record


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # the experiments read it at call time; unset, the default single worker is measured
    os.environ.pop("LP_RECOVERY_THREADS", None)
    try:
        setup_s = measure_setup()
        import_package()
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), setup_s)
    OUT_DIR.mkdir(exist_ok=True)
    record["result"] = result
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    if record["check_error"]:
        print(f"check failed: {record['check_error']}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
