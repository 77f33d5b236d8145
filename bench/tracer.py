"""Per-layer counts and self times, gathered from outside the package.

A layer is one ``lprecovery`` module.  ``Tracer.install`` wraps every public
function of each layer.  Modules bind each other's functions by name
(``from .quadrature import integrate``), so the wrapper replaces the
function in every ``lprecovery`` namespace that holds it, and
``Tracer.restore`` puts the originals back.

Only aggregates are kept in memory (one bound makes ~3e5 quadrature
calls): per function the call count, the calls entered from another layer
and the inclusive time; per layer the self time, which is the time spent
in the layer minus the time of the calls it made into other layers.  The
integrand handed to ``integrate`` runs inside the quadrature span, so
quadrature self time includes integrand evaluation.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("quadrature", "gaussian", "limits", "bounds", "linalg", "solvers", "conditions", "experiments")

MGF_FUNCTIONS = ("log_mgf_pos", "log_mgf_indicator", "mgf_neg")
RATIO_FUNCTIONS = (
    "tilted_moment_ratio",
    "tilted_second_moment_ratio",
    "indicator_tilted_moment_ratio",
    "indicator_tilted_second_moment_ratio",
)
EVALUATORS = ("strong_condition_holds_for", "weak_condition_holds_for", "sectional_condition_holds_for")


def public_functions(module):
    """Functions (including cached ones) defined in ``module`` without a leading underscore."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Wraps the package's public functions and aggregates what they do."""

    def __init__(self):
        self.calls = Counter()
        self.outer_calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.points = 0
        self.falsified = 0
        self.irls_iters = 0
        self.recovered = 0
        self.trials = 0
        self._stack = []
        self._saved = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "lprecovery" or name.startswith("lprecovery.")]
        for layer in LAYERS:
            module = sys.modules[f"lprecovery.{layer}"]
            for name, fn in list(public_functions(module)):
                wrapper = self._wrap(layer, name, fn)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            self._saved.append((namespace, attr, fn))
                            setattr(namespace, attr, wrapper)

    def restore(self) -> None:
        for namespace, attr, fn in reversed(self._saved):
            setattr(namespace, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _count_points(self, f):
        def counted(x):
            self.points += x.size
            return f(x)

        return counted

    def _observe(self, key: str, result) -> None:
        if key == "conditions.certify" and not result.holds:
            self.falsified += 1
        elif key in ("solvers.solve_l1", "solvers.solve_lp_irls"):
            if key == "solvers.solve_lp_irls":
                self.irls_iters += result.iterations
            self.recovered += bool(result.recovered)
        elif key.startswith("experiments.run_") and hasattr(result, "points"):
            self.trials += sum(int(point.get("trials", 0)) for point in result.points)

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack = self._stack
        clock = time.perf_counter
        count_points = key == "quadrature.integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            if count_points:
                args = (self._count_points(args[0]),) + args[1:]
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                self.calls[key] += 1
                self.outer_calls[key] += outer
                self.total_s[key] += elapsed
            self._observe(key, result)
            return result

        return wrapper

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics for one round of the workload, as (value, unit)."""
        calls, outer, total = self.calls, self.outer_calls, self.total_s

        def per_round(value):
            return value / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        integrate_calls = calls["quadrature.integrate"]
        mgf_calls = sum(outer[f"gaussian.{name}"] for name in MGF_FUNCTIONS)
        tilt_mgf = outer["gaussian.log_mgf_pos"] + outer["gaussian.log_mgf_indicator"]
        upper = calls["bounds.chernoff_upper_exponent"]
        indicator = calls["bounds.chernoff_indicator_exponent"]
        certify_calls = calls["conditions.certify"]
        evals = sum(calls[f"conditions.{name}"] for name in EVALUATORS)
        l1, irls = calls["solvers.solve_l1"], calls["solvers.solve_lp_irls"]
        limit_calls = sum(n for key, n in outer.items() if key.startswith("limits."))
        return {
            "quadrature.calls": (per_round(integrate_calls), "count"),
            "quadrature.points": (per_round(self.points), "count"),
            "quadrature.points_per_call": (ratio(self.points, integrate_calls), "ratio"),
            "quadrature.self_s": (per_round(self.self_s["quadrature"]), "s"),
            "gaussian.mgf_calls": (per_round(mgf_calls), "count"),
            "gaussian.ratio_calls": (per_round(sum(outer[f"gaussian.{name}"] for name in RATIO_FUNCTIONS)), "count"),
            "gaussian.self_s": (per_round(self.self_s["gaussian"]), "s"),
            "bounds.upper_tilt_solves": (per_round(upper), "count"),
            "bounds.indicator_tilt_solves": (per_round(indicator), "count"),
            "bounds.mgf_per_tilt_solve": (ratio(tilt_mgf, upper + indicator), "ratio"),
            "bounds.self_s": (per_round(self.self_s["bounds"]), "s"),
            "limits.calls": (per_round(limit_calls), "count"),
            "limits.self_s": (per_round(self.self_s["limits"]), "s"),
            "conditions.certify_calls": (per_round(certify_calls), "count"),
            "conditions.evals": (per_round(evals), "count"),
            "conditions.evals_per_certify": (ratio(evals, certify_calls), "ratio"),
            "conditions.falsified": (per_round(self.falsified), "count"),
            "conditions.self_s": (per_round(self.self_s["conditions"]), "s"),
            "linalg.matrix_samples": (per_round(calls["linalg.sample_gaussian_matrix"]), "count"),
            "linalg.sample_s": (per_round(total["linalg.sample_gaussian_matrix"]), "s"),
            "linalg.weighted_solves": (per_round(calls["linalg.min_norm_weighted_solve"]), "count"),
            "linalg.weighted_solve_s": (per_round(total["linalg.min_norm_weighted_solve"]), "s"),
            "solvers.l1_solves": (per_round(l1), "count"),
            "solvers.l1_s": (per_round(total["solvers.solve_l1"]), "s"),
            "solvers.irls_solves": (per_round(irls), "count"),
            "solvers.irls_iters": (per_round(self.irls_iters), "count"),
            "solvers.irls_s": (per_round(total["solvers.solve_lp_irls"]), "s"),
            "solvers.recovered_per_solve": (ratio(self.recovered, l1 + irls), "ratio"),
            "experiments.trials": (per_round(self.trials), "count"),
            "experiments.self_s": (per_round(self.self_s["experiments"]), "s"),
        }
