import hashlib
import json
import logging

import click
import numpy as np
import pytest

from lprecovery import cli
from lprecovery import linalg as la
from lprecovery.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_strong_limit_value(capsys):
    code, out, _ = run_cli(capsys, "threshold", "strong-limit", "--p", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.239, abs=1e-3)
    assert payload["residual"] <= 1e-10


def test_strong_limit_p_zero_reports_limit_value(capsys):
    code, out, _ = run_cli(capsys, "threshold", "strong-limit", "--p", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.5
    assert "limit" in payload["note"]


def test_weak_limit_prints_two_thirds(capsys):
    code, out, _ = run_cli(capsys, "threshold", "weak-limit", "--p", "0.3")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.666667, abs=1e-6)


def test_sectional_limit(capsys):
    code, out, _ = run_cli(capsys, "threshold", "sectional-limit", "--p", "0.9")
    assert code == 0
    assert json.loads(out)["value"] == 0.5


def test_certify_sectional_counterexample(tmp_path, capsys):
    path = tmp_path / "sectional.csv"
    path.write_text("16\n16\n1\n36\n")
    code, out, _ = run_cli(
        capsys, "certify", "--matrix", str(path), "--mode", "sectional", "--p", "0.5",
        "--support", "1,2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["certificate_exact"] is True
    assert payload["witness"]["lhs"] == 8.0
    assert payload["witness"]["rhs"] == 7.0


def test_certify_from_measurement_matrix(tmp_path, capsys):
    from lprecovery.experiments import example1_matrix

    A = example1_matrix(2)
    path = tmp_path / "A.csv"
    la.write_matrix_csv(path, A)
    code, out, _ = run_cli(
        capsys, "certify", "--matrix", str(path), "--measurement", "--mode", "weak_lp",
        "--p", "0.5", "--rho", str(4 / 12),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is False and payload["certificate_exact"] is True


def test_certify_weak_l1_is_exact_on_a_multi_column_basis(tmp_path, capsys):
    path = tmp_path / "B.csv"
    la.write_matrix_csv(path, la.sample_gaussian_matrix(200, 4, la.RngSeed(77)))
    code, out, _ = run_cli(
        capsys, "certify", "--matrix", str(path), "--mode", "weak_l1", "--p", "1", "--rho", "0.9"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate_exact"] is True
    assert "tau" in payload["detail"]
    assert (payload["detail"]["tau"] < 1.0) == payload["holds"]


def test_certify_strong_rounds_rho_times_rows(tmp_path, capsys, monkeypatch):
    # 0.29 * 100 = 28.999999999999996 in floating point; the sparsity is 29
    from lprecovery import conditions

    seen = {}

    def fake_certify(B, mode, p, spec, budget):
        seen["spec"] = spec
        return conditions.ConditionVerdict(mode=mode, holds=True, certificate_exact=False)

    monkeypatch.setattr(conditions, "certify", fake_certify)
    path = tmp_path / "B.csv"
    la.write_matrix_csv(path, la.sample_gaussian_matrix(100, 3, 5))
    code, _, _ = run_cli(capsys, "certify", "--matrix", str(path), "--mode", "strong", "--p", "1", "--rho", "0.29")
    assert code == 0
    assert seen["spec"] == 29


def test_solve_job_file(tmp_path, capsys):
    A = la.sample_gaussian_matrix(10, 20, 21)
    x = np.zeros(20)
    x[3], x[7] = 2.0, -1.5
    la.write_matrix_csv(tmp_path / "A.csv", A)
    la.write_vector_csv(tmp_path / "y.csv", A @ x)
    la.write_vector_csv(tmp_path / "x.csv", x)
    (tmp_path / "job.json").write_text(
        json.dumps({"matrix": "A.csv", "y": "y.csv", "x_true": "x.csv", "p": 0.5})
    )
    xout = tmp_path / "sol.csv"
    code, out, _ = run_cli(
        capsys, "solve", "--instance", str(tmp_path / "job.json"), "--method", "lp",
        "--x-out", str(xout),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["recovered"] is True
    assert np.linalg.norm(la.read_vector_csv(xout) - x) <= 1e-4
    code, out, _ = run_cli(capsys, "solve", "--instance", str(tmp_path / "job.json"), "--method", "l0")
    assert json.loads(out)["objective"] == 2.0


def test_solve_irls_on_a_zero_row_exits_with_a_numerical_error(tmp_path, capsys):
    A = la.sample_gaussian_matrix(10, 20, 21)
    A[4] = 0.0
    x = np.zeros(20)
    x[3], x[7] = 2.0, -1.5
    la.write_matrix_csv(tmp_path / "A.csv", A)
    la.write_vector_csv(tmp_path / "y.csv", A @ x)
    (tmp_path / "job.json").write_text(json.dumps({"matrix": "A.csv", "y": "y.csv", "p": 0.5}))
    code, out, err = run_cli(capsys, "solve", "--instance", str(tmp_path / "job.json"), "--method", "lp")
    assert code == 2
    assert out == ""
    assert "numerical error" in err


def test_solve_l1_on_infeasible_measurements_exits_with_a_numerical_error(tmp_path, capsys):
    A = la.sample_gaussian_matrix(10, 20, 21)
    A[4] = 0.0
    y = A @ np.eye(20)[3]
    y[4] = 1.0  # no x reaches this entry through a zero row
    la.write_matrix_csv(tmp_path / "A.csv", A)
    la.write_vector_csv(tmp_path / "y.csv", y)
    (tmp_path / "job.json").write_text(json.dumps({"matrix": "A.csv", "y": "y.csv"}))
    code, out, err = run_cli(capsys, "solve", "--instance", str(tmp_path / "job.json"), "--method", "l1")
    assert code == 2
    assert out == ""
    assert "numerical error: l1 program infeasible" in err


def test_experiment_example1_and_csv(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"k": 2}))
    code, out, _ = run_cli(capsys, "experiment", "example1", "--spec", str(spec))
    assert code == 0
    assert json.loads(out)["all_match"] is True
    # example1 has no grid to summarise, so --csv-out is refused rather than dropped
    csv_out = tmp_path / "grid.csv"
    code, out, err = run_cli(capsys, "experiment", "example1", "--spec", str(spec), "--csv-out", str(csv_out))
    assert code == 1
    assert out == ""
    assert "--csv-out" in err
    assert not csv_out.exists()

    phase_spec = tmp_path / "phase.json"
    phase_spec.write_text(
        json.dumps(
            {"n": 20, "m": 10, "p_list": [0.5], "rho_grid": [0.05, 0.3], "trials_per_point": 3, "seed": 1}
        )
    )
    out_json = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "experiment", "phase", "--spec", str(phase_spec),
        "--csv-out", str(csv_out), "--output", str(out_json),
    )
    assert code == 0
    report = json.loads(out_json.read_text())
    assert set(report) == {"kind", "spec", "points"}
    assert report["kind"] == "phase"
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "mode,p,rho,success_rate,trials"
    assert lines[1:] == [
        f"phase,{pt['p']},{pt['rho']},{pt['success_rate']},{pt['trials']}" for pt in report["points"]
    ]
    assert len(lines) == 3


def test_byte_identical_artifacts(tmp_path, capsys):
    spec = tmp_path / "phase.json"
    spec.write_text(
        json.dumps(
            {"n": 20, "m": 10, "p_list": [0.5], "rho_grid": [0.05, 0.4], "trials_per_point": 4, "seed": 3}
        )
    )
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli(capsys, "experiment", "phase", "--spec", str(spec), "--output", str(first))[0] == 0
    assert run_cli(capsys, "experiment", "phase", "--spec", str(spec), "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["threshold", "strong-limit", "--p", "0.5"],
            "a501bd2ddfb9e36bed52e90a277d4caf92a780b78df09cdfbf691c7872c66e0d",
        ),
        (
            ["threshold", "strong-bound", "--alpha", "0.9", "--p", "0.5", "--gamma-points", "8",
             "--epsilon-points", "4"],
            "47c2bff80b4a24583d34d348cc4d1f618d9636a1d87c3a4db055f5aec660abb5",
        ),
        (
            ["threshold", "weak-bound", "--alpha", "0.9", "--p", "0.3", "--gamma-points", "4",
             "--epsilon-points", "3", "--a-tol", "1e-3"],
            "99aa4c0da4632650ad22ef5579c50753eb5cfced31619f34edefbe3363ac96eb",
        ),
    ],
)
def test_threshold_artifacts_are_pinned(capsys, argv, digest):
    # SHA-256 of the stdout artifact, frozen so numerics refactors cannot move a byte
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_experiment_has_no_workers_option(tmp_path, capsys):
    # trials run serially, and JSON is the only artifact format
    spec = tmp_path / "phase.json"
    spec.write_text(
        json.dumps({"n": 20, "m": 10, "p_list": [0.5], "rho_grid": [0.05], "trials_per_point": 2, "seed": 1})
    )
    for option, value in (("--workers", "2"), ("--format", "json")):
        code, out, err = run_cli(capsys, "experiment", "phase", "--spec", str(spec), option, value)
        assert code == 1
        assert out == ""
        assert "No such option" in err and option in err


def _leaf_commands(group):
    for command in group.commands.values():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command)
        else:
            yield command


def test_every_command_logs_all_its_options_and_its_time(tmp_path, capsys, caplog):
    leaves = list(_leaf_commands(cli.cli))
    assert len(leaves) == 8
    assert all(isinstance(command, cli._LoggedCommand) for command in leaves)
    path = tmp_path / "B.csv"
    la.write_matrix_csv(path, la.sample_gaussian_matrix(12, 3, la.RngSeed(4)))
    witness = tmp_path / "w.csv"
    caplog.set_level(logging.INFO, logger="lprecovery")
    code, _, _ = run_cli(
        capsys, "certify", "--matrix", str(path), "--mode", "weak_lp", "--p", "0.5", "--rho", "0.9",
        "--witness-out", str(witness),
    )
    assert code == 0
    messages = [record.getMessage() for record in caplog.records]
    options = [m for m in messages if m.startswith("lprecovery certify {")]
    assert len(options) == 1
    logged = json.loads(options[0].removeprefix("lprecovery certify "))
    assert set(logged) == {param.name for param in cli.cli.commands["certify"].params}
    assert logged["witness_out"] == str(witness) and logged["rho"] == 0.9
    assert any(m.startswith("lprecovery certify finished in ") for m in messages)


@pytest.mark.parametrize(
    "kind, spec",
    [
        ("weak-probe", {"n": 40, "codim": 3, "p": 0.5, "rho_list": [0.5], "trials": 0}),
        ("weak-probe", {"n": 40, "codim": 3, "p": 0.5, "rho_list": [1.5], "trials": 1}),
        ("strong-vs-weak", {"n": 20, "m": 10, "p_list": [1.0], "rho_grid": [0.2], "matrices": 0,
                            "vectors_per_point": 1}),
        ("concentration", {"n": 1000, "p": 0.5, "rho": 1.5, "trials": 2}),
        ("concentration", {"n": 1000, "p": 1.5, "rho": 0.3, "trials": 2}),
    ],
)
def test_experiment_rejects_empty_or_out_of_range_specs(tmp_path, capsys, kind, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "experiment", kind, "--spec", str(path))
    assert code == 1
    assert out == ""
    assert "invalid parameter" in err


@pytest.mark.parametrize(
    "kind, spec, key",
    [
        ("phase", {"n": None, "m": 10, "p_list": [0.5], "rho_grid": [0.05], "trials_per_point": 2}, "n"),
        ("weak-probe", {"n": 40, "codim": 3, "p": 0.5, "rho_list": 0.2, "trials": 1}, "rho_list"),
    ],
)
def test_experiment_rejects_a_spec_value_of_the_wrong_type(tmp_path, capsys, kind, spec, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "experiment", kind, "--spec", str(path))
    assert code == 1
    assert out == ""
    assert f"invalid parameter: spec key {key!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["weak_lp", "weak_l1"])
def test_certify_weak_pattern_outside_the_basis_exits_one(tmp_path, capsys, mode):
    path = tmp_path / "B.csv"
    la.write_matrix_csv(path, la.sample_gaussian_matrix(12, 3, la.RngSeed(4)))
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps({"support": [2, 13], "signs": [1, -1]}))  # 1-based; 13 > 12 rows
    for extra in (["--pattern", str(pattern)], ["--rho", "1.5"]):
        code, out, err = run_cli(
            capsys, "certify", "--matrix", str(path), "--mode", mode, "--p", "0.5", *extra
        )
        assert code == 1
        assert out == ""
        assert "invalid parameter" in err and "outside the basis" in err


def test_certify_negative_refine_steps_exits_one(tmp_path, capsys):
    path = tmp_path / "B.csv"
    la.write_matrix_csv(path, la.sample_gaussian_matrix(12, 3, la.RngSeed(4)))
    code, out, err = run_cli(
        capsys, "certify", "--matrix", str(path), "--mode", "weak_lp", "--p", "0.5", "--rho", "0.25",
        "--refine-steps", "-1",
    )
    assert code == 1
    assert out == ""
    assert "invalid parameter" in err and "refine_steps" in err


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run_cli(capsys, "threshold", "strong-limit")[0] == 1  # missing --p
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "threshold", "strong-limit", "--p", "7")[0] == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,oops\n")
    code, _, err = run_cli(
        capsys, "certify", "--matrix", str(bad), "--mode", "sectional", "--p", "1", "--support", "1"
    )
    assert code == 1
    assert "field 2" in err


def test_numerical_errors_exit_two(capsys):
    # infeasible feasibility grid at a tiny undersampling ratio
    code, _, err = run_cli(
        capsys, "threshold", "strong-bound", "--alpha", "0.05", "--p", "0.5",
        "--gamma-points", "8", "--epsilon-points", "4",
    )
    assert code == 2
    assert "numerical error" in err


@pytest.mark.parametrize("command", ["strong-bound", "weak-bound"])
@pytest.mark.parametrize("grid", ["--gamma-points", "--epsilon-points"])
def test_empty_search_grids_are_usage_errors(capsys, command, grid):
    code, out, err = run_cli(capsys, "threshold", command, "--alpha", "0.9", "--p", "0.5", grid, "0")
    assert code == 1
    assert out == ""
    assert "invalid parameter" in err and "at least one point" in err


def test_a_tol_only_on_weak_bound(capsys):
    # a_tol sets only the weak bound's bisection on rho
    code, _, err = run_cli(capsys, "threshold", "strong-bound", "--alpha", "0.9", "--p", "0.5", "--a-tol", "1e-3")
    assert code == 1
    assert "--a-tol" in err
    code, out, _ = run_cli(capsys, "threshold", "weak-bound", "--help")
    assert code == 0 and "--a-tol" in out


def test_help_screens_exist(capsys):
    for args in (
        ["--help"],
        ["threshold", "--help"],
        ["threshold", "strong-bound", "--help"],
        ["certify", "--help"],
        ["experiment", "--help"],
    ):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert "Usage" in out or "usage" in out


def test_weak_probe_rejects_budget_seed(tmp_path, capsys):
    spec = {
        "n": 40, "codim": 3, "p": 0.5, "rho_list": [0.2], "trials": 1, "seed": 5,
        "budget": {"sphere_samples": 4, "refine_steps": 2},
    }
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "experiment", "weak-probe", "--spec", str(path))
    assert code == 0
    assert json.loads(out)["spec"]["seed"] == 5
    spec["budget"]["seed"] = 2
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "experiment", "weak-probe", "--spec", str(path))
    assert code == 1
    assert out == ""
    assert "--spec" in err and "budget.seed" in err and "top-level seed" in err


@pytest.mark.parametrize("mode", ["strong", "weak_lp", "weak_l1", "weak_l0", "sectional"])
def test_certify_p_outside_the_unit_interval_exits_one(tmp_path, capsys, mode):
    path = tmp_path / "B.csv"
    la.write_matrix_csv(path, la.sample_gaussian_matrix(12, 3, la.RngSeed(4)))
    extra = ["--support", "1,2"] if mode == "sectional" else ["--rho", "0.25"]
    code, out, err = run_cli(capsys, "certify", "--matrix", str(path), "--mode", mode, "--p", "1.5", *extra)
    assert code == 1
    assert out == ""
    assert "invalid parameter" in err and "p must lie in [0, 1]" in err


@pytest.mark.parametrize("method", ["l1", "lp"])
def test_solve_rejects_max_support_without_l0(tmp_path, capsys, method):
    A = la.sample_gaussian_matrix(4, 8, 21)
    la.write_matrix_csv(tmp_path / "A.csv", A)
    la.write_vector_csv(tmp_path / "y.csv", A[:, 2])
    (tmp_path / "job.json").write_text(json.dumps({"matrix": "A.csv", "y": "y.csv", "p": 0.5}))
    code, out, err = run_cli(
        capsys, "solve", "--instance", str(tmp_path / "job.json"), "--method", method, "--max-support", "2"
    )
    assert code == 1
    assert out == ""
    assert f"{method} method ignores --max-support" in err


def test_solve_l0_with_no_support_budget_exits_one(tmp_path, capsys):
    A = la.sample_gaussian_matrix(4, 8, 21)
    la.write_matrix_csv(tmp_path / "A.csv", A)
    la.write_vector_csv(tmp_path / "y.csv", A[:, 2])
    (tmp_path / "job.json").write_text(json.dumps({"matrix": "A.csv", "y": "y.csv", "p": 0.0}))
    code, out, err = run_cli(
        capsys, "solve", "--instance", str(tmp_path / "job.json"), "--method", "l0", "--max-support", "0"
    )
    assert code == 1
    assert out == ""
    assert "invalid parameter" in err and "max_support" in err


_PROBE_SPEC = {"n": 40, "codim": 3, "p": 0.5, "rho_list": [0.2], "trials": 1}


@pytest.mark.parametrize(
    "kind, spec, message",
    [
        ("weak-probe", [1, 2], "the spec must be a JSON object, got list"),
        ("concentration", "n=1000", "the spec must be a JSON object, got str"),
        ("weak-probe", {k: v for k, v in _PROBE_SPEC.items() if k != "trials"}, "missing key 'trials'"),
        ("phase", {"n": 20, "m": 10, "p_list": [0.5], "rho_grid": [0.05]}, "missing key 'trials_per_point'"),
        ("weak-probe", {**_PROBE_SPEC, "sed": 3}, "unknown key 'sed'"),
        ("concentration", {"n": 1000, "p": 0.5, "rho": 0.3, "trials": 2, "band": 0.1}, "unknown key 'band'"),
        ("weak-probe", {**_PROBE_SPEC, "budget": {"step_shrink": 0.25}}, "unknown key 'budget.step_shrink'"),
        ("weak-probe", {**_PROBE_SPEC, "budget": [4, 2]}, "budget must be a JSON object, got list"),
    ],
    ids=[
        "probe-list", "concentration-string", "probe-no-trials", "phase-no-trials", "probe-mistyped-seed",
        "concentration-band", "probe-budget-step-shrink", "probe-budget-list",
    ],
)
def test_experiment_specs_are_checked_by_key(tmp_path, capsys, kind, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "experiment", kind, "--spec", str(path))
    assert code == 1
    assert out == ""
    assert "--spec" in err and message in err


def test_job_file_roundtrip(tmp_path, capsys):
    from conftest import seeded_sparse_instance

    inst = seeded_sparse_instance(31, m=6, n=12, sparsity=2, p=0.5)
    la.write_matrix_csv(tmp_path / "A.csv", inst.A)
    la.write_vector_csv(tmp_path / "y.csv", inst.y)
    la.write_vector_csv(tmp_path / "x.csv", inst.x_true)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"matrix": "A.csv", "y": "y.csv", "x_true": "x.csv", "p": 0.5}))
    code, out, _ = run_cli(capsys, "solve", "--instance", str(job), "--method", "lp")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 0.5
    assert payload["recovered"] is True
    assert set(payload) >= {"objective", "iterations", "converged", "x_hat", "recovered"}
    # an x_true that is null or "" means no ground truth, as when it is absent
    for x_true in (None, ""):
        job.write_text(json.dumps({"matrix": "A.csv", "y": "y.csv", "x_true": x_true, "p": 0.5}))
        code, out, _ = run_cli(capsys, "solve", "--instance", str(job), "--method", "lp")
        assert code == 0
        assert "recovered" not in json.loads(out)


# every JSON input: (its option, a valid value, a key and a value of the wrong type for it)
_JOB = {"matrix": "A.csv", "y": "y.csv", "p": 0.5}
_JSON_INPUTS = {
    "instance": ("instance", _JOB, "matrix", 5),
    "pattern": ("pattern", {"support": [1, 2], "signs": [1, -1]}, "support", 5),
    "example1": ("spec", {"k": 2}, "k", None),
    "phase": ("spec", {"n": 20, "m": 10, "p_list": [0.5], "rho_grid": [0.05], "trials_per_point": 2}, "rho_grid",
              ["a"]),
    "strong-vs-weak": ("spec", {"n": 20, "m": 10, "p_list": [1.0], "rho_grid": [0.2], "matrices": 1,
                                "vectors_per_point": 1}, "p_list", "0.5"),
    "weak-probe": ("spec", _PROBE_SPEC, "trials", "two"),
    "concentration": ("spec", {"n": 1000, "p": 0.5, "rho": 0.3, "trials": 2}, "seed", "x"),
}


def _bad_json_inputs():
    """(target, file content, a fragment of the message); a str is the file's raw text."""
    for target, (option, good, key, value) in _JSON_INPUTS.items():
        first = next(iter(good))
        yield pytest.param(target, [1, 2], f"the {option} must be a JSON object, got list", id=f"{target}-list")
        yield pytest.param(target, {k: v for k, v in good.items() if k != first}, f"missing key {first!r}",
                           id=f"{target}-missing")
        yield pytest.param(target, {**good, "sed": 3}, "unknown key 'sed'", id=f"{target}-unknown")
        yield pytest.param(target, {**good, key: value}, f"invalid parameter: {option} key {key!r}",
                           id=f"{target}-wrong-type")
        yield pytest.param(target, "", "input error", id=f"{target}-empty")
    yield pytest.param("instance", {"matrix": "A.csv"}, "missing key 'y'", id="instance-no-y")
    yield pytest.param("instance", {**_JOB, "p": None}, "invalid parameter: instance key 'p'", id="instance-p-null")
    yield pytest.param("instance", {**_JOB, "y": "absent.csv"}, "absent.csv", id="instance-missing-csv")
    yield pytest.param("pattern", {"support": [1, 2]}, "missing key 'signs'", id="pattern-no-signs")
    # JSON numbers are checked, not truncated or coerced
    yield pytest.param("pattern", {"support": [2.7, 5], "signs": [1, -1]}, "invalid parameter: pattern key 'support'",
                       id="pattern-fractional-index")
    phase = _JSON_INPUTS["phase"][1]
    for n, name in ((20.9, "float"), ("20", "string"), (True, "bool")):
        yield pytest.param("phase", {**phase, "n": n}, "invalid parameter: spec key 'n'", id=f"phase-{name}-count")
    yield pytest.param("weak-probe", {**_PROBE_SPEC, "budget": {"refine_steps": "x"}},
                       "invalid parameter: spec key 'budget.refine_steps'", id="probe-budget-wrong-type")


@pytest.mark.parametrize("target, content, message", _bad_json_inputs())
def test_every_json_input_is_checked(tmp_path, capsys, target, content, message):
    la.write_matrix_csv(tmp_path / "A.csv", la.sample_gaussian_matrix(4, 8, 21))
    la.write_vector_csv(tmp_path / "y.csv", np.ones(4))
    la.write_matrix_csv(tmp_path / "B.csv", la.sample_gaussian_matrix(12, 3, la.RngSeed(4)))
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    if target == "instance":
        argv = ["solve", "--instance", str(path), "--method", "l1"]
    elif target == "pattern":
        argv = ["certify", "--matrix", str(tmp_path / "B.csv"), "--mode", "weak_lp", "--p", "0.5", "--pattern", str(path)]
    else:
        argv = ["experiment", target, "--spec", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize(
    "mode, extra, ignored",
    [
        ("weak_lp", ["--pattern", "P", "--rho", "0.25"], "--rho"),
        ("strong", ["--rho", "0.25", "--pattern", "P"], "--pattern"),
        ("strong", ["--rho", "0.25", "--support", "1,2"], "--support"),
        ("sectional", ["--support", "1,2", "--rho", "0.25"], "--rho"),
        ("sectional", ["--support", "1,2", "--pattern", "P"], "--pattern"),
        ("weak_l1", ["--rho", "0.25", "--support", "1,2"], "--support"),
        ("weak_l0", ["--pattern", "P", "--support", "1,2"], "--support"),
    ],
)
def test_certify_rejects_an_option_its_mode_ignores(tmp_path, capsys, mode, extra, ignored):
    path = tmp_path / "B.csv"
    la.write_matrix_csv(path, la.sample_gaussian_matrix(12, 3, la.RngSeed(4)))
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps({"support": [1, 2], "signs": [1, -1]}))
    extra = [str(pattern) if arg == "P" else arg for arg in extra]
    code, out, err = run_cli(capsys, "certify", "--matrix", str(path), "--mode", mode, "--p", "0.5", *extra)
    assert code == 1
    assert out == ""
    assert f"{mode} mode ignores {ignored}" in err


def test_an_output_path_in_a_missing_directory_exits_one(tmp_path, capsys):
    target = tmp_path / "absent" / "out.json"
    code, out, err = run_cli(capsys, "threshold", "weak-limit", "--p", "0.5", "--output", str(target))
    assert code == 1
    assert out == ""
    assert "input error" in err and "Traceback" not in err
