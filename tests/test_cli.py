import json

import numpy as np
import pytest

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


def test_experiment_example1_and_csv(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"k": 2}))
    code, out, _ = run_cli(capsys, "experiment", "example1", "--spec", str(spec))
    assert code == 0
    assert json.loads(out)["all_match"] is True

    phase_spec = tmp_path / "phase.json"
    phase_spec.write_text(
        json.dumps(
            {"n": 20, "m": 10, "p_list": [0.5], "rho_grid": [0.05], "trials_per_point": 3, "seed": 1}
        )
    )
    csv_out = tmp_path / "grid.csv"
    out_json = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "experiment", "phase", "--spec", str(phase_spec),
        "--csv-out", str(csv_out), "--output", str(out_json),
    )
    assert code == 0
    assert csv_out.read_text().splitlines()[0] == "mode,p,rho,success_rate,trials"
    assert json.loads(out_json.read_text())["kind"] == "phase"


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
