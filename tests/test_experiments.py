import json
import math

import numpy as np
import pytest

from lprecovery import experiments as ex
from lprecovery.conditions import SearchBudget, SupportPattern, weak_condition_holds_for
from lprecovery.linalg import RngSeed, sample_gaussian_matrix


@pytest.mark.parametrize("k", list(range(2, 17)))
def test_example1_claims_hold_for_every_k(k):
    report = ex.run_example1(k)
    assert report["all_match"], report
    claims = report["claims"]
    assert claims["strong_max_sparsity_l1"]["value"] == math.ceil(33 * k / 32) - 1
    assert claims["strong_max_sparsity_lp"]["value"] == math.ceil(5 * k / 4) - 1
    assert claims["weak_l1_holds"]["exact"]
    assert claims["weak_lp_falsified"]["witness_reverified"]
    dense = claims["denser_solution_wins"]
    assert dense["objective_dense"] == pytest.approx((math.sqrt(10.0) + 0.5) * k, abs=1e-10)
    assert dense["objective_sparse"] == pytest.approx(4.0 * k, abs=1e-10)


def test_example1_k1_objective_claim_is_flagged_off():
    report = ex.run_example1(1)
    assert not report["claims"]["denser_solution_wins"]["matches_expected"]
    assert report["claims"]["strong_max_sparsity_l1"]["matches_expected"]


def test_phase_spec_validation():
    with pytest.raises(ValueError):
        ex.PhaseDiagramSpec(n=10, m=12, p_list=(0.5,), rho_grid=(0.1,), trials_per_point=1)
    with pytest.raises(ValueError):
        ex.PhaseDiagramSpec(n=10, m=5, p_list=(0.5,), rho_grid=(0.3, 0.1), trials_per_point=1)
    with pytest.raises(ValueError):
        ex.PhaseDiagramSpec(n=10, m=5, p_list=(0.5,), rho_grid=(0.1,), trials_per_point=1,
                            amplitude_model="bogus")


def test_phase_transition_depth_and_determinism():
    spec = ex.PhaseDiagramSpec(
        n=40, m=20, p_list=(0.5,), rho_grid=(1 / 40, 0.45), trials_per_point=12, seed=RngSeed(5)
    )
    report = ex.run_phase_transition(spec)
    assert report.points[0]["success_rate"] >= 0.9
    assert report.points[1]["success_rate"] <= 0.2
    for point in report.points:
        records = point["records"]
        assert len(records) == spec.trials_per_point
        assert point["success_rate"] == sum(bool(r.get("recovered")) for r in records) / len(records)
    again = ex.run_phase_transition(spec)
    assert report.to_json() == again.to_json()
    # parallel execution cannot change the artifact
    threaded = ex.run_phase_transition(spec, workers=4)
    assert threaded.to_json() == report.to_json()


def test_phase_transition_l1_route():
    spec = ex.PhaseDiagramSpec(
        n=24, m=12, p_list=(1.0,), rho_grid=(1 / 24,), trials_per_point=8, seed=RngSeed(6)
    )
    report = ex.run_phase_transition(spec)
    assert report.points[0]["success_rate"] >= 0.8


def test_strong_vs_weak_reduced_scale():
    # frozen floors/ceilings from the first validated run at this scale
    report = ex.run_strong_vs_weak(
        n=50, m=48, p_list=(1.0, 0.5), rho_grid=(0.2, 0.8), matrices=8, vectors_per_point=15,
        seed=RngSeed(7),
    )
    rates = {(pt["mode"], pt["p"], pt["rho"]): pt["success_rate"] for pt in report.points}
    # the convex program dominates for one support and one sign pattern
    assert rates[("weak", 1.0, 0.8)] >= rates[("weak", 0.5, 0.8)]
    assert rates[("weak", 1.0, 0.8)] >= 0.5
    assert rates[("weak", 0.5, 0.8)] <= 0.5
    # near-threshold strong recovery: the nonconvex route keeps pace
    assert rates[("strong", 0.5, 0.2)] >= rates[("strong", 1.0, 0.2)] - 0.15
    for point in report.points:
        assert len(point["records"]) == 8


def test_weak_probe_two_sided():
    budget = SearchBudget(sphere_samples=128, refine_steps=60)
    report = ex.run_weak_threshold_probe(
        n=200, codim=4, p=0.5, rho_list=(0.5, 0.85), trials=10, budget=budget, seed=RngSeed(11)
    )
    below, above = report.points
    assert below["falsification_frequency"] <= 0.2
    assert above["falsification_frequency"] >= 0.8
    assert below["success_rate"] == 1.0 - below["falsification_frequency"]
    with pytest.raises(ValueError):
        ex.run_weak_threshold_probe(n=100, codim=20, p=0.5, rho_list=(0.5,), trials=2)


def test_weak_probe_records_reverify_from_witness():
    budget = SearchBudget(sphere_samples=128, refine_steps=60)
    n, codim, p, rho = 200, 4, 0.5, 0.85
    report = ex.run_weak_threshold_probe(
        n=n, codim=codim, p=p, rho_list=(rho,), trials=4, budget=budget, seed=RngSeed(11)
    )
    records = report.points[0]["records"]
    falsified = [r for r in records if r["falsified"]]
    assert falsified
    pattern = SupportPattern.nonnegative(max(1, int(round(rho * n))))
    for record in records:
        if not record["falsified"]:
            assert record["witness"] is None
            continue
        B = sample_gaussian_matrix(n, codim, RngSeed(record["seed"]))
        holds, lhs, rhs = weak_condition_holds_for(B, np.array(record["witness"]["z"]), p, pattern)
        assert not holds
        assert lhs == pytest.approx(record["witness"]["lhs"], rel=1e-12)
        assert rhs == pytest.approx(record["witness"]["rhs"], rel=1e-12)


def test_concentration_trivial_full_fraction():
    report = ex.run_concentration_check(2000, 0.5, 1.0, trials=5, seed=RngSeed(3))
    for record in report.points[0]["records"]:
        assert record["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_concentration_brackets_at_moderate_scale():
    # wider envelope at the smaller smoke scale; the tight 3% envelope is
    # exercised at n = 20000 in the acceptance suite
    report = ex.run_concentration_check(
        5000, 0.5, 0.34, trials=30, seed=RngSeed(4), bracket_eps_factor=0.08
    )
    point = report.points[0]
    assert point["mismatch_in_bracket"] >= 0.9
    assert point["complement_in_bracket"] >= 0.9
    assert point["ratio_in_band"] >= 0.9
    with pytest.raises(ValueError):
        ex.run_concentration_check(100, 0.5, 0.3, trials=2)


def test_report_csv_schema(tmp_path):
    spec = ex.PhaseDiagramSpec(
        n=20, m=10, p_list=(0.5,), rho_grid=(0.05,), trials_per_point=3, seed=RngSeed(9)
    )
    report = ex.run_phase_transition(spec)
    out = tmp_path / "grid.csv"
    ex.report_to_csv(report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "mode,p,rho,success_rate,trials"
    assert len(lines) == 2
    payload = json.loads(report.to_json())
    assert set(payload) == {"kind", "spec", "points"}
    timed = report.to_dict(include_timing=True)
    assert "wall_time" in timed


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("LP_RECOVERY_THREADS", raising=False)
    assert ex.worker_count() == 1
    monkeypatch.setenv("LP_RECOVERY_THREADS", "6")
    assert ex.worker_count() == 6
    assert ex.worker_count(3) == 3
    monkeypatch.setenv("LP_RECOVERY_THREADS", "junk")
    assert ex.worker_count() == 1
