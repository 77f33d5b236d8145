import hashlib
import itertools
import json

import numpy as np
import pytest
from scipy.optimize import linprog

from lprecovery import conditions as C
from lprecovery import linalg as la
from lprecovery import solvers as sv
from lprecovery.experiments import example1_kernel, example1_matrix, run_example1, run_weak_threshold_probe


def kernel_column(k: int) -> np.ndarray:
    return example1_kernel(k).reshape(-1, 1)


def test_pattern_validation():
    pat = C.SupportPattern.nonnegative(3)
    assert pat.support == (0, 1, 2)
    assert pat.signs == (1, 1, 1)
    assert pat.support_array.tolist() == [0, 1, 2] and pat.sign_array.tolist() == [1.0, 1.0, 1.0]
    assert not pat.support_array.flags.writeable and not pat.sign_array.flags.writeable
    # every input the checks accept is stored as int rows and float signs
    for support, signs, rows in [((), (), []), ((1.0, 4.0), (True, -1.0), [1, 4]), ((np.int64(2), 5), (-1, 1), [2, 5])]:
        pat = C.SupportPattern(support, signs)
        assert pat.support_array.tolist() == rows and pat.sign_array.tolist() == [float(v) for v in signs]


@pytest.mark.parametrize(
    "support,signs,message",
    [
        ((1, 1), (1, 1), "support indices must be distinct"),
        ((3, 1, 3), (1, 1, 1), "support indices must be distinct"),  # duplicates are named before the order
        ((2, 1), (1, 1), "support must be sorted"),
        ((-1, 2), (1, 1), "support indices must be nonnegative"),
        ((0, 1), (1, 2), "signs must be"),
        ((0, 1), (1, "-1"), "signs must be"),
        ((0, 1), (1,), "signs must be"),
        ((0, 1), (1, 1, -1), "signs must be"),
    ],
)
def test_pattern_rejections(support, signs, message):
    with pytest.raises(ValueError, match=message):
        C.SupportPattern(support=support, signs=signs)


def test_partition_on_the_explicit_kernel():
    k = 2
    B = kernel_column(k)
    pat = C.SupportPattern.nonnegative(2 * k)
    t_minus, t_plus = C.partition_support(B, np.array([1.0]), pat)
    assert t_minus == (2, 3)  # the -1 block fights the all-plus pattern
    assert t_plus == (0, 1)
    # flipping z swaps the fighting set
    t_minus_f, t_plus_f = C.partition_support(B, np.array([-1.0]), pat)
    assert t_minus_f == (0, 1)
    assert t_plus_f == (2, 3)


def test_partition_zero_rows_count_as_agreeing():
    B = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    pat = C.SupportPattern(support=(0, 1), signs=(1, 1))
    t_minus, t_plus = C.partition_support(B, np.array([0.0, 1.0]), pat)
    assert t_minus == ()
    assert t_plus == (0, 1)


def test_strong_condition_explicit_tables():
    for k in (2, 5, 9):
        B = kernel_column(k)
        z = np.array([1.0])
        # exponent one: total mass 33k/16, unit entries dominate
        for s in range(1, 2 * k + 1):
            lhs, rhs = C.strong_condition_holds_for(B, z, 1.0, s)
            assert lhs == pytest.approx(float(s), abs=1e-12)
            assert rhs == pytest.approx(33.0 * k / 16.0 - s, abs=1e-10)
        lhs, rhs = C.strong_condition_holds_for(B, z, 0.5, 2 * k)
        assert lhs == pytest.approx(2.0 * k, abs=1e-10)
        assert rhs == pytest.approx(0.5 * k, abs=1e-10)


def test_strong_condition_equal_rows_symmetry():
    B = np.ones((10, 1))
    z = np.array([1.0])
    for s in range(11):
        lhs, rhs = C.strong_condition_holds_for(B, z, 1.0, s)
        assert (lhs < rhs) == (s < 5)


def test_strong_top_set_matches_enumeration():
    base = la.RngSeed(606)
    B = la.sample_gaussian_matrix(9, 3, base)
    z = la.sample_gaussian_vector(3, base.child(1))
    powers = np.abs(B @ z) ** 0.7
    for s in (1, 3, 5):
        lhs, _ = C.strong_condition_holds_for(B, z, 0.7, s)
        best = max(sum(powers[list(T)]) for T in itertools.combinations(range(9), s))
        assert lhs == pytest.approx(best, rel=1e-12)


def test_weak_condition_explicit_values():
    k = 3
    B = kernel_column(k)
    pat = C.SupportPattern.nonnegative(2 * k)
    z = np.array([1.0])
    holds, lhs, rhs = C.weak_condition_holds_for(B, z, 0.5, pat)
    assert not holds and lhs == pytest.approx(k, abs=1e-12) and rhs == pytest.approx(k / 2.0, abs=1e-12)
    holds, lhs, rhs = C.weak_condition_holds_for(B, z, 1.0, pat)
    assert holds and lhs == pytest.approx(k, abs=1e-12)
    assert rhs == pytest.approx(k + k / 16.0, abs=1e-12)


def test_weak_condition_orthogonal_direction_is_safe():
    B = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [2.0, 0.0]])
    pat = C.SupportPattern(support=(0, 1), signs=(1, -1))
    z = np.array([1.0, 0.0])  # kills every support row
    holds, lhs, rhs = C.weak_condition_holds_for(B, z, 0.5, pat)
    assert holds and lhs == 0.0 and rhs > 0.0


def test_weak_lp_strict_branch_when_agreeing_rows_vanish():
    # support rows: one fighting, one exactly zero -> strict comparison
    B = np.array([[-1.0], [0.0], [1.0]])
    pat = C.SupportPattern(support=(0, 1), signs=(1, 1))
    holds, lhs, rhs = C.weak_condition_holds_for(B, np.array([1.0]), 0.5, pat)
    assert lhs == rhs == 1.0
    assert not holds  # equality fails the strict branch
    # with a genuinely agreeing row the comparison is non-strict
    B2 = np.array([[-1.0], [0.5], [1.0]])
    holds2, lhs2, rhs2 = C.weak_condition_holds_for(B2, np.array([1.0]), 0.5, pat)
    assert lhs2 == rhs2 == 1.0
    assert holds2


def test_weak_l0_counts():
    B = np.array([[-2.0], [3.0], [1e-15], [1.0]])
    pat = C.SupportPattern(support=(0, 1), signs=(1, 1))
    holds, lhs, rhs = C.weak_condition_holds_for(B, np.array([1.0]), 0.0, pat)
    assert lhs == 1.0  # only the fighting row counts
    assert rhs == 1.0  # the 1e-15 entry is a numerical zero
    assert not holds


def test_sectional_explicit_counterexample():
    B1 = np.array([16.0, 16.0, 1.0, 36.0]).reshape(-1, 1)
    z = np.array([1.0])
    assert C.sectional_condition_holds_for(B1, z, 1.0, (0, 1)) == (32.0, 37.0)
    assert C.sectional_condition_holds_for(B1, z, 0.5, (0, 1)) == (8.0, 7.0)
    B2 = np.array([1.0, 4.0, 1.0, 9.0]).reshape(-1, 1)
    assert C.sectional_condition_holds_for(B2, z, 0.5, (0, 1)) == (3.0, 4.0)
    assert C.sectional_condition_holds_for(B2, z, 1.0, (0, 1)) == (5.0, 10.0)
    assert C.certify(B1, "sectional", 1.0, (0, 1)).holds
    bad = C.certify(B1, "sectional", 0.5, (0, 1))
    assert not bad.holds and bad.certificate_exact
    assert C.certify(B2, "sectional", 0.5, (0, 1)).holds
    assert C.certify(B2, "sectional", 1.0, (0, 1)).holds


def test_certify_one_dimensional_is_exact():
    k = 4
    B = kernel_column(k)
    pat = C.SupportPattern.nonnegative(2 * k)
    strong_ok = C.certify(B, "strong", 0.5, 2 * k // 2 + k // 4 - 1)
    assert strong_ok.holds and strong_ok.certificate_exact
    weak_bad = C.certify(B, "weak_lp", 0.5, pat)
    assert (not weak_bad.holds) and weak_bad.certificate_exact
    assert weak_bad.witness is not None
    # witness re-verification through the public evaluators only
    z = np.asarray(weak_bad.witness["z"])
    holds, lhs, rhs = C.weak_condition_holds_for(B, z, 0.5, pat)
    assert not holds
    assert lhs == weak_bad.witness["lhs"]
    assert rhs == weak_bad.witness["rhs"]


@pytest.mark.parametrize("mode,p", [("strong", 0.5), ("weak_lp", 0.5), ("sectional", 1.0)])
def test_scale_invariance_of_verdicts(mode, p):
    base = la.RngSeed(8888)
    B = la.sample_gaussian_matrix(30, 4, base)
    z = la.sample_gaussian_vector(4, base.child(1))
    pat = C.SupportPattern.nonnegative(10)
    for c in (0.01, 1.0, 250.0):
        if mode == "strong":
            lhs, rhs = C.strong_condition_holds_for(B, z, p, 10)
            lhs_c, rhs_c = C.strong_condition_holds_for(B, c * z, p, 10)
            assert (lhs < rhs) == (lhs_c < rhs_c)
        elif mode == "weak_lp":
            assert (
                C.weak_condition_holds_for(B, z, p, pat)[0]
                == C.weak_condition_holds_for(B, c * z, p, pat)[0]
            )
        else:
            lhs, rhs = C.sectional_condition_holds_for(B, z, p, range(10))
            lhs_c, rhs_c = C.sectional_condition_holds_for(B, c * z, p, range(10))
            assert (lhs < rhs) == (lhs_c < rhs_c)


def test_strong_margin_monotone_in_support_size():
    base = la.RngSeed(246)
    B = la.sample_gaussian_matrix(25, 3, base)
    z = la.sample_gaussian_vector(3, base.child(1))
    margins = []
    for s in range(0, 26, 5):
        lhs, rhs = C.strong_condition_holds_for(B, z, 0.5, s)
        margins.append(rhs - lhs)
    assert all(b <= a + 1e-12 for a, b in zip(margins, margins[1:]))


def test_certified_strong_size_implies_l1_recovery():
    # one-dimensional kernel: the exact strong certificate at size 2 must
    # translate into universal recovery by the convex program
    k = 2
    A = example1_matrix(k)
    B = la.null_space_basis(A)
    verdict = C.certify(B, "strong", 1.0, 2)
    assert verdict.holds and verdict.certificate_exact
    n = 6 * k
    for trial in range(100):
        rng = la.RngSeed(7000 + trial).generator()
        support = rng.choice(n, size=2, replace=False)
        x = np.zeros(n)
        amps = rng.normal(size=2)
        amps[np.abs(amps) < 1e-2] = 1.0
        x[support] = amps
        inst = sv.RecoveryInstance(A=A, y=A @ x, p=1.0, x_true=x)
        assert sv.solve_l1(inst).recovered


def test_search_falsifies_above_the_weak_limit():
    falsified = 0
    for seed in range(20):
        B = la.sample_gaussian_matrix(300, 6, 42_000 + seed)
        pat = C.SupportPattern.nonnegative(240)  # rho = 0.8 > 2/3
        verdict = C.certify(B, "weak_lp", 0.5, pat, C.SearchBudget(seed=la.RngSeed(seed)))
        falsified += not verdict.holds
    assert falsified >= 18


def test_two_dimensional_angle_sweep():
    base = la.RngSeed(13)
    B = la.sample_gaussian_matrix(200, 2, base)
    pat = C.SupportPattern.nonnegative(160)  # rho = 0.8
    verdict = C.certify(B, "weak_lp", 0.5, pat, C.SearchBudget(sphere_samples=64, seed=base))
    assert not verdict.holds
    assert len(verdict.witness["z"]) == 2


def test_certify_input_validation():
    B = kernel_column(2)
    with pytest.raises(ValueError):
        C.certify(B, "nonsense", 0.5, 1)
    with pytest.raises(ValueError):
        C.certify(B, "weak_lp", 0.5, 3)  # weak modes need a pattern
    with pytest.raises(ValueError):
        C.SearchBudget(sphere_samples=0)
    with pytest.raises(ValueError, match="refine_steps"):
        C.SearchBudget(refine_steps=-1)
    assert C.SearchBudget(refine_steps=0).refine_steps == 0


@pytest.mark.parametrize(
    "mode, p, spec",
    [
        ("weak_lp", 0.5, C.SupportPattern.nonnegative(3)),
        ("weak_l0", 0.0, C.SupportPattern.nonnegative(3)),
        ("weak_l1", 1.0, C.SupportPattern.nonnegative(3)),
        ("strong", 0.5, 3),
        ("sectional", 0.5, (0, 1)),
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certify_rejects_a_non_finite_basis(mode, p, spec, bad):
    # every comparison with NaN is False, so a search over such a basis would never falsify
    B = la.sample_gaussian_matrix(12, 3, la.RngSeed(5))
    B[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        C.certify(B, mode, p, spec, C.SearchBudget(16, 4))


@pytest.mark.parametrize(
    "mode, spec",
    [
        ("weak_lp", C.SupportPattern.nonnegative(3)),
        ("weak_l0", C.SupportPattern.nonnegative(3)),
        ("weak_l1", C.SupportPattern.nonnegative(3)),
        ("strong", 3),
        ("sectional", (0, 1)),
    ],
)
@pytest.mark.parametrize("p", [1.5, -0.5, np.nan])
def test_certify_rejects_p_outside_the_unit_interval(mode, spec, p):
    # weak_l1 and weak_l0 fix their own exponent, but a p outside [0, 1] is still an input error
    B = la.sample_gaussian_matrix(12, 3, la.RngSeed(5))
    with pytest.raises(ValueError, match="p must lie in"):
        C.certify(B, mode, p, spec, C.SearchBudget(16, 4))


@pytest.mark.parametrize("mode, p", [("weak_l1", 1.0), ("weak_lp", 0.5), ("weak_l0", 0.0)])
@pytest.mark.parametrize("dim", [1, 3])
def test_certify_rejects_a_weak_pattern_outside_the_basis(mode, p, dim):
    B = la.sample_gaussian_matrix(12, dim, la.RngSeed(3))
    with pytest.raises(ValueError, match="outside the basis"):
        C.certify(B, mode, p, C.SupportPattern(support=(2, 12), signs=(1, -1)))
    with pytest.raises(ValueError, match="outside the basis"):
        C.certify(B, mode, p, C.SupportPattern.nonnegative(18))
    # the last row is still inside
    C.certify(B, mode, p, C.SupportPattern(support=(2, 11), signs=(1, -1)), C.SearchBudget(8, 2))


# ---------------------------------------------------------------------------
# regression oracle: the evaluator before it scored every block from one B @ z
# ---------------------------------------------------------------------------


def _oracle_partition_support(B, z, pat):
    B = np.atleast_2d(np.asarray(B, dtype=float))
    z = np.asarray(z, dtype=float)
    rows = np.fromiter(pat.support, dtype=int)
    vals = B[rows] @ z
    scale = 1e-12 * np.linalg.norm(z) * np.linalg.norm(B[rows], axis=1)
    signs = np.where(np.abs(vals) <= scale, 0.0, np.sign(vals))
    fighting = signs * np.asarray(pat.signs) < 0
    t_minus = tuple(int(i) for i in rows[fighting])
    t_plus = tuple(int(i) for i in rows[~fighting])
    return t_minus, t_plus


def _oracle_weak_condition_holds_for(B, z, p, pat):
    B = np.atleast_2d(np.asarray(B, dtype=float))
    z = np.asarray(z, dtype=float)
    t_minus, t_plus = _oracle_partition_support(B, z, pat)
    comp = sorted(set(range(B.shape[0])) - set(pat.support))
    bz_minus = B[list(t_minus)] @ z if t_minus else np.zeros(0)
    bz_comp = B[comp] @ z if comp else np.zeros(0)
    if p == 1.0:
        bz_plus = B[list(t_plus)] @ z if t_plus else np.zeros(0)
        lhs = float(np.abs(bz_minus).sum())
        rhs = float(np.abs(bz_comp).sum() + np.abs(bz_plus).sum())
        return lhs < rhs, lhs, rhs
    lhs = float(C._entry_powers(bz_minus, p).sum())
    rhs = float(C._entry_powers(bz_comp, p).sum())
    if p == 0.0:
        return lhs < rhs, lhs, rhs
    bz_plus = B[list(t_plus)] @ z if t_plus else np.zeros(0)
    plus_scale = np.linalg.norm(z) * max(1.0, float(np.abs(B).max()))
    plus_vanishes = bool(np.all(np.abs(bz_plus) <= 1e-12 * plus_scale))
    holds = lhs < rhs if plus_vanishes else lhs <= rhs
    return holds, lhs, rhs


def _kernel_with_ties(seed: int):
    """Seeded 600 x 6 kernel, a direction z, and rows on which B_i z is 0 or 1e-15."""
    base = la.RngSeed(seed)
    B = la.sample_gaussian_matrix(600, 6, base).copy()
    z = la.sample_gaussian_vector(6, base.child(1))
    rng = base.child(2).generator()
    tie_rows = rng.choice(600, size=60, replace=False)
    B[tie_rows[:20]] = 0.0
    B[tie_rows[20:]] -= np.outer(B[tie_rows[20:]] @ z, z) / (z @ z)
    B[tie_rows[40:]] += np.outer(rng.choice([-1e-15, 1e-15], size=20), z) / (z @ z)
    support = np.sort(rng.choice(600, size=360, replace=False))
    pat = C.SupportPattern(tuple(int(i) for i in support), tuple(int(v) for v in rng.choice([-1, 1], size=360)))
    return B, z, pat


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_weak_evaluator_matches_the_three_matvec_oracle(p):
    for seed in range(6):
        B, z, pat = _kernel_with_ties(3100 + seed)
        directions = [z, -z, la.sample_gaussian_vector(6, la.RngSeed(3200 + seed))]
        for direction in directions:
            assert C.weak_condition_holds_for(B, direction, p, pat) == _oracle_weak_condition_holds_for(
                B, direction, p, pat
            )
            assert C.partition_support(B, direction, pat) == _oracle_partition_support(B, direction, pat)


def test_ties_in_the_oracle_kernel_agree_with_the_pattern():
    B, z, pat = _kernel_with_ties(3100)
    t_minus, _ = C.partition_support(B, z, pat)
    bz = B @ z
    fights = {i for i, s in zip(pat.support, pat.signs) if bz[i] * s < 0}
    tied = {i for i in pat.support if abs(bz[i]) <= 1e-12 * np.linalg.norm(z) * np.linalg.norm(B[i])}
    assert tied & fights and not tied & set(t_minus)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_prepared_weak_evaluator_equals_the_public_one(p):
    """One evaluator reused across directions (ties included) gives the public evaluator's floats."""
    B, z, pat = _kernel_with_ties(3100)
    rng = la.RngSeed(3300).generator()
    directions = [z, -z, *rng.normal(size=(6, 6))]
    for signs in [pat.signs, *(tuple(int(v) for v in rng.choice([-1, 1], size=len(pat.support))) for _ in range(3))]:
        pattern = C.SupportPattern(pat.support, signs)
        evaluate = C._evaluator(B, "weak_lp", p, pattern)
        for direction in directions:
            violated, margin, lhs, rhs = evaluate(direction)
            assert (not violated, lhs, rhs) == C.weak_condition_holds_for(B, direction, p, pattern)
            assert (not violated, lhs, rhs) == _oracle_weak_condition_holds_for(B, direction, p, pattern)
            assert margin == rhs - lhs


@pytest.mark.parametrize("rho,holds", [(0.5, True), (0.8, False)])
def test_certify_evaluates_every_direction_publicly_from_one_prepared_evaluator(monkeypatch, rho, holds):
    built, results = [], []
    evaluator, public = C._evaluator, C.weak_condition_holds_for

    def counted(*args):
        results.append(public(*args))
        return results[-1]

    monkeypatch.setattr(C, "_evaluator", lambda *args: built.append(args[1:]) or evaluator(*args))
    monkeypatch.setattr(C, "weak_condition_holds_for", counted)
    B = la.sample_gaussian_matrix(600, 6, la.RngSeed(600))
    pattern = C.SupportPattern.nonnegative(int(rho * 600))
    verdict = C.certify(B, "weak_lp", 0.5, pattern, C.SearchBudget(16, 4))
    assert verdict.holds is holds
    assert built == [("weak_lp", 0.5, pattern)]
    if holds:
        # 16 sweep directions, then 8 refinements of a start and 4 rounds of 2 * 6 moves each
        assert len(results) == 16 + 8 * (1 + 4 * 2 * 6)
    else:
        assert results[-1] == (False, verdict.witness["lhs"], verdict.witness["rhs"])
    # after the run, a public call prepares its own evaluator
    assert C._prepared is None
    public(B, np.ones(6), 0.5, pattern)
    assert built[1:] == [("weak_lp", 0.5, pattern)]


@pytest.mark.parametrize(
    "p,digest",
    [
        (0.0, "9336f47b695a777cd8b477e45953c2ce86905e0b10e0bcbdaac5436aed674357"),
        (0.5, "4f1626e5824e92f4598a505c446f90015fb4f65c569d0cc5af344fa5b6c78c69"),
    ],
)
def test_small_probe_report_is_pinned(p, digest):
    report = run_weak_threshold_probe(
        n=600, codim=6, p=p, rho_list=(0.5, 0.8), trials=3, budget=C.SearchBudget(16, 4), seed=la.RngSeed(600)
    )
    text = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# exact weak-l1 verdicts by linear programming
# ---------------------------------------------------------------------------


def _weak_l1_primal_optimum(B, pat):
    """min over ||z||_inf <= 1 of s^T B_T z + ||B_Tc z||_1 (0 exactly when weak-l1 holds)."""
    support = list(pat.support)
    comp = [i for i in range(B.shape[0]) if i not in set(support)]
    B_c = B[comp]
    dim, rest = B.shape[1], len(comp)
    cost = np.concatenate([np.asarray(pat.signs, dtype=float) @ B[support], np.ones(rest)])
    eye = np.eye(rest)
    res = linprog(
        cost,
        A_ub=np.block([[B_c, -eye], [-B_c, -eye]]),
        b_ub=np.zeros(2 * rest),
        bounds=[(-1.0, 1.0)] * dim + [(0.0, None)] * rest,
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def _random_pattern(n: int, size: int, seed: int) -> C.SupportPattern:
    rng = la.RngSeed(seed).generator()
    support = np.sort(rng.choice(n, size=size, replace=False))
    return C.SupportPattern(tuple(int(i) for i in support), tuple(int(v) for v in rng.choice([-1, 1], size=size)))


def _pattern_sets_n200():
    """(B, pattern) on 200 x 5 kernels: four support sizes on each of 20 seeds."""
    n, codim = 200, 5
    for seed in range(20):
        B = la.sample_gaussian_matrix(n, codim, la.RngSeed(4100 + seed))
        for rho in (0.5, 0.8, 0.9, 0.95):
            yield B, _random_pattern(n, int(round(rho * n)), 4200 + seed)


def _probe_kernels_600():
    """(B, pattern) as criterion 08's p = 0.5 probe draws them (master seed 600), rho in {0.5, 0.8}."""
    for ri, rho in enumerate((0.5, 0.8)):
        for trial in range(6):
            B = la.sample_gaussian_matrix(600, 6, la.RngSeed(600).child(ri, trial))
            yield B, C.SupportPattern.nonnegative(int(round(rho * 600)))


def test_weak_l1_lp_verdict_agrees_with_the_primal_lp():
    verdicts = []
    for B, pat in _pattern_sets_n200():
        verdict = C.certify(B, "weak_l1", 1.0, pat)
        assert verdict.certificate_exact
        optimum = _weak_l1_primal_optimum(B, pat)
        tol = 1e-9 * float(np.abs(B).sum())
        assert verdict.holds == (optimum >= -tol)
        verdicts.append(verdict.holds)
    assert any(verdicts) and not all(verdicts)


def _reference_tau(B, pat):
    """min ||lam||_inf subject to B_Tc^T lam = -B_T^T s, posed with 2m inequality rows |lam_i| <= t."""
    support = list(pat.support)
    comp = [i for i in range(B.shape[0]) if i not in set(support)]
    B_c = B[comp]
    m, dim = B_c.shape
    res = linprog(
        np.r_[np.zeros(m), 1.0],
        A_ub=np.block([[np.eye(m), -np.ones((m, 1))], [-np.eye(m), -np.ones((m, 1))]]),
        b_ub=np.zeros(2 * m),
        A_eq=np.hstack([B_c.T, np.zeros((dim, 1))]),
        b_eq=-(np.asarray(pat.signs, dtype=float) @ B[support]),
        bounds=[(None, None)] * m + [(0.0, None)],
        method="highs",
    )
    assert res.status == 0
    return float(np.abs(res.x[:m]).max())


@pytest.mark.parametrize("cases", [_pattern_sets_n200, _probe_kernels_600])
def test_weak_l1_tau_matches_the_sup_norm_lp(cases):
    for B, pat in cases():
        verdict = C.certify(B, "weak_l1", 1.0, pat)
        tau = _reference_tau(B, pat)
        assert verdict.certificate_exact
        assert verdict.holds == (tau < 1.0)
        assert verdict.detail["tau"] == pytest.approx(tau, rel=1e-9, abs=0.0)


def test_weak_l1_lp_has_dim_equality_rows_and_no_inequality_rows(monkeypatch):
    calls = []

    def recording_linprog(*args, **kwargs):
        calls.append(kwargs)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(C, "linprog", recording_linprog)
    B, pat = next(_probe_kernels_600())
    assert C.certify(B, "weak_l1", 1.0, pat).certificate_exact
    (kwargs,) = calls
    assert kwargs.get("A_ub") is None
    assert np.shape(kwargs["A_eq"])[0] == B.shape[1]


def test_weak_l1_zero_target_holds_exactly():
    # an empty support leaves c = -B_T^T s = 0: tau = 0 by lam = 0
    B = la.sample_gaussian_matrix(40, 4, la.RngSeed(4600))
    verdict = C.certify(B, "weak_l1", 1.0, C.SupportPattern((), ()))
    assert verdict.holds and verdict.certificate_exact
    assert verdict.detail["tau"] == 0.0


def test_weak_l1_holds_certificate_rechecks_from_its_detail():
    n = 200
    B = la.sample_gaussian_matrix(n, 5, la.RngSeed(4300))
    pat = _random_pattern(n, 160, 4301)
    verdict = C.certify(B, "weak_l1", 1.0, pat)
    assert verdict.holds and verdict.certificate_exact
    lam = np.asarray(verdict.detail["lambda"])
    tau = verdict.detail["tau"]
    assert float(np.abs(lam).max()) == tau < 1.0
    assert verdict.detail["margin"] == 1.0 - tau
    comp = [i for i in range(n) if i not in set(pat.support)]
    residual = B[comp].T @ lam + B[list(pat.support)].T @ np.asarray(pat.signs, dtype=float)
    assert float(np.abs(residual).max()) <= 1e-9


def test_weak_l1_falsified_witness_reverifies_exactly():
    n = 200
    B = la.sample_gaussian_matrix(n, 5, la.RngSeed(4400))
    pat = _random_pattern(n, 190, 4401)
    verdict = C.certify(B, "weak_l1", 1.0, pat)
    assert not verdict.holds and verdict.certificate_exact
    assert verdict.detail["tau"] >= 1.0
    holds, lhs, rhs = C.weak_condition_holds_for(B, np.asarray(verdict.witness["z"]), 1.0, pat)
    assert not holds
    assert lhs == verdict.witness["lhs"] and rhs == verdict.witness["rhs"]


def test_weak_l1_exact_tie_is_decided_through_the_scaled_direction():
    """Rounded-Gaussian basis where the LP's tau is exactly 1 and f(y) = 0: +-y alone did not re-check."""
    B = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [-2, 1, -1, 1], [3, 0, 1, 0], [-1, -1, 1, 1], [0, -2, -1, 0],
         [1, 0, 0, 1], [0, 0, 0, -2], [0, 0, 1, -1], [-1, 1, 0, 1], [-1, 0, -1, 0], [0, 1, 1, 1], [-2, 1, 0, -1],
         [-1, 0, 1, 0], [-2, 0, 0, 2], [-1, 3, 2, 0], [2, 0, 1, -1], [0, -1, -2, 0], [-1, 1, 1, 0], [0, 0, -2, 0],
         [0, 0, -1, -2], [0, 0, 1, 1], [1, 0, 1, 0]],
        dtype=float,
    )
    pat = C.SupportPattern((4, 5, 6, 7, 8, 9, 10, 11, 16, 17, 18, 19, 20), (-1, -1, 1, -1, 1, -1, 1, -1, -1, 1, -1, -1, -1))
    verdict = C.certify(B, "weak_l1", 1.0, pat)
    assert not verdict.holds and verdict.certificate_exact
    assert verdict.detail["tau"] == 1.0
    holds, lhs, rhs = C.weak_condition_holds_for(B, np.asarray(verdict.witness["z"]), 1.0, pat)
    assert not holds and lhs == rhs
    assert (lhs, rhs) == (verdict.witness["lhs"], verdict.witness["rhs"])


def test_weak_l1_rank_deficient_complement_is_falsified():
    n, codim = 40, 6
    B = la.sample_gaussian_matrix(n, codim, la.RngSeed(4500))
    pat = _random_pattern(n, n - 3, 4501)  # B_Tc has 3 rows, rank 3 < 6
    verdict = C.certify(B, "weak_l1", 1.0, pat)
    assert not verdict.holds and verdict.certificate_exact
    holds, lhs, rhs = C.weak_condition_holds_for(B, np.asarray(verdict.witness["z"]), 1.0, pat)
    assert not holds and (lhs, rhs) == (verdict.witness["lhs"], verdict.witness["rhs"])
    full = C.certify(B, "weak_l1", 1.0, C.SupportPattern.nonnegative(n))
    assert not full.holds and full.certificate_exact


def test_weak_l1_on_one_dimensional_kernels_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("a one-dimensional kernel is decided by z = +-1")

    monkeypatch.setattr(C, "linprog", no_lp)
    for k in (1, 2, 5):
        claims = run_example1(k)["claims"]
        assert claims["weak_l1_holds"]["value"] is True
        assert claims["weak_l1_holds"]["exact"] is True
