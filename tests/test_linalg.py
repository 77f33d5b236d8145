import numpy as np
import pytest

from lprecovery import linalg as la

# first-run regression lock of the documented Philox/Box-Muller stream
SEED42_2X3 = [
    0.29819692614073984,
    0.2656745699062883,
    -0.7927946984297178,
    -0.3018242631540541,
    0.4844458366968755,
    -0.033955303070108626,
]


def test_sampling_is_regression_locked():
    M = la.sample_gaussian_matrix(2, 3, 42)
    assert M.shape == (2, 3)
    assert M.ravel().tolist() == SEED42_2X3


def test_sampling_determinism_and_independence():
    a = la.sample_gaussian_matrix(7, 5, la.RngSeed(9))
    b = la.sample_gaussian_matrix(7, 5, la.RngSeed(9))
    c = la.sample_gaussian_matrix(7, 5, la.RngSeed(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_moments():
    entries = la.sample_gaussian_matrix(1000, 1000, 2024).ravel()
    assert abs(entries.mean()) <= 0.005
    assert 0.99 <= entries.var() <= 1.01


def test_child_seeds_are_order_free():
    s = la.RngSeed(77)
    assert s.child(1, 2).seed == s.child(1, 2).seed
    assert s.child(1, 2).seed != s.child(2, 1).seed


def test_null_space_coordinate_kernel():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    B = la.null_space_basis(A)
    assert B.shape == (3, 1)
    assert abs(abs(B[2, 0]) - 1.0) < 1e-14
    assert np.abs(B[:2]).max() < 1e-14


def test_null_space_matches_explicit_kernel_direction():
    from lprecovery.experiments import example1_kernel, example1_matrix

    beta = example1_kernel(2)
    A = example1_matrix(2)
    B = la.null_space_basis(A)
    assert B.shape == (12, 1)
    direction = beta / np.linalg.norm(beta)
    assert min(np.linalg.norm(B[:, 0] - direction), np.linalg.norm(B[:, 0] + direction)) < 1e-10


@pytest.mark.parametrize("trial", range(0, 200, 10))
def test_null_space_properties_random_shapes(trial):
    rng = la.RngSeed(31337).child(trial).generator()
    n = int(rng.integers(2, 65))
    m = int(rng.integers(1, n))
    A = la.sample_gaussian_matrix(m, n, la.RngSeed(31337).child(trial, 1))
    B = la.null_space_basis(A)
    assert B.shape == (n, n - m)
    assert np.abs(A @ B).max() <= 1e-10 * np.abs(A).max() * n
    assert np.abs(B.T @ B - np.eye(n - m)).max() <= 1e-12


def test_null_space_rejects_rank_deficient():
    A = np.ones((2, 4))
    with pytest.raises(la.RankDeficientError):
        la.null_space_basis(A)
    with pytest.raises(la.RankDeficientError):
        la.null_space_basis(np.eye(3))  # m == n has no kernel


def test_min_norm_solve_identity_weights_orthonormal_rows():
    A = la.sample_gaussian_matrix(4, 9, 5)
    Q = np.linalg.qr(A.T)[0].T  # orthonormal rows
    y = la.sample_gaussian_vector(4, 6)
    x = la.min_norm_weighted_solve(Q, y, np.ones(9))
    assert np.allclose(x, Q.T @ y, atol=1e-12)


def test_min_norm_solve_zero_rhs():
    A = la.sample_gaussian_matrix(3, 7, 8)
    x = la.min_norm_weighted_solve(A, np.zeros(3), np.full(7, 2.0))
    assert np.abs(x).max() < 1e-14


@pytest.mark.parametrize("trial", range(0, 200, 10))
def test_min_norm_solve_postconditions(trial):
    base = la.RngSeed(4242).child(trial)
    rng = base.generator()
    n = int(rng.integers(3, 33))
    m = int(rng.integers(1, n))
    A = la.sample_gaussian_matrix(m, n, base.child(1))
    y = la.sample_gaussian_vector(m, base.child(2))
    w = np.abs(la.sample_gaussian_vector(n, base.child(3))) + 0.1
    x = la.min_norm_weighted_solve(A, y, w)
    assert np.linalg.norm(A @ x - y) <= 1e-9 * (1.0 + np.linalg.norm(y))
    B = la.null_space_basis(A)
    assert np.abs(B.T @ (w * x)).max() <= 1e-8 * max(1.0, np.linalg.norm(w * x))


def test_min_norm_solve_matches_normal_equations_oracle():
    base = la.RngSeed(99)
    A = la.sample_gaussian_matrix(4, 8, base)
    y = la.sample_gaussian_vector(4, base.child(1))
    w = np.abs(la.sample_gaussian_vector(8, base.child(2))) + 0.5
    x = la.min_norm_weighted_solve(A, y, w)
    W = np.diag(w)
    oracle = np.linalg.solve(W, A.T @ np.linalg.solve(A @ np.linalg.solve(W, A.T), y))
    assert np.linalg.norm(x - oracle) <= 1e-8


def test_min_norm_solve_conditioning_guard():
    A = la.sample_gaussian_matrix(3, 6, 14)
    w = np.ones(6)
    w[0] = 1e32
    w[1] = 1e-32
    with pytest.raises(la.IllConditionedError):
        la.min_norm_weighted_solve(A, np.ones(3), w)


def _lstsq_reference(A, y, w):
    """The weighted solve by SVD least squares on G = A diag(w^{-1/2})."""
    m = A.shape[0]
    d = 1.0 / np.sqrt(w)
    u, _, rank, sing = np.linalg.lstsq(A * d[None, :], y, rcond=None)
    if sing[-1] > 0.0 and (sing[0] / sing[-1]) ** 2 > la._COND_LIMIT:
        raise la.IllConditionedError("reference: condition above the limit")
    if rank < m:
        raise la.RankDeficientError("reference: rank below m")
    return d * u


def _outcome(solve, A, y, w):
    try:
        return solve(A, y, w)
    except (la.IllConditionedError, la.RankDeficientError) as exc:
        return type(exc)


def _count_svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_min_norm_solve_agrees_with_lstsq_reference(monkeypatch):
    svd_calls = _count_svd_calls(monkeypatch)
    raised = solved_by_svd = solved_directly = 0
    for trial in range(200):
        base = la.RngSeed(8080).child(trial)
        rng = base.generator()
        m = int(rng.integers(1, 41))
        n = int(rng.integers(m + 1, 2 * m + 41))
        A = la.sample_gaussian_matrix(m, n, base.child(1))
        y = la.sample_gaussian_vector(m, base.child(2))
        span = 40.0 * rng.random()  # weights spread over up to 40 decades
        w = 10.0 ** (span * (rng.random(n) - 0.5))
        expected = _outcome(_lstsq_reference, A, y, w)
        before = len(svd_calls)
        got = _outcome(la.min_norm_weighted_solve, A, y, w)
        if isinstance(expected, type):
            assert got is expected, (trial, m, n, span)
            raised += 1
            continue
        assert not isinstance(got, type), (trial, m, n, span)
        assert np.linalg.norm(got - expected) <= 1e-8 * np.linalg.norm(expected)
        if len(svd_calls) > before:
            solved_by_svd += 1
        else:
            solved_directly += 1
    assert raised > 0 and solved_by_svd > 0 and solved_directly > 0


def test_min_norm_solve_zero_row_is_ill_conditioned():
    A = la.sample_gaussian_matrix(10, 20, 21)
    A[4] = 0.0
    y = A @ np.linspace(-1.0, 1.0, 20)
    for w in (np.ones(20), np.linspace(0.5, 2.0, 20)):
        with pytest.raises(la.IllConditionedError):
            _lstsq_reference(A, y, w)
        with pytest.raises(la.IllConditionedError):
            la.min_norm_weighted_solve(A, y, w)


def _with_singular_values(m, n, sing, seed):
    U = np.linalg.qr(la.sample_gaussian_matrix(m, m, la.RngSeed(seed)))[0]
    V = np.linalg.qr(la.sample_gaussian_matrix(n, m, la.RngSeed(seed).child(1)))[0]
    return (U * sing[None, :]) @ V.T


def test_min_norm_solve_takes_the_svd_when_the_frobenius_bound_fails(monkeypatch):
    # nine singular values at 10^-6.9: cond^2 = 6.3e13 < 1e14, while
    # 4 (||R||_F ||R^-1||_F)^2 is about 2.3e15
    sing = np.array([1.0] + [10.0**-6.9] * 9)
    A = _with_singular_values(10, 30, sing, 5150)
    y = la.sample_gaussian_vector(10, 5151)
    w = np.ones(30)
    svd_calls = _count_svd_calls(monkeypatch)
    x = la.min_norm_weighted_solve(A, y, w)
    assert len(svd_calls) == 1
    expected = _lstsq_reference(A, y, w)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_min_norm_solve_raises_just_above_the_condition_limit():
    sing = np.array([1.0, 0.5, 1e-7 * (1.0 - 1e-3)])  # cond^2 = 1.002e14
    A = _with_singular_values(3, 8, sing, 5152)
    y = la.sample_gaussian_vector(3, 5153)
    with pytest.raises(la.IllConditionedError):
        _lstsq_reference(A, y, np.ones(8))
    with pytest.raises(la.IllConditionedError):
        la.min_norm_weighted_solve(A, y, np.ones(8))


def test_min_norm_solve_rejects_more_rows_than_columns():
    A = la.sample_gaussian_matrix(6, 4, 5154)
    y = la.sample_gaussian_vector(6, 5155)
    with pytest.raises(la.RankDeficientError):
        _lstsq_reference(A, y, np.ones(4))
    with pytest.raises(la.RankDeficientError):
        la.min_norm_weighted_solve(A, y, np.ones(4))


def test_csv_roundtrip(tmp_path):
    M = la.sample_gaussian_matrix(3, 4, 77)
    path = tmp_path / "m.csv"
    la.write_matrix_csv(path, M)
    back = la.read_matrix_csv(path)
    assert np.array_equal(M, back)  # repr round-trips doubles exactly
    vec = la.sample_gaussian_vector(5, 78)
    vpath = tmp_path / "v.csv"
    la.write_vector_csv(vpath, vec)
    assert np.array_equal(la.read_vector_csv(vpath), vec)


def test_csv_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(la.MatrixFormatError, match="line 2, field 2"):
        la.read_matrix_csv(bad)
    bad.write_text("1.0,2.0\nnan,4.0\n")
    with pytest.raises(la.MatrixFormatError, match="NaN/Inf"):
        la.read_matrix_csv(bad)
    bad.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(la.MatrixFormatError, match="expected 2 fields"):
        la.read_matrix_csv(bad)
    bad.write_text("")
    with pytest.raises(la.MatrixFormatError, match="no data rows"):
        la.read_matrix_csv(bad)
    square = tmp_path / "sq.csv"
    square.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(la.MatrixFormatError, match="expected a vector"):
        la.read_vector_csv(square)
