"""Dense linear algebra: Gaussian sampling, null-space bases, weighted solves.

Matrices and vectors are plain numpy arrays (row-major, float64).  Sampling
uses the Philox counter-based generator with an explicit Box-Muller
transform, so identical seeds reproduce identical matrices across platforms
and numpy versions.

The factorizations are scipy's: pivoted QR for kernel bases; for weighted
solves the triangular factor R alone (LAPACK ``dgeqrf``, Q never formed)
and its inverse (LAPACK ``dtrtri``), used in the corrected seminormal
equations (numpy's QR cannot pivot or skip Q, and numpy has no
``dtrtri``).  ``scipy.linalg`` is imported by the first call that factors,
not with the package.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngSeed",
    "RankDeficientError",
    "IllConditionedError",
    "MatrixFormatError",
    "sample_gaussian_matrix",
    "sample_gaussian_vector",
    "null_space_basis",
    "min_norm_weighted_solve",
    "read_matrix_csv",
    "read_vector_csv",
    "write_matrix_csv",
    "write_vector_csv",
]

_RANK_TOL = 1e-10
_COND_LIMIT = 1e14


class RankDeficientError(ValueError):
    """Matrix is numerically rank deficient for the requested operation."""


class IllConditionedError(RuntimeError):
    """Weighted normal system too ill-conditioned to trust."""


class MatrixFormatError(ValueError):
    """CSV input malformed; message names the offending line and field."""


@dataclass(frozen=True)
class RngSeed:
    """64-bit seed for the deterministic Philox stream."""

    seed: int

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed))

    def child(self, *key: int) -> "RngSeed":
        """Derived seed for an independent sub-stream (trial, grid point...)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(key))
        return RngSeed(int(ss.generate_state(1, dtype=np.uint64)[0]))


def _as_seed(seed) -> RngSeed:
    return seed if isinstance(seed, RngSeed) else RngSeed(int(seed))


def _box_muller(rng: np.random.Generator, count: int) -> np.ndarray:
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1]; avoids log(0)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count]


def sample_gaussian_matrix(m: int, n: int, seed) -> np.ndarray:
    """m-by-n matrix of i.i.d. N(0,1) entries, deterministic per seed."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    rng = _as_seed(seed).generator()
    return _box_muller(rng, m * n).reshape(m, n)


def sample_gaussian_vector(n: int, seed) -> np.ndarray:
    return sample_gaussian_matrix(1, n, seed)[0]


def null_space_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel of a full-row-rank m-by-n matrix, m < n.

    Computed by pivoted QR of A^T; the trailing n - m columns of Q span the
    kernel exactly (R has zero rows beyond m).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-d array")
    m, n = A.shape
    if m == 0:
        raise ValueError(f"kernel basis needs at least one row, got 0 rows (0x{n})")
    if m >= n:
        raise RankDeficientError(f"kernel basis needs m < n, got shape {m}x{n}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    import scipy.linalg  # loads on the first factorization, not with the package

    Q, R, _ = scipy.linalg.qr(A.T, mode="full", pivoting=True)
    diag = np.abs(np.diag(R)[:m])
    if diag.min() <= _RANK_TOL * diag.max():
        raise RankDeficientError(
            f"numerically rank deficient: factor ratio {diag.min() / diag.max():.2e}"
        )
    return Q[:, m:]


def min_norm_weighted_solve(A: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Minimize sum_i w_i x_i^2 subject to A x = y (w_i > 0, A full row rank).

    Solved through the scaled system G = A diag(w^{-1/2}) and the triangular
    factor R (m-by-m, upper) of G^T = Q R.  Q is never formed: Q = G^T R^{-1},
    so the minimum-norm solution of G u = y is u = G^T R^{-1} R^{-T} y, the
    seminormal equations, and x = w^{-1/2} u.  Alone they lose accuracy as
    cond(R)^2 grows (at IRLS smoothing-floor weights they miss y by ~1e-3),
    so one corrected step on the residual follows,
    u += G^T R^{-1} R^{-T} (y - G u), which brings the residual back to the
    level of a solve with Q (the corrected seminormal equations; Bjorck,
    "Stability analysis of the method of seminormal equations for linear
    least squares problems", 1987).

    The condition of A W^{-1} A^T is cond(R)^2, since G and R share their
    singular values.  R is inverted by LAPACK ``dtrtri``; when
    4 (||R||_F ||R^{-1}||_F)^2, an upper bound on cond(R)^2 with room for the
    rounding in R^{-1}, is within ``_COND_LIMIT``, the conditioning guard and
    the rank test both pass and no SVD is needed.  Any other R, an exactly
    singular one included, is judged by its singular values:
    IllConditionedError when cond(R)^2 exceeds the limit, RankDeficientError
    when fewer than m of them exceed eps * max(m, n) * sigma_max (the rank
    rule of ``numpy.linalg.lstsq``).
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    m, n = A.shape
    if m == 0:
        raise ValueError(f"weighted solve needs at least one row, got 0 rows (0x{n})")
    if y.shape != (m,):
        raise ValueError(f"y must have length {m}")
    if w.shape != (n,) or not np.all(w > 0):
        raise ValueError("weights must be positive and match the column count")
    if m > n:
        raise RankDeficientError(f"{m} rows cannot have full row rank in {n} columns")
    import scipy.linalg  # loads on the first factorization, not with the package

    d = 1.0 / np.sqrt(w)
    G = A * d[None, :]
    R = np.triu(scipy.linalg.lapack.dgeqrf(G.T)[0][:m])
    R_inv, info = scipy.linalg.lapack.dtrtri(R)
    # info > 0 flags an exactly zero diagonal entry of R; the SVD tests reject such an R
    if info != 0 or 4.0 * (np.linalg.norm(R) * np.linalg.norm(R_inv)) ** 2 > _COND_LIMIT:
        sing = np.linalg.svd(R, compute_uv=False)
        if sing[-1] > 0.0 and (sing[0] / sing[-1]) ** 2 > _COND_LIMIT:
            raise IllConditionedError(
                f"weighted normal system condition {(sing[0] / sing[-1]) ** 2:.2e} exceeds {_COND_LIMIT:g}"
            )
        rank = np.count_nonzero(sing > np.finfo(float).eps * n * sing[0])
        if rank < m:
            raise RankDeficientError("weighted system lost row rank")
    u = G.T @ (R_inv @ (R_inv.T @ y))
    u += G.T @ (R_inv @ (R_inv.T @ (y - G @ u)))
    return d * u


def _parse_cell(text: str, line_no: int, col_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MatrixFormatError(f"line {line_no}, field {col_no}: not a number: {text!r}") from None
    if not np.isfinite(value):
        raise MatrixFormatError(f"line {line_no}, field {col_no}: NaN/Inf not allowed")
    return value


def read_matrix_csv(path) -> np.ndarray:
    """Matrix from CSV, one row per line, locale-independent decimal point."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            values = [_parse_cell(cell.strip(), line_no, i + 1) for i, cell in enumerate(row)]
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise MatrixFormatError(f"line {line_no}: expected {width} fields, got {len(values)}")
            rows.append(values)
    if not rows:
        raise MatrixFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def read_vector_csv(path) -> np.ndarray:
    data = read_matrix_csv(path)
    if 1 not in data.shape:
        raise MatrixFormatError(f"{path}: expected a vector, got shape {data.shape}")
    return data.ravel()


def write_matrix_csv(path, M: np.ndarray) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in M:
            writer.writerow([repr(float(v)) for v in row])


def write_vector_csv(path, v: np.ndarray) -> None:
    write_matrix_csv(path, np.asarray(v, dtype=float).reshape(-1, 1))
