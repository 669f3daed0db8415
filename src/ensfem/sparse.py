"""Sparse SPD algebra: one factorization reused against dense blocks of right-hand sides.

The direct backend permutes with reverse Cuthill-McKee and runs a banded
Cholesky factorization (LAPACK pbtrf/pbtrs), which is exact-pivot Cholesky and
fails loudly on indefinite input. A Jacobi-preconditioned conjugate-gradient
backend with the same `solve` surface is available for systems too large to
factor directly.

Module-level counters record every factorization and block solve so that
solver-call laws can be asserted by tests and reported per run.
"""
from __future__ import annotations

import re
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee


class NotSpdError(ValueError):
    """Raised when a matrix handed to the Cholesky backend is not positive definite."""

    def __init__(self, message: str, pivot: int = -1):
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class CounterSnapshot:
    factorizations: int
    block_solves: int
    rhs_columns: int


_lock = threading.Lock()
_factorizations = 0
_block_solves = 0
_rhs_columns = 0


def counters() -> CounterSnapshot:
    with _lock:
        return CounterSnapshot(_factorizations, _block_solves, _rhs_columns)


def reset_counters() -> None:
    global _factorizations, _block_solves, _rhs_columns
    with _lock:
        _factorizations = 0
        _block_solves = 0
        _rhs_columns = 0


def _count_factorization() -> None:
    global _factorizations
    with _lock:
        _factorizations += 1


def _count_solve(columns: int) -> None:
    global _block_solves, _rhs_columns
    with _lock:
        _block_solves += 1
        _rhs_columns += columns


def _as_csr(a) -> sp.csr_matrix:
    if sp.isspmatrix_csr(a) and a.has_sorted_indices:
        return a
    m = sp.csr_matrix(a)
    m.sum_duplicates()
    m.sort_indices()
    return m


def add_scaled(a, alpha: float, b, beta: float) -> sp.csr_matrix:
    """Entrywise alpha*A + beta*B on the union sparsity pattern."""
    a = _as_csr(a)
    b = _as_csr(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _as_csr(alpha * a + beta * b)


def block_diagonal(pattern: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal CSR with J copies of `pattern`'s sparsity; block j holds data[j].

    `data` has shape (J, pattern.nnz). Built straight from offsets of the
    shared index arrays, so no per-block or COO intermediates are made.
    """
    j_count, nnz = data.shape
    n = pattern.shape[0]
    index_dtype = np.int32 if nnz * j_count <= np.iinfo(np.int32).max else np.int64
    offsets = np.arange(j_count, dtype=index_dtype)[:, None]
    indptr = np.append((pattern.indptr[:-1].astype(index_dtype) + nnz * offsets).ravel(),
                       nnz * j_count)
    indices = (pattern.indices.astype(index_dtype) + n * offsets).ravel()
    return sp.csr_matrix((data.ravel(), indices, indptr), shape=(n * j_count, n * j_count))


def _validate_square_finite(a: sp.csr_matrix) -> None:
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if a.nnz and not np.isfinite(a.data).all():
        raise ValueError("matrix contains non-finite entries")


class _BandedPlan:
    """Pattern-only preprocessing for the banded backend: permutation plus the
    scatter map from CSR data slots into banded storage. Valid for any matrix
    with the same sparsity pattern, so repeated factorizations of an evolving
    or reused matrix skip the ordering work.

    Lower-banded layout: this LAPACK build runs pbtrf an order of magnitude
    faster on lower storage than on upper."""

    __slots__ = ("perm", "bandwidth", "mask", "ab_rows", "ab_cols", "n")

    def __init__(self, a: sp.csr_matrix, ordering: str):
        n = a.shape[0]
        if ordering == "rcm":
            perm = np.asarray(reverse_cuthill_mckee(a, symmetric_mode=True),
                              dtype=np.int64)
        elif ordering == "natural":
            perm = np.arange(n, dtype=np.int64)
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n, dtype=np.int64)
        coo = a.tocoo(copy=False)
        rows = inverse[coo.row]
        cols = inverse[coo.col]
        self.mask = rows <= cols  # keep one triangle; store at (i-j, j) of the lower form
        rows, cols = rows[self.mask], cols[self.mask]
        self.bandwidth = int(np.max(cols - rows)) if len(rows) else 0
        self.ab_rows = cols - rows
        self.ab_cols = rows
        self.perm = perm
        self.n = n

    def banded(self, data: np.ndarray) -> np.ndarray:
        ab = np.zeros((self.bandwidth + 1, self.n), order="F")
        ab[self.ab_rows, self.ab_cols] = data[self.mask]
        return ab


def _banded_plan(a: sp.csr_matrix, ordering: str) -> _BandedPlan:
    # the plan depends only on the sparsity pattern; cache it on the matrix
    # object so steppers that refactorize a reused matrix pay for it once
    cached = getattr(a, "_ensfem_plan", None)
    if cached is not None and cached[0] == ordering:
        return cached[1]
    plan = _BandedPlan(a, ordering)
    try:
        a._ensfem_plan = (ordering, plan)
    except AttributeError:
        pass
    return plan


class CholeskyFactor:
    """Banded Cholesky factorization of a sparse SPD matrix, immutable after construction."""

    def __init__(self, a, ordering: str = "rcm"):
        a = _as_csr(a)
        _validate_square_finite(a)
        plan = _banded_plan(a, ordering)
        try:
            self._cb = cholesky_banded(plan.banded(a.data), lower=True,
                                       check_finite=False)
        except LinAlgError as exc:
            m = re.search(r"(\d+)", str(exc))
            pivot = int(m.group(1)) if m else -1
            raise NotSpdError(f"matrix is not positive definite (pivot {pivot})",
                              pivot=pivot) from exc
        self._perm = plan.perm
        self._n = plan.n
        _count_factorization()

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for a vector or an n-by-J block of right-hand sides."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self._n:
            raise ValueError(f"dimension mismatch: factor {self.shape}, rhs {b.shape}")
        xp = cho_solve_banded((self._cb, True), b[self._perm], check_finite=False)
        x = np.empty_like(xp)
        x[self._perm] = xp
        _count_solve(1 if b.ndim == 1 else b.shape[1])
        return x


class ConjugateGradientSolver:
    """Jacobi-preconditioned CG over a block of right-hand sides, same surface as the factor."""

    def __init__(self, a, tol: float = 1e-10, maxiter: int | None = None):
        a = _as_csr(a)
        _validate_square_finite(a)
        diag = a.diagonal()
        if np.any(diag <= 0):
            pivot = int(np.argmax(diag <= 0)) + 1
            raise NotSpdError(f"matrix is not positive definite (pivot {pivot})", pivot=pivot)
        self._a = a
        self._minv = 1.0 / diag
        self._tol = tol
        self._maxiter = maxiter if maxiter is not None else 10 * a.shape[0]
        _count_factorization()

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self._a.shape[0]:
            raise ValueError(f"dimension mismatch: operator {self.shape}, rhs {b.shape}")
        squeeze = b.ndim == 1
        bb = b[:, None] if squeeze else b
        x = np.zeros_like(bb)
        r = bb - self._a @ x
        z = self._minv[:, None] * r
        p = z.copy()
        rz = np.einsum("ij,ij->j", r, z)
        bnorm = np.linalg.norm(bb, axis=0)
        target = self._tol * np.where(bnorm > 0, bnorm, 1.0)
        for _ in range(self._maxiter):
            if np.all(np.linalg.norm(r, axis=0) <= target):
                break
            ap = self._a @ p
            pap = np.einsum("ij,ij->j", p, ap)
            alpha = np.where(pap > 0, rz / np.where(pap > 0, pap, 1.0), 0.0)
            x += alpha * p
            r -= alpha * ap
            z = self._minv[:, None] * r
            rz_new = np.einsum("ij,ij->j", r, z)
            beta = np.where(rz > 0, rz_new / np.where(rz > 0, rz, 1.0), 0.0)
            p = z + beta * p
            rz = rz_new
        else:
            raise RuntimeError(f"CG did not reach tolerance {self._tol} "
                               f"within {self._maxiter} iterations")
        _count_solve(bb.shape[1])
        return x[:, 0] if squeeze else x


SpdFactorization = CholeskyFactor | ConjugateGradientSolver


def spd_factorize(a, method: str = "cholesky", ordering: str = "rcm",
                  tol: float = 1e-10) -> SpdFactorization:
    """Prepare a reusable solver for a sparse SPD matrix.

    `method="cholesky"` is the direct banded backend; `method="cg"` returns the
    iterative fallback (relative residual `tol`) behind the same interface.
    """
    if method == "cholesky":
        return CholeskyFactor(a, ordering=ordering)
    if method == "cg":
        return ConjugateGradientSolver(a, tol=tol)
    raise ValueError(f"unknown method {method!r}")

