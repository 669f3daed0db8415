"""Sparse SPD algebra: one factorization reused against dense blocks of right-hand sides.

The backend permutes with reverse Cuthill-McKee and runs a banded Cholesky
factorization (LAPACK pbtrf), which is exact-pivot Cholesky and fails loudly on
indefinite input. The stepping systems it factorizes are the free-free blocks
of Dirichlet-constrained systems (`fem.DirichletConstraint.matrix`), so the
ordering sees only the couplings between unknown DOFs. A vector or a narrow
block is solved by LAPACK pbtrs, two level-2 band sweeps per column. A wide
block is solved by a level-3 tiled path instead: the band factor is viewed as
block lower-bidiagonal with square tiles of edge nb = max(band width + 1,
`TILE`), and each sweep is, per tile, one matrix product with the
sub-diagonal tile and one BLAS trsm on the factor's own diagonal tile, over
all columns. A block is wide from max(`TILE`, nb // 2) columns on: a
band-sized tile is half zeros, and below that count the products and
triangular solves on it cost more than the pbtrs sweeps they replace.

Module-level counters record every factorization and block solve in the
process, so that solver-call laws can be asserted by tests and measured by
the benchmark; a run's own counts are kept by its stepper.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee


#: smallest column count of a block solved by the tiled level-3 path, and the
#: smallest tile edge of that path
TILE = 32


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
    scatter map from CSR data slots into banded storage, and on demand the
    gather map from banded storage into the tiles of the multi-column solve.
    Valid for any matrix with the same sparsity pattern, so repeated
    factorizations of an evolving or reused matrix skip the ordering work.

    Lower-banded layout: this LAPACK build runs pbtrf an order of magnitude
    faster on lower storage than on upper."""

    __slots__ = ("perm", "bandwidth", "edge", "mask", "ab_rows", "ab_cols", "n", "_tiles")

    def __init__(self, a: sp.csr_matrix):
        n = a.shape[0]
        # scipy's RCM fails on the empty free block of a mesh without free DOFs
        perm = np.asarray(reverse_cuthill_mckee(a, symmetric_mode=True) if n else [],
                          dtype=np.int64)
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n, dtype=np.int64)
        coo = a.tocoo(copy=False)
        rows = inverse[coo.row]
        cols = inverse[coo.col]
        self.mask = rows <= cols  # keep one triangle; store at (i-j, j) of the lower form
        rows, cols = rows[self.mask], cols[self.mask]
        self.bandwidth = int(np.max(cols - rows)) if len(rows) else 0
        self.edge = max(self.bandwidth + 1, TILE)  # tile edge nb of the multi-column solve
        self.ab_rows = cols - rows
        self.ab_cols = rows
        self.perm = perm
        self.n = n
        self._tiles = None

    def banded(self, data: np.ndarray) -> np.ndarray:
        ab = np.zeros((self.bandwidth + 1, self.n), order="F")
        ab[self.ab_rows, self.ab_cols] = data[self.mask]
        return ab

    def tiles(self) -> tuple[np.ndarray, np.ndarray]:
        """Gather indices of the diagonal and sub-diagonal tiles of a band factor.

        Tiles are square with edge nb = max(bandwidth + 1, TILE), so the band
        factor L is block lower-bidiagonal: block row k holds the lower
        triangular D_k and, for k >= 1, S_k to its left. The indices address
        the factor's column-major banded storage extended by a trailing 0 and 1;
        rows past n gather zeros, with ones on the diagonal of the last tile.
        Shapes are (K, nb, nb) for D and (K - 1, nb, nb) for S.
        """
        if self._tiles is None:
            n, width, nb = self.n, self.bandwidth + 1, self.edge
            count = -(-n // nb)
            zero, one = width * n, width * n + 1
            index_dtype = np.int32 if one <= np.iinfo(np.int32).max else np.int64
            r = np.arange(nb)[:, None]
            c = np.arange(nb)[None, :]
            i = np.arange(count)[:, None, None] * nb + r  # global row of each tile entry
            j = i - r + c                                   # global column, diagonal tile
            d = r - c
            diagonal = np.where((d >= 0) & (d < width) & (i < n), j * width + d,
                                np.where((d == 0) & (i >= n), one, zero))
            d = d + nb                                      # S_k sits one tile to the left
            sub = np.where((d < width) & (i < n), (j - nb) * width + d, zero)[1:]
            self._tiles = (diagonal.astype(index_dtype), sub.astype(index_dtype))
        return self._tiles


def _banded_plan(a: sp.csr_matrix) -> _BandedPlan:
    # the plan depends only on the sparsity pattern; cache it on the matrix
    # object so steppers that refactorize a reused matrix pay for it once
    plan = getattr(a, "_ensfem_plan", None)
    if plan is None:
        plan = a._ensfem_plan = _BandedPlan(a)
    return plan


class CholeskyFactor:
    """Banded Cholesky factorization of a sparse SPD matrix, immutable after construction."""

    def __init__(self, a):
        a = _as_csr(a)
        _validate_square_finite(a)
        plan = _banded_plan(a)
        self._cb, info = dpbtrf(plan.banded(a.data), lower=1, overwrite_ab=1)
        if info > 0:
            raise NotSpdError(f"matrix is not positive definite (pivot {info})", pivot=info)
        if info < 0:
            raise ValueError(f"pbtrf rejected its argument {-info}")
        self._plan = plan
        _count_factorization()

    @property
    def shape(self) -> tuple[int, int]:
        return (self._plan.n, self._plan.n)

    @property
    def tiled_columns(self) -> int:
        """Smallest column count of a block that `solve` runs on the tiled path."""
        return max(TILE, self._plan.edge // 2)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for a vector or an n-by-J block of right-hand sides."""
        b = np.asarray(b, dtype=float)
        perm = self._plan.perm
        if b.shape[0] != self._plan.n:
            raise ValueError(f"dimension mismatch: factor {self.shape}, rhs {b.shape}")
        if b.ndim == 2 and b.shape[1] >= self.tiled_columns:
            x = self._solve_tiled(b)
        else:
            xp = b[perm]
            if xp.size:  # pbtrs rejects the empty block of a mesh without free DOFs
                xp, info = dpbtrs(self._cb, xp, lower=1, overwrite_b=1)
                if info:
                    raise ValueError(f"pbtrs rejected its argument {-info}")
            x = np.empty_like(xp)
            x[perm] = xp
        _count_solve(1 if b.ndim == 1 else b.shape[1])
        return x

    def _solve_tiled(self, b: np.ndarray) -> np.ndarray:
        banded = np.append(self._cb.ravel(order="F"), (0.0, 1.0))
        diagonal, sub = (banded[index] for index in self._plan.tiles())
        count, nb, _ = diagonal.shape
        n, perm = self._plan.n, self._plan.perm
        z = np.zeros((count * nb, b.shape[1]))
        z[:n] = b[perm]
        z = z.reshape(count, nb, b.shape[1])
        # a row-major tile or block is its column-major transpose, so trsm solves
        # from the right on D_k^T and z[k].T; z[k].T is Fortran-contiguous, so
        # trsm overwrites it in place
        # forward, L y = b: D_k Y_k = B_k - S_k Y_{k-1}
        for k in range(count):
            if k:
                z[k] -= sub[k - 1] @ z[k - 1]
            dtrsm(1.0, diagonal[k].T, z[k].T, side=1, overwrite_b=1)
        # backward, L^T x = y: D_k^T X_k = Y_k - S_{k+1}^T X_{k+1}
        for k in reversed(range(count)):
            if k < count - 1:
                z[k] -= sub[k].T @ z[k + 1]
            dtrsm(1.0, diagonal[k].T, z[k].T, side=1, trans_a=1, overwrite_b=1)
        x = np.empty((n, b.shape[1]))
        x[perm] = z.reshape(count * nb, b.shape[1])[:n]
        return x


def spd_factorize(a) -> CholeskyFactor:
    """Factorize a sparse SPD matrix once for reuse against any number of right-hand sides."""
    return CholeskyFactor(a)
