"""Sparse SPD algebra: one factorization reused against dense blocks of right-hand sides.

The backend runs a banded Cholesky factorization (LAPACK pbtrf), exact-pivot
Cholesky that fails loudly on indefinite input, in the order given. The order
is the caller's: `fem.DirichletConstraint` numbers its free DOFs in the
reverse Cuthill-McKee order of their block (`band_ordering`), so its stepping
systems arrive banded and no solve permutes. A vector or a narrow block is
solved by LAPACK pbtrs, two level-2 band sweeps per column. A wide block is
solved by a level-3 tiled path instead: the band factor is viewed as block
lower-bidiagonal with square tiles of edge nb = max(band width kd + 1,
`TILE`), and each sweep is, per tile, one BLAS gemm that updates in place
only the kd rows the sub-diagonal tile's (kd, kd) corner couples, and one
BLAS trsm on the factor's own diagonal tile, over all columns. The band
storage is padded to whole tiles with a unit diagonal, so both tile families
are strided views of the factor, masked to the band, and nothing is gathered
by index. A block is wide from ceil(8 nb / (kd + 1)) columns on under tiles
of edge `TILE` and from 12 under wider ones, the measured crossovers below
which the per-tile BLAS calls cost more than the pbtrs sweeps they replace.

`interleaved_block_diagonal` holds J members' matrices on one pattern, row
i*J + j member j's row i, so that a product with it reads and writes a
C-ordered (n, J) block as it lies.

Module-level counters record every factorization and block solve in the
process, so that solver-call laws can be asserted by tests and measured by
the benchmark; a run's own counts are kept by its stepper.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee


#: smallest tile edge of the tiled level-3 solve
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


def interleave(pattern: sp.csr_matrix, data: np.ndarray) -> np.ndarray:
    """Members' data, shape (J, pattern.nnz) in the pattern's slot order, as the entries of
    their `interleaved_block_diagonal`. A run of rows of one length, slots a..b, moves
    data[:, a:b] viewed (J, rows, length) to entries a*J..b*J viewed (rows, J, length)."""
    j_count, lengths = len(data), np.diff(pattern.indptr)
    firsts = np.flatnonzero(np.diff(lengths, prepend=-1))  # the first row of each run
    entries = np.empty(data.size, data.dtype)
    for r0, r1 in zip(firsts, np.append(firsts[1:], len(lengths))):
        a, b, rows, length = pattern.indptr[r0], pattern.indptr[r1], r1 - r0, lengths[r0]
        entries[a * j_count:b * j_count].reshape(rows, j_count, length)[:] = (
            data[:, a:b].reshape(j_count, rows, length).transpose(1, 0, 2))
    return entries


def interleaved_block_diagonal(pattern: sp.csr_matrix, values: np.ndarray,
                               j_count: int) -> sp.csr_matrix:
    """Block-diagonal CSR of J members on `pattern`'s sparsity whose row i*J + j is member
    j's row i: its product with a C-ordered (n, J) block's ravel is the (n, J) product's
    ravel. `values` come from `interleave`, whose input the caller may free first."""
    index_dtype = np.int32 if pattern.nnz * j_count <= np.iinfo(np.int32).max else np.int64
    members = np.arange(j_count, dtype=index_dtype)
    indptr = np.append(pattern.indptr[:-1, None].astype(index_dtype) * j_count
                       + np.diff(pattern.indptr)[:, None] * members,
                       index_dtype(pattern.nnz * j_count))
    indices = interleave(pattern, pattern.indices.astype(index_dtype) * j_count + members[:, None])
    return sp.csr_matrix((values, indices, indptr), shape=(len(indptr) - 1,) * 2)


def band_ordering(pattern) -> np.ndarray:
    """Reverse Cuthill-McKee order of a symmetric pattern, which keeps its band narrow."""
    # scipy's RCM fails on the empty free block of a mesh without free DOFs
    return np.asarray(reverse_cuthill_mckee(_as_csr(pattern), symmetric_mode=True)
                      if pattern.shape[0] else [], dtype=np.int64)


class _BandedPlan:
    """Pattern-only preprocessing for the banded backend: the scatter map from
    CSR data slots into banded storage, and on demand the masks of the tiles
    of the multi-column solve. Valid for any matrix with the same sparsity
    pattern, so repeated factorizations of an evolving or reused matrix skip
    this work.

    Lower-banded layout: this LAPACK build runs pbtrf an order of magnitude
    faster on lower storage than on upper."""

    __slots__ = ("bandwidth", "edge", "count", "slots", "positions", "n", "_masks")

    def __init__(self, a: sp.csr_matrix):
        coo = a.tocoo(copy=False)
        upper = coo.row <= coo.col  # keep one triangle; store at (i-j, j) of the lower form
        rows, cols = (index[upper].astype(np.intp) for index in (coo.row, coo.col))
        self.bandwidth = int(np.max(cols - rows)) if len(rows) else 0
        self.n = a.shape[0]
        self.edge = max(self.bandwidth + 1, TILE)  # tile edge nb of the multi-column solve
        self.count = -(-self.n // self.edge)        # tile count K
        # the kept data slots and their flat positions in the column-major
        # (bandwidth + 1, K nb) storage; intp, so that no scatter casts an index array
        self.slots = np.flatnonzero(upper)
        self.positions = cols - rows + rows * (self.bandwidth + 1)
        self._masks = None

    def banded(self, data: np.ndarray) -> np.ndarray:
        """The band storage of the matrix with these data, Fortran-contiguous, padded to
        K nb columns whose last ones hold a unit diagonal; pbtrf factors the leading
        (bandwidth + 1, n) view in place, and the padding is the identity past row n."""
        width = self.bandwidth + 1
        ab = np.zeros(width * self.count * self.edge)
        ab[self.positions] = data.take(self.slots)
        ab[width * self.n::width] = 1.0
        return ab.reshape((width, self.count * self.edge), order="F")

    def tiles(self, factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The diagonal tiles and the coupling corners of a padded band factor.

        Tiles are square with edge nb = max(kd + 1, TILE), kd the band width,
        so the band factor L is block lower-bidiagonal: block row k holds the
        lower triangular D_k and, for k >= 1, S_k to its left. S_k is zero
        outside its upper triangular (kd, kd) corner C_k = S_k[:kd, nb - kd:].
        L[i, j] sits at flat index i + j kd of the column-major storage, so
        each family is one strided view of it, copied and masked to the
        band. Shapes are (K, nb, nb) for D and (K - 1, kd, kd) for C.
        """
        if self._masks is None:
            kd, nb = self.bandwidth, self.edge
            d = np.arange(nb)[:, None] - np.arange(nb)
            self._masks = ((d >= 0) & (d <= kd)).astype(float), np.triu(np.ones((kd, kd)))
        lower, upper = self._masks
        kd, nb, item = self.bandwidth, self.edge, factor.itemsize
        flat = factor.ravel(order="F")
        step = nb * (kd + 1) * item  # from one tile to the next
        diagonal = as_strided(flat, (self.count, nb, nb), (step, item, kd * item))
        corner = as_strided(flat[nb * (kd + 1) - kd * kd:], (max(self.count - 1, 0), kd, kd),
                            (step, item, kd * item))
        # a copy, then a product in place, runs faster than one product that reads
        # the strided views
        diagonal, corner = diagonal.copy(), corner.copy()
        diagonal *= lower
        corner *= upper
        return diagonal, corner


class CholeskyFactor:
    """Banded Cholesky factorization of a sparse SPD matrix in the order given; immutable.

    It reads the upper triangle only, so a matrix with max |A - A^T| above
    1e-12 max |A| is refused with a ValueError. The check runs when the
    matrix's banded plan is made, so data later rewritten in place on that
    matrix (as `fem.DirichletConstraint.refill` does) are not checked again.
    """

    def __init__(self, a):
        a = _as_csr(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got {a.shape}")
        if a.nnz and not np.isfinite(a.data).all():
            raise ValueError("matrix contains non-finite entries")
        # the plan depends only on the pattern: cached on the matrix for its refactorizations
        plan = getattr(a, "_ensfem_plan", None)
        if plan is None:
            if a.nnz and abs(a - a.T).max() > 1e-12 * np.abs(a.data).max():
                raise ValueError("matrix is not symmetric; the factor reads its upper triangle")
            plan = a._ensfem_plan = _BandedPlan(a)
        self._padded = plan.banded(a.data)
        self._cb, info = dpbtrf(self._padded[:, :plan.n], lower=1, overwrite_ab=1)
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
        """Smallest column count of a block that `solve` runs on the tiled path, the
        measured crossover with pbtrs: ceil(8 nb / (kd + 1)) under tiles of edge TILE,
        where a narrow band pads each tile, and 12 under wider band-sized tiles."""
        plan = self._plan
        return -(-8 * plan.edge // (plan.bandwidth + 1)) if plan.edge == TILE else 12

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for a vector or an n-by-J block of right-hand sides."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self._plan.n:
            raise ValueError(f"dimension mismatch: factor {self.shape}, rhs {b.shape}")
        if b.ndim == 2 and b.shape[1] >= self.tiled_columns:
            x = self._solve_tiled(b)
        elif b.size:  # pbtrs rejects the empty block of a mesh without free DOFs
            x, info = dpbtrs(self._cb, b, lower=1)  # on a copy: b is left unchanged
            if info:
                raise ValueError(f"pbtrs rejected its argument {-info}")
        else:
            x = b.copy()
        _count_solve(1 if b.ndim == 1 else b.shape[1])
        return x

    def _solve_tiled(self, b: np.ndarray) -> np.ndarray:
        diagonal, corner = self._plan.tiles(self._padded)
        count, nb, _ = diagonal.shape
        kd = corner.shape[1]
        z = np.zeros((count, nb, b.shape[1]))
        z.reshape(count * nb, b.shape[1])[:len(b)] = b  # rows past n stay zero
        # a row-major tile or block is its column-major transpose, so BLAS works
        # from the right on D_k^T, C_k^T and the transposed row blocks of z,
        # which are Fortran-contiguous and so overwritten in place
        # forward, L y = b: D_k Y_k = B_k - S_k Y_{k-1}, and S_k Y_{k-1} is
        # C_k Y_{k-1}[nb - kd:] in rows :kd
        for k in range(count):
            if k and kd:
                dgemm(-1.0, z[k - 1, nb - kd:].T, corner[k - 1].T, 1.0, z[k, :kd].T,
                      overwrite_c=1)
            dtrsm(1.0, diagonal[k].T, z[k].T, side=1, overwrite_b=1)
        # backward, L^T x = y: D_k^T X_k = Y_k - S_{k+1}^T X_{k+1}, and S_{k+1}^T X_{k+1}
        # is C_{k+1}^T X_{k+1}[:kd] in rows nb - kd:
        for k in reversed(range(count)):
            if k < count - 1 and kd:
                dgemm(-1.0, z[k + 1, :kd].T, corner[k].T, 1.0, z[k, nb - kd:].T,
                      trans_b=1, overwrite_c=1)
            dtrsm(1.0, diagonal[k].T, z[k].T, side=1, trans_a=1, overwrite_b=1)
        return z.reshape(count * nb, b.shape[1])[:len(b)]


def spd_factorize(a) -> CholeskyFactor:
    """Factorize a sparse SPD matrix, in the order given, for reuse against any number
    of right-hand sides."""
    return CholeskyFactor(a)
