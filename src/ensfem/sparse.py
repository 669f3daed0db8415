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

A block of `padded_rows` rows, n padded to whole tiles and zero past n, is
solved in place (`solve(b, overwrite_b=True)`): the tiled path views it as
its tiles, so the caller's block is the solve's, with no zero-fill and no
copy.

`interleaved_block_diagonal` holds J members' matrices on one pattern in a
row layout of the caller's, such as the solver's: free rows in elimination
order, padding, then the tagged rows. Matrix row r*J + j is member j's
pattern row rows[r], so that a product with it reads and writes a C-ordered
(size, J) block as it lies. `interleave` moves the members' data into its
entries by one fancy index: each row's slots are a window of the data.

Module-level counters record every factorization and block solve in the
process, so that solver-call laws can be asserted by tests and measured by
the benchmark; a run's own counts are kept by its stepper.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
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


def _rows_of(pattern: sp.csr_matrix, rows: np.ndarray, data: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray | None]:
    """The entries of pattern rows `rows` in `data`, shape (..., pattern.nnz) in slot order,
    as one block (len(rows), ..., width) for the longest row's width, gathered by one fancy
    index of the window of `width` slots that starts at each row's first slot; and the
    mask of each row's own slots in its window, None when every row has one length."""
    lengths = np.diff(pattern.indptr)[rows]
    width, starts = lengths.max(initial=0), pattern.indptr[rows]
    # the window of a row shorter than `width` may run past the data's end: pad the data
    beyond = starts.max(initial=0) + width - data.shape[-1]
    if beyond > 0:
        data = np.concatenate((data, np.zeros(data.shape[:-1] + (beyond,), data.dtype)), axis=-1)
    windows = np.moveaxis(sliding_window_view(data, width, axis=-1), -2, 0)
    held = np.arange(width) < lengths[:, None]
    return windows[starts], None if held.all() else held


def _entry_order(block: np.ndarray, held: np.ndarray | None) -> np.ndarray:
    """The held elements of a (rows, J, width) block in C order: matrix row r J + j's
    entries in turn."""
    if held is None:
        return block.ravel()
    return block[np.repeat(held[:, None], block.shape[1], axis=1)]


def interleave(pattern: sp.csr_matrix, rows: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Members' data, shape (J, pattern.nnz) in the pattern's slot order, as the entries of
    their `interleaved_block_diagonal` over `rows`: matrix row r J + j holds member j's
    data of pattern row rows[r] in slot order, so that each product adds in the pattern's
    order. Slot numbers moved through it give the index map of later refills."""
    return _entry_order(*_rows_of(pattern, rows, data))


def interleaved_block_diagonal(pattern: sp.csr_matrix, rows: np.ndarray, position: np.ndarray,
                               block: tuple[int, int], values: np.ndarray) -> sp.csr_matrix:
    """J members' matrices on `pattern` as one block-diagonal CSR that acts on the ravel of
    a C-ordered block of shape `block` = (size, J) whose row position[k] holds DOF k, each
    member's column its own. Block row r < len(rows) is pattern row rows[r], and the
    later block rows are empty, so the product leaves them +0.0.

    `values` come from `interleave` over `rows`, whose input the caller may free first."""
    size, j_count = block
    index_dtype = np.int32 if max(values.size, size * j_count) <= np.iinfo(np.int32).max \
        else np.int64
    indptr = np.full(size * j_count + 1, values.size, dtype=index_dtype)
    indptr[0] = 0
    np.cumsum(np.repeat(np.diff(pattern.indptr)[rows], j_count),
              out=indptr[1:len(rows) * j_count + 1])
    own, held = _rows_of(pattern, rows, (position[pattern.indices] * j_count).astype(index_dtype))
    columns = own[:, None] + np.arange(j_count, dtype=index_dtype)[:, None]  # (rows, J, width)
    return sp.csr_matrix((values, _entry_order(columns, held), indptr),
                         shape=(size * j_count,) * 2)


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
        strides = (nb * (kd + 1) * item, item, kd * item)  # the first from one tile to the next
        # views made by the ndarray constructor, which costs less than as_strided
        diagonal = np.ndarray((self.count, nb, nb), flat.dtype, flat, 0, strides)
        corner = np.ndarray((max(self.count - 1, 0), kd, kd), flat.dtype,
                            flat[nb * (kd + 1) - kd * kd:], 0, strides)
        # a copy, then a product in place, runs faster than one product that reads
        # the strided views
        diagonal, corner = diagonal.copy(), corner.copy()
        diagonal *= lower
        corner *= upper
        return diagonal, corner


def _plan_of(a: sp.csr_matrix) -> _BandedPlan:
    """The banded plan of a's pattern, made on first use and cached on the matrix; making
    it refuses a matrix that is not symmetric."""
    plan = getattr(a, "_ensfem_plan", None)
    if plan is None:
        if a.nnz and abs(a - a.T).max() > 1e-12 * np.abs(a.data).max():
            raise ValueError("matrix is not symmetric; the factor reads its upper triangle")
        plan = a._ensfem_plan = _BandedPlan(a)
    return plan


def padded_rows(a) -> int:
    """Rows of the blocks that `CholeskyFactor.solve` overwrites in place for matrices on
    a's pattern: n padded to whole tiles of the tiled solve."""
    plan = _plan_of(_as_csr(a))
    return plan.count * plan.edge


class CholeskyFactor:
    """Banded Cholesky factorization of a sparse SPD matrix in the order given; immutable.

    It reads the upper triangle only, so a matrix with max |A - A^T| above
    1e-12 max |A| is refused with a ValueError. The check runs when the
    matrix's banded plan is made, by the first factorization or `padded_rows`,
    so data later rewritten in place on that matrix (as
    `fem.DirichletConstraint.refill` does) are not checked again.
    """

    def __init__(self, a):
        a = _as_csr(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got {a.shape}")
        if a.nnz and not np.isfinite(a.data).all():
            raise ValueError("matrix contains non-finite entries")
        # the plan depends only on the pattern: cached on the matrix for its refactorizations
        plan = _plan_of(a)
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

    def solve(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        """Solve A x = b for a vector or an n-by-J block of right-hand sides; b is left unchanged.

        With `overwrite_b`, b is a C-ordered float block of `padded_rows` rows, zero past
        row n, and the solve runs in place: x overwrites its first n rows, which are
        returned, and the rows past n stay zero. Without it, b is copied into such a
        block (a vector into a vector of that length) and solved there. A wide block is
        solved where it lies, viewed as its tiles; a narrow one, or a vector, by pbtrs,
        whose result is written back."""
        plan = self._plan
        rows = plan.count * plan.edge
        if overwrite_b:
            if not (isinstance(b, np.ndarray) and b.dtype == np.float64 and b.ndim == 2
                    and b.flags.c_contiguous and b.shape[0] == rows):
                raise ValueError(f"an in-place solve takes a C-ordered float block of "
                                 f"{rows} rows")
        else:
            given = np.asarray(b, dtype=float)
            if given.shape[0] != plan.n:
                raise ValueError(f"dimension mismatch: factor {self.shape}, rhs {given.shape}")
            b = np.zeros((rows,) + given.shape[1:])
            b[:plan.n] = given  # rows past n stay zero
        x = b[:plan.n]
        if b.ndim == 2 and b.shape[1] >= self.tiled_columns:
            self._solve_tiled(b)
        elif x.size:  # pbtrs rejects the empty block of a mesh without free DOFs
            y, info = dpbtrs(self._cb, x, lower=1)
            if info:
                raise ValueError(f"pbtrs rejected its argument {-info}")
            x[...] = y
        _count_solve(1 if b.ndim == 1 else b.shape[1])
        return x

    def _solve_tiled(self, b: np.ndarray) -> None:
        """Solve in place a C-ordered block of K nb rows, zero past row n."""
        diagonal, corner = self._plan.tiles(self._padded)
        count, nb, _ = diagonal.shape
        kd = corner.shape[1]
        # a row-major tile or block is its column-major transpose, so BLAS works
        # from the right on D_k^T, C_k^T and the transposed row blocks of z,
        # which are Fortran-contiguous and so overwritten in place; the
        # transposes are taken once, and the BLAS arguments are passed by
        # position, which f2py parses faster than keywords:
        # dgemm(alpha, a, b, beta, c, trans_a, trans_b, overwrite_c) and
        # dtrsm(alpha, a, b, side, lower, trans_a, diag, overwrite_b)
        z = b.reshape(count, nb, b.shape[1]).transpose(0, 2, 1)  # a view: b is C-ordered
        diagonal, corner = diagonal.transpose(0, 2, 1), corner.transpose(0, 2, 1)
        # forward, L y = b: D_k Y_k = B_k - S_k Y_{k-1}, and S_k Y_{k-1} is
        # C_k Y_{k-1}[nb - kd:] in rows :kd
        for k in range(count):
            if k and kd:
                dgemm(-1.0, z[k - 1, :, nb - kd:], corner[k - 1], 1.0, z[k, :, :kd], 0, 0, 1)
            dtrsm(1.0, diagonal[k], z[k], 1, 0, 0, 0, 1)
        # backward, L^T x = y: D_k^T X_k = Y_k - S_{k+1}^T X_{k+1}, and S_{k+1}^T X_{k+1}
        # is C_{k+1}^T X_{k+1}[:kd] in rows nb - kd:
        for k in reversed(range(count)):
            if k < count - 1 and kd:
                dgemm(-1.0, z[k + 1, :, :kd], corner[k], 1.0, z[k, :, nb - kd:], 0, 1, 1)
            dtrsm(1.0, diagonal[k], z[k], 1, 0, 1, 0, 1)


def spd_factorize(a) -> CholeskyFactor:
    """Factorize a sparse SPD matrix, in the order given, for reuse against any number
    of right-hand sides."""
    return CholeskyFactor(a)
