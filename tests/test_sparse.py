import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dpbtrf

from ensfem import sparse
from ensfem.fem import (DirichletConstraint, assemble_mass, assemble_stiffness, build_space,
                        constant_field)
from ensfem.mesh import BoundaryTag, uniform_triangulation
from ensfem.sparse import NotSpdError, add_scaled, counters, spd_factorize


def fem_system(nx=4, degree=1, dt=0.1):
    space = build_space(uniform_triangulation(nx, nx), degree)
    return add_scaled(assemble_mass(space), 1.0 / dt,
                      assemble_stiffness(space, constant_field(1.0), 0.0), 1.0)


class TestAddScaled:
    def test_identity_combination(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert abs(add_scaled(a, 1.0, a, 0.0) - a).max() == 0.0

    def test_cancellation(self):
        a = fem_system()
        assert abs(add_scaled(a, 1.0, a, -1.0)).max() == 0.0

    def test_against_dense_arithmetic(self):
        space = build_space(uniform_triangulation(1, 1), 1)
        m = assemble_mass(space)
        k = assemble_stiffness(space, constant_field(1.0), 0.0)
        combined = add_scaled(m, 10.0, k, 1.0).toarray()
        assert np.allclose(combined, 10.0 * m.toarray() + k.toarray(), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            add_scaled(sp.eye(3, format="csr"), 1.0, sp.eye(4, format="csr"), 1.0)


class TestFactorize:
    def test_identity_solves_exactly(self):
        f = spd_factorize(sp.eye(5, format="csr"))
        b = np.arange(5.0)
        assert np.array_equal(f.solve(b), b)

    def test_two_by_two_hand_solve(self):
        f = spd_factorize(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert np.allclose(f.solve(np.array([3.0, 3.0])), [1.0, 1.0], atol=1e-14)

    def test_fem_system_residual(self):
        a = fem_system(nx=4)
        b = np.random.default_rng(0).normal(size=a.shape[0])
        x = spd_factorize(a).solve(b)
        assert np.abs(a @ x - b).max() <= 1e-10 * np.abs(b).max()

    def test_indefinite_matrix_reports_pivot(self):
        with pytest.raises(NotSpdError) as err:
            spd_factorize(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert err.value.pivot == 2

    def test_empty_matrix_solves(self):
        # the free block of a mesh whose DOFs are all tagged has no rows
        f = spd_factorize(sp.csr_matrix((0, 0)))
        assert f.solve(np.zeros(0)).shape == (0,)
        assert f.solve(np.zeros((0, 3))).shape == (0, 3)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            spd_factorize(sp.csr_matrix(np.ones((2, 3))))

    def test_nonsymmetric_rejected(self):
        # the factor reads the upper triangle only: a nonsymmetric matrix would be
        # factorized silently as a different one
        a = fem_system(nx=4).tolil()
        a[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            spd_factorize(a.tocsr())
        # rounding-level asymmetry, as assembly leaves, passes
        b = fem_system(nx=4).tolil()
        b[0, 1] *= 1.0 + 1e-14
        spd_factorize(b.tocsr())

    def test_symmetry_checked_once_per_matrix(self, monkeypatch):
        # the check rides on the plan, so refactorizing a planned matrix skips it
        a = fem_system(nx=4)
        spd_factorize(a)
        checks = []
        transpose = sp.csr_matrix.transpose
        monkeypatch.setattr(sp.csr_matrix, "transpose",
                            lambda *args, **kw: checks.append(1) or transpose(*args, **kw))
        spd_factorize(a)
        assert checks == []
        spd_factorize(a.copy())
        assert checks

    def test_counter_increments(self):
        before = counters()
        a = fem_system()
        spd_factorize(a)
        spd_factorize(a)
        assert counters().factorizations - before.factorizations == 2


class TestSolveBlock:
    def test_inverse_columnwise(self):
        a = fem_system(nx=2)
        x = spd_factorize(a).solve(np.eye(a.shape[0]))
        assert np.abs(a @ x - np.eye(a.shape[0])).max() < 1e-10

    def test_single_column_consistency(self):
        a = fem_system(nx=3)
        f = spd_factorize(a)
        b = np.random.default_rng(1).normal(size=(a.shape[0], 3))
        block = f.solve(b)
        for j in range(3):
            assert np.allclose(block[:, j], f.solve(b[:, j]), atol=1e-14)

    def test_block_residuals(self):
        a = fem_system(nx=4)
        b = np.random.default_rng(2).normal(size=(a.shape[0], 8))
        x = spd_factorize(a).solve(b)
        assert np.abs(a @ x - b).max() <= 1e-10 * np.abs(b).max()

    def test_solve_counter_counts_columns(self):
        before = counters()
        a = fem_system(nx=2)
        f = spd_factorize(a)
        f.solve(np.ones((a.shape[0], 7)))
        f.solve(np.ones(a.shape[0]))
        after = counters()
        assert after.block_solves - before.block_solves == 2
        assert after.rhs_columns - before.rhs_columns == 8

    def test_dimension_mismatch(self):
        f = spd_factorize(fem_system(nx=2))
        with pytest.raises(ValueError, match="mismatch"):
            f.solve(np.ones(3))


class TestBlockDiagonal:
    def test_matches_scipy_block_diag(self):
        # the member-major block diagonal under the perfect shuffle, which takes
        # row j*n + i to row i*J + j, for one member and for four; the P1 and P2
        # row lengths change along the rows, so the held slots are masked. Then in
        # layouts of the caller's: some rows held, in a permuted order, three
        # padding rows, then the others. Half the rows, or the rows of the greatest
        # length, which take the path without a mask
        for degree, members in itertools.product((1, 2), (1, 4)):
            pattern = fem_system(nx=3, degree=degree)
            n = pattern.shape[0]
            lengths = np.diff(pattern.indptr)
            assert np.count_nonzero(np.diff(lengths)) > 5
            data = np.random.default_rng(9).normal(size=(members, pattern.nnz))
            blocks = [sp.csr_matrix((d, pattern.indices, pattern.indptr), shape=pattern.shape)
                      for d in data]
            shuffle = (np.arange(members) * n + np.arange(n)[:, None]).ravel()
            reference = sp.block_diag(blocks, format="csr")[shuffle][:, shuffle]
            identity = np.arange(n)
            got = sparse.interleaved_block_diagonal(pattern, identity, identity, (n, members),
                                                    sparse.interleave(pattern, identity, data))
            assert got.shape == (members * n,) * 2 and got.has_sorted_indices
            assert abs(got - reference).max() == 0.0
            # member J-1's row 5 holds its entries in the pattern's slot order
            row = members * 5 + members - 1
            assert np.array_equal(got.data[got.indptr[row]:got.indptr[row + 1]],
                                  data[-1, pattern.indptr[5]:pattern.indptr[6]])

            shuffled = np.random.default_rng(degree).permutation(n)
            longest = np.flatnonzero(lengths == lengths.max())[::-1]
            assert longest.size > 1
            for held in (shuffled[:n // 2], longest):
                rest = np.setdiff1d(identity, held)
                position = np.empty(n, dtype=np.intp)
                position[held] = np.arange(held.size)
                position[rest] = held.size + 3 + np.arange(rest.size)
                got = sparse.interleaved_block_diagonal(pattern, held, position,
                                                        (n + 3, members),
                                                        sparse.interleave(pattern, held, data))
                dense = reference.toarray()
                dense[np.isin(identity, rest).repeat(members)] = 0.0  # rows not held: empty
                spread = (position[:, None] * members + np.arange(members)).ravel()
                want = np.zeros(((n + 3) * members,) * 2)
                want[np.ix_(spread, spread)] = dense
                assert got.shape == want.shape and np.array_equal(got.toarray(), want)
                row = members * 2 + members - 1  # member J-1's entries of pattern row held[2]
                assert np.array_equal(
                    got.data[got.indptr[row]:got.indptr[row + 1]],
                    data[-1, pattern.indptr[held[2]]:pattern.indptr[held[2] + 1]])
                assert got.indptr[held.size * members] == got.nnz
                # slot numbers moved as the data are give the index map of a refill
                order = sparse.interleave(pattern, held, np.arange(data.size).reshape(data.shape))
                assert np.array_equal(got.data, data.ravel()[order])


class TestReuseAndOrdering:
    def test_factor_reuse_matches_refactorization(self):
        a = fem_system(nx=4)
        rng = np.random.default_rng(7)
        blocks = [rng.normal(size=(a.shape[0], 3)) for _ in range(4)]
        f = spd_factorize(a)
        reused = [f.solve(b) for b in blocks]
        fresh = [spd_factorize(a).solve(b) for b in blocks]
        for x, y in zip(reused, fresh):
            assert np.abs(x - y).max() < 1e-12

    @pytest.mark.parametrize("nx, degree", [(4, 1), (4, 2)])
    def test_factorizes_in_given_order(self, nx, degree):
        # no reordering: the factor is the Cholesky factor of the matrix's own band;
        # symmetrized bit for bit, so that its lower band is its upper band
        a = fem_system(nx=nx, degree=degree)
        a = ((a + a.T) * 0.5).tocsr()
        dense = a.toarray()
        rows, cols = np.nonzero(dense)
        bandwidth = int((rows - cols).max())
        lower = np.zeros((bandwidth + 1, a.shape[0]))
        for k in range(bandwidth + 1):
            lower[k, :a.shape[0] - k] = np.diag(dense, -k)
        assert np.array_equal(spd_factorize(a)._cb, cholesky_banded(lower, lower=True))

    def test_permutation_invariance(self):
        # a renumbering of the unknowns changes the elimination order, not the solution
        a = fem_system(nx=6)
        rng = np.random.default_rng(8)
        b = rng.normal(size=a.shape[0])
        p = rng.permutation(a.shape[0])
        x = spd_factorize(a).solve(b)
        x_renumbered = spd_factorize(a[p][:, p]).solve(b[p])
        assert np.abs(x_renumbered - x[p]).max() < 1e-10

    @pytest.mark.parametrize("nx, degree", [(8, 1), (6, 2)])
    def test_band_storage_matches_two_dimensional_scatter(self, nx, degree):
        # the flat scatter writes the bytes the (i-j, j) fancy assignment wrote into the
        # leading (bandwidth + 1, n) view of Fortran-contiguous storage padded to K nb
        # columns with a unit diagonal; pbtrf factors that view in place and leaves the
        # padding as it is
        a = constrained_system(nx, degree)
        plan = sparse._BandedPlan(a)
        n, padded = a.shape[0], plan.count * plan.edge
        assert plan.count == -(-n // plan.edge) and padded > n
        coo = a.tocoo()
        upper = coo.row <= coo.col
        reference = np.zeros((plan.bandwidth + 1, padded), order="F")
        reference[(coo.col - coo.row)[upper], coo.row[upper]] = a.data[upper]
        reference[0, n:] = 1.0
        ab = plan.banded(a.data)
        assert ab.flags.f_contiguous and ab.shape == reference.shape
        assert ab.tobytes(order="F") == reference.tobytes(order="F")
        factor, info = dpbtrf(ab[:, :n], lower=1, overwrite_ab=1)
        assert info == 0 and np.shares_memory(factor, ab)
        assert np.array_equal(factor, cholesky_banded(reference[:, :n], lower=True))
        assert ab[:, n:].tobytes() == reference[:, n:].tobytes()


def banded_reference(factor, b):
    """The pbtrs solve of the factor's banded storage, whatever the column count."""
    return cho_solve_banded((factor._cb, True), b)


def random_band_matrix(n, bandwidth, rng):
    """A random diagonally dominant SPD matrix of order n and band width min(bandwidth, n - 1)."""
    bandwidth = min(bandwidth, max(n - 1, 0))
    offsets = range(1, bandwidth + 1)
    upper = (sp.diags([rng.uniform(-1.0, 1.0, n - d) for d in offsets], list(offsets),
                      shape=(n, n)) if bandwidth else sp.csr_matrix((n, n)))
    return (upper + upper.T + sp.diags(abs(upper + upper.T).sum(axis=1).A1 + 1.0)).tocsr()


# (n, band width): n % nb != 0 with band-sized tiles (kd + 1 > TILE) and with TILE
# tiles; n < nb; n a multiple of nb; n = 0; a diagonal matrix
band_matrix_cases = [example(n=150, bandwidth=40, seed=1), example(n=100, bandwidth=12, seed=2),
                     example(n=20, bandwidth=5, seed=3), example(n=96, bandwidth=31, seed=4),
                     example(n=0, bandwidth=0, seed=5), example(n=70, bandwidth=0, seed=6)]


def band_matrices(test):
    """Random band matrices, the cases above first, for a test taking n, bandwidth, seed."""
    for case in reversed(band_matrix_cases):
        test = case(test)
    return settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])(
        given(n=st.integers(0, 150), bandwidth=st.integers(0, 48),
              seed=st.integers(0, 2 ** 32 - 1))(test))


def constrained_system(nx, degree):
    space = build_space(uniform_triangulation(nx, nx), degree)
    system = add_scaled(assemble_mass(space), 10.0,
                        assemble_stiffness(space, constant_field(1.0), 0.0), 1.0)
    return DirichletConstraint(system, space, tuple(BoundaryTag)).matrix


class TestTiledSolve:
    # (nx, degree): n=49 over two tiles with a padded last one; n=9 in one tile;
    # P2 over five tiles of edge 54 (band width 53); P2 with band width 65 > TILE,
    # tiled from 33 columns
    @pytest.mark.parametrize("nx, degree", [(8, 1), (4, 1), (8, 2), (16, 2)])
    def test_matches_banded_solve(self, nx, degree):
        a = constrained_system(nx, degree)
        f = spd_factorize(a)
        rng = np.random.default_rng(nx * degree)
        for j in sorted({31, 32, 33, 64, f.tiled_columns}):
            b = rng.normal(size=(a.shape[0], j))
            x, ref = f.solve(b), banded_reference(f, b)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.fixture
    def tiled_calls(self, monkeypatch):
        """Column counts of the blocks that reach the tiled path."""
        calls = []
        solve_tiled = sparse.CholeskyFactor._solve_tiled

        def spy(factor, b):
            calls.append(b.shape[1])
            return solve_tiled(factor, b)

        monkeypatch.setattr(sparse.CholeskyFactor, "_solve_tiled", spy)
        return calls

    def test_tile_shape(self, tiled_calls):
        # P2 nx=16: band-sized tiles of edge 66 > TILE; P1 nx=8: tiles of edge TILE over a
        # band of 7, so the views read entries past the band that the masks clear. Each
        # tile is the block of the dense factor padded with the identity to K nb rows
        for nx, degree, edge in ((16, 2, 66), (8, 1, sparse.TILE)):
            f = spd_factorize(constrained_system(nx, degree))
            tiled_calls.clear()
            f.solve(np.ones((f.shape[0], f.tiled_columns)))
            assert tiled_calls == [f.tiled_columns]
            bandwidth, count = f._cb.shape[0] - 1, -(-f.shape[0] // edge)
            assert f._plan.edge == max(bandwidth + 1, sparse.TILE) == edge
            diagonal, corner = f._plan.tiles(f._padded)
            assert diagonal.shape == (count, edge, edge)
            assert corner.shape == (count - 1, bandwidth, bandwidth)
            dense = np.eye(count * edge)
            for d in range(bandwidth + 1):
                k = np.arange(f.shape[0] - d)
                dense[k + d, k] = f._cb[d, :f.shape[0] - d]
            for k in range(count):
                rows = slice(k * edge, (k + 1) * edge)
                assert np.array_equal(diagonal[k], dense[rows, rows])
                if k:
                    left = dense[rows, (k - 1) * edge:k * edge]
                    assert np.array_equal(corner[k - 1], left[:bandwidth, edge - bandwidth:])
                    left[:bandwidth, edge - bandwidth:] = 0.0
                    assert not left.any()  # S_k is zero outside its corner

    def test_chosen_by_column_count(self, tiled_calls):
        # band width 11 under tiles of edge TILE: the rule's 22 columns, not TILE
        f = spd_factorize(constrained_system(12, 1))
        assert f.tiled_columns == 22 < sparse.TILE
        f.solve(np.ones(f.shape[0]))
        f.solve(np.ones((f.shape[0], 1)))
        f.solve(np.ones((f.shape[0], f.tiled_columns - 1)))
        assert tiled_calls == []
        f.solve(np.ones((f.shape[0], f.tiled_columns)))
        f.solve(np.ones((f.shape[0], sparse.TILE)))
        assert tiled_calls == [f.tiled_columns, sparse.TILE]

    # (nx, degree, band width, tiled_from): tiles of edge nb = max(band width + 1, TILE);
    # up to band width 31 tiled from ceil(8 TILE / (band width + 1)) columns on, above it
    # from 12, the measured crossovers with pbtrs
    @pytest.mark.parametrize("nx, degree, bandwidth, tiled_from",
                             [(8, 1, 7, 32), (12, 1, 11, 22), (32, 1, 31, 8), (8, 2, 53, 12),
                              (16, 2, 65, 12)])
    def test_chosen_by_band_width(self, tiled_calls, nx, degree, bandwidth, tiled_from):
        f = spd_factorize(constrained_system(nx, degree))
        assert f._cb.shape[0] - 1 == bandwidth
        assert f.tiled_columns == tiled_from
        f.solve(np.ones((f.shape[0], tiled_from - 1)))
        assert tiled_calls == []
        f.solve(np.ones((f.shape[0], tiled_from)))
        assert tiled_calls == [tiled_from]

    @band_matrices
    def test_random_band_matrices(self, tiled_calls, n, bandwidth, seed):
        # on either side of the threshold a solve agrees with pbtrs and leaves the
        # factor's band bytes as they were
        tiled_calls.clear()  # the fixture is shared by the examples
        rng = np.random.default_rng(seed)
        a = random_band_matrix(n, bandwidth, rng)
        f = spd_factorize(a)
        assert f._plan.bandwidth == min(bandwidth, max(n - 1, 0))
        band = f._padded.tobytes(order="F")
        for columns in (f.tiled_columns - 1, f.tiled_columns):
            b = rng.normal(size=(n, columns))
            x = f.solve(b)
            assert x.shape == b.shape
            if n:
                ref = banded_reference(f, b)
                assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
                assert np.abs(a @ x - b).max() <= 1e-12 * np.abs(a).max() * np.abs(x).max()
        assert tiled_calls == [f.tiled_columns]
        assert f._padded.tobytes(order="F") == band

    @band_matrices
    def test_in_place_solve(self, tiled_calls, n, bandwidth, seed):
        # a block of padded_rows rows, zero past n, solved in place: the bytes of
        # solve(b) in its first n rows, +0.0 in the rest, wide or narrow; solve(b)
        # itself leaves b as it was
        tiled_calls.clear()
        rng = np.random.default_rng(seed)
        a = random_band_matrix(n, bandwidth, rng)
        f = spd_factorize(a)
        rows = sparse.padded_rows(a)
        assert rows == f._plan.count * f._plan.edge >= n
        for columns in (1, f.tiled_columns - 1, f.tiled_columns, f.tiled_columns + 5):
            b = rng.normal(size=(n, columns))
            kept = b.copy()
            want = f.solve(b)
            assert b.tobytes() == kept.tobytes()
            block = np.zeros((rows, columns))
            block[:n] = b
            x = f.solve(block, overwrite_b=True)
            assert x.shape == (n, columns) and (np.shares_memory(x, block) or not n)
            assert block[:n].tobytes() == want.tobytes()
            assert block[n:].tobytes() == bytes(block[n:].nbytes)
        # a vector: the bytes of the first column of a padded one-column block solved in
        # place, and left as it was
        v = rng.normal(size=n)
        kept = v.copy()
        x = f.solve(v)
        assert x.shape == (n,) and v.tobytes() == kept.tobytes()
        block = np.zeros((rows, 1))
        block[:n, 0] = v
        f.solve(block, overwrite_b=True)
        assert x.tobytes() == block[:n, 0].tobytes()
        assert tiled_calls == [f.tiled_columns] * 2 + [f.tiled_columns + 5] * 2
        # only a C-ordered float block of padded_rows rows is solved in place (an
        # empty block is both C- and Fortran-ordered)
        for bad in (np.zeros((rows + 1, 9)), np.zeros((rows, 9), order="F")[:, :8] if n
                    else np.zeros((1, 8)), np.zeros((rows, 9), dtype=np.float32)):
            with pytest.raises(ValueError, match="in-place solve"):
                f.solve(bad, overwrite_b=True)

    def test_factor_is_immutable(self):
        f = spd_factorize(constrained_system(8, 1))
        before = dict(vars(f))
        factor = f._cb.copy()
        for b in (np.ones(f.shape[0]), np.ones((f.shape[0], 3)),
                  np.ones((f.shape[0], f.tiled_columns))):
            f.solve(b)
            assert vars(f).keys() == before.keys()
            assert all(vars(f)[k] is v for k, v in before.items())
        assert np.array_equal(f._cb, factor)

    def test_fortran_and_strided_blocks(self):
        a = constrained_system(8, 2)
        f = spd_factorize(a)
        b = np.random.default_rng(3).normal(size=(a.shape[0], 80))
        ref = banded_reference(f, b)
        for block, want in ((np.asfortranarray(b), ref), (b[:, ::2], ref[:, ::2]),
                            (b[:, 5:70], ref[:, 5:70])):
            x = f.solve(block)
            assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()

    def test_residual(self):
        a = constrained_system(12, 1)
        b = np.random.default_rng(4).normal(size=(a.shape[0], 48))
        x = spd_factorize(a).solve(b)
        assert np.abs(a @ x - b).max() <= 1e-10 * np.abs(b).max()

    def test_counts_one_block_solve(self):
        before = counters()
        a = constrained_system(8, 1)
        f = spd_factorize(a)
        f.solve(np.ones((a.shape[0], 64)))
        after = counters()
        assert after.factorizations - before.factorizations == 1
        assert after.block_solves - before.block_solves == 1
        assert after.rhs_columns - before.rhs_columns == 64
