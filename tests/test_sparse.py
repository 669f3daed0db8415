import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded

from ensfem import sparse
from ensfem.fem import (DirichletConstraint, assemble_mass, assemble_stiffness, build_space,
                        constant_field)
from ensfem.mesh import BoundaryTag, uniform_triangulation
from ensfem.sparse import (NotSpdError, add_scaled, counters, reset_counters,
                           spd_factorize)


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_counters()
    yield
    reset_counters()


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

    def test_counter_increments(self):
        a = fem_system()
        spd_factorize(a)
        spd_factorize(a)
        assert counters().factorizations == 2


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
        a = fem_system(nx=2)
        f = spd_factorize(a)
        f.solve(np.ones((a.shape[0], 7)))
        f.solve(np.ones(a.shape[0]))
        snap = counters()
        assert snap.block_solves == 2
        assert snap.rhs_columns == 8

    def test_dimension_mismatch(self):
        f = spd_factorize(fem_system(nx=2))
        with pytest.raises(ValueError, match="mismatch"):
            f.solve(np.ones(3))


class TestBlockDiagonal:
    def test_matches_scipy_block_diag(self):
        pattern = fem_system(nx=3)
        data = np.random.default_rng(9).normal(size=(4, pattern.nnz))
        blocks = [sp.csr_matrix((d, pattern.indices, pattern.indptr), shape=pattern.shape)
                  for d in data]
        got = sparse.block_diagonal(pattern, data)
        assert got.shape == (4 * pattern.shape[0],) * 2
        assert abs(got - sp.block_diag(blocks, format="csr")).max() == 0.0


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

    def test_permutation_invariance(self):
        # a renumbering of the unknowns changes the elimination order, not the solution
        a = fem_system(nx=6)
        rng = np.random.default_rng(8)
        b = rng.normal(size=a.shape[0])
        p = rng.permutation(a.shape[0])
        x = spd_factorize(a).solve(b)
        x_renumbered = spd_factorize(a[p][:, p]).solve(b[p])
        assert np.abs(x_renumbered - x[p]).max() < 1e-10


def banded_reference(factor, b):
    """The pbtrs solve of the factor's banded storage, whatever the column count."""
    x = np.empty_like(b)
    perm = factor._plan.perm
    x[perm] = cho_solve_banded((factor._cb, True), b[perm])
    return x


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
        f = spd_factorize(constrained_system(16, 2))
        f.solve(np.ones((f.shape[0], f.tiled_columns)))
        assert tiled_calls == [f.tiled_columns]
        bandwidth = f._cb.shape[0] - 1
        assert bandwidth + 1 > sparse.TILE
        assert f._plan.tiles()[0].shape[1:] == (bandwidth + 1,) * 2

    def test_chosen_by_column_count(self, tiled_calls):
        f = spd_factorize(constrained_system(8, 1))
        f.solve(np.ones(f.shape[0]))
        f.solve(np.ones((f.shape[0], sparse.TILE - 1)))
        assert tiled_calls == []
        f.solve(np.ones((f.shape[0], sparse.TILE)))
        assert tiled_calls == [sparse.TILE]

    # (nx, degree, band width): up to band width 63 the tiled path starts at TILE
    # columns; above it at half the band-sized tile edge
    @pytest.mark.parametrize("nx, degree, bandwidth, tiled_from",
                             [(8, 1, 7, 32), (8, 2, 53, 32), (16, 2, 65, 33)])
    def test_chosen_by_band_width(self, tiled_calls, nx, degree, bandwidth, tiled_from):
        f = spd_factorize(constrained_system(nx, degree))
        assert f._cb.shape[0] - 1 == bandwidth
        assert f.tiled_columns == tiled_from
        f.solve(np.ones((f.shape[0], tiled_from - 1)))
        assert tiled_calls == []
        f.solve(np.ones((f.shape[0], tiled_from)))
        assert tiled_calls == [tiled_from]

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
        a = constrained_system(8, 1)
        f = spd_factorize(a)
        f.solve(np.ones((a.shape[0], 64)))
        snap = counters()
        assert snap.factorizations == 1
        assert snap.block_solves == 1
        assert snap.rhs_columns == 64
