import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ensfem import sparse
from ensfem.fem import (DirichletConstraint, assemble_load, assemble_mass,
                        assemble_stiffness, build_space, coefficient_values,
                        constant_field, error_h1_semi, error_l2, integrate, mass_solver,
                        zero_field)
from ensfem.mesh import BoundaryTag, uniform_triangulation
from ensfem.quadrature import triangle_rule

from _dense_oracle import p1_mass, p1_stiffness


def project(space, g):
    """L2 projection of g onto the space, as a run projects its initial data."""
    return mass_solver(assemble_mass(space))(assemble_load(space, g, 0.0))


def interior_dofs(space):
    """The DOFs on no tagged boundary side."""
    return np.setdiff1d(np.arange(space.dof_count), space.tagged_dofs(tuple(BoundaryTag)))


@pytest.fixture
def space_p1():
    return build_space(uniform_triangulation(4, 4), 1)


@pytest.fixture
def space_p2():
    return build_space(uniform_triangulation(4, 4), 2)


class TestBuildSpace:
    def test_p1_dof_count_is_vertex_count(self):
        sp1 = build_space(uniform_triangulation(1, 1), 1)
        assert sp1.dof_count == 4

    def test_p2_dof_count_vertices_plus_edges(self):
        sp2 = build_space(uniform_triangulation(4, 4), 2)
        assert sp2.dof_count == 25 + 56

    def test_boundary_dof_total(self):
        sp1 = build_space(uniform_triangulation(2, 2), 1)
        assert len(sp1.tagged_dofs(tuple(BoundaryTag))) == 8

    def test_unsupported_degree(self):
        with pytest.raises(ValueError, match="degree"):
            build_space(uniform_triangulation(2, 2), 3)

    def test_dof_partition(self, space_p2):
        # the four tags cover exactly the DOFs on the boundary of the unit square
        x, y = space_p2.dof_coords.T
        inside = (x > 0.0) & (x < 1.0) & (y > 0.0) & (y < 1.0)
        assert np.array_equal(interior_dofs(space_p2), np.nonzero(inside)[0])

    def test_every_dof_in_some_cell(self, space_p2):
        assert set(np.unique(space_p2.cell_dofs)) == set(range(space_p2.dof_count))

    def test_p2_edge_dofs_sit_at_midpoints(self, space_p2):
        nv = space_p2.mesh.num_vertices
        for cell, dofs in zip(space_p2.mesh.triangles, space_p2.cell_dofs):
            for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
                mid = 0.5 * (space_p2.mesh.vertices[cell[i]] + space_p2.mesh.vertices[cell[j]])
                assert np.allclose(space_p2.dof_coords[dofs[3 + k]], mid)
                assert dofs[3 + k] >= nv


class TestMass:
    def test_total_mass_is_domain_area(self, space_p2):
        assert assemble_mass(space_p2).sum() == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_form_with_ones(self, space_p1):
        m = assemble_mass(space_p1)
        ones = np.ones(space_p1.dof_count)
        assert ones @ (m @ ones) == pytest.approx(1.0, abs=1e-13)

    def test_matches_dense_oracle_single_cell(self):
        mesh = uniform_triangulation(1, 1)
        m = assemble_mass(build_space(mesh, 1)).toarray()
        ref = p1_mass(mesh.vertices, mesh.triangles)
        assert np.allclose(m, ref, atol=1e-15)
        # each triangle contributes area/6 on the diagonal, area/12 off it
        assert m[1, 1] == pytest.approx(0.5 / 6.0)
        assert m[1, 0] == pytest.approx(0.5 / 12.0)

    @pytest.mark.parametrize("nx,degree", [(8, 1), (16, 1), (32, 1), (8, 2), (16, 2)])
    def test_mass_is_spd(self, nx, degree):
        space = build_space(uniform_triangulation(nx, nx), degree)
        sparse.spd_factorize(assemble_mass(space))  # raises NotSpdError on failure


    @pytest.mark.parametrize("degree", [1, 2])
    def test_on_stiffness_pattern(self, degree):
        space = build_space(uniform_triangulation(5, 3), degree)
        m = assemble_mass(space)
        a = assemble_stiffness(space, constant_field(1.0), 0.0)
        assert np.array_equal(m.indptr, a.indptr)
        assert np.array_equal(m.indices, a.indices)
        tab = space.tabulation(space.assembly_rule)
        local_ref = np.einsum("qa,qb,q->ab", tab.phi, tab.phi, tab.weights)
        ref = scatter(space, space.areas[:, None, None] * local_ref[None])
        assert np.abs(m - ref).max() <= 1e-15 * np.abs(ref).max()


class TestStiffness:
    def test_constants_in_kernel(self, space_p2):
        a = assemble_stiffness(space_p2, constant_field(1.0), 0.0)
        assert np.abs(a @ np.ones(space_p2.dof_count)).max() < 1e-12

    def test_linear_in_coefficient(self, space_p1):
        a1 = assemble_stiffness(space_p1, constant_field(1.0), 0.0)
        a2 = assemble_stiffness(space_p1, constant_field(2.0), 0.0)
        assert abs(a2 - 2.0 * a1).max() < 1e-14

    def test_matches_dense_oracle_single_cell(self):
        mesh = uniform_triangulation(1, 1)
        a = assemble_stiffness(build_space(mesh, 1), constant_field(1.0), 0.0).toarray()
        ref = p1_stiffness(mesh.vertices, mesh.triangles, lambda x, y, t: 1.0, 0.0)
        assert np.allclose(a, ref, atol=1e-14)

    def test_local_pattern_right_triangle(self):
        # unit-leg right triangle: [[1, -1/2, -1/2], [-1/2, 1/2, 0], [-1/2, 0, 1/2]]
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ref = p1_stiffness(verts, np.array([[0, 1, 2]]), lambda x, y, t: 1.0, 0.0)
        assert np.allclose(ref, [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])

    def test_interior_rows_annihilate_linear_solution(self, space_p1):
        a = assemble_stiffness(space_p1, constant_field(1.0), 0.0)
        u = space_p1.dof_coords[:, 0] + space_p1.dof_coords[:, 1]
        residual = (a @ u)[interior_dofs(space_p1)]
        assert np.abs(residual).max() < 1e-12

    def test_nonfinite_coefficient_reports_element(self, space_p1):
        def bad(x, y, t):
            return np.where(np.asarray(x) > 0.9, np.nan, 1.0)
        with pytest.raises(ValueError, match="element"):
            assemble_stiffness(space_p1, bad, 0.0)

    def test_variable_coefficient_matches_dense_oracle(self):
        mesh = uniform_triangulation(3, 2)
        coeff = lambda x, y, t: 1.0 + 0.3 * np.asarray(x) * np.asarray(y) + 0.1 * t
        a = assemble_stiffness(build_space(mesh, 1), coeff, 0.7).toarray()
        ref = p1_stiffness(mesh.vertices, mesh.triangles, coeff, 0.7)
        assert np.allclose(a, ref, atol=1e-13)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_operator_form_matches_einsum_scatter(self, degree):
        space = build_space(uniform_triangulation(5, 3), degree)
        coeff = lambda x, y, t: 1.0 + 0.4 * np.sin(3.0 * np.asarray(x) + t) * np.asarray(y)
        ref = einsum_scatter_stiffness(space, coeff, 0.3)
        a = assemble_stiffness(space, coeff, 0.3)
        assert np.array_equal(a.indptr, ref.indptr)
        assert np.array_equal(a.indices, ref.indices)
        assert np.abs(a.data - ref.data).max() <= 1e-13 * np.abs(ref.data).max()
        values = assemble_stiffness(space, coefficient_values(space, coeff, 0.3), 0.3)
        assert np.array_equal(values.data, a.data)


    @pytest.mark.parametrize("degree", [1, 2])
    def test_operator_csr_matches_coo_construction(self, degree):
        # built directly, the weights are the CSR that scipy makes of the COO triple
        # (slot, point, weight), index arrays and data identical
        space = build_space(uniform_triangulation(5, 3), degree)
        op = space.stiffness_operator()
        tab = space.tabulation(space.assembly_rule)
        nt, nq, nl = tab.grad.shape[:3]
        local = np.einsum("tqai,tqbi,q,t->tqab", tab.grad, tab.grad, tab.weights,
                          space.areas, optimize=True)
        pairs = (nt, nq, nl * nl)
        slots = np.broadcast_to(op.slots.reshape(nt, 1, nl * nl), pairs)
        points = np.broadcast_to(np.arange(nt * nq).reshape(nt, nq, 1), pairs)
        assert_same_csr(op.weights, sp.csr_matrix(
            (local.ravel(), (slots.ravel(), points.ravel())), shape=op.weights.shape))


def assert_same_csr(a, b):
    """indptr, indices and data equal, dtypes too, data bit for bit."""
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.shape == b.shape


def einsum_scatter_stiffness(space, coeff, t):
    """Reference assembly: local matrices by einsum, scattered via COO, duplicates summed."""
    tab = space.tabulation(space.assembly_rule)
    c = np.broadcast_to(np.asarray(coeff(tab.xq, tab.yq, t), dtype=float), tab.xq.shape)
    local = np.einsum("tqai,tqbi,tq,q,t->tab", tab.grad, tab.grad, c, tab.weights,
                      space.areas, optimize=True)
    return scatter(space, local)


def scatter(space, local):
    """Local (nt, nl, nl) matrices scattered via COO into CSR, duplicates summed."""
    nl = space.cell_dofs.shape[1]
    rows = np.repeat(space.cell_dofs, nl, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nl)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(space.dof_count, space.dof_count)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


class TestLoad:
    def test_zero_source(self, space_p2):
        assert not assemble_load(space_p2, zero_field, 0.0).any()

    def test_unit_source_sums_to_area(self, space_p2):
        assert assemble_load(space_p2, constant_field(1.0), 0.0).sum() == pytest.approx(1.0)

    def test_linear_source_integral(self, space_p1):
        load = assemble_load(space_p1, lambda x, y, t: x, 0.0)
        assert load.sum() == pytest.approx(0.5, abs=1e-14)

    def test_nonfinite_source_rejected(self, space_p1):
        with pytest.raises(ValueError, match="element"):
            assemble_load(space_p1, lambda x, y, t: np.full(np.shape(x), np.inf), 0.0)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_operator_matches_einsum_bincount(self, degree):
        space = build_space(uniform_triangulation(5, 3), degree)
        f = lambda x, y, t: np.exp(np.asarray(x) - t) * np.cos(3.0 * np.asarray(y))
        tab = space.tabulation(space.data_rule)
        local = np.einsum("tq,qa,q,t->ta", f(tab.xq, tab.yq, 0.3), tab.phi, tab.weights,
                          space.areas)
        ref = np.bincount(space.cell_dofs.ravel(), weights=local.ravel(),
                          minlength=space.dof_count)
        load = assemble_load(space, f, 0.3)
        assert np.abs(load - ref).max() <= 1e-13 * np.abs(ref).max()


    @pytest.mark.parametrize("degree", [1, 2])
    def test_operator_csr_matches_coo_construction(self, degree):
        space = build_space(uniform_triangulation(5, 3), degree)
        tab = space.tabulation(space.data_rule)
        nt, nq = tab.xq.shape
        local = np.einsum("qa,q,t->taq", tab.phi, tab.weights, space.areas)
        rows = np.broadcast_to(space.cell_dofs[:, :, None], local.shape)
        points = np.broadcast_to(np.arange(nt * nq).reshape(nt, 1, nq), local.shape)
        assert_same_csr(space.load_operator(), sp.csr_matrix(
            (local.ravel(), (rows.ravel(), points.ravel())), shape=(space.dof_count, nt * nq)))


class TestL2Projection:
    def test_constant_reproduced(self, space_p1):
        u = project(space_p1, constant_field(3.5))
        assert np.allclose(u, 3.5, atol=1e-12)

    @pytest.mark.parametrize("degree,poly", [
        (1, lambda x, y: 2.0 * x - y + 0.25),
        (2, lambda x, y: x * x + 0.5 * x * y - y + 1.0),
    ])
    def test_polynomial_reproduced_nodally(self, degree, poly):
        space = build_space(uniform_triangulation(4, 4), degree)
        u = project(space, lambda x, y, t: poly(x, y))
        exact = poly(space.dof_coords[:, 0], space.dof_coords[:, 1])
        assert np.abs(u - exact).max() < 1e-10

    def test_galerkin_orthogonality(self, space_p2):
        g = lambda x, y, t: np.sin(2.0 * np.pi * x) * np.cos(np.pi * y)
        u = project(space_p2, g)
        residual = assemble_load(space_p2, g, 0.0) - assemble_mass(space_p2) @ u
        assert np.abs(residual).max() < 1e-10

    def test_projection_rate_for_smooth_field(self):
        g = lambda x, y, t: np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
        errs = []
        for nx in (8, 16, 32):
            space = build_space(uniform_triangulation(nx, nx), 2)
            errs.append(error_l2(space, project(space, g), g))
        # cubic rate: each halving of h shrinks the error by about 8x
        for coarse, fine in zip(errs, errs[1:]):
            assert 6.5 < coarse / fine < 9.5


def constrain(system, rhs, space, g, tags):
    """Free block of the system and the full solution, with g pinned on the tagged DOFs.

    The free block's solve fills the free rows of the solution, g its tagged rows.
    """
    constraint = DirichletConstraint(system, space, tags)
    gvals = constraint.boundary_values(g, 0.0)
    if rhs.ndim == 2:
        gvals = np.repeat(gvals[:, None], rhs.shape[1], axis=1)
    x = np.empty_like(rhs)
    x[constraint.free] = sparse.spd_factorize(constraint.matrix).solve(
        constraint.lift(rhs[constraint.free], gvals))
    x[constraint.bdofs] = gvals
    return constraint.matrix, x


class TestDirichlet:
    def test_homogeneous_matches_row_deletion(self, space_p1):
        a = assemble_stiffness(space_p1, constant_field(1.0), 0.0)
        b = assemble_load(space_p1, constant_field(1.0), 0.0)
        _, x = constrain(a, b, space_p1, zero_field, tuple(BoundaryTag))
        free = interior_dofs(space_p1)
        dense = np.linalg.solve(a.toarray()[np.ix_(free, free)], b[free])
        assert np.allclose(x[free], dense, atol=1e-12)
        assert np.abs(x[space_p1.tagged_dofs(tuple(BoundaryTag))]).max() == 0.0

    def test_harmonic_linear_solution_exact(self):
        space = build_space(uniform_triangulation(4, 4), 1)
        lin = lambda x, y, t: x + y
        a = assemble_stiffness(space, constant_field(1.0), 0.0)
        _, x = constrain(a, np.zeros(space.dof_count), space, lin, tuple(BoundaryTag))
        exact = space.dof_coords[:, 0] + space.dof_coords[:, 1]
        assert np.abs(x - exact).max() < 1e-10

    def test_left_edge_profile_pins_corners_to_zero(self):
        space = build_space(uniform_triangulation(4, 4), 1)
        a = assemble_stiffness(space, constant_field(1.0), 0.0)
        constraint = DirichletConstraint(a, space, (BoundaryTag.LEFT,))
        gvals = constraint.boundary_values(lambda x, y, t: y * (1.0 - y), 0.0)
        coords = space.dof_coords[constraint.bdofs]
        for corner in ((0.0, 0.0), (0.0, 1.0)):
            k = np.where((coords == corner).all(axis=1))[0]
            assert len(k) == 1 and gvals[k[0]] == 0.0

    def test_constrained_matrix_stays_symmetric_spd(self, space_p2):
        a = assemble_stiffness(space_p2, constant_field(2.0), 0.0)
        m = assemble_mass(space_p2)
        system = (m + a).tocsr()
        a_c, _ = constrain(system, np.zeros(space_p2.dof_count), space_p2,
                           zero_field, (BoundaryTag.LEFT, BoundaryTag.TOP))
        assert abs(a_c - a_c.T).max() < 1e-14
        sparse.spd_factorize(a_c)

    def test_block_rhs_lifting(self, space_p1):
        a = assemble_stiffness(space_p1, constant_field(1.0), 0.0)
        m = assemble_mass(space_p1)
        system = (m + a).tocsr()
        rhs = np.random.default_rng(3).normal(size=(space_p1.dof_count, 4))
        _, x = constrain(system, rhs, space_p1, constant_field(2.0), tuple(BoundaryTag))
        free = interior_dofs(space_p1)
        assert (x[space_p1.tagged_dofs(tuple(BoundaryTag))] == 2.0).all()
        assert np.abs((system @ x - rhs)[free]).max() <= 1e-12 * np.abs(rhs).max()

    def test_refill_rejects_data_off_pattern(self, space_p1):
        a = assemble_stiffness(space_p1, constant_field(1.0), 0.0)
        constraint = DirichletConstraint(a, space_p1, tuple(BoundaryTag))
        with pytest.raises(ValueError, match="shape"):
            constraint.refill(np.ones(a.nnz + 1))


@settings(max_examples=30, deadline=None)
@given(degree=st.sampled_from([1, 2]), nx=st.integers(1, 5), ny=st.integers(1, 5),
       tags=st.sets(st.sampled_from(list(BoundaryTag))), seed=st.integers(0, 2 ** 32 - 1),
       scales=st.tuples(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2)))
def test_refilled_constraint_equals_fresh(degree, nx, ny, tags, seed, scales):
    space = build_space(uniform_triangulation(nx, ny), degree)
    tags = tuple(sorted(tags, key=lambda tag: tag.value))
    rng = np.random.default_rng(seed)
    shape = space.tabulation(space.assembly_rule).xq.shape
    systems = [(s * assemble_mass(space) + assemble_stiffness(
                    space, rng.uniform(0.1, 10.0, shape), 0.0)).tocsr() for s in scales]
    refilled = DirichletConstraint(systems[0], space, tags)
    refilled.refill(systems[1].data)
    fresh = DirichletConstraint(systems[1], space, tags)
    for got, want in ((refilled.matrix, fresh.matrix), (refilled.coupling, fresh.coupling)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
    rhs = rng.normal(size=(space.dof_count, 2))
    gvals = rng.normal(size=(fresh.bdofs.size, 2))
    assert np.array_equal(refilled.lift(rhs[refilled.free], gvals),
                          fresh.lift(rhs[fresh.free], gvals))
    # the elimination itself: the untagged DOFs, numbered in the band ordering of
    # their block, and the free-free and free-tagged blocks of the system in it
    free = np.setdiff1d(np.arange(space.dof_count), fresh.bdofs)
    assert np.array_equal(np.sort(fresh.free), free)
    assert np.array_equal(fresh.free,
                          free[sparse.band_ordering(systems[1][free][:, free])])
    assert np.array_equal(fresh.matrix.toarray(),
                          systems[1][fresh.free][:, fresh.free].toarray())
    assert np.array_equal(fresh.coupling.toarray(),
                          systems[1][fresh.free][:, fresh.bdofs].toarray())
    dense = fresh.matrix.toarray()
    assert np.abs(dense - dense.T).max(initial=0.0) <= 1e-14 * np.abs(dense).max(initial=0.0)


@settings(max_examples=40, deadline=None)
@given(degree=st.sampled_from([1, 2]), nx=st.integers(1, 6), ny=st.integers(1, 6),
       tags=st.sets(st.sampled_from(list(BoundaryTag))), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1.0, 1e2), columns=st.sampled_from([None, 3]),
       g=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_eliminated_solve_matches_dense_free_block(degree, nx, ny, tags, seed, scale,
                                                   columns, g):
    space = build_space(uniform_triangulation(nx, ny), degree)
    tags = tuple(sorted(tags, key=lambda tag: tag.value))
    rng = np.random.default_rng(seed)
    coefficient = rng.uniform(0.1, 10.0, space.tabulation(space.assembly_rule).xq.shape)
    system = (scale * assemble_mass(space)
              + assemble_stiffness(space, coefficient, 0.0)).tocsr()
    rhs = rng.normal(size=space.dof_count if columns is None else (space.dof_count, columns))
    field = lambda x, y, t: g[0] + g[1] * x - g[2] * y * y
    _, x = constrain(system, rhs, space, field, tags)
    bdofs = space.tagged_dofs(tags)
    free = np.setdiff1d(np.arange(space.dof_count), bdofs)
    gvals = field(space.dof_coords[bdofs, 0], space.dof_coords[bdofs, 1], 0.0)
    if columns is not None:
        gvals = np.repeat(gvals[:, None], columns, axis=1)
    dense = system.toarray()
    want = np.linalg.solve(dense[np.ix_(free, free)],
                           rhs[free] - dense[np.ix_(free, bdofs)] @ gvals)
    size = max(np.abs(want).max(initial=0.0), 1.0)
    assert np.abs(x[free] - want).max(initial=0.0) <= 1e-12 * size
    assert np.array_equal(x[bdofs], gvals)


class TestErrorNorms:
    def test_unit_error(self, space_p1):
        e = error_l2(space_p1, np.zeros(space_p1.dof_count), constant_field(1.0))
        assert e == pytest.approx(1.0, abs=1e-13)

    def test_p2_interpolant_of_quadratic_is_exact(self, space_p2):
        vals = space_p2.dof_coords[:, 0] ** 2
        e = error_l2(space_p2, vals, lambda x, y, t: x * x)
        g = error_h1_semi(space_p2, vals, lambda x, y, t: (2.0 * x, np.zeros(np.shape(x))))
        assert e < 1e-10 and g < 1e-10

    def test_error_of_projection_decays_cubically(self):
        g = lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y)
        space = build_space(uniform_triangulation(8, 8), 2)
        h = math.sqrt(2.0) / 8.0
        assert error_l2(space, project(space, g), g) < h ** 3

    @pytest.mark.parametrize("degree", [1, 2])
    def test_block_columns_equal_vector_calls(self, degree):
        # a block gives one norm per column, each the vector call's to rounding, with
        # the exact function a field (the same for every column), values at the rule's
        # points (one per column) or absent
        space = build_space(uniform_triangulation(5, 4), degree)
        rule = triangle_rule(2)
        u = np.random.default_rng(3).normal(size=(space.dof_count, 3))
        fields = [lambda x, y, t, k=k: np.sin(x + k * t) * y for k in range(3)]
        gradients = [lambda x, y, t, k=k: (np.cos(x + k * t) * y, np.sin(x + k * t))
                     for k in range(3)]
        tab, grad_tab = space.tabulation(space.data_rule), space.tabulation(rule)
        values = np.stack([f(tab.xq, tab.yq, 0.7) for f in fields], axis=-1)
        grad_values = np.stack([np.stack(g(grad_tab.xq, grad_tab.yq, 0.7))
                                for g in gradients], axis=-1)
        for block, columns in (
                (error_l2(space, u, fields[1], 0.7),
                 [error_l2(space, u[:, j], fields[1], 0.7) for j in range(3)]),
                (error_l2(space, u, values),
                 [error_l2(space, u[:, j], f, 0.7) for j, f in enumerate(fields)]),
                (error_l2(space, u, None), [error_l2(space, u[:, j], None) for j in range(3)]),
                (error_h1_semi(space, u, gradients[2], 0.7, rule=rule),
                 [error_h1_semi(space, u[:, j], gradients[2], 0.7, rule=rule)
                  for j in range(3)]),
                (error_h1_semi(space, u, grad_values, rule=rule),
                 [error_h1_semi(space, u[:, j], g, 0.7, rule=rule)
                  for j, g in enumerate(gradients)]),
                (error_h1_semi(space, u, None), [error_h1_semi(space, u[:, j], None)
                                                 for j in range(3)])):
            assert block.shape == (3,) and all(isinstance(c, float) for c in columns)
            assert np.abs(block - columns).max() <= 1e-14 * max(columns)

    def test_integrate_constant_and_nodal_linear(self, space_p1):
        assert integrate(space_p1, np.ones(space_p1.dof_count)) == pytest.approx(1.0)
        assert integrate(space_p1, space_p1.dof_coords[:, 0]) == pytest.approx(0.5)
