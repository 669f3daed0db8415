"""Lagrange P1/P2 elements on triangle meshes: assembly, projection, lifting, error norms.

Coefficient, source, and boundary data are plain callables ``f(x, y, t)`` that
broadcast over numpy arrays ``x`` and ``y`` (scalar ``t``); gradients are
callables returning an ``(fx, fy)`` pair. They are always evaluated directly at
physical quadrature points, never interpolated onto the element space.

Two rules are attached to each space: an assembly rule of order ``2*degree``
(exact for the mass matrix) and a data rule of order ``2*degree + 2`` used for
loads, projections, and error norms, so that measured errors are not polluted
by quadrature error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from . import sparse
from .mesh import BoundaryTag, Mesh, edge_numbering
from .quadrature import QuadratureRule, shape_functions, triangle_rule

#: scalar field on the space-time cylinder, vectorized over x/y arrays
Field = Callable[[np.ndarray, np.ndarray, float], "np.ndarray | float"]
#: gradient field returning an (fx, fy) pair
GradientField = Callable[[np.ndarray, np.ndarray, float], tuple]


def constant_field(value: float) -> Field:
    def f(x, y, t):
        return np.broadcast_to(np.float64(value), np.shape(x))
    return f


zero_field = constant_field(0.0)


@dataclass
class _Tabulation:
    phi: np.ndarray      # (nq, nl) basis values
    grad: np.ndarray     # (nt, nq, nl, 2) physical gradients
    xq: np.ndarray       # (nt, nq) physical quadrature x
    yq: np.ndarray       # (nt, nq)
    weights: np.ndarray  # (nq,)


@dataclass
class FeSpace:
    """Lagrange element space of degree 1 or 2 with deterministic DOF numbering.

    DOFs are the mesh vertices, followed (degree 2) by one DOF per unique edge,
    edges sorted lexicographically by their vertex index pair.
    """

    mesh: Mesh
    degree: int
    dof_count: int
    dof_coords: np.ndarray              # (ndof, 2)
    cell_dofs: np.ndarray               # (nt, nl)
    boundary_dofs: dict[BoundaryTag, np.ndarray]
    assembly_rule: QuadratureRule
    data_rule: QuadratureRule
    areas: np.ndarray = field(repr=False, default=None)
    _inv_jt: np.ndarray = field(repr=False, default=None)
    _tabs: dict[int, _Tabulation] = field(repr=False, default_factory=dict)
    _stiffness: "_StiffnessOperator | None" = field(repr=False, default=None)
    _load: "sp.csr_matrix | None" = field(repr=False, default=None)

    @property
    def interior_dofs(self) -> np.ndarray:
        mask = np.ones(self.dof_count, dtype=bool)
        for dofs in self.boundary_dofs.values():
            mask[dofs] = False
        return np.nonzero(mask)[0]

    def tagged_dofs(self, tags: Iterable[BoundaryTag]) -> np.ndarray:
        """Sorted union of the DOF sets of the given boundary tags."""
        sets = [self.boundary_dofs[t] for t in tags]
        if not sets:
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate(sets))

    def tabulation(self, rule: QuadratureRule) -> _Tabulation:
        tab = self._tabs.get(rule.order)
        if tab is None:
            phi, dref = shape_functions(self.degree, rule.points)
            grad = np.einsum("tij,qaj->tqai", self._inv_jt, dref)
            verts = self.mesh.vertices[self.mesh.triangles]  # (nt, 3, 2)
            pts = np.einsum("ql,tlk->tqk", rule.points, verts)
            tab = _Tabulation(phi=phi, grad=grad, xq=pts[..., 0], yq=pts[..., 1],
                              weights=rule.weights)
            self._tabs[rule.order] = tab
        return tab

    def stiffness_operator(self) -> "_StiffnessOperator":
        if self._stiffness is None:
            self._stiffness = _StiffnessOperator(self)
        return self._stiffness

    def load_operator(self) -> sp.csr_matrix:
        """Linear map from source values at the data-rule points to the load vector.

        Entry (i, (t, q)) is the quadrature weight times area times phi_i at point
        q of element t, so the load of values f, flattened from shape (nt, nq),
        is `load_operator() @ f`.
        """
        if self._load is None:
            tab = self.tabulation(self.data_rule)
            nt, nq = tab.xq.shape
            local = np.einsum("qa,q,t->taq", tab.phi, tab.weights, self.areas)
            rows = np.broadcast_to(self.cell_dofs[:, :, None], local.shape)
            points = np.broadcast_to(np.arange(nt * nq).reshape(nt, 1, nq), local.shape)
            self._load = sp.csr_matrix((local.ravel(), (rows.ravel(), points.ravel())),
                                       shape=(self.dof_count, nt * nq))
        return self._load


class _StiffnessOperator:
    """Linear map from coefficient values at the assembly points to stiffness CSR data.

    Row k of `weights` holds, for CSR slot k of the stiffness pattern, the
    quadrature weight times area times grad phi_i . grad phi_j of every
    (element, point) pair that couples DOFs i and j; so A(c).data = weights @ c
    for the coefficient values c, flattened from shape (nt, nq). The pattern
    couples every pair of DOFs that share an element, which makes it the
    pattern of every matrix the space assembles; `slots` maps each element's
    local pair (a, b), flattened to a * nl + b, to its CSR slot.
    """

    def __init__(self, space: FeSpace):
        tab = space.tabulation(space.assembly_rule)
        nt, nq, nl = tab.grad.shape[:3]
        n = space.dof_count
        rows = np.repeat(space.cell_dofs, nl, axis=1)  # (nt, nl*nl), local pairs (a, b)
        cols = np.tile(space.cell_dofs, (1, nl))
        keys, slot = np.unique((rows * np.int64(n) + cols).ravel(), return_inverse=True)
        index_dtype = np.int32 if keys.size <= np.iinfo(np.int32).max else np.int64
        self.slots = slot.reshape(nt, nl * nl).astype(index_dtype)
        self.shape = (n, n)
        self.indices = (keys % n).astype(index_dtype)
        self.indptr = np.searchsorted(keys // n, np.arange(n + 1)).astype(index_dtype)
        local = np.einsum("tqai,tqbi,q,t->tqab", tab.grad, tab.grad, tab.weights,
                          space.areas, optimize=True)
        pairs = (nt, nq, nl * nl)
        slots = np.broadcast_to(slot.reshape(nt, 1, nl * nl), pairs)
        points = np.broadcast_to(np.arange(nt * nq).reshape(nt, nq, 1), pairs)
        self.weights = sp.csr_matrix((local.ravel(), (slots.ravel(), points.ravel())),
                                     shape=(keys.size, nt * nq))

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with the given data on this pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def matrix(self, values: np.ndarray) -> sp.csr_matrix:
        """Stiffness matrix for coefficient values of shape (nt, nq)."""
        return self.csr(self.weights @ values.ravel())


def build_space(mesh: Mesh, degree: int) -> FeSpace:
    """Build the element space; degree must be 1 or 2."""
    if degree not in (1, 2):
        raise ValueError(f"unsupported element degree {degree} (expected 1 or 2)")
    tris = mesh.triangles
    nv = mesh.num_vertices

    if degree == 1:
        cell_dofs = tris.copy()
        dof_coords = mesh.vertices.copy()
        boundary_ids = mesh.boundary_edges
    else:
        edges, cell_edges, boundary_edges = edge_numbering(mesh)
        cell_dofs = np.concatenate([tris, nv + cell_edges], axis=1).astype(np.int64)
        midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
        dof_coords = np.concatenate([mesh.vertices, midpoints], axis=0)
        boundary_ids = np.column_stack([mesh.boundary_edges, nv + boundary_edges])

    boundary: dict[BoundaryTag, list[int]] = {tag: [] for tag in BoundaryTag}
    for ids, tag in zip(boundary_ids, mesh.boundary_tags):
        boundary[tag].extend(ids)  # the edge's end vertices and (P2) its edge DOF
    boundary_dofs = {tag: np.unique(np.array(ids, dtype=np.int64))
                     for tag, ids in boundary.items() if ids}

    verts = mesh.vertices[tris]
    d1 = verts[:, 1] - verts[:, 0]
    d2 = verts[:, 2] - verts[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(det <= 0):
        raise ValueError("mesh contains a non-counterclockwise triangle")
    inv_jt = np.empty((tris.shape[0], 2, 2))  # inverse-transpose of [d1 | d2]
    inv_jt[:, 0, 0] = d2[:, 1]
    inv_jt[:, 0, 1] = -d1[:, 1]
    inv_jt[:, 1, 0] = -d2[:, 0]
    inv_jt[:, 1, 1] = d1[:, 0]
    inv_jt /= det[:, None, None]

    return FeSpace(mesh=mesh, degree=degree, dof_count=dof_coords.shape[0],
                   dof_coords=dof_coords, cell_dofs=cell_dofs,
                   boundary_dofs=boundary_dofs,
                   assembly_rule=triangle_rule(2 * degree),
                   data_rule=triangle_rule(2 * degree + 2),
                   areas=0.5 * det, _inv_jt=inv_jt)


def _evaluate(fn: Field, xq: np.ndarray, yq: np.ndarray, t: float) -> np.ndarray:
    vals = np.asarray(fn(xq, yq, float(t)), dtype=float)
    return np.broadcast_to(vals, xq.shape)


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """Mass matrix, entry (i, j) = integral of phi_i * phi_j.

    Its pattern is the stiffness pattern slot for slot, so the data of any
    combination of mass and stiffness matrices is the same combination of
    their data arrays.
    """
    tab = space.tabulation(space.assembly_rule)
    local_ref = np.einsum("qa,qb,q->ab", tab.phi, tab.phi, tab.weights)
    local = space.areas[:, None] * local_ref.reshape(1, -1)
    op = space.stiffness_operator()
    return op.csr(np.bincount(op.slots.ravel(), weights=local.ravel(),
                              minlength=op.indices.size))


def coefficient_values(space: FeSpace, coeff: Field, t: float) -> np.ndarray:
    """Values of a coefficient at the assembly quadrature points, shape (nt, nq)."""
    tab = space.tabulation(space.assembly_rule)
    c = _evaluate(coeff, tab.xq, tab.yq, t)
    if not np.isfinite(c).all():
        bad = int(np.nonzero(~np.isfinite(c).all(axis=1))[0][0])
        raise ValueError(f"coefficient evaluated non-finite on element {bad} at t={t}")
    return c


def assemble_stiffness(space: FeSpace, coeff: Field | np.ndarray, t: float) -> sp.csr_matrix:
    """Weighted stiffness matrix, entry (i, j) = integral of coeff * grad phi_i . grad phi_j.

    `coeff` is a field, evaluated at time t, or its values at the assembly
    points as returned by `coefficient_values`.
    """
    c = coefficient_values(space, coeff, t) if callable(coeff) else coeff
    return space.stiffness_operator().matrix(c)


def assemble_load(space: FeSpace, f: Field, t: float) -> np.ndarray:
    """Load vector, entry i = integral of f * phi_i (data-rule quadrature)."""
    tab = space.tabulation(space.data_rule)
    fv = _evaluate(f, tab.xq, tab.yq, t)
    if not np.isfinite(fv).all():
        bad = int(np.nonzero(~np.isfinite(fv).all(axis=1))[0][0])
        raise ValueError(f"source evaluated non-finite on element {bad} at t={t}")
    return space.load_operator() @ fv.ravel()


def l2_project(space: FeSpace, g: Field, t: float = 0.0) -> np.ndarray:
    """Element of the space whose inner product with every basis function matches g."""
    m = assemble_mass(space)
    b = assemble_load(space, g, t)
    return sparse.spd_factorize(m).solve(b)


def integrate(space: FeSpace, u: np.ndarray) -> float | np.ndarray:
    """Integral of the FE function over the domain; a block gives one per column.

    The integral of phi_i is the load of the unit source, the sum of row i of
    the load operator, so the integrals of every column are one product.
    """
    return np.asarray(space.load_operator().sum(axis=1)).ravel() @ u


def error_l2(space: FeSpace, u: np.ndarray, exact: Field | None, t: float = 0.0,
             rule: QuadratureRule | None = None) -> float:
    """L2 norm of (u_h - exact); pass exact=None for the plain L2 norm of u_h."""
    tab = space.tabulation(rule if rule is not None else space.data_rule)
    d = np.einsum("qa,ta->tq", tab.phi, u[space.cell_dofs])
    if exact is not None:
        d = d - _evaluate(exact, tab.xq, tab.yq, t)
    return float(np.sqrt(np.einsum("tq,q,t->", d * d, tab.weights, space.areas)))


def error_h1_semi(space: FeSpace, u: np.ndarray, exact_gradient: GradientField | None,
                  t: float = 0.0, rule: QuadratureRule | None = None) -> float:
    """H1 seminorm of (u_h - exact); pass exact_gradient=None for |u_h|_H1."""
    tab = space.tabulation(rule if rule is not None else space.data_rule)
    g = np.einsum("tqai,ta->tqi", tab.grad, u[space.cell_dofs])
    if exact_gradient is not None:
        gx, gy = exact_gradient(tab.xq, tab.yq, float(t))
        g = g - np.stack([np.broadcast_to(gx, tab.xq.shape),
                          np.broadcast_to(gy, tab.xq.shape)], axis=-1)
    sq = g[..., 0] ** 2 + g[..., 1] ** 2
    return float(np.sqrt(np.einsum("tq,q,t->", sq, tab.weights, space.areas)))


class DirichletConstraint:
    """Elimination of tagged boundary DOFs from one assembled system.

    The values at the tagged DOFs `bdofs` are known, so the unknowns are the
    `free` DOFs: `matrix` is the free-free block of the system, SPD whenever
    the system is, and `coupling` the free-tagged block, through which `lift`
    moves the boundary values into the right-hand side. A solve of `matrix`
    gives the `free` rows of the solution; its `bdofs` rows are the boundary
    values. Which system slot each entry of the two blocks comes from depends
    only on the sparsity pattern, so these slot maps are made once and
    `refill` rewrites both blocks in place from new data on that pattern.
    The matrix object, and with it the ordering a factorization caches on
    it, lives as long as the constraint.
    """

    def __init__(self, matrix: sp.csr_matrix, space: FeSpace,
                 tags: Sequence[BoundaryTag]):
        self.space = space
        self.bdofs = space.tagged_dofs(tags)
        self.free = np.setdiff1d(np.arange(space.dof_count), self.bdofs)
        matrix = sp.csr_matrix(matrix, copy=True)
        matrix.sum_duplicates()  # canonical slot order: rows, then sorted columns
        # the blocks of the system whose entries are slot numbers plus one (so
        # that none is zero); the data of each block is then its slot map
        numbered = sp.csr_matrix((np.arange(1.0, matrix.nnz + 1), matrix.indices,
                                  matrix.indptr), shape=matrix.shape)[self.free]
        self.matrix, self.coupling = numbered[:, self.free], numbered[:, self.bdofs]
        self._matrix_slots = self.matrix.data.astype(np.intp) - 1
        self._coupling_slots = self.coupling.data.astype(np.intp) - 1
        self._nnz = matrix.nnz
        self.refill(matrix.data)

    def refill(self, data: np.ndarray) -> None:
        """Rewrite `matrix` and `coupling` in place from new system data.

        `data` holds the entries of a system on the pattern this constraint was
        built from, in canonical CSR slot order.
        """
        if data.shape != (self._nnz,):
            raise ValueError(f"system data of shape {data.shape}, want ({self._nnz},)")
        # the slots are in range by construction; "clip" skips the buffered
        # bounds check of the default mode
        np.take(data, self._matrix_slots, out=self.matrix.data, mode="clip")
        np.take(data, self._coupling_slots, out=self.coupling.data, mode="clip")

    def boundary_values(self, g: Field, t: float) -> np.ndarray:
        """g at the tagged DOFs; raises ValueError on a non-finite value."""
        xb = self.space.dof_coords[self.bdofs, 0]
        yb = self.space.dof_coords[self.bdofs, 1]
        values = np.broadcast_to(np.asarray(g(xb, yb, float(t)), dtype=float),
                                 xb.shape).copy()
        if not np.isfinite(values).all():
            bad = int(self.bdofs[np.argmin(np.isfinite(values))])
            raise ValueError(f"boundary data evaluated non-finite at DOF {bad} at t={t}")
        return values

    def lift(self, rhs: np.ndarray, gvals: np.ndarray) -> np.ndarray:
        """Right-hand side of the free block: rhs[free] - coupling @ gvals.

        rhs may be (n,) with (nb,) gvals or (n, J) with (nb, J) gvals.
        """
        return rhs[self.free] - self.coupling @ gvals
