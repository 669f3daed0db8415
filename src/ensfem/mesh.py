"""Uniform criss-cross triangulations of axis-aligned rectangles.

Meshes are immutable after construction: every cell of the nx-by-ny grid is
split along its bottom-left to top-right diagonal, vertices are numbered
lexicographically (y-major, then x), and boundary *edges* carry one of four
side tags. Corner vertices belong to the edges of both adjacent sides, which
keeps Dirichlet data assignment unambiguous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TextIO

import numpy as np

Rectangle = tuple[float, float, float, float]  # (x0, x1, y0, y1)

UNIT_SQUARE: Rectangle = (0.0, 1.0, 0.0, 1.0)


class BoundaryTag(Enum):
    LEFT = "left"
    RIGHT = "right"
    TOP = "top"
    BOTTOM = "bottom"


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a rectangle.

    Attributes:
        vertices: (nv, 2) float coordinates.
        triangles: (nt, 3) vertex indices, counterclockwise.
        boundary_edges: (nb, 2) vertex index pairs lying on the rectangle sides.
        boundary_tags: tag per boundary edge, aligned with `boundary_edges`.
        domain: the rectangle (x0, x1, y0, y1) the mesh covers.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: tuple[BoundaryTag, ...]
    domain: Rectangle

    def __post_init__(self) -> None:
        for arr in (self.vertices, self.triangles, self.boundary_edges):
            arr.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


def _check_domain(domain: Rectangle) -> Rectangle:
    x0, x1, y0, y1 = (float(v) for v in domain)
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        raise ValueError(f"invalid domain: non-finite rectangle {domain!r}")
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"invalid domain: degenerate rectangle {domain!r}")
    return (x0, x1, y0, y1)


def uniform_triangulation(nx: int, ny: int, domain: Rectangle = UNIT_SQUARE) -> Mesh:
    """Triangulate the rectangle with an nx-by-ny grid of cells, two triangles each.

    Each cell is split along the bottom-left to top-right diagonal. Vertex
    (ix, iy) gets index iy*(nx+1) + ix.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must have at least one cell per direction, got {nx}x{ny}")
    x0, x1, y0, y1 = _check_domain(domain)

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="xy")  # row-major over y
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    vid = np.arange((nx + 1) * (ny + 1), dtype=np.int64).reshape(ny + 1, nx + 1)
    v00, v10 = vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel()
    v01, v11 = vid[1:, :-1].ravel(), vid[1:, 1:].ravel()
    # per cell: (v00, v10, v11) then (v00, v11, v01)
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    # bottom and top edges alternate along x, then left and right along y
    horizontal = np.stack([vid[0, :-1], vid[0, 1:], vid[ny, :-1], vid[ny, 1:]], axis=1)
    vertical = np.stack([vid[:-1, 0], vid[1:, 0], vid[:-1, nx], vid[1:, nx]], axis=1)
    boundary_edges = np.concatenate([horizontal.reshape(-1, 2), vertical.reshape(-1, 2)])
    tags = ((BoundaryTag.BOTTOM, BoundaryTag.TOP) * nx
            + (BoundaryTag.LEFT, BoundaryTag.RIGHT) * ny)
    return Mesh(vertices=vertices, triangles=triangles, boundary_edges=boundary_edges,
                boundary_tags=tags, domain=(x0, x1, y0, y1))


def edge_numbering(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the mesh's unique edges, sorted lexicographically by vertex index pair.

    Returns `edges`, shape (ne, 2), each pair with its smaller index first;
    the edge numbers of each triangle's edges (v0, v1), (v1, v2), (v2, v0),
    shape (nt, 3); and the edge number of each boundary edge, shape (nb,).
    Raises ValueError if a boundary edge is not an edge of the triangles.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    tris = mesh.triangles
    pairs = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    keys, inverse = np.unique(pairs[:, 0] * np.int64(nv) + pairs[:, 1], return_inverse=True)
    boundary = np.sort(mesh.boundary_edges, axis=1)
    boundary_keys = boundary[:, 0] * np.int64(nv) + boundary[:, 1]
    if not np.isin(boundary_keys, keys).all():
        raise ValueError("a boundary edge is not an edge of the triangles")
    edges = np.column_stack([keys // nv, keys % nv])
    return edges, inverse.reshape(3, nt).T, np.searchsorted(keys, boundary_keys)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children via edge midpoints.

    The midpoint of edge k of `edge_numbering` becomes vertex num_vertices + k.
    """
    edges, cell_edges, boundary_edges = edge_numbering(mesh)
    p = mesh.vertices
    vertices = np.concatenate([p, 0.5 * (p[edges[:, 0]] + p[edges[:, 1]])])
    v0, v1, v2 = mesh.triangles.T
    m01, m12, m20 = (mesh.num_vertices + cell_edges).T
    triangles = np.stack([v0, m01, m20, m01, v1, m12, m20, m12, v2, m01, m12, m20], axis=1)
    i, j = mesh.boundary_edges.T
    m = mesh.num_vertices + boundary_edges
    return Mesh(vertices=vertices, triangles=triangles.reshape(-1, 3),
                boundary_edges=np.stack([i, m, m, j], axis=1).reshape(-1, 2),
                boundary_tags=tuple(t for tag in mesh.boundary_tags for t in (tag, tag)),
                domain=mesh.domain)


def mesh_size(mesh: Mesh) -> float:
    """Longest triangle edge over the whole mesh."""
    if mesh.num_triangles == 0:
        raise ValueError("mesh has no triangles")
    p = mesh.vertices[mesh.triangles]
    h2 = 0.0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        d = p[:, a] - p[:, b]
        h2 = max(h2, float(np.max(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))
    return math.sqrt(h2)


def dump_mesh(mesh: Mesh, stream: TextIO) -> None:
    """Write the plain-text mesh dump.

    Format: one header line ``vertices <n> triangles <m>``, then ``v x y``
    lines, ``t i j k`` lines, and ``b i j TAG`` boundary lines.
    """
    stream.write(f"vertices {mesh.num_vertices} triangles {mesh.num_triangles}\n")
    for x, y in mesh.vertices:
        stream.write(f"v {x!r} {y!r}\n")
    for i, j, k in mesh.triangles:
        stream.write(f"t {i} {j} {k}\n")
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        stream.write(f"b {i} {j} {tag.name}\n")
