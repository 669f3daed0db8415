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
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: tuple[BoundaryTag, ...]

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
                boundary_tags=tags)


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
