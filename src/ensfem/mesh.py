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


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children via edge midpoints."""
    vertices = [tuple(p) for p in mesh.vertices]
    midpoint: dict[tuple[int, int], int] = {}

    def mid(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        idx = midpoint.get(key)
        if idx is None:
            a = mesh.vertices[key[0]]
            b = mesh.vertices[key[1]]
            vertices.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
            idx = len(vertices) - 1
            midpoint[key] = idx
        return idx

    triangles = []
    for v0, v1, v2 in mesh.triangles:
        m01 = mid(v0, v1)
        m12 = mid(v1, v2)
        m20 = mid(v2, v0)
        triangles.extend([(v0, m01, m20), (m01, v1, m12), (m20, m12, v2), (m01, m12, m20)])

    edges = []
    tags = []
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        m = mid(int(i), int(j))
        edges.extend([(int(i), m), (m, int(j))])
        tags.extend([tag, tag])

    return Mesh(vertices=np.array(vertices, dtype=float),
                triangles=np.array(triangles, dtype=np.int64),
                boundary_edges=np.array(edges, dtype=np.int64),
                boundary_tags=tuple(tags), domain=mesh.domain)


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas, positive for counterclockwise triangles."""
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


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
