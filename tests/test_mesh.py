import io
import math
import re
from collections import Counter

import numpy as np
import pytest

from ensfem.fem import build_space
from ensfem.mesh import (UNIT_SQUARE, BoundaryTag, Mesh, dump_mesh, edge_numbering,
                         mesh_size, refine_uniform, uniform_triangulation)


def reference_triangulation(nx, ny, domain):
    """Cell-by-cell construction with boundary tags read off the coordinates."""
    x0, x1, y0, y1 = domain
    xv, yv = np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    triangles = []
    for iy in range(ny):
        for ix in range(nx):
            v00, v10 = vid(ix, iy), vid(ix + 1, iy)
            v01, v11 = vid(ix, iy + 1), vid(ix + 1, iy + 1)
            triangles += [(v00, v10, v11), (v00, v11, v01)]
    edges = []
    for ix in range(nx):
        edges += [(vid(ix, 0), vid(ix + 1, 0)), (vid(ix, ny), vid(ix + 1, ny))]
    for iy in range(ny):
        edges += [(vid(0, iy), vid(0, iy + 1)), (vid(nx, iy), vid(nx, iy + 1))]
    tags = []
    for i, j in edges:
        (xa, ya), (xb, yb) = vertices[i], vertices[j]
        for tag, on_side in ((BoundaryTag.LEFT, xa == xb == x0), (BoundaryTag.RIGHT, xa == xb == x1),
                             (BoundaryTag.BOTTOM, ya == yb == y0), (BoundaryTag.TOP, ya == yb == y1)):
            if on_side:
                tags.append(tag)
                break
    return (vertices, np.array(triangles, dtype=np.int64), np.array(edges, dtype=np.int64),
            tuple(tags))


@pytest.mark.parametrize("domain", [UNIT_SQUARE, (0.0, 2.5, -1.0, 0.5), (0.0, 2.0, 1.0, 4.0)])
@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 4), (4, 4),
                                   (7, 5), (8, 8), (16, 16), (64, 64)])
def test_matches_reference_construction(nx, ny, domain):
    m = uniform_triangulation(nx, ny, domain)
    vertices, triangles, edges, tags = reference_triangulation(nx, ny, domain)
    for got, want in ((m.vertices, vertices), (m.triangles, triangles),
                      (m.boundary_edges, edges)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert m.boundary_tags == tags


def test_single_cell_unit_square():
    m = uniform_triangulation(1, 1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert build_space(m, 1).areas.sum() == pytest.approx(1.0, rel=1e-14)
    assert mesh_size(m) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_four_by_four_matches_study_header():
    m = uniform_triangulation(4, 4)
    assert m.num_triangles == 32
    assert mesh_size(m) == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-15)


def test_rectangular_grid_counts_and_area():
    m = uniform_triangulation(3, 2)
    assert m.num_triangles == 12
    assert build_space(m, 1).areas.sum() == pytest.approx(1.0, rel=1e-12)


def test_mesh_size_anisotropic_cells():
    # 0.5 x 0.25 cells: longest edge is the cell diagonal
    m = uniform_triangulation(2, 4)
    assert mesh_size(m) == pytest.approx(math.sqrt(0.25 + 0.0625), rel=1e-14)


@pytest.mark.parametrize("bad", [(0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0),
                                 (1.0, 0.0, 0.0, 1.0)])
def test_degenerate_rectangle_rejected(bad):
    with pytest.raises(ValueError, match="invalid domain"):
        uniform_triangulation(2, 2, bad)


def test_bad_cell_counts_rejected():
    with pytest.raises(ValueError):
        uniform_triangulation(0, 3)


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (7, 5), (16, 16), (64, 64)])
def test_area_conservation(nx, ny):
    m = uniform_triangulation(nx, ny, (0.0, 2.5, -1.0, 0.5))
    areas = build_space(m, 1).areas
    assert areas.sum() == pytest.approx(2.5 * 1.5, rel=1e-12)
    assert (areas > 0).all()


@pytest.mark.parametrize("make", [
    lambda: uniform_triangulation(3, 4),
    lambda: refine_uniform(uniform_triangulation(2, 2)),
])
def test_conformity_edge_counts(make):
    m = make()
    counts = Counter()
    for tri in m.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            counts[tuple(sorted((tri[a], tri[b])))] += 1
    boundary = {tuple(sorted(e)) for e in map(tuple, m.boundary_edges)}
    for edge, n in counts.items():
        assert n == (1 if edge in boundary else 2)
    assert boundary <= set(counts)


def test_refine_single_cell():
    m = refine_uniform(uniform_triangulation(1, 1))
    assert m.num_triangles == 8
    assert mesh_size(m) == pytest.approx(math.sqrt(2.0) / 2.0)


def test_refine_matches_doubled_resolution():
    fine = refine_uniform(uniform_triangulation(4, 4))
    direct = uniform_triangulation(8, 8)
    assert mesh_size(fine) == mesh_size(direct)
    canon = lambda m: sorted(map(tuple, np.round(m.vertices, 14)))
    assert canon(fine) == canon(direct)
    # same triangles as vertex-coordinate sets
    def tri_keys(m):
        return sorted(tuple(sorted(map(tuple, np.round(m.vertices[t], 14)))) for t in m.triangles)
    assert tri_keys(fine) == tri_keys(direct)


def test_refinement_halves_mesh_size():
    m = uniform_triangulation(4, 4)
    r = refine_uniform(m)
    assert mesh_size(r) == mesh_size(m) / 2.0  # dyadic coordinates: exact
    assert mesh_size(refine_uniform(r)) == mesh_size(m) / 4.0
    m3 = uniform_triangulation(3, 3)
    assert mesh_size(refine_uniform(m3)) == pytest.approx(mesh_size(m3) / 2.0, rel=4e-16)


def test_boundary_tags_match_coordinates():
    m = uniform_triangulation(3, 3, (0.0, 2.0, 1.0, 4.0))
    for (i, j), tag in zip(m.boundary_edges, m.boundary_tags):
        xa, ya = m.vertices[i]
        xb, yb = m.vertices[j]
        expected = {
            BoundaryTag.LEFT: xa == 0.0 and xb == 0.0,
            BoundaryTag.RIGHT: xa == 2.0 and xb == 2.0,
            BoundaryTag.BOTTOM: ya == 1.0 and yb == 1.0,
            BoundaryTag.TOP: ya == 4.0 and yb == 4.0,
        }
        assert expected[tag]


def test_corner_vertices_appear_under_two_tags():
    m = uniform_triangulation(2, 2)
    touched = {tag: set() for tag in BoundaryTag}
    for (i, j), tag in zip(m.boundary_edges, m.boundary_tags):
        touched[tag].update((int(i), int(j)))
    corner = 0  # vertex at (0, 0)
    assert corner in touched[BoundaryTag.LEFT]
    assert corner in touched[BoundaryTag.BOTTOM]


def test_refinement_preserves_tags():
    m = refine_uniform(uniform_triangulation(2, 3))
    per_tag = Counter(m.boundary_tags)
    assert per_tag[BoundaryTag.BOTTOM] == per_tag[BoundaryTag.TOP] == 4
    assert per_tag[BoundaryTag.LEFT] == per_tag[BoundaryTag.RIGHT] == 6
    test_boundary_tags = zip(m.boundary_edges, m.boundary_tags)
    for (i, j), tag in test_boundary_tags:
        if tag is BoundaryTag.LEFT:
            assert m.vertices[i, 0] == 0.0 and m.vertices[j, 0] == 0.0


def test_edge_numbering_addresses_triangle_and_boundary_edges():
    m = refine_uniform(uniform_triangulation(2, 3))
    edges, cell_edges, boundary = edge_numbering(m)
    assert (edges[:, 0] < edges[:, 1]).all()
    assert (np.diff(edges[:, 0] * m.num_vertices + edges[:, 1]) > 0).all()
    for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        assert np.array_equal(edges[cell_edges[:, k]], np.sort(m.triangles[:, [a, b]], axis=1))
    assert np.array_equal(edges[boundary], np.sort(m.boundary_edges, axis=1))


def test_boundary_edge_off_the_triangles_is_rejected():
    m = uniform_triangulation(1, 1)  # triangles (0, 1, 3) and (0, 3, 2)
    bad = Mesh(vertices=m.vertices.copy(), triangles=m.triangles.copy(),
               boundary_edges=np.array([[1, 2]]), boundary_tags=(BoundaryTag.LEFT,),
               domain=m.domain)
    with pytest.raises(ValueError, match="boundary edge"):
        refine_uniform(bad)
    with pytest.raises(ValueError, match="boundary edge"):
        build_space(bad, 2)


def test_dump_format():
    m = uniform_triangulation(1, 1)
    buf = io.StringIO()
    dump_mesh(m, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "vertices 4 triangles 2"
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("t ")) == 2
    assert sum(1 for ln in lines if ln.startswith("b ")) == 4
    assert re.fullmatch(r"b \d+ \d+ (LEFT|RIGHT|TOP|BOTTOM)", lines[-1])


def test_vertices_are_immutable():
    m = uniform_triangulation(2, 2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
