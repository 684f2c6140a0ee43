import numpy as np
import pytest

from anisofem.fields import FieldSpec, eval_b
from anisofem.fem import FemSpace
from anisofem.geometry import (BN_TOLERANCE, Tag, boundary_edges, build_quad_mesh,
                               build_tri_mesh, classify_boundary)


def test_single_quad_cell():
    mesh = build_quad_mesh(1, 1, 1.0, 1.0)
    assert mesh.n_nodes == 4
    assert mesh.n_elements == 1
    assert mesh.h == pytest.approx(np.sqrt(2.0))


def test_two_by_two_counts():
    mesh = build_quad_mesh(2, 2, 1.0, 1.0)
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 4


def test_large_quad_counts_and_h():
    mesh = build_quad_mesh(100, 100, 1.0, 1.0)
    assert mesh.n_nodes == 10201
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 100.0, rel=1e-15)


def test_node_ordering_lexicographic():
    mesh = build_quad_mesh(3, 2, 3.0, 2.0)
    # x varies fastest
    assert np.allclose(mesh.nodes[:4, 1], 0.0)
    assert np.all(np.diff(mesh.nodes[:4, 0]) > 0)


def test_tri_counts():
    assert build_tri_mesh(1).n_nodes == 4
    assert build_tri_mesh(1).n_elements == 2
    m4 = build_tri_mesh(4)
    assert (m4.n_nodes, m4.n_elements) == (25, 32)
    m8 = build_tri_mesh(8)
    assert (m8.n_nodes, m8.n_elements) == (81, 128)


def test_connectivity_in_range_and_positive_area():
    for mesh in (build_quad_mesh(5, 3, 2.0, 1.0), build_tri_mesh(6)):
        assert mesh.elements.min() >= 0
        assert mesh.elements.max() < mesh.n_nodes
        corners = mesh.nodes[mesh.elements]
        # shoelace area of the corner polygon must be positive
        x, y = corners[..., 0], corners[..., 1]
        area = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y,
                            axis=1)
        assert np.all(area > 0)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_quad_mesh(0, 2)
    with pytest.raises(ValueError):
        build_tri_mesh(2, Lx=-1.0)


def test_h_halves_when_n_doubles():
    for build in (lambda n: build_quad_mesh(n, n), build_tri_mesh):
        assert build(6).h == pytest.approx(build(3).h / 2.0, rel=1e-15)


def _tags_by_side(mesh, tags):
    out = {}
    for side, tag in zip(boundary_edges(mesh).side, tags.edge_tags):
        out.setdefault(side, set()).add(tag)
    return out


def test_classify_variable_field():
    mesh = build_quad_mesh(8, 8)
    for alpha in (0.0, 2.0):
        tags = classify_boundary(mesh, FieldSpec("variable_alpha", alpha))
        by_side = _tags_by_side(mesh, tags)
        assert by_side["bottom"] == {Tag.DIRICHLET}
        assert by_side["top"] == {Tag.DIRICHLET}
        assert by_side["left"] == {Tag.INFLOW}
        assert by_side["right"] == {Tag.OUTFLOW}


def test_classify_aligned_field():
    mesh = build_quad_mesh(4, 4, np.pi, np.pi)
    tags = classify_boundary(mesh, FieldSpec("aligned_e2"))
    by_side = _tags_by_side(mesh, tags)
    assert by_side["left"] == {Tag.DIRICHLET}
    assert by_side["right"] == {Tag.DIRICHLET}
    assert by_side["bottom"] == {Tag.INFLOW}
    assert by_side["top"] == {Tag.OUTFLOW}


def test_tag_partition():
    for mesh in (build_quad_mesh(7, 5), build_tri_mesh(6)):
        tags = classify_boundary(mesh, FieldSpec("variable_alpha", 1.0))
        total = sum(tags.count(t) for t in Tag)
        assert total == len(boundary_edges(mesh).side)


def test_refinement_stable_tags():
    field = FieldSpec("variable_alpha", 2.0)
    coarse = build_quad_mesh(4, 4)
    fine = build_quad_mesh(8, 8)
    side_c = _tags_by_side(coarse, classify_boundary(coarse, field))
    side_f = _tags_by_side(fine, classify_boundary(fine, field))
    assert side_c == side_f


def test_corner_dirichlet_dominance():
    mesh = build_quad_mesh(4, 4)
    tags = classify_boundary(mesh, FieldSpec("variable_alpha", 2.0))
    u_space = FemSpace(mesh, "q1", {Tag.DIRICHLET}, tags)
    q_space = FemSpace(mesh, "q1", {Tag.DIRICHLET, Tag.INFLOW}, tags)
    # lower-left corner joins a Dirichlet (bottom) and an inflow (left)
    # edge: pinned already by the Dirichlet tag
    assert u_space.constrained_mask[0]
    # mid-left node joins two inflow edges: pinned only with the inflow tag
    mid_left = (4 + 1) * 2
    assert not u_space.constrained_mask[mid_left]
    assert q_space.constrained_mask[mid_left]


def _per_edge_reference(mesh, field, k):
    """The boundary split one edge at a time: (side, index, midpoint, normal,
    tag, lattice dofs) per edge, each tag from its own scalar eval_b call."""
    nx, ny, stride = mesh.nx, mesh.ny, mesh.nx + 1
    mx, my = k * nx + 1, k * ny + 1
    a = np.arange(k + 1)
    edges = []
    for i in range(nx):
        edges.append(("bottom", i, i, i + 1, (0.0, -1.0), k * i + a))
    for j in range(ny):
        edges.append(("right", j, j * stride + nx, (j + 1) * stride + nx, (1.0, 0.0),
                      (k * j + a) * mx + (mx - 1)))
    for i in range(nx):
        edges.append(("top", i, ny * stride + i, ny * stride + i + 1, (0.0, 1.0),
                      (my - 1) * mx + k * i + a))
    for j in range(ny):
        edges.append(("left", j, j * stride, (j + 1) * stride, (-1.0, 0.0), (k * j + a) * mx))
    out = []
    for side, index, n0, n1, normal, dofs in edges:
        mid = 0.5 * (mesh.nodes[n0] + mesh.nodes[n1])
        b = eval_b(field, float(mid[0]), float(mid[1]))
        bn = float(b[0] * normal[0] + b[1] * normal[1])
        tag = (Tag.DIRICHLET if abs(bn) < BN_TOLERANCE
               else Tag.INFLOW if bn < 0 else Tag.OUTFLOW)
        out.append((side, index, mid, normal, tag, dofs))
    return out


@pytest.mark.parametrize("extent", [(1.0, 1.0), (np.pi, np.pi), (1.0, 0.4)],
                         ids=["unit", "pi", "flat"])
@pytest.mark.parametrize("field", [FieldSpec("variable_alpha", 0.0),
                                   FieldSpec("variable_alpha", 2.0),
                                   FieldSpec("aligned_e2")],
                         ids=["alpha0", "alpha2", "aligned"])
@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_boundary_split_matches_per_edge_reference(family, n, field, extent):
    mesh = (build_quad_mesh(n, n, *extent) if family[0] == "q"
            else build_tri_mesh(n, *extent))
    sides, indices, mids, normals, ref_tags, dofs = zip(
        *_per_edge_reference(mesh, field, int(family[1])))
    edges = boundary_edges(mesh)
    assert list(edges.side) == list(sides)
    assert list(edges.index) == list(indices)
    assert np.array_equal(edges.midpoint, mids)
    assert np.array_equal(edges.normal, normals)
    tags = classify_boundary(mesh, field)
    assert list(tags.edge_tags) == list(ref_tags)
    u_space = FemSpace(mesh, family, {Tag.DIRICHLET}, tags)
    q_space = u_space.with_constraints({Tag.DIRICHLET, Tag.INFLOW}, tags)
    for space, keep in ((u_space, {Tag.DIRICHLET}), (q_space, {Tag.DIRICHLET, Tag.INFLOW})):
        pinned = [d for t, d in zip(ref_tags, dofs) if t in keep]
        expected = np.unique(np.concatenate(pinned)) if pinned else np.empty(0, np.int64)
        assert space.constrained.dtype == np.int64
        assert np.array_equal(space.constrained, expected)
