import numpy as np
import pytest

from anisofem.fields import FieldSpec
from anisofem.fem import FemSpace
from anisofem.geometry import (Tag, build_quad_mesh, build_tri_mesh,
                               classify_boundary)


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
    for edge, tag in zip(mesh.boundary_edges, tags.edge_tags):
        out.setdefault(edge.side, set()).add(tag)
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
        assert total == len(mesh.boundary_edges)


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
