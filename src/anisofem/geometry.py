"""Structured meshes on rectangular domains and boundary classification.

Meshes are uniform tensor grids of rectangles, or the same grids with every
cell split into two triangles along the lower-left to upper-right diagonal
(so the hypotenuses are parallel but not aligned with either coordinate
axis).  The boundary is partitioned by the sign of b.n into a tangential
part (Dirichlet), an inflow part and an outflow part.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# |b.n| below this counts as tangential.  The built-in fields give exactly
# 0.0 on the tangential edges, so this is a safety net only.
BN_TOLERANCE = 1e-12


_SIDE_NORMALS = {
    "bottom": np.array([0.0, -1.0]),
    "right": np.array([1.0, 0.0]),
    "top": np.array([0.0, 1.0]),
    "left": np.array([-1.0, 0.0]),
}


class Tag(Enum):
    """Boundary classification by the sign of b.n."""

    DIRICHLET = "dirichlet"   # b.n = 0
    INFLOW = "inflow"         # b.n < 0
    OUTFLOW = "outflow"       # b.n > 0


@dataclass(frozen=True)
class BoundaryEdge:
    """One element edge lying on the domain boundary.

    ``side`` is the rectangle side it belongs to and ``index`` its 0-based
    position along that side.
    """

    side: str
    index: int
    midpoint: tuple[float, float]
    normal: tuple[float, float]


@dataclass
class Mesh:
    """Structured mesh on [0, Lx] x [0, Ly].

    nodes are ordered lexicographically (x fastest) so dof numbering is
    reproducible run-to-run.  ``h`` is the maximal element diameter.
    Instances are treated as immutable after construction.
    """

    nodes: np.ndarray             # (n_nodes, 2)
    elements: np.ndarray          # (n_elements, 4) quads or (n_elements, 3) triangles
    element_kind: str             # "quad" | "triangle"
    Lx: float
    Ly: float
    nx: int                       # cells per direction
    ny: int
    h: float
    boundary_edges: list[BoundaryEdge]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


def _lattice_nodes(nx: int, ny: int, Lx: float, Ly: float) -> np.ndarray:
    x = np.linspace(0.0, Lx, nx + 1)
    y = np.linspace(0.0, Ly, ny + 1)
    X, Y = np.meshgrid(x, y, indexing="xy")
    return np.column_stack([X.ravel(), Y.ravel()])


def _boundary_edges_structured(nodes, nx, ny):
    """Boundary edges of an nx-by-ny cell grid, counter-clockwise per side."""
    edges = []

    def add(side, index, n0, n1):
        mid = 0.5 * (nodes[n0] + nodes[n1])
        edges.append(BoundaryEdge(side, index, (float(mid[0]), float(mid[1])),
                                  tuple(_SIDE_NORMALS[side])))

    stride = nx + 1
    for i in range(nx):
        add("bottom", i, i, i + 1)
    for j in range(ny):
        add("right", j, j * stride + nx, (j + 1) * stride + nx)
    for i in range(nx):
        add("top", i, ny * stride + i, ny * stride + i + 1)
    for j in range(ny):
        add("left", j, j * stride, (j + 1) * stride)
    return edges


def build_quad_mesh(nx: int, ny: int, Lx: float = 1.0, Ly: float = 1.0) -> Mesh:
    """Uniform grid of nx*ny rectangles; connectivity is counter-clockwise."""
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell per direction")
    if Lx <= 0 or Ly <= 0:
        raise ValueError("domain extents must be positive")
    nodes = _lattice_nodes(nx, ny, Lx, Ly)
    stride = nx + 1
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    i, j = i.ravel(), j.ravel()
    ll = j * stride + i
    elements = np.column_stack([ll, ll + 1, ll + stride + 1, ll + stride])
    hx, hy = Lx / nx, Ly / ny
    edges = _boundary_edges_structured(nodes, nx, ny)
    return Mesh(nodes, elements.astype(np.int64), "quad", Lx, Ly, nx, ny,
                float(np.hypot(hx, hy)), edges)


def build_tri_mesh(n: int, Lx: float = 1.0, Ly: float = 1.0) -> Mesh:
    """n*n grid, each cell split along the lower-left/upper-right diagonal.

    Cell (i, j) with corners ll, lr, ur, ul yields the triangles
    (ll, lr, ur) and (ll, ur, ul), stored in this order (lower first).
    """
    if n < 1:
        raise ValueError("need at least one cell per direction")
    if Lx <= 0 or Ly <= 0:
        raise ValueError("domain extents must be positive")
    nodes = _lattice_nodes(n, n, Lx, Ly)
    stride = n + 1
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    i, j = i.ravel(), j.ravel()
    ll = j * stride + i
    lower = np.column_stack([ll, ll + 1, ll + stride + 1])
    upper = np.column_stack([ll, ll + stride + 1, ll + stride])
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper
    edges = _boundary_edges_structured(nodes, n, n)
    return Mesh(nodes, elements, "triangle", Lx, Ly, n, n,
                float(np.hypot(Lx / n, Ly / n)), edges)


@dataclass
class BoundaryTags:
    """Per-edge boundary tags, parallel to mesh.boundary_edges."""

    edge_tags: list[Tag]

    def count(self, tag: Tag) -> int:
        return sum(1 for t in self.edge_tags if t is tag)


def classify_boundary(mesh: Mesh, field) -> BoundaryTags:
    """Tag every boundary edge from the sign of b.n at its midpoint."""
    from .fields import eval_b

    edge_tags = []
    for edge in mesh.boundary_edges:
        b = eval_b(field, edge.midpoint[0], edge.midpoint[1])
        bn = float(b[0] * edge.normal[0] + b[1] * edge.normal[1])
        if abs(bn) < BN_TOLERANCE:
            edge_tags.append(Tag.DIRICHLET)
        elif bn < 0:
            edge_tags.append(Tag.INFLOW)
        else:
            edge_tags.append(Tag.OUTFLOW)
    return BoundaryTags(edge_tags)
