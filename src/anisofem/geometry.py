"""Structured meshes on rectangular domains and boundary classification.

Meshes are uniform tensor grids of rectangles, or the same grids with every
cell split into two triangles along the lower-left to upper-right diagonal
(so the hypotenuses are parallel but not aligned with either coordinate
axis).  The boundary edges are parallel arrays in one fixed order (bottom,
right, top, left), and the sign of b.n at their midpoints splits them into
a tangential part (Dirichlet), an inflow part and an outflow part.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# |b.n| below this counts as tangential.  The built-in fields give exactly
# 0.0 on the tangential edges, so this is a safety net only.
BN_TOLERANCE = 1e-12


class Tag(Enum):
    """Boundary classification by the sign of b.n."""

    DIRICHLET = "dirichlet"   # b.n = 0
    INFLOW = "inflow"         # b.n < 0
    OUTFLOW = "outflow"       # b.n > 0


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
    return Mesh(nodes, elements.astype(np.int64), "quad", Lx, Ly, nx, ny,
                float(np.hypot(hx, hy)))


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
    return Mesh(nodes, elements, "triangle", Lx, Ly, n, n,
                float(np.hypot(Lx / n, Ly / n)))


class BoundaryEdges(NamedTuple):
    """A mesh's boundary edges as parallel arrays.

    Edges run along the bottom, right, top and left sides in turn, each
    side from its lower or left end; ``index`` is the 0-based position
    along the side.
    """

    side: np.ndarray       # (E,) "bottom" | "right" | "top" | "left"
    index: np.ndarray      # (E,)
    midpoint: np.ndarray   # (E, 2)
    normal: np.ndarray     # (E, 2) outward unit normal


def boundary_edges(mesh: Mesh) -> BoundaryEdges:
    """Every boundary edge of a structured mesh, in the fixed side order."""
    nx, ny, stride = mesh.nx, mesh.ny, mesh.nx + 1
    counts = [nx, ny, nx, ny]
    i, j = np.arange(nx), np.arange(ny)
    first = np.concatenate([i, j * stride + nx, ny * stride + i, j * stride])
    last = first + np.repeat([1, stride, 1, stride], counts)
    return BoundaryEdges(
        np.repeat(["bottom", "right", "top", "left"], counts),
        np.concatenate([i, j, i, j]),
        0.5 * (mesh.nodes[first] + mesh.nodes[last]),
        np.repeat([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], counts, axis=0))


@dataclass
class BoundaryTags:
    """Boundary tags: ``edge_tags[e]`` is the Tag of edge e of
    :func:`boundary_edges`, an object array in that order."""

    edge_tags: np.ndarray

    def count(self, tag: Tag) -> int:
        return int(np.count_nonzero(self.edge_tags == tag))


def classify_boundary(mesh: Mesh, field) -> BoundaryTags:
    """Tag every boundary edge from the sign of b.n at its midpoint."""
    from .fields import eval_b

    edges = boundary_edges(mesh)
    b = eval_b(field, edges.midpoint[:, 0], edges.midpoint[:, 1])
    bn = b[:, 0] * edges.normal[:, 0] + b[:, 1] * edges.normal[:, 1]
    return BoundaryTags(np.select([np.abs(bn) < BN_TOLERANCE, bn < 0],
                                  [Tag.DIRICHLET, Tag.INFLOW], Tag.OUTFLOW))
