"""Structured meshes and sign-based boundary classification.

The library works on tensor-product rectangle grids, or on the same grids
split into triangles along the lower-left/upper-right diagonal.  The
boundary edges come as parallel arrays (side, position along the side,
midpoint, outward normal), and the sign of b.n at the midpoints tags each
one tangential (Dirichlet), inflow or outflow; the direction field decides
which side is which.
"""

import numpy as np

from anisofem import (FieldSpec, Tag, build_quad_mesh, build_tri_mesh,
                      classify_boundary)
from anisofem.geometry import boundary_edges

quad = build_quad_mesh(8, 8)
tri = build_tri_mesh(8)
print(f"quad mesh: {quad.n_nodes} nodes, {quad.n_elements} cells, "
      f"diameter h = {quad.h:.4f}")
print(f"tri mesh:  {tri.n_nodes} nodes, {tri.n_elements} triangles, "
      f"diameter h = {tri.h:.4f}")

# The curved direction field enters through the left side and leaves on the
# right; the horizontal sides are tangential for every alpha.
for alpha in (0.0, 2.0):
    field = FieldSpec("variable_alpha", alpha)
    tags = classify_boundary(quad, field)
    counts = {tag.value: tags.count(tag) for tag in Tag}
    print(f"alpha = {alpha}: boundary edges by tag -> {counts}")

# On a rectangle with the vertical field the roles rotate by 90 degrees.
aligned = build_quad_mesh(8, 8, np.pi, np.pi)
tags = classify_boundary(aligned, FieldSpec("aligned_e2"))
side = boundary_edges(aligned).side
sides = {s: tags.edge_tags[side == s][0].value for s in ("bottom", "right", "top", "left")}
print("aligned field on (0, pi)^2, tag per side:", sides)
