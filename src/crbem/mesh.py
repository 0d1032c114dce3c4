"""Triangulations of the unit-square screen with newest-vertex bisection.

A mesh stores vertices, triangles (with per-triangle reference edges for
NVB), and a complete edge table.  Local edge ``i`` of a triangle is the
edge opposite local vertex ``i``, so edge ``i`` connects local vertices
``(i+1) % 3`` and ``(i+2) % 3``.  Meshes are treated as immutable after
construction.  A refined mesh records in ``parent`` the triangle of the
mesh it refines that each of its triangles came from.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

__all__ = [
    "Mesh",
    "build_initial_square_mesh",
    "refine_nvb",
    "uniform_refine",
    "graded_square_mesh",
    "mesh_io_write",
]

class Mesh:
    """Conforming triangulation of the screen [0,1]^2.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise vertex indices
    ref_edge : (nt,) int array, local index of the NVB reference edge
    parent : (nt,) int array, for a refinement the index of the triangle
        of the refined mesh that holds each triangle; -1 throughout for a
        mesh that refines none
    """

    def __init__(self, vertices, triangles, ref_edge, parent=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.ref_edge = np.ascontiguousarray(ref_edge, dtype=np.int64)
        nt = len(self.triangles)
        self.parent = (np.full(nt, -1, dtype=np.int64) if parent is None
                       else np.ascontiguousarray(parent, dtype=np.int64))
        self._validate_basic()
        self._build_geometry()
        self._build_edge_table()
        for arr in (self.vertices, self.triangles, self.ref_edge, self.parent,
                    self.areas, self.edge_vertices, self.edge_tris,
                    self.edge_boundary, self.edge_midpoints,
                    self.edge_lengths, self.tri_edges, self.boundary_vertex):
            arr.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    def _validate_basic(self):
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("mesh has non-finite vertex coordinates")
        if self.triangles.shape[1:] != (3,):
            raise ValueError("triangles must be (nt, 3)")
        if np.any(self.ref_edge < 0) or np.any(self.ref_edge > 2):
            raise ValueError("reference edge index out of range")
        t = self.triangles
        if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2])
                  | (t[:, 0] == t[:, 2])):
            raise ValueError("triangle with repeated vertices")

    def _build_geometry(self):
        p = self.vertices[self.triangles]  # (nt, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(signed <= 0.0):
            bad = int(np.argmin(signed))
            raise ValueError(
                f"triangle {bad} is degenerate or clockwise (signed area "
                f"{signed[bad]:.3e})")
        self.areas = signed

    def _build_edge_table(self):
        nt = len(self.triangles)
        # local edge i is opposite local vertex i
        i1 = self.triangles[:, [1, 2, 0]].ravel()
        i2 = self.triangles[:, [2, 0, 1]].ravel()
        lo = np.minimum(i1, i2)
        hi = np.maximum(i1, i2)
        key = lo * len(self.vertices) + hi
        uniq, inverse, counts = np.unique(key, return_inverse=True,
                                          return_counts=True)
        if np.any(counts > 2):
            raise ValueError("edge shared by more than two triangles")
        ne = len(uniq)
        self.tri_edges = inverse.reshape(nt, 3).astype(np.int64)
        ev = np.empty((ne, 2), dtype=np.int64)
        ev[inverse, 0] = lo
        ev[inverse, 1] = hi
        self.edge_vertices = ev
        tris = np.full((ne, 2), -1, dtype=np.int64)
        tri_of_slot = np.repeat(np.arange(nt, dtype=np.int64), 3)
        # group slots by edge; slot 0 holds the lower adjacent triangle index
        by_edge = np.argsort(inverse, kind="stable")
        edge_sorted = inverse[by_edge]
        first = np.ones(len(by_edge), dtype=bool)
        first[1:] = edge_sorted[1:] != edge_sorted[:-1]
        tris[edge_sorted[first], 0] = tri_of_slot[by_edge[first]]
        tris[edge_sorted[~first], 1] = tri_of_slot[by_edge[~first]]
        self.edge_tris = tris
        self.edge_boundary = tris[:, 1] < 0
        a = self.vertices[ev[:, 0]]
        b = self.vertices[ev[:, 1]]
        self.edge_midpoints = 0.5 * (a + b)
        self.edge_lengths = np.linalg.norm(b - a, axis=1)
        flags = np.zeros(len(self.vertices), dtype=bool)
        flags[ev[self.edge_boundary].ravel()] = True
        self.boundary_vertex = flags

    # -- queries ---------------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edge_vertices)

    def triangle_coords(self):
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        return self.vertices[self.triangles]

    def interior_edges(self):
        return np.flatnonzero(~self.edge_boundary)


def build_initial_square_mesh():
    """Initial mesh: the unit square cut along both diagonals and midlines.

    9 vertices, 8 congruent right triangles; reference edges lie on the
    two diagonals.
    """
    verts = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],   # corners
        [0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5],   # side midpoints
        [0.5, 0.5],                                       # center
    ])
    # (corner, side midpoint, center), counterclockwise; the reference edge
    # is the corner-center edge (on a diagonal), opposite the midpoint vertex.
    tris = np.array([
        [0, 4, 8], [4, 1, 8],
        [1, 5, 8], [5, 2, 8],
        [2, 6, 8], [6, 3, 8],
        [3, 7, 8], [7, 0, 8],
    ])
    return Mesh(verts, tris, [1, 0, 1, 0, 1, 0, 1, 0])


def _split_element(verts_of_tri, ref, midpoint_of, out_tris, out_ref):
    """Recursively bisect one triangle against the marked-edge midpoints.

    ``midpoint_of`` maps a sorted original-edge vertex pair to the index of
    its midpoint vertex; pairs involving new vertices are never present, so
    the recursion depth is at most two.
    """
    v = verts_of_tri
    a, b = v[(ref + 1) % 3], v[(ref + 2) % 3]
    mid = midpoint_of.get((a, b) if a < b else (b, a))
    if mid is None:
        out_tris.append(list(v))
        out_ref.append(ref)
        return
    vr = v[ref]
    # children keep counterclockwise order; new reference edges sit
    # opposite the newest vertex
    _split_element([vr, a, mid], 2, midpoint_of, out_tris, out_ref)
    _split_element([vr, mid, b], 1, midpoint_of, out_tris, out_ref)


def refine_nvb(mesh, marked_elements):
    """Newest-vertex bisection of the marked elements with closure.

    All three edges of every marked element are scheduled for bisection;
    closure then marks reference edges until every element with a marked
    edge also has its reference edge marked.  Each element is split into
    2, 3, or 4 children by iterated bisection of its reference edge.

    Returns the refined conforming mesh and its ``parent`` array.
    """
    marked_elements = np.asarray(sorted(set(int(m) for m in marked_elements)),
                                 dtype=np.int64)
    nt = mesh.num_triangles
    if len(marked_elements) and (marked_elements[0] < 0
                                 or marked_elements[-1] >= nt):
        raise IndexError("marked element index out of range")

    edge_marked = np.zeros(mesh.num_edges, dtype=bool)
    edge_marked[mesh.tri_edges[marked_elements].ravel()] = True

    # closure: an element with any marked edge gets its reference edge marked
    ref_edges = mesh.tri_edges[np.arange(nt), mesh.ref_edge]
    while True:
        need = edge_marked[mesh.tri_edges].any(axis=1) & ~edge_marked[ref_edges]
        if not need.any():
            break
        edge_marked[ref_edges[need]] = True

    marked_edge_ids = np.flatnonzero(edge_marked)
    new_vertices = mesh.edge_midpoints[marked_edge_ids]
    vertices = np.vstack([mesh.vertices, new_vertices])
    midpoint_of = {}
    for k, e in enumerate(marked_edge_ids):
        a, b = mesh.edge_vertices[e]
        midpoint_of[(int(a), int(b))] = mesh.num_vertices + k

    out_tris, out_ref, out_parent = [], [], []
    for t in range(nt):
        n_before = len(out_tris)
        _split_element([int(v) for v in mesh.triangles[t]],
                       int(mesh.ref_edge[t]), midpoint_of, out_tris, out_ref)
        out_parent.extend([t] * (len(out_tris) - n_before))

    refined = Mesh(vertices, np.array(out_tris), np.array(out_ref),
                   parent=np.array(out_parent))
    return refined, refined.parent


def uniform_refine(mesh):
    """Uniform refinement: every element is split into four children."""
    return refine_nvb(mesh, np.arange(mesh.num_triangles))


def _grading_map(t, beta):
    t = np.asarray(t, dtype=float)
    # each branch overflows on the other half for beta >= 1024; the check
    # of the mapped panels reports what that degenerates
    with np.errstate(over="ignore"):
        lower = 0.5 * (2.0 * t) ** beta
        upper = 1.0 - 0.5 * (2.0 * (1.0 - t)) ** beta
    return np.where(t <= 0.5, lower, upper)


def graded_square_mesh(n, beta):
    """Mesh of the unit square graded towards the boundary.

    The initial mesh is uniformly refined until each side has ``n``
    subdivisions (``n = 2^(l+1)``), then every vertex is moved
    coordinatewise by ``g(t) = (2t)^beta / 2`` for ``t <= 1/2`` and its
    mirror image above.  ``beta = 1`` reproduces the uniform mesh.  A
    graded mesh refines no other mesh, so it carries no parents.
    """
    if beta < 1.0:
        raise ValueError(f"grading exponent must be >= 1, got {beta}")
    if n < 2 or n % 2:
        raise ValueError(f"subdivision count must be even and >= 2, got {n}")
    depth = int(round(np.log2(n // 2)))
    if n != 2 ** (depth + 1):
        raise ValueError(f"subdivision count must be a power of two, got {n}")
    mesh = build_initial_square_mesh()
    for _ in range(depth):
        mesh, _ = uniform_refine(mesh)
    return Mesh(_grading_map(mesh.vertices, beta), mesh.triangles,
                mesh.ref_edge)


def mesh_io_write(mesh, sink):
    """Write a mesh in the plain ASCII format (17 significant digits)."""
    path = isinstance(sink, (str, os.PathLike))
    with open(sink, "w") if path else contextlib.nullcontext(sink) as f:
        f.write(f"{mesh.num_vertices} {mesh.num_triangles}\n")
        for (x, y), b in zip(mesh.vertices, mesh.boundary_vertex):
            f.write(f"{x:.17g} {y:.17g} {int(b)}\n")
        for tri, ref, par in zip(mesh.triangles, mesh.ref_edge, mesh.parent):
            f.write(f"{tri[0]} {tri[1]} {tri[2]} {ref} {par}\n")
