"""Reading back the mesh files that ``crbem run --dump-meshes`` writes.

The program only writes mesh files (crbem.mesh_io_write), so the reader
and the conformity check it applies live next to the tests.
"""

import contextlib
import os

import numpy as np

from crbem import Mesh

_AREA_TOL = 1e-12


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed or violates conformity."""


def validate_conforming(mesh):
    """Check the no-hanging-node invariant and the area tiling.

    Every edge must bound one or two triangles; an edge with a single
    adjacent triangle must lie on the boundary of the screen, and the
    element areas must tile the unit square.
    """
    xy = mesh.edge_midpoints[mesh.edge_boundary]
    on_rim = (np.isclose(xy, 0.0, atol=1e-12) | np.isclose(xy, 1.0, atol=1e-12)).any(axis=1)
    if not np.all(on_rim):
        bad = np.flatnonzero(mesh.edge_boundary)[~on_rim][0]
        raise ValueError(
            f"conformity violation: edge {bad} bounds a single triangle "
            f"but its midpoint {mesh.edge_midpoints[bad]} is interior "
            "(hanging node)")
    total = float(mesh.areas.sum())
    if abs(total - 1.0) > _AREA_TOL:
        raise ValueError(f"element areas sum to {total!r}, expected 1.0")


def mesh_io_read(source):
    """Read a mesh written by :func:`crbem.mesh_io_write` and validate it."""
    path = isinstance(source, (str, os.PathLike))
    with open(source) if path else contextlib.nullcontext(source) as f:
        lines = f.read().splitlines()

    def fail(lineno, msg):
        raise MeshFormatError(f"line {lineno}: {msg}")

    if not lines:
        fail(1, "empty mesh file")
    head = lines[0].split()
    if len(head) != 2:
        fail(1, "expected 'nv nt' header")
    try:
        nv, nt = int(head[0]), int(head[1])
    except ValueError:
        fail(1, f"bad header {lines[0]!r}")
    if nv < 0 or nt < 0:
        fail(1, f"negative count in header {lines[0]!r}")
    if len(lines) < 1 + nv + nt:
        fail(len(lines) + 1, f"expected {1 + nv + nt} lines, file has {len(lines)}")

    verts = np.empty((nv, 2))
    flags = np.zeros(nv, dtype=bool)
    for i in range(nv):
        parts = lines[1 + i].split()
        if len(parts) != 3:
            fail(2 + i, "expected 'x y boundary_flag'")
        try:
            verts[i] = float(parts[0]), float(parts[1])
            flag = int(parts[2])
        except ValueError:
            fail(2 + i, f"bad vertex line {lines[1 + i]!r}")
        if flag not in (0, 1):
            fail(2 + i, f"boundary flag must be 0 or 1 in {lines[1 + i]!r}")
        flags[i] = flag

    tris = np.empty((nt, 3), dtype=np.int64)
    ref = np.empty(nt, dtype=np.int64)
    parent = np.empty(nt, dtype=np.int64)
    for i in range(nt):
        parts = lines[1 + nv + i].split()
        if len(parts) != 5:
            fail(2 + nv + i, "expected 'v0 v1 v2 ref_edge parent'")
        try:
            tris[i] = [int(p) for p in parts[:3]]
            ref[i] = int(parts[3])
            parent[i] = int(parts[4])
        except (ValueError, OverflowError):
            fail(2 + nv + i, f"bad triangle line {lines[1 + nv + i]!r}")
    if tris.size and (tris.min() < 0 or tris.max() >= nv):
        fail(2 + nv, "triangle vertex index out of range")

    try:
        mesh = Mesh(verts, tris, ref, parent=parent)
        validate_conforming(mesh)
    except ValueError as exc:
        raise MeshFormatError(str(exc)) from exc
    if not np.array_equal(mesh.boundary_vertex, flags):
        raise MeshFormatError("stored boundary flags disagree with the edge table")
    return mesh
