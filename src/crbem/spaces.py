"""Degree-of-freedom management and discrete operators.

Two spaces live on every mesh: the Crouzeix-Raviart space (piecewise
linears continuous at interior edge midpoints, vanishing at boundary edge
midpoints; one DOF per interior edge) and the conforming space
(continuous piecewise linears vanishing on the boundary; one DOF per
interior node).

On one element both spaces are P1, with one local basis function per
slot k = 0, 1, 2, and they differ only in two fields of ``DofSpace``:
``element_dofs[t, k]`` is the DOF of the edge opposite vertex k (CR) or
of vertex k (conforming), and slot k's basis function is a + b*lambda_k
with ``basis = (a, b)``, (1, -2) for CR and (0, 1) for conforming.  The
operators read these fields instead of branching on the space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

__all__ = [
    "DofSpace",
    "CoefVec",
    "PwConstVecField",
    "EdgeJumpField",
    "cr_space",
    "conforming_space",
    "barycentric_gradients",
    "element_vertex_values",
    "curl_field",
    "embed_coarse_in_fine",
    "jump_field",
    "clement_interpolate",
    "project_pwconst",
    "dof_map",
    "dof_orbits",
]


@dataclass(frozen=True)
class DofSpace:
    """Degrees of freedom of one space and its local basis.

    kind 'cr': one DOF per interior edge; kind 'conforming': one DOF per
    interior node.  ``entity_to_dof`` is -1 on boundary entities, and so
    is ``element_dofs`` (nt, 3) on slots of boundary entities.  Slot k's
    basis function is a + b*lambda_k with ``basis = (a, b)``.
    """

    kind: str
    mesh: Mesh
    dof_count: int
    entity_to_dof: np.ndarray
    dof_to_entity: np.ndarray
    element_dofs: np.ndarray
    basis: tuple


@dataclass
class CoefVec:
    """Coefficient vector of a function in a DofSpace."""

    space: DofSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.dof_count,):
            raise ValueError(
                f"coefficient vector has length {self.values.shape}, space "
                f"has {self.space.dof_count} DOFs")


@dataclass
class PwConstVecField:
    """Piecewise-constant 2-vector field (per-element tangential curl)."""

    mesh: Mesh
    values: np.ndarray  # (nt, 2)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_triangles, 2):
            raise ValueError("field shape does not match the mesh")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field has non-finite entries")


@dataclass
class EdgeJumpField:
    """Inter-element jumps of a piecewise-linear function.

    Per edge (oriented from its lower to its higher vertex index):
    jump values at both endpoints and the constant tangential derivative
    of the jump.  On interior edges the jump is trace(lower adjacent
    triangle) - trace(higher); boundary edges carry the trace itself.
    """

    mesh: Mesh
    jump_lo: np.ndarray
    jump_hi: np.ndarray
    jump_deriv: np.ndarray


def _space(kind, mesh, boundary, slot_entities, basis):
    interior = np.flatnonzero(~boundary)
    to_dof = np.full(len(boundary), -1, dtype=np.int64)
    to_dof[interior] = np.arange(len(interior))
    return DofSpace(kind, mesh, len(interior), to_dof, interior,
                    to_dof[slot_entities], basis)


def cr_space(mesh):
    return _space("cr", mesh, mesh.edge_boundary, mesh.tri_edges, (1.0, -2.0))


def conforming_space(mesh):
    return _space("conforming", mesh, mesh.boundary_vertex, mesh.triangles,
                  (0.0, 1.0))


def dof_map(space, panels, slots):
    """The DOF map img of a panel map (assembly.panel_map) that takes
    vertex k of panel t to vertex slots[k] of panel panels[t]:
    img[element_dofs[t, k]] = element_dofs[panels[t], slots[k]], since
    slot k's entity, the edge opposite vertex k or vertex k, goes with
    vertex k.  The quarter turn keeps the slots, (0, 1, 2), and the
    reflection y -> 1 - y swaps slots 1 and 2, (0, 2, 1)."""
    dofs = space.element_dofs
    src, dst = dofs.ravel(), dofs[panels][:, slots].ravel()
    live = src >= 0
    img = np.empty(space.dof_count, np.intp)
    img[src[live]] = dst[live]
    return img


def dof_orbits(space, panels, slots):
    """The orbit of each DOF under the DOF map of a panel map (dof_map),
    numbered 0, 1, ... in the order of each orbit's smallest DOF.  Under
    the quarter turn an orbit has four DOFs, but the center vertex of the
    conforming space is one alone; under the reflection it has two, but
    the DOFs on y = 1/2 are one alone each."""
    img = dof_map(space, panels, slots)
    ident = np.arange(space.dof_count)
    least, image = ident, img
    while not np.array_equal(image, ident):
        least = np.minimum(least, image)
        image = img[image]
    return np.unique(least, return_inverse=True)[1]


def barycentric_gradients(mesh):
    """Gradients of the barycentric coordinates, shape (nt, 3, 2).

    grad(lambda_i) is the 90-degree rotation of the opposite edge vector
    divided by twice the element area.
    """
    cached = getattr(mesh, "_bary_grads", None)
    if cached is not None:
        return cached
    p = mesh.triangle_coords()
    opp = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]  # edge opposite vertex i
    grads = np.empty_like(opp)
    grads[:, :, 0] = -opp[:, :, 1]
    grads[:, :, 1] = opp[:, :, 0]
    grads /= (2.0 * mesh.areas)[:, None, None]
    grads.setflags(write=False)
    mesh._bary_grads = grads
    return grads


def _gather(values, dof):
    """values[dof] with -1 entries reading as zero."""
    padded = np.concatenate([values, [0.0]])
    return padded[np.where(dof >= 0, dof, len(values))]


def element_vertex_values(coeffs):
    """Per-element values of the function at the three vertices, (nt, 3)."""
    a, b = coeffs.space.basis
    c = _gather(coeffs.values, coeffs.space.element_dofs)
    return a * c.sum(axis=1, keepdims=True) + b * c


def curl_field(coeffs):
    """Elementwise tangential curl (g_y, -g_x) of a piecewise linear."""
    mesh = coeffs.space.mesh
    vv = element_vertex_values(coeffs)
    grads = barycentric_gradients(mesh)
    g = np.einsum("tj,tjc->tc", vv, grads)
    curl = np.empty_like(g)
    curl[:, 0] = g[:, 1]
    curl[:, 1] = -g[:, 0]
    return PwConstVecField(mesh, curl)


def _parents(fine_mesh, coarse_mesh):
    """``fine_mesh.parent``, checked to index every triangle of the coarse
    mesh and nothing else."""
    parent = fine_mesh.parent
    if not np.array_equal(np.unique(parent),
                          np.arange(coarse_mesh.num_triangles)):
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    return parent


def embed_coarse_in_fine(coeffs, fine_mesh):
    """Curl field of a coarse function represented on the refined mesh.

    A coarse piecewise linear restricted to any child is linear with the
    same gradient, so each child inherits its parent's curl vector.
    """
    parent = _parents(fine_mesh, coeffs.space.mesh)
    return PwConstVecField(fine_mesh, curl_field(coeffs).values[parent])


def jump_field(coeffs):
    """Edge jumps of a CR or conforming coefficient function."""
    mesh = coeffs.space.mesh
    vv = element_vertex_values(coeffs)
    ev = mesh.edge_vertices
    et = mesh.edge_tris
    t_plus = et[:, 0]
    t_minus = np.where(et[:, 1] >= 0, et[:, 1], 0)

    def local_index(tris, verts):
        return np.argmax(mesh.triangles[tris] == verts[:, None], axis=1)

    lo_plus = vv[t_plus, local_index(t_plus, ev[:, 0])]
    hi_plus = vv[t_plus, local_index(t_plus, ev[:, 1])]
    lo_minus = vv[t_minus, local_index(t_minus, ev[:, 0])]
    hi_minus = vv[t_minus, local_index(t_minus, ev[:, 1])]
    interior = ~mesh.edge_boundary
    jump_lo = np.where(interior, lo_plus - lo_minus, lo_plus)
    jump_hi = np.where(interior, hi_plus - hi_minus, hi_plus)
    deriv = (jump_hi - jump_lo) / mesh.edge_lengths
    return EdgeJumpField(mesh, jump_lo, jump_hi, deriv)


def _barycentric_in_parent(coarse_mesh, parents, points):
    """Barycentric coordinates of points w.r.t. their parent triangles."""
    p = coarse_mesh.triangle_coords()[parents]  # (n, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    r = points - p[:, 0]
    mu1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
    mu2 = (d1[:, 0] * r[:, 1] - d1[:, 1] * r[:, 0]) / det
    return np.stack([1.0 - mu1 - mu2, mu1, mu2], axis=1)


def clement_interpolate(fine_coeffs, coarse_mesh):
    """Quasi-interpolation of a fine CR function into the coarse
    conforming space.

    For every interior coarse node the fine function is L2-projected onto
    the continuous piecewise linears on the node patch (spanned by the
    restrictions of all nodal hat functions with a node in the patch,
    boundary hats included); the output DOF is the projected function's
    value at the node.
    """
    if fine_coeffs.space.kind != "cr":
        raise ValueError("clement_interpolate expects CR input coefficients")
    fine_mesh = fine_coeffs.space.mesh
    parent = _parents(fine_mesh, coarse_mesh)
    if not np.all(np.bincount(parent) == 4):
        raise ValueError("fine mesh is not the uniform refinement of the "
                         "coarse mesh")

    # fine function values at the fine edge midpoints are the CR DOFs
    v_mid = _gather(fine_coeffs.values, fine_coeffs.space.element_dofs)
    mids = fine_mesh.edge_midpoints[fine_mesh.tri_edges]  # (nt_f, 3, 2)
    parents = np.repeat(parent, 3)
    lam = _barycentric_in_parent(coarse_mesh, parents, mids.reshape(-1, 2))
    weights = np.repeat(fine_mesh.areas / 3.0, 3) * v_mid.ravel()

    # load moments against the coarse hats, accumulated per coarse element
    moments = np.zeros((coarse_mesh.num_triangles, 3))
    np.add.at(moments, parents, weights[:, None] * lam)

    out_space = conforming_space(coarse_mesh)
    out = np.zeros(out_space.dof_count)
    tris = coarse_mesh.triangles
    areas = coarse_mesh.areas
    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    # the elements of node z's patch, ascending: order[start[z]:start[z + 1]]
    order = np.argsort(tris.ravel(), kind="stable")
    start = np.searchsorted(tris.ravel()[order],
                            np.arange(coarse_mesh.num_vertices + 1))
    for z in out_space.dof_to_entity:
        patch = order[start[z]:start[z + 1]] // 3
        local_nodes, local_tris = np.unique(tris[patch], return_inverse=True)
        local_tris = local_tris.reshape(-1, 3)
        n = len(local_nodes)
        M = np.zeros((n, n))
        b = np.zeros(n)
        for t, loc in zip(patch, local_tris):
            M[np.ix_(loc, loc)] += areas[t] * mass_ref
            b[loc] += moments[t]
        psi = np.linalg.solve(M, b)
        out[out_space.entity_to_dof[z]] = psi[np.searchsorted(local_nodes, z)]
    return CoefVec(out_space, out)


def project_pwconst(fine_field, coarse_mesh):
    """L2 projection of a fine piecewise-constant field onto the coarse
    elements: the area-weighted average of the children per parent."""
    fine_mesh = fine_field.mesh
    parent = _parents(fine_mesh, coarse_mesh)
    num = np.zeros((coarse_mesh.num_triangles, 2))
    np.add.at(num, parent, fine_field.values * fine_mesh.areas[:, None])
    den = np.zeros(coarse_mesh.num_triangles)
    np.add.at(den, parent, fine_mesh.areas)
    return PwConstVecField(coarse_mesh, num / den[:, None])
