"""The space operators read ``DofSpace.element_dofs`` and ``basis`` on one
code path for both spaces.  The references below are the earlier forms,
which branched on ``space.kind``; both must give bitwise the same arrays.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from crbem import (
    CoefVec,
    build_initial_square_mesh,
    conforming_space,
    cr_space,
    graded_square_mesh,
    refine_nvb,
    uniform_refine,
)
from crbem.assembly import _curl_matrices, assemble_rhs_power
from crbem.spaces import _gather, barycentric_gradients, element_vertex_values

from oracle import power_moments_element

ALPHA = -0.6


def ref_element_vertex_values(coeffs):
    space = coeffs.space
    mesh = space.mesh
    if space.kind == "cr":
        c = _gather(coeffs.values, space.entity_to_dof[mesh.tri_edges])
        return c.sum(axis=1, keepdims=True) - 2.0 * c
    return _gather(coeffs.values, space.entity_to_dof[mesh.triangles])


def ref_curl_matrices(space):
    mesh = space.mesh
    grads = barycentric_gradients(mesh)
    rows, cols, gx, gy = [], [], [], []
    if space.kind == "cr":
        for slot in range(2):
            t = mesh.edge_tris[space.dof_to_entity, slot]
            valid = t >= 0
            tt = t[valid]
            eids = space.dof_to_entity[valid]
            loc = np.argmax(mesh.tri_edges[tt] == eids[:, None], axis=1)
            g = -2.0 * grads[tt, loc]
            rows.append(np.flatnonzero(valid))
            cols.append(tt)
            gx.append(g[:, 0])
            gy.append(g[:, 1])
    else:
        dof = space.entity_to_dof[mesh.triangles]
        t_idx, loc = np.nonzero(dof >= 0)
        g = grads[t_idx, loc]
        rows.append(dof[t_idx, loc])
        cols.append(t_idx)
        gx.append(g[:, 0])
        gy.append(g[:, 1])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    shape = (space.dof_count, mesh.num_triangles)
    cx = sp.csr_matrix((np.concatenate(gy), (rows, cols)), shape=shape)
    cy = sp.csr_matrix((-np.concatenate(gx), (rows, cols)), shape=shape)
    return cx, cy


def ref_rhs_power(space, alpha):
    mesh = space.mesh
    coords = mesh.triangle_coords()
    moments = np.empty((mesh.num_triangles, 3))
    for t in range(mesh.num_triangles):
        moments[t] = power_moments_element(coords[t], alpha)
    b = np.zeros(space.dof_count)
    if space.kind == "cr":
        total = moments.sum(axis=1)
        dof = space.entity_to_dof[mesh.tri_edges]
        t_idx, loc = np.nonzero(dof >= 0)
        np.add.at(b, dof[t_idx, loc], total[t_idx] - 2.0 * moments[t_idx, loc])
    else:
        dof = space.entity_to_dof[mesh.triangles]
        t_idx, loc = np.nonzero(dof >= 0)
        np.add.at(b, dof[t_idx, loc], moments[t_idx, loc])
    return b


def _uniform_512():
    mesh = build_initial_square_mesh()
    for _ in range(3):
        mesh, _ = uniform_refine(mesh)
    return mesh


def _random_nvb():
    rng = np.random.default_rng(7)
    mesh = build_initial_square_mesh()
    for _ in range(6):
        marked = np.flatnonzero(rng.random(mesh.num_triangles) < 0.3)
        mesh, _ = refine_nvb(mesh, marked)
    return mesh


MESHES = {
    "uniform": _uniform_512,
    "graded": lambda: graded_square_mesh(16, 2.0),
    "nvb": _random_nvb,
}


@pytest.fixture(scope="module", params=list(MESHES))
def mesh(request):
    return MESHES[request.param]()


@pytest.mark.parametrize("make_space", [cr_space, conforming_space])
def test_operators_equal_reference_bitwise(mesh, make_space):
    space = make_space(mesh)
    assert space.dof_count > 0
    for got, want in zip(_curl_matrices(space), ref_curl_matrices(space)):
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
    coeffs = CoefVec(space, np.random.default_rng(3).standard_normal(
        space.dof_count))
    assert np.array_equal(element_vertex_values(coeffs),
                          ref_element_vertex_values(coeffs))
    assert np.array_equal(assemble_rhs_power(space, ALPHA),
                          ref_rhs_power(space, ALPHA))


def test_meshes_have_the_intended_size():
    assert _uniform_512().num_triangles == 512
    assert graded_square_mesh(16, 2.0).num_triangles == 512
