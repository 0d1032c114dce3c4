"""Conforming-space maps that tests use as independent checks.

The program never prolongs a conforming function or reads it as a
Crouzeix-Raviart function, so these live next to the tests.
"""

import numpy as np

from crbem import CoefVec, conforming_space, cr_space


def nodal_values(conf_coeffs):
    """Values at every mesh vertex, zero on the boundary."""
    space = conf_coeffs.space
    vals = np.zeros(space.mesh.num_vertices)
    vals[space.dof_to_entity] = conf_coeffs.values
    return vals


def prolong_conforming(conf_coeffs, fine_mesh):
    """Conforming coefficients of a coarse conforming function on a
    refinement of its mesh.

    Refinement keeps the coarse vertices first and appends the midpoints
    of the bisected coarse edges, copied from ``edge_midpoints``; each new
    vertex takes the endpoint average of the coarse edge it bisects.
    """
    coarse_mesh = conf_coeffs.space.mesh
    vals = nodal_values(conf_coeffs)
    edge_at = {tuple(xy): e for e, xy in enumerate(coarse_mesh.edge_midpoints)}
    new = fine_mesh.vertices[coarse_mesh.num_vertices:]
    edges = np.array([edge_at[tuple(xy)] for xy in new], dtype=np.int64)
    ends = coarse_mesh.edge_vertices[edges].reshape(-1, 2)
    fine_vals = np.concatenate([vals, 0.5 * vals[ends].sum(axis=1)])
    space = conforming_space(fine_mesh)
    return CoefVec(space, fine_vals[space.dof_to_entity])


def conforming_to_cr(conf_coeffs):
    """CR coefficients of a conforming function (edge-midpoint values)."""
    mesh = conf_coeffs.space.mesh
    mid = 0.5 * nodal_values(conf_coeffs)[mesh.edge_vertices].sum(axis=1)
    space = cr_space(mesh)
    return CoefVec(space, mid[space.dof_to_entity])
