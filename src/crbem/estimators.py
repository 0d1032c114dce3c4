"""Galerkin solves on coarse/fine mesh pairs and the error estimators.

A Level holds one mesh with its energy form, its Crouzeix-Raviart and
conforming spaces, their load vectors and Galerkin solutions, each
computed on first use.  A SolvePair is a coarse Level and the Level of
its uniform refinement, whose mesh maps each fine element to its coarse
parent.  The two-level estimators read the coarse and fine CR solutions;
the conformity gap reads the coarse CR and conforming solutions.  No
estimator reads a conforming solution on the fine mesh, so none is
computed.

Data that an isometry of the square maps onto themselves, on a mesh it
maps onto itself, give a solution that the isometry leaves alone, so it
lies in the span of the indicators of the DOF orbits (spaces.dof_orbits).
Level.symmetry picks the isometry: the quarter turn sigma (x, y) ->
(1 - y, x) for constant data, and the reflection (x, y) -> (x, 1 - y)
for the power data x^alpha, which the turn does not keep.  Both apply
only where the energy form was assembled with sigma (EnergyForm.sigma:
tables of more than assembly._SMALL_TABLE panels with the turn); the
reflection's panel map comes from assembly.panel_map.  There Level
solves the Galerkin system on the orbit basis, with the stiffness of
assemble_stiffness(..., orbits) and the orbit sums of the load, and
lifts the solution to the space: about a quarter of the unknowns for
the uniform-smooth and graded-smooth solves, and about half for the
uniform-singular ones.  All other solves, manufactured data, small
tables and meshes without the turn, are on the full basis.  The
adaptive runs' NVB meshes have no turn, so they stay on the full basis
even where the reflection maps the mesh onto itself.  The table is
invariant only up to quadrature error: on graded meshes a few pairs
take another band than their turned images, or the robust path with
the panels swapped, and on uniform ones entries differ from their
images by rounding.  So the lifted solution is the
Galerkin solution on the subspace but not exactly on the space:
solve_spd checks the residual of the reduced system, and the lifted
solution's residual in the full system may exceed _RESIDUAL_TOL.  Every
quantity the estimators read is a quadratic form that the isometry
leaves alone, so that difference enters them at second order only.

Estimator conventions: the energy norm is realized as sqrt(a(.,.)); edge
jump terms are weighted per edge by the edge length; every interior edge
contributes half of its value to each adjacent element's indicator so the
per-element indicators sum exactly to the global quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .mesh import Mesh, uniform_refine
from .spaces import (
    CoefVec,
    cr_space,
    conforming_space,
    curl_field,
    dof_orbits,
    embed_coarse_in_fine,
    jump_field,
    clement_interpolate,
    project_pwconst,
    PwConstVecField,
    _parents,
)
from .assembly import (
    REFLECTION,
    TURN,
    NumericalError,
    assemble_energy_form,
    panel_map,
    assemble_stiffness,
    assemble_rhs_constant,
    assemble_rhs_power,
    assemble_rhs_manufactured,
    energy_inner,
)

__all__ = [
    "NumericalError",
    "Level",
    "SolvePair",
    "LevelRecord",
    "solve_spd",
    "solve_pair",
    "estimator_eta",
    "estimator_eta_tilde",
    "estimator_mu",
    "estimator_mu_tilde",
    "jump_term",
    "conf_gap",
    "estimator_report",
]

_RESIDUAL_TOL = 1e-10


def solve_spd(a, b):
    """Solve a symmetric positive definite system by Cholesky and verify
    the residual.

    ``a`` must be symmetric, and it is overwritten by its Cholesky
    factor: only its strict upper triangle is left as it was.  The
    factorization reads the lower triangle of ``a`` and the residual check
    the strict upper one plus a saved copy of the diagonal, so no second
    n x n array is made.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError("matrix/vector shapes do not match")
    diag = a.diagonal().copy()
    try:
        # potrf('U') on the column-major view a.T reads and overwrites
        # the lower triangle of a: for a symmetric a, the same
        # factorization as on a copy of a
        factor = sla.cho_factor(a.T, lower=False, overwrite_a=True,
                                check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
    x = sla.cho_solve(factor, b, check_finite=False)
    scale = np.linalg.norm(b)
    if scale > 0.0:
        np.fill_diagonal(a, diag)
        # the lower triangle of a.T is the untouched upper triangle of a
        resid = np.linalg.norm(
            sla.blas.dsymv(1.0, a.T, x, beta=-1.0, y=b, lower=1)) / scale
        if resid > _RESIDUAL_TOL:
            raise NumericalError(
                f"solver residual {resid:.3e} exceeds {_RESIDUAL_TOL}")
    return x


def _make_rhs(form, space, data):
    kind = data[0]
    if kind == "constant":
        return assemble_rhs_constant(space)
    if kind == "power":
        return assemble_rhs_power(space, data[1])
    if kind == "manufactured":
        return assemble_rhs_manufactured(form, space, data[1], data[2])
    raise ValueError(f"unknown data recipe {data!r}")


@dataclass(eq=False)
class Level:
    """One mesh and its Galerkin problems, each part computed on first use.

    ``data`` is ('constant',), ('power', alpha), or
    ('manufactured', w, source): w is the curl of the data on this mesh,
    a PwConstVecField, and source = (panel coords, curl values) the curl
    density on the coarsest mesh, shared by every refinement so that the
    data agree exactly.  ``classes`` is the store of rule-class values
    of assemble_energy_form, shared by every Level of a run: refined()
    passes it on, so each table evaluates only the classes new to the run.
    """

    mesh: Mesh
    data: tuple
    classes: dict = field(default_factory=dict, repr=False)

    @cached_property
    def form(self):
        return assemble_energy_form(self.mesh, self.classes)

    @cached_property
    def cr(self):
        return cr_space(self.mesh)

    @cached_property
    def conf(self):
        return conforming_space(self.mesh)

    @cached_property
    def load_cr(self):
        return _make_rhs(self.form, self.cr, self.data)

    @cached_property
    def load_conf(self):
        return _make_rhs(self.form, self.conf, self.data)

    @cached_property
    def phi(self):
        """Crouzeix-Raviart solution."""
        return self._solve(self.cr, self.load_cr)

    @cached_property
    def phi0(self):
        """Conforming solution."""
        return self._solve(self.conf, self.load_conf)

    @cached_property
    def symmetry(self):
        """(panel map, slot order) of the isometry whose DOF orbits the
        solves take, or None for the full basis: on a table assembled
        with the quarter turn, the turn for constant data and the
        reflection y -> 1 - y for power data, where the mesh has it."""
        sigma = self.form.sigma
        if sigma is None:
            return None
        if self.data[0] == "constant":
            return sigma, TURN.slots
        if self.data[0] == "power":
            rho = panel_map(self.mesh.triangle_coords(), REFLECTION)
            return None if rho is None else (rho, REFLECTION.slots)
        return None

    def _solve(self, space, load):
        """The Galerkin solution in space: with a symmetry, on the
        indicators of its DOF orbits, with the orbit sums of the load,
        lifted to the space; else on the space's own basis."""
        orbits = None
        if self.symmetry is not None:
            orbits = dof_orbits(space, *self.symmetry)
            load = np.bincount(orbits, weights=load)
        x = solve_spd(assemble_stiffness(self.form, space, orbits), load)
        return CoefVec(space, x if orbits is None else x[orbits])

    def refined(self, mesh):
        """The Level of a refinement of this mesh, with the data carried
        to each child from its parent, ``mesh.parent``.  Raises
        ValueError if ``mesh`` does not refine this mesh."""
        parent = _parents(mesh, self.mesh)
        data = self.data
        if data[0] == "manufactured":
            w = data[1].values[parent]
            data = ("manufactured", PwConstVecField(mesh, w), data[2])
        return Level(mesh, data, self.classes)


@dataclass(eq=False)
class SolvePair:
    """A coarse Level and the Level of its uniform refinement."""

    coarse: Level
    fine: Level

    @cached_property
    def fine_curl(self):
        return curl_field(self.fine.phi)

    @cached_property
    def fine_curl_diff(self):
        """curl of (fine solution - coarse solution) on the fine mesh."""
        coarse = embed_coarse_in_fine(self.coarse.phi, self.fine.mesh)
        return PwConstVecField(self.fine.mesh,
                               self.fine_curl.values - coarse.values)


def solve_pair(coarse):
    """The solve pair of a Level and its uniform refinement, with the
    same data; the solutions are computed when an estimator reads them."""
    return SolvePair(coarse, coarse.refined(uniform_refine(coarse.mesh)[0]))


def estimator_eta(pair):
    """Two-level estimator: energy norm of (fine - coarse) solution."""
    d = pair.fine_curl_diff
    return float(np.sqrt(max(energy_inner(pair.fine.form, d, d), 0.0)))


def estimator_eta_tilde(pair):
    """Energy norm of the fine solution minus its quasi-interpolant in
    the coarse conforming space."""
    fine_mesh = pair.fine.mesh
    interp = clement_interpolate(pair.fine.phi, pair.coarse.mesh)
    coarse = embed_coarse_in_fine(interp, fine_mesh)
    e = PwConstVecField(fine_mesh, pair.fine_curl.values - coarse.values)
    return float(np.sqrt(max(energy_inner(pair.fine.form, e, e), 0.0)))


def _weighted_l2_parts(pair, fine_field):
    """h-weighted elementwise L2 norms: parts[T] = h(T) * sum over the
    children of |c| |field|^2, summing to the squared global norm."""
    coarse_mesh = pair.coarse.mesh
    h = np.sqrt(coarse_mesh.areas)
    sq = (fine_field.values ** 2).sum(axis=1) * pair.fine.mesh.areas
    parts = np.zeros(coarse_mesh.num_triangles)
    np.add.at(parts, pair.fine.mesh.parent, sq)
    parts *= h
    return parts


def estimator_mu(pair):
    """Localized estimator: h-weighted L2 norm of the curl difference."""
    parts = _weighted_l2_parts(pair, pair.fine_curl_diff)
    return float(np.sqrt(parts.sum())), parts


def estimator_mu_tilde(pair):
    """Localized estimator with the piecewise-constant projection: the
    h-weighted L2 norm of (1 - Pi) applied to the fine curl."""
    fine = pair.fine_curl
    coarse = project_pwconst(fine, pair.coarse.mesh)
    resid = PwConstVecField(fine.mesh,
                            fine.values - coarse.values[fine.mesh.parent])
    parts = _weighted_l2_parts(pair, resid)
    return float(np.sqrt(parts.sum())), parts


def jump_term(coeffs):
    """Squared jump functional and its per-element halves on the mesh of
    the coefficients.

    Each edge contributes |e|^2 |e| (jump')^2.  Interior edges are
    assigned half to each adjacent element; the parts therefore sum
    exactly to the total.
    """
    mesh = coeffs.space.mesh
    jumps = jump_field(coeffs)
    ln = mesh.edge_lengths
    per_edge = ln ** 2 * ln * jumps.jump_deriv ** 2
    parts = np.zeros(mesh.num_triangles)
    t0 = mesh.edge_tris[:, 0]
    t1 = mesh.edge_tris[:, 1]
    interior = t1 >= 0
    np.add.at(parts, t0, np.where(interior, 0.5 * per_edge, per_edge))
    np.add.at(parts, t1[interior], 0.5 * per_edge[interior])
    return float(per_edge.sum()), parts


def conf_gap(level):
    """Squared energy distance from the CR solution to the conforming
    one: a(phi - phi0, phi - phi0) on the level's mesh."""
    w_cr = curl_field(level.phi)
    w_cf = curl_field(level.phi0)
    d = PwConstVecField(level.mesh, w_cr.values - w_cf.values)
    return float(max(energy_inner(level.form, d, d), 0.0))


@dataclass
class LevelRecord:
    """The quantities of one refinement level (squared energies).

    Fine-solve quantities are None on the coarse-only tail levels of
    uniform presets.  The experiment loop sets ``level`` and ``wall_ms``.
    """

    n_coarse: int
    rho2: float
    conf_gap2: float
    n_fine: int | None = None
    eta2: float | None = None
    eta_tilde2: float | None = None
    mu2: float | None = None
    mu_tilde2: float | None = None
    rho_hat2: float | None = None
    level: int = 0
    wall_ms: float = 0.0


def estimator_report(pair):
    """The LevelRecord of a solve pair and its refinement indicators.

    The refinement indicators: indicator(T)^2 = the mu-tilde part of T,
    plus the coarse jump part over the edges of T, plus the fine jump
    part over the fine edges inside T; shared edges count half per side,
    so the indicators sum to mu_tilde^2 + rho^2 + rho_hat^2 exactly.
    """
    coarse, fine = pair.coarse, pair.fine
    eta = estimator_eta(pair)
    eta_t = estimator_eta_tilde(pair)
    mu, _ = estimator_mu(pair)
    mu_t, mu_parts = estimator_mu_tilde(pair)
    rho2, rho_parts = jump_term(coarse.phi)
    rho_hat2, rho_hat_fine = jump_term(fine.phi)
    rho_hat_parts = np.zeros(coarse.mesh.num_triangles)
    np.add.at(rho_hat_parts, fine.mesh.parent, rho_hat_fine)
    rec = LevelRecord(
        n_coarse=coarse.cr.dof_count,
        rho2=rho2,
        conf_gap2=conf_gap(coarse),
        n_fine=fine.cr.dof_count,
        eta2=eta ** 2,
        eta_tilde2=eta_t ** 2,
        mu2=mu ** 2,
        mu_tilde2=mu_t ** 2,
        rho_hat2=rho_hat2,
    )
    return rec, mu_parts + rho_parts + rho_hat_parts
