"""Galerkin solves on coarse/fine mesh pairs and the error estimators.

A SolvePair holds everything the two-level estimators need: the coarse
mesh, its uniform refinement, both energy forms, and the four Galerkin
solutions (nonconforming and conforming on both meshes, same data).

Estimator conventions: the energy norm is realized as sqrt(a(.,.)); edge
jump terms are weighted per edge by the edge length; every interior edge
contributes half of its value to each adjacent element's indicator so the
per-element indicators sum exactly to the global quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .mesh import uniform_refine
from .spaces import (
    CoefVec,
    cr_space,
    conforming_space,
    curl_field,
    embed_coarse_in_fine,
    jump_field,
    clement_interpolate,
    project_pwconst,
    PwConstVecField,
)
from .assembly import (
    NumericalError,
    assemble_energy_form,
    assemble_stiffness,
    assemble_rhs_constant,
    assemble_rhs_power,
    assemble_rhs_manufactured,
    energy_inner,
)

__all__ = [
    "NumericalError",
    "SolvePair",
    "EstimatorReport",
    "solve_spd",
    "solve_pair",
    "conforming_component",
    "estimator_eta",
    "estimator_eta_tilde",
    "estimator_mu",
    "estimator_mu_tilde",
    "jump_term",
    "local_indicators",
    "conf_gap",
    "estimator_report",
]

_RESIDUAL_TOL = 1e-10


def solve_spd(a, b):
    """Solve an SPD system by Cholesky and verify the residual."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError("matrix/vector shapes do not match")
    try:
        factor = sla.cho_factor(a, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
    x = sla.cho_solve(factor, b, check_finite=False)
    scale = np.linalg.norm(b)
    if scale > 0.0:
        resid = np.linalg.norm(a @ x - b) / scale
        if resid > _RESIDUAL_TOL:
            raise NumericalError(
                f"solver residual {resid:.3e} exceeds {_RESIDUAL_TOL}")
    return x


@dataclass
class SolvePair:
    """Coarse/fine solves of the same data on a mesh and its refinement."""

    coarse_mesh: object
    fine_mesh: object
    rmap: object
    form_coarse: object
    form_fine: object
    cr_coarse: object
    cr_fine: object
    conf_coarse: object
    conf_fine: object
    phi: CoefVec          # coarse CR solution
    phi_hat: CoefVec      # fine CR solution
    phi0: CoefVec         # coarse conforming solution
    phi0_hat: CoefVec     # fine conforming solution
    rhs: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict)

    def fine_curl_diff(self):
        """curl of (fine solution - coarse solution) on the fine mesh."""
        if "d" not in self._cache:
            fine = curl_field(self.phi_hat)
            coarse = embed_coarse_in_fine(self.phi, self.rmap, self.fine_mesh)
            self._cache["d"] = PwConstVecField(
                self.fine_mesh, fine.values - coarse.values)
        return self._cache["d"]

    def fine_curl(self):
        if "curl_hat" not in self._cache:
            self._cache["curl_hat"] = curl_field(self.phi_hat)
        return self._cache["curl_hat"]


def _make_rhs(form, space, recipe):
    kind = recipe[0]
    if kind == "constant":
        return assemble_rhs_constant(space)
    if kind == "power":
        return assemble_rhs_power(space, recipe[1])
    if kind == "manufactured":
        source = recipe[2] if len(recipe) > 2 else None
        return assemble_rhs_manufactured(form, space, recipe[1], source)
    raise ValueError(f"unknown data recipe {recipe!r}")


def solve_pair(coarse_mesh, recipe, order=5):
    """Solve the CR and conforming problems on a mesh and its uniform
    refinement with the same data.

    ``recipe`` is ('constant',), ('power', alpha), or
    ('manufactured', phi[, source]) with phi the data on the coarse mesh
    and source = (panel coords, curl values) the curl density on its
    coarsest mesh (shared by both levels so the data agree exactly).
    """
    fine_mesh, rmap = uniform_refine(coarse_mesh)
    form_c = assemble_energy_form(coarse_mesh, order)
    form_f = assemble_energy_form(fine_mesh, order)
    cr_c = cr_space(coarse_mesh)
    cr_f = cr_space(fine_mesh)
    cf_c = conforming_space(coarse_mesh)
    cf_f = conforming_space(fine_mesh)

    recipe_f = recipe
    if recipe[0] == "manufactured":
        phi = recipe[1]
        w = phi if isinstance(phi, PwConstVecField) else curl_field(phi)
        source = (recipe[2] if len(recipe) > 2
                  else (coarse_mesh.triangle_coords(), w.values))
        recipe = ("manufactured", phi, source)
        fine_data = PwConstVecField(fine_mesh, w.values[rmap.child_to_parent])
        recipe_f = ("manufactured", fine_data, source)

    b_cr_c = _make_rhs(form_c, cr_c, recipe)
    b_cf_c = _make_rhs(form_c, cf_c, recipe)
    b_cr_f = _make_rhs(form_f, cr_f, recipe_f)
    b_cf_f = _make_rhs(form_f, cf_f, recipe_f)

    phi = CoefVec(cr_c, solve_spd(assemble_stiffness(form_c, cr_c), b_cr_c))
    phi0 = CoefVec(cf_c, solve_spd(assemble_stiffness(form_c, cf_c), b_cf_c))
    phi_hat = CoefVec(cr_f, solve_spd(assemble_stiffness(form_f, cr_f), b_cr_f))
    phi0_hat = CoefVec(cf_f, solve_spd(assemble_stiffness(form_f, cf_f), b_cf_f))

    return SolvePair(
        coarse_mesh, fine_mesh, rmap, form_c, form_f,
        cr_c, cr_f, cf_c, cf_f, phi, phi_hat, phi0, phi0_hat,
        rhs={"cr_coarse": b_cr_c, "conf_coarse": b_cf_c,
             "cr_fine": b_cr_f, "conf_fine": b_cf_f})


def conforming_component(phi, form, conf_space):
    """a-orthogonal projection of a CR function onto the conforming space.

    Solves a(phi0, psi) = a(phi, psi) for all conforming psi.
    """
    if phi.space.mesh is not form.mesh or conf_space.mesh is not form.mesh:
        raise ValueError("inputs do not live on the form's mesh")
    w = curl_field(phi)
    b = assemble_rhs_manufactured(form, conf_space, w)
    a = assemble_stiffness(form, conf_space)
    return CoefVec(conf_space, solve_spd(a, b))


def estimator_eta(pair):
    """Two-level estimator: energy norm of (fine - coarse) solution."""
    d = pair.fine_curl_diff()
    return float(np.sqrt(max(energy_inner(pair.form_fine, d, d), 0.0)))


def estimator_eta_tilde(pair):
    """Energy norm of the fine solution minus its quasi-interpolant in
    the coarse conforming space."""
    interp = clement_interpolate(pair.phi_hat, pair.coarse_mesh, pair.rmap)
    coarse = embed_coarse_in_fine(interp, pair.rmap, pair.fine_mesh)
    e = PwConstVecField(pair.fine_mesh,
                        pair.fine_curl().values - coarse.values)
    return float(np.sqrt(max(energy_inner(pair.form_fine, e, e), 0.0)))


def _weighted_l2_parts(pair, fine_field):
    """h-weighted elementwise L2 norms: parts[T] = h(T) * sum over the
    children of |c| |field|^2, summing to the squared global norm."""
    h = np.sqrt(pair.coarse_mesh.areas)
    fine_areas = pair.fine_mesh.areas
    sq = (fine_field.values ** 2).sum(axis=1) * fine_areas
    parts = np.zeros(pair.coarse_mesh.num_triangles)
    np.add.at(parts, pair.rmap.child_to_parent, sq)
    parts *= h
    return parts


def estimator_mu(pair):
    """Localized estimator: h-weighted L2 norm of the curl difference."""
    parts = _weighted_l2_parts(pair, pair.fine_curl_diff())
    return float(np.sqrt(parts.sum())), parts


def estimator_mu_tilde(pair):
    """Localized estimator with the piecewise-constant projection: the
    h-weighted L2 norm of (1 - Pi) applied to the fine curl."""
    fine = pair.fine_curl()
    coarse = project_pwconst(fine, pair.rmap, pair.coarse_mesh)
    resid = PwConstVecField(
        pair.fine_mesh,
        fine.values - coarse.values[pair.rmap.child_to_parent])
    parts = _weighted_l2_parts(pair, resid)
    return float(np.sqrt(parts.sum())), parts


def jump_term(mesh, coeffs, weight_mode="length", include_boundary=True,
              full_h1=False):
    """Squared jump functional and its per-element halves.

    Each edge contributes w(e)^2 |e| (jump')^2 with w(e) = |e| (or 1 for
    ``weight_mode='none'``); ``full_h1`` adds the L2 part of the jump.
    Interior edges are assigned half to each adjacent element; the parts
    therefore sum exactly to the total.
    """
    if coeffs.space.mesh is not mesh:
        raise ValueError("coefficients do not live on this mesh")
    jumps = jump_field(coeffs)
    ln = mesh.edge_lengths
    if weight_mode == "length":
        w2 = ln ** 2
    elif weight_mode == "none":
        w2 = np.ones_like(ln)
    else:
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    per_edge = w2 * ln * jumps.jump_deriv ** 2
    if full_h1:
        j0, j1 = jumps.jump_lo, jumps.jump_hi
        per_edge = per_edge + w2 * ln * (j0 * j0 + j0 * j1 + j1 * j1) / 3.0
    if not include_boundary:
        per_edge = np.where(mesh.edge_boundary, 0.0, per_edge)
    parts = np.zeros(mesh.num_triangles)
    t0 = mesh.edge_tris[:, 0]
    t1 = mesh.edge_tris[:, 1]
    interior = t1 >= 0
    np.add.at(parts, t0, np.where(interior, 0.5 * per_edge, per_edge))
    np.add.at(parts, t1[interior], 0.5 * per_edge[interior])
    return float(per_edge.sum()), parts


def local_indicators(pair, include_boundary=True, full_h1=False):
    """Per-element refinement indicators.

    indicator(T)^2 = the mu-tilde part of T, plus the coarse jump part
    over the edges of T, plus the fine jump part over the fine edges
    inside T; shared edges count half per side, so the indicators sum to
    mu_tilde^2 + rho^2 + rho_hat^2 exactly.
    """
    _, mu_parts = estimator_mu_tilde(pair)
    _, rho_parts = jump_term(pair.coarse_mesh, pair.phi,
                             include_boundary=include_boundary,
                             full_h1=full_h1)
    _, rho_hat_fine = jump_term(pair.fine_mesh, pair.phi_hat,
                                include_boundary=include_boundary,
                                full_h1=full_h1)
    rho_hat_parts = np.zeros(pair.coarse_mesh.num_triangles)
    np.add.at(rho_hat_parts, pair.rmap.child_to_parent, rho_hat_fine)
    return mu_parts + rho_parts + rho_hat_parts


def conf_gap(pair):
    """Squared energy distance from the CR solution to its conforming
    component: a(phi - phi0, phi - phi0) on the coarse mesh."""
    w_cr = curl_field(pair.phi)
    w_cf = curl_field(pair.phi0)
    d = PwConstVecField(pair.coarse_mesh, w_cr.values - w_cf.values)
    return float(max(energy_inner(pair.form_coarse, d, d), 0.0))


@dataclass
class EstimatorReport:
    """All level quantities of one solve pair (squared energies)."""

    eta2: float
    eta_tilde2: float
    mu2: float
    mu_tilde2: float
    rho2: float
    rho_hat2: float
    conf_gap2: float
    indicators: np.ndarray
    n_coarse: int
    n_fine: int
    n_conf_coarse: int = 0


def estimator_report(pair, include_boundary=True, full_h1=False):
    """Evaluate every estimator of a solve pair."""
    eta = estimator_eta(pair)
    eta_t = estimator_eta_tilde(pair)
    mu, _ = estimator_mu(pair)
    mu_t, mu_parts = estimator_mu_tilde(pair)
    rho2, rho_parts = jump_term(pair.coarse_mesh, pair.phi,
                                include_boundary=include_boundary,
                                full_h1=full_h1)
    rho_hat2, rho_hat_fine = jump_term(pair.fine_mesh, pair.phi_hat,
                                       include_boundary=include_boundary,
                                       full_h1=full_h1)
    rho_hat_parts = np.zeros(pair.coarse_mesh.num_triangles)
    np.add.at(rho_hat_parts, pair.rmap.child_to_parent, rho_hat_fine)
    indicators = mu_parts + rho_parts + rho_hat_parts
    return EstimatorReport(
        eta2=eta ** 2,
        eta_tilde2=eta_t ** 2,
        mu2=mu ** 2,
        mu_tilde2=mu_t ** 2,
        rho2=rho2,
        rho_hat2=rho_hat2,
        conf_gap2=conf_gap(pair),
        indicators=indicators,
        n_coarse=pair.phi.space.dof_count,
        n_fine=pair.phi_hat.space.dof_count,
        n_conf_coarse=pair.phi0.space.dof_count,
    )
