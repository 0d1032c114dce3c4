"""Marking, the adaptive refinement loop, experiment presets, and output.

The adaptive loop follows the estimate-mark-refine pattern: solve on the
current mesh and its uniform refinement, build per-element indicators,
select a minimal-cardinality set capturing a theta fraction of the total,
bisect it, repeat.

Uniform presets exploit that the refinement of level l is the mesh of
level l+1, so each mesh is assembled and solved once; the final mesh of
the chain is reported coarse-only (its own uniform refinement would
exceed the fine-DOF cap), which extends the history of the quantities
that need no fine solve.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    build_initial_square_mesh,
    uniform_refine,
    refine_nvb,
    graded_square_mesh,
    mesh_io_write,
)
from .spaces import (
    CoefVec,
    PwConstVecField,
    cr_space,
    conforming_space,
    curl_field,
)
from .assembly import (
    assemble_energy_form,
    assemble_stiffness,
    energy_inner,
)
from .estimators import (
    NumericalError,
    SolvePair,
    solve_pair,
    solve_spd,
    estimator_report,
    jump_term,
    _make_rhs,
)

__all__ = [
    "ExperimentConfig",
    "LevelRecord",
    "ConvergenceHistory",
    "EXPERIMENTS",
    "doerfler_mark",
    "adaptive_loop",
    "run_experiment",
    "fit_rate",
    "emit_csv",
    "emit_svg_plot",
]

EXPERIMENTS = (
    "uniform-exact",
    "uniform-smooth",
    "adaptive-smooth",
    "graded-smooth",
    "uniform-singular",
    "adaptive-singular",
)

CSV_COLUMNS = ("level", "N_coarse", "N_fine", "eta2", "eta_tilde2", "mu2",
               "mu_tilde2", "rho2", "rho_hat2", "conf_gap2", "wall_ms")

SINGULAR_POWER = -0.6
# rule sizes grow as p^4 (the edge-adjacent rule has 16 p^4 nodes), so
# the order is capped where the largest rule stays near 10^5 nodes
MAX_QUAD_ORDER = 9


@dataclass
class ExperimentConfig:
    experiment: str
    theta: float = 0.5
    beta: float = 2.0
    max_levels: int = 12
    max_fine_dofs: int = 8000
    quad_order: int = 5
    out_csv: str | None = None
    out_svg: str | None = None
    dump_meshes: str | None = None
    rate_window: int = 4
    include_boundary_jumps: bool = True
    jump_full_h1: bool = False

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose one of {', '.join(EXPERIMENTS)}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if not 3 <= self.quad_order <= MAX_QUAD_ORDER:
            raise ValueError(f"quadrature order must lie in "
                             f"[3, {MAX_QUAD_ORDER}], got {self.quad_order}")
        return self


@dataclass
class LevelRecord:
    """One refinement level of a convergence history.

    Fine-solve quantities are None on coarse-only tail levels.
    """

    level: int
    n_coarse: int
    n_fine: int | None
    eta2: float | None
    eta_tilde2: float | None
    mu2: float | None
    mu_tilde2: float | None
    rho2: float
    rho_hat2: float | None
    conf_gap2: float
    wall_ms: float
    n_conf: int = 0
    marked: int | None = None


@dataclass
class ConvergenceHistory:
    config: ExperimentConfig
    records: list = field(default_factory=list)

    def values(self, quantity, x_axis="coarse"):
        """(N, value, level) triples of levels where the quantity exists."""
        xs, ys, ls = [], [], []
        for rec in self.records:
            v = getattr(rec, quantity)
            x = rec.n_conf if x_axis == "conf" else rec.n_coarse
            if v is not None:
                xs.append(x)
                ys.append(v)
                ls.append(rec.level)
        return (np.asarray(xs, float), np.asarray(ys, float),
                np.asarray(ls, dtype=np.int64))


def doerfler_mark(indicators, theta):
    """Minimal-cardinality marking: the shortest descending-order prefix
    whose sum reaches theta times the total (ties by ascending index).

    Returns (sorted element indices, converged flag); all-zero indicators
    mark nothing and set the flag.
    """
    ind = np.asarray(indicators, float)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if np.any(ind < 0.0) or not np.all(np.isfinite(ind)):
        raise ValueError("indicators must be finite and nonnegative")
    total = ind.sum()
    if total <= 0.0:
        return np.empty(0, dtype=np.int64), True
    order = np.argsort(-ind, kind="stable")
    csum = np.cumsum(ind[order])
    k = int(np.searchsorted(csum, theta * total, side="left")) + 1
    k = min(k, len(ind))
    return np.sort(order[:k]), False


def _recipe_for(config):
    name = config.experiment
    if name == "uniform-exact":
        mesh0 = build_initial_square_mesh()
        space0 = conforming_space(mesh0)
        phi = CoefVec(space0, np.ones(space0.dof_count))
        source = (mesh0.triangle_coords(), curl_field(phi).values)
        return ("manufactured", phi, source), mesh0
    if name.endswith("singular"):
        return ("power", SINGULAR_POWER), build_initial_square_mesh()
    return ("constant",), build_initial_square_mesh()


def _fine_dof_prediction(mesh):
    # uniform refinement doubles boundary edges and quadruples elements
    n_boundary = int(mesh.edge_boundary.sum())
    return 6 * mesh.num_triangles - n_boundary


def _pair_for_mesh(mesh, recipe, config, root_curl=None, root_of=None):
    if recipe[0] == "manufactured" and root_of is not None:
        carried = PwConstVecField(mesh, root_curl[root_of])
        return solve_pair(mesh, ("manufactured", carried, recipe[2]),
                          order=config.quad_order)
    return solve_pair(mesh, recipe, order=config.quad_order)


def _record_from_pair(level, pair, config, wall_ms, marked=None):
    rep = estimator_report(pair,
                           include_boundary=config.include_boundary_jumps,
                           full_h1=config.jump_full_h1)
    return LevelRecord(
        level=level,
        n_coarse=rep.n_coarse,
        n_fine=rep.n_fine,
        eta2=rep.eta2,
        eta_tilde2=rep.eta_tilde2,
        mu2=rep.mu2,
        mu_tilde2=rep.mu_tilde2,
        rho2=rep.rho2,
        rho_hat2=rep.rho_hat2,
        conf_gap2=rep.conf_gap2,
        wall_ms=wall_ms,
        n_conf=rep.n_conf_coarse,
        marked=marked,
    ), rep


def _maybe_dump(config, level, mesh):
    if config.dump_meshes:
        os.makedirs(config.dump_meshes, exist_ok=True)
        mesh_io_write(mesh, os.path.join(config.dump_meshes,
                                         f"level_{level:02d}.mesh"))


def adaptive_loop(config):
    """Estimate-mark-refine loop driven by the per-element indicators."""
    config.validate()
    recipe, mesh = _recipe_for(config)
    root_curl = None
    root_of = None
    if recipe[0] == "manufactured":
        root_curl = curl_field(recipe[1]).values
        root_of = np.arange(mesh.num_triangles)
    history = ConvergenceHistory(config=config)
    for level in range(config.max_levels):
        if _fine_dof_prediction(mesh) > config.max_fine_dofs:
            break
        t0 = time.perf_counter()
        pair = _pair_for_mesh(mesh, recipe, config, root_curl, root_of)
        rec, rep = _record_from_pair(level, pair, config,
                                     wall_ms=0.0)
        marked, converged = doerfler_mark(rep.indicators, config.theta)
        rec.marked = len(marked)
        _maybe_dump(config, level, mesh)
        if converged:
            rec.wall_ms = 1e3 * (time.perf_counter() - t0)
            history.records.append(rec)
            break
        mesh, rmap = refine_nvb(mesh, marked)
        if root_of is not None:
            root_of = root_of[rmap.child_to_parent]
        rec.wall_ms = 1e3 * (time.perf_counter() - t0)
        history.records.append(rec)
    return history


def _run_uniform(config):
    """Uniform chain with solve reuse plus a coarse-only tail level."""
    recipe, mesh = _recipe_for(config)
    root_curl = None
    root_of = None
    if recipe[0] == "manufactured":
        root_curl = curl_field(recipe[1]).values
        root_of = np.arange(mesh.num_triangles)

    history = ConvergenceHistory(config=config)
    level = 0
    prev = None  # per-mesh bundle of the previous chain entry
    while level < config.max_levels:
        t0 = time.perf_counter()
        bundle = _solve_single(mesh, recipe, config, root_curl, root_of)
        if prev is not None:
            pair = SolvePair(
                prev["mesh"], mesh, prev["rmap_to_next"],
                prev["form"], bundle["form"],
                prev["cr"], bundle["cr"], prev["conf"], bundle["conf"],
                prev["phi"], bundle["phi"], prev["phi0"], bundle["phi0"])
            rec, _ = _record_from_pair(level - 1, pair, config,
                                       wall_ms=1e3 * (time.perf_counter() - t0))
            history.records.append(rec)
        _maybe_dump(config, level, mesh)
        grown = level + 1 < config.max_levels
        if grown:
            fine, rmap = uniform_refine(mesh)
            if cr_space(fine).dof_count > config.max_fine_dofs:
                grown = False
        if not grown:
            # tail level: only the quantities that need no fine solve
            t1 = time.perf_counter()
            rho2, _ = jump_term(mesh, bundle["phi"],
                                include_boundary=config.include_boundary_jumps,
                                full_h1=config.jump_full_h1)
            w_cr = curl_field(bundle["phi"])
            w_cf = curl_field(bundle["phi0"])
            d = PwConstVecField(mesh, w_cr.values - w_cf.values)
            gap = float(max(energy_inner(bundle["form"], d, d), 0.0))
            history.records.append(LevelRecord(
                level=level, n_coarse=bundle["cr"].dof_count, n_fine=None,
                eta2=None, eta_tilde2=None, mu2=None, mu_tilde2=None,
                rho2=rho2, rho_hat2=None, conf_gap2=gap,
                wall_ms=1e3 * (time.perf_counter() - t1),
                n_conf=bundle["conf"].dof_count))
            break
        bundle["rmap_to_next"] = rmap
        prev = bundle
        if root_of is not None:
            root_of = root_of[rmap.child_to_parent]
        mesh = fine
        level += 1
    return history


def _solve_single(mesh, recipe, config, root_curl, root_of):
    form = assemble_energy_form(mesh, config.quad_order)
    cr = cr_space(mesh)
    conf = conforming_space(mesh)
    use = recipe
    if recipe[0] == "manufactured":
        use = ("manufactured", PwConstVecField(mesh, root_curl[root_of]),
               recipe[2])
    b_cr = _make_rhs(form, cr, use)
    b_cf = _make_rhs(form, conf, use)
    phi = CoefVec(cr, solve_spd(assemble_stiffness(form, cr), b_cr))
    phi0 = CoefVec(conf, solve_spd(assemble_stiffness(form, conf), b_cf))
    return {"mesh": mesh, "form": form, "cr": cr, "conf": conf,
            "phi": phi, "phi0": phi0}


def _run_graded(config):
    """Graded meshes rebuilt per level with doubled subdivision count."""
    recipe, _ = _recipe_for(config)
    history = ConvergenceHistory(config=config)
    n = 2
    for level in range(config.max_levels):
        try:
            mesh = graded_square_mesh(n, config.beta)
        except ValueError as exc:
            # beta is validated and n is a power of two, so what fails
            # here is a grading map that underflows to degenerate triangles
            raise NumericalError(f"graded mesh n={n}, beta={config.beta}: "
                                 f"{exc}") from exc
        if _fine_dof_prediction(mesh) > config.max_fine_dofs:
            break
        t0 = time.perf_counter()
        pair = solve_pair(mesh, recipe, order=config.quad_order)
        rec, _ = _record_from_pair(level, pair, config,
                                   wall_ms=1e3 * (time.perf_counter() - t0))
        history.records.append(rec)
        _maybe_dump(config, level, mesh)
        n *= 2
    return history


def run_experiment(config):
    """Run one of the experiment presets and return its history."""
    config.validate()
    if config.experiment.startswith("uniform"):
        return _run_uniform(config)
    if config.experiment.startswith("graded"):
        return _run_graded(config)
    return adaptive_loop(config)


def fit_rate(history, quantity, window=None, x_axis="coarse"):
    """Least-squares slope of log(quantity) against log(N) over the
    trailing window of levels where the quantity is available."""
    window = window if window is not None else history.config.rate_window
    xs, ys, levels = history.values(quantity, x_axis=x_axis)
    if len(xs) < 2:
        raise ValueError(f"need at least 2 levels to fit {quantity}")
    xs = xs[-window:]
    ys = ys[-window:]
    levels = levels[-window:]
    bad = np.flatnonzero(ys <= 0.0)
    if len(bad):
        raise ValueError(
            f"{quantity} is nonpositive at level {levels[bad[0]]}")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _format_value(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit_csv(history, sink):
    """Write the convergence history with the fixed column schema."""
    own = isinstance(sink, (str, os.PathLike))
    f = open(sink, "w", newline="") if own else sink
    try:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for rec in history.records:
            writer.writerow([_format_value(v) for v in (
                rec.level, rec.n_coarse, rec.n_fine, rec.eta2,
                rec.eta_tilde2, rec.mu2, rec.mu_tilde2, rec.rho2,
                rec.rho_hat2, rec.conf_gap2, rec.wall_ms)])
    finally:
        if own:
            f.close()


_SVG_SERIES = (
    ("eta2", "#1f77b4"),
    ("eta_tilde2", "#17becf"),
    ("mu2", "#2ca02c"),
    ("mu_tilde2", "#d62728"),
    ("rho2", "#9467bd"),
    ("rho_hat2", "#8c564b"),
    ("conf_gap2", "#e377c2"),
)


def emit_svg_plot(history, sink, width=720, height=540):
    """Self-contained log-log SVG of the squared quantities against the
    number of coarse DOFs, with an N^(-1/2) guide line."""
    if not history.records:
        raise ValueError("history is empty")
    margin = 60
    series = []
    for name, color in _SVG_SERIES:
        xs, ys, _ = history.values(name)
        keep = ys > 0.0
        if keep.any():
            series.append((name, color, xs[keep], ys[keep]))
    if not series:
        raise ValueError("history has no positive quantities to plot")
    all_x = np.concatenate([s[2] for s in series])
    all_y = np.concatenate([s[3] for s in series])
    # guide line through the first eta2 (or first available) point
    gx = series[0][2]
    gy0 = series[0][3][0]
    guide = gy0 * (gx / gx[0]) ** -0.5
    all_y = np.concatenate([all_y, guide])
    lx0, lx1 = np.log10(all_x.min()), np.log10(all_x.max())
    ly0, ly1 = np.log10(all_y.min()), np.log10(all_y.max())
    lx1 = lx1 if lx1 > lx0 else lx0 + 1.0
    ly1 = ly1 if ly1 > ly0 else ly0 + 1.0

    def to_px(x, y):
        px = margin + (np.log10(x) - lx0) / (lx1 - lx0) * (width - 2 * margin)
        py = height - margin - (np.log10(y) - ly0) / (ly1 - ly0) * (height - 2 * margin)
        return px, py

    out = io.StringIO()
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
              f'height="{height}" viewBox="0 0 {width} {height}">\n')
    out.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    out.write(f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" '
              f'height="{height-2*margin}" fill="none" stroke="black"/>\n')
    for dec in range(int(np.floor(lx0)), int(np.ceil(lx1)) + 1):
        if lx0 <= dec <= lx1:
            px, _ = to_px(10.0 ** dec, 10.0 ** ly0)
            out.write(f'<line x1="{px:.1f}" y1="{margin}" x2="{px:.1f}" '
                      f'y2="{height-margin}" stroke="#dddddd"/>\n')
            out.write(f'<text x="{px:.1f}" y="{height-margin+18}" '
                      f'font-size="11" text-anchor="middle">1e{dec}</text>\n')
    for dec in range(int(np.floor(ly0)), int(np.ceil(ly1)) + 1):
        if ly0 <= dec <= ly1:
            _, py = to_px(10.0 ** lx0, 10.0 ** dec)
            out.write(f'<line x1="{margin}" y1="{py:.1f}" '
                      f'x2="{width-margin}" y2="{py:.1f}" stroke="#dddddd"/>\n')
            out.write(f'<text x="{margin-6}" y="{py:.1f}" font-size="11" '
                      f'text-anchor="end">1e{dec}</text>\n')
    pts = " ".join("{:.2f},{:.2f}".format(*to_px(x, y))
                   for x, y in zip(gx, guide))
    out.write(f'<polyline points="{pts}" fill="none" stroke="#888888" '
              f'stroke-dasharray="6 4"/>\n')
    for k, (name, color, xs, ys) in enumerate(series):
        pts = " ".join("{:.2f},{:.2f}".format(*to_px(x, y))
                       for x, y in zip(xs, ys))
        out.write(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                  f'stroke-width="1.5"/>\n')
        out.write(f'<text x="{width-margin+5}" y="{margin+14*k+12}" '
                  f'font-size="11" fill="{color}">{name}</text>\n')
    out.write(f'<text x="{width/2:.0f}" y="{height-14}" font-size="12" '
              f'text-anchor="middle">degrees of freedom</text>\n')
    out.write("</svg>\n")

    own = isinstance(sink, (str, os.PathLike))
    f = open(sink, "w") if own else sink
    try:
        f.write(out.getvalue())
    finally:
        if own:
            f.close()
