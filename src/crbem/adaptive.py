"""Marking, the experiment loop, rate fitting, and output.

Every preset runs one loop: solve the pair of the current coarse level
and its uniform refinement, record the two-level estimators, and make the
next coarse level.  Presets differ only in that last step: uniform
presets take the fine level of the pair just solved, adaptive presets
bisect the elements that Doerfler marking selects from the per-element
indicators, and graded presets build the graded mesh with twice the
subdivisions.  A Level computes its form, spaces and solutions once, so
reusing the fine level assembles and solves each uniform mesh once.

Uniform presets report their last level coarse-only, with the quantities
that need no fine solve: the level whose own uniform refinement would
exceed the fine-DOF cap or that reaches the level limit.  If the cap
admits no refinement at all, that is the initial mesh alone.  Adaptive
and graded presets report only levels whose fine solve fits the cap.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import time
from dataclasses import dataclass

import numpy as np

from .mesh import (
    build_initial_square_mesh,
    refine_nvb,
    graded_square_mesh,
    mesh_io_write,
)
from .spaces import CoefVec, conforming_space, curl_field
from .estimators import (
    Level,
    LevelRecord,
    NumericalError,
    solve_pair,
    estimator_report,
    jump_term,
    conf_gap,
)

__all__ = [
    "ExperimentConfig",
    "LevelRecord",
    "EXPERIMENTS",
    "doerfler_mark",
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
# trailing levels over which fit_rate fits its slope
RATE_WINDOW = 4


@dataclass
class ExperimentConfig:
    experiment: str
    theta: float = 0.5
    beta: float = 2.0
    max_levels: int = 12
    max_fine_dofs: int = 8000
    dump_meshes: str | None = None

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose one of {', '.join(EXPERIMENTS)}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        if self.max_fine_dofs < 0:
            raise ValueError(f"max_fine_dofs must be at least 0, got "
                             f"{self.max_fine_dofs}")
        if not (np.isfinite(self.beta) and self.beta >= 1.0):
            raise ValueError(f"beta must be finite and >= 1, got {self.beta}")
        return self


def _values(records, quantity):
    """(N, value, level) arrays over the records where the quantity
    exists."""
    xs, ys, ls = [], [], []
    for rec in records:
        v = getattr(rec, quantity)
        if v is not None:
            xs.append(rec.n_coarse)
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


def _graded_mesh(n, beta):
    try:
        return graded_square_mesh(n, beta)
    except ValueError as exc:
        # beta is validated and n is a power of two, so what fails here
        # is a grading map that underflows to degenerate triangles
        raise NumericalError(f"graded mesh n={n}, beta={beta}: "
                             f"{exc}") from exc


def _first_level(config):
    name = config.experiment
    if name.startswith("graded"):
        return Level(_graded_mesh(2, config.beta), ("constant",))
    mesh = build_initial_square_mesh()
    if name == "uniform-exact":
        # the exact solution is the center hat of the initial mesh
        space = conforming_space(mesh)
        w = curl_field(CoefVec(space, np.ones(space.dof_count)))
        data = ("manufactured", w, (mesh.triangle_coords(), w.values))
    elif name.endswith("singular"):
        data = ("power", SINGULAR_POWER)
    else:
        data = ("constant",)
    return Level(mesh, data)


def _next_coarse(config, level, pair, marked):
    """The coarse level that follows the solve pair of ``level``."""
    name = config.experiment
    if name.startswith("uniform"):
        return pair.fine
    if name.startswith("adaptive"):
        return pair.coarse.refined(refine_nvb(pair.coarse.mesh, marked)[0])
    return Level(_graded_mesh(2 ** (level + 2), config.beta),
                 pair.coarse.data, pair.coarse.classes)


def _fine_dof_prediction(mesh):
    # uniform refinement doubles boundary edges and quadruples elements
    n_boundary = int(mesh.edge_boundary.sum())
    return 6 * mesh.num_triangles - n_boundary


def _maybe_dump(config, level, mesh):
    if config.dump_meshes:
        os.makedirs(config.dump_meshes, exist_ok=True)
        mesh_io_write(mesh, os.path.join(config.dump_meshes,
                                         f"level_{level:02d}.mesh"))


def run_experiment(config):
    """Run one of the experiment presets and return its LevelRecords,
    one per level."""
    config.validate()
    uniform = config.experiment.startswith("uniform")
    adaptive = config.experiment.startswith("adaptive")
    records = []
    coarse = _first_level(config)
    for level in range(config.max_levels):
        t0 = time.perf_counter()
        last = level + 1 == config.max_levels
        if _fine_dof_prediction(coarse.mesh) > config.max_fine_dofs:
            if not uniform:
                break
            last = True
        _maybe_dump(config, level, coarse.mesh)
        if uniform and last:
            rec = LevelRecord(n_coarse=coarse.cr.dof_count,
                              rho2=jump_term(coarse.phi)[0],
                              conf_gap2=conf_gap(coarse))
        else:
            pair = solve_pair(coarse)
            rec, indicators = estimator_report(pair)
            marked = None
            if adaptive:
                marked, converged = doerfler_mark(indicators, config.theta)
                last = last or converged
            if not last:
                coarse = _next_coarse(config, level, pair, marked)
        rec.level = level
        rec.wall_ms = 1e3 * (time.perf_counter() - t0)
        records.append(rec)
        if last:
            break
    return records


def fit_rate(records, quantity):
    """Least-squares slope of log(quantity) against log(N) over the
    trailing RATE_WINDOW records where the quantity is available."""
    xs, ys, levels = _values(records, quantity)
    if len(xs) < 2:
        raise ValueError(f"need at least 2 levels to fit {quantity}")
    xs = xs[-RATE_WINDOW:]
    ys = ys[-RATE_WINDOW:]
    levels = levels[-RATE_WINDOW:]
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


def emit_csv(records, sink):
    """Write the level records with the fixed column schema."""
    path = isinstance(sink, (str, os.PathLike))
    with (open(sink, "w", newline="") if path
          else contextlib.nullcontext(sink)) as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_format_value(getattr(rec, column.lower()))
                             for column in CSV_COLUMNS])


_SVG_SERIES = (
    ("eta2", "#1f77b4"),
    ("eta_tilde2", "#17becf"),
    ("mu2", "#2ca02c"),
    ("mu_tilde2", "#d62728"),
    ("rho2", "#9467bd"),
    ("rho_hat2", "#8c564b"),
    ("conf_gap2", "#e377c2"),
)


def emit_svg_plot(records, sink):
    """Self-contained log-log SVG of the squared quantities against the
    number of coarse DOFs, with an N^(-1/2) guide line."""
    if not records:
        raise ValueError("no level records to plot")
    width, height, margin = 720, 540, 60
    series = []
    for name, color in _SVG_SERIES:
        xs, ys, _ = _values(records, name)
        keep = ys > 0.0
        if keep.any():
            series.append((name, color, xs[keep], ys[keep]))
    if not series:
        raise ValueError("the records have no positive quantities to plot")
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

    path = isinstance(sink, (str, os.PathLike))
    with open(sink, "w") if path else contextlib.nullcontext(sink) as f:
        f.write(out.getvalue())
