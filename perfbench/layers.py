"""Per-layer spans and counts for one crbem run, recorded from outside crbem.

The tracer wraps public crbem functions.  crbem modules import each
other's functions by name (``from .assembly import assemble_energy_form``),
so a wrapper replaces its target by identity in every ``crbem.*`` module
namespace, not only in the module that defines it.  Spans stay in memory;
a span's self time is its duration minus the durations of its direct child
spans.

The input-property counts of each assembled mesh are computed after the run
from public ``Mesh`` attributes and ``crbem.assembly.SINGULAR_ASPECT_LIMIT``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

# (defining module, public function) -> layer whose self time it adds to.
# Functions that some workload never calls share a layer with ones it does
# call, so that no reported time is 0 by construction.
TARGETS = {
    ("crbem.mesh", "build_initial_square_mesh"): "mesh",
    ("crbem.mesh", "uniform_refine"): "mesh",
    ("crbem.mesh", "refine_nvb"): "mesh",
    ("crbem.mesh", "graded_square_mesh"): "mesh",
    ("crbem.spaces", "cr_space"): "spaces",
    ("crbem.spaces", "conforming_space"): "spaces",
    ("crbem.spaces", "curl_field"): "spaces",
    ("crbem.spaces", "embed_coarse_in_fine"): "spaces",
    ("crbem.spaces", "jump_field"): "spaces",
    ("crbem.spaces", "clement_interpolate"): "spaces",
    ("crbem.spaces", "project_pwconst"): "spaces",
    ("crbem.assembly", "assemble_energy_form"): "assembly.energy_form",
    ("crbem.assembly", "assemble_stiffness"): "assembly.stiffness",
    ("crbem.assembly", "assemble_rhs_constant"): "assembly.rhs",
    ("crbem.assembly", "assemble_rhs_power"): "assembly.rhs",
    ("crbem.assembly", "energy_inner"): "assembly.energy_inner",
    ("crbem.estimators", "solve_spd"): "estimators.solve_spd",
    ("crbem.estimators", "solve_pair"): "estimators",
    ("crbem.estimators", "estimator_report"): "estimators",
    ("crbem.estimators", "conf_gap"): "estimators",
    ("crbem.estimators", "jump_term"): "estimators",
    ("crbem.adaptive", "doerfler_mark"): "adaptive",
    ("crbem.adaptive", "run_experiment"): "adaptive",
}

# Per-layer metric names and units, in the order they are reported.
METRICS = {
    "mesh.s": "s",
    "mesh.refine_nvb.calls": "count",
    "mesh.elements": "count",
    "spaces.s": "s",
    "assembly.energy_form.s": "s",
    "assembly.energy_form.calls": "count",
    "assembly.energy_form.entries": "count",
    "assembly.energy_form.entries_per_s": "1/s",
    "assembly.pairs.identical": "count",
    "assembly.pairs.edge": "count",
    "assembly.pairs.vertex": "count",
    "assembly.panels.anisotropic": "count",
    "assembly.table_mb": "MB",
    "assembly.stiffness.s": "s",
    "assembly.stiffness.calls": "count",
    "assembly.rhs.s": "s",
    "assembly.energy_inner.s": "s",
    "estimators.solve_spd.s": "s",
    "estimators.solve_spd.calls": "count",
    "estimators.solve_spd.dofs": "count",
    "estimators.solve_spd.gflop": "Gflop",
    "estimators.s": "s",
    "adaptive.marked": "count",
    "adaptive.self_s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "trace.wall_s": "s",
}

COUNTS = ("identical", "edge", "vertex", "anisotropic")


def target_name(target):
    module, name = target
    return f"{module}.{name}"


def mesh_counts(mesh, aspect_limit):
    """Panel-pair counts of the energy table of ``mesh``.

    identical: panels; edge: interior edges; vertex: pairs sharing exactly
    one vertex, i.e. sum over vertices of C(deg, 2) minus the two shared
    vertices counted for every edge pair; anisotropic: panels whose
    lmax^2 / (2 |T|) exceeds ``aspect_limit``.
    """
    interior = len(mesh.interior_edges())
    deg = np.bincount(mesh.triangles.ravel(), minlength=mesh.num_vertices)
    vertex = int((deg * (deg - 1) // 2).sum()) - 2 * interior
    coords = mesh.triangle_coords()
    lmax2 = ((coords[:, [1, 2, 0]] - coords) ** 2).sum(-1).max(-1)
    anisotropic = int((lmax2 / (2.0 * mesh.areas) > aspect_limit).sum())
    return {"identical": mesh.num_triangles, "edge": interior,
            "vertex": vertex, "anisotropic": anisotropic}


class Tracer:
    """Wraps the crbem targets and records one span per call."""

    def __init__(self):
        self.spans = []  # [target, parent span index or -1, start, end]
        self.calls = {target_name(t): 0 for t in TARGETS}
        self.meshes = []      # mesh argument of each energy-form assembly
        self.spd_sizes = []   # system size of each solve_spd call
        self.marked = 0       # elements marked over all doerfler_mark calls
        self._stack = []

    def install(self):
        """Patch every target; raise LookupError naming any that is gone."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "crbem" or name.startswith("crbem.")}
        missing = [target_name(t) for t in TARGETS
                   if not callable(getattr(modules.get(t[0]), t[1], None))]
        if missing:
            raise LookupError("wrapper targets missing from crbem: "
                              + ", ".join(missing))
        for target in TARGETS:
            original = getattr(modules[target[0]], target[1])
            wrapper = self._wrap(target, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, target, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([target, stack[-1] if stack else -1, clock(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            self._observe(target, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, target, args, kwargs, result):
        self.calls[target_name(target)] += 1
        name = target[1]
        if name == "assemble_energy_form":
            self.meshes.append(args[0] if args else kwargs["mesh"])
        elif name == "solve_spd":
            self.spd_sizes.append(len(args[0] if args else kwargs["a"]))
        elif name == "doerfler_mark":
            self.marked += len(result[0])

    def self_times(self):
        """Self seconds per target, summed over its spans."""
        child = [0.0] * len(self.spans)
        for target, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(TARGETS, 0.0)
        for (target, _, start, end), covered in zip(self.spans, child):
            out[target] += end - start - covered
        return out

    def run_experiment_seconds(self):
        return sum(end - start for target, _, start, end in self.spans
                   if target[1] == "run_experiment")

    def mesh_count_table(self, aspect_limit):
        return [mesh_counts(m, aspect_limit) for m in self.meshes]

    def metrics(self, wall_s, cpu_s, aspect_limit):
        """Per-layer metric values of the traced run, keyed as METRICS."""
        self_s = self.self_times()
        layer_s = {}
        for target, seconds in self_s.items():
            layer = TARGETS[target]
            layer_s[layer] = layer_s.get(layer, 0.0) + seconds

        def calls(name):
            return sum(n for t, n in self.calls.items()
                       if t.endswith("." + name))

        table = self.mesh_count_table(aspect_limit)
        sizes = [m.num_triangles for m in self.meshes]
        entries = sum(n * n for n in sizes)
        form_s = layer_s["assembly.energy_form"]
        values = {
            "mesh.s": layer_s["mesh"],
            "mesh.refine_nvb.calls": calls("refine_nvb"),
            "mesh.elements": sum(sizes),
            "spaces.s": layer_s["spaces"],
            "assembly.energy_form.s": form_s,
            "assembly.energy_form.calls": calls("assemble_energy_form"),
            "assembly.energy_form.entries": entries,
            "assembly.energy_form.entries_per_s":
                entries / form_s if form_s > 0 else 0.0,
            "assembly.table_mb": max(sizes, default=0) ** 2 * 8 / 1e6,
            "assembly.stiffness.s": layer_s["assembly.stiffness"],
            "assembly.stiffness.calls": calls("assemble_stiffness"),
            "assembly.rhs.s": layer_s["assembly.rhs"],
            "assembly.energy_inner.s": layer_s["assembly.energy_inner"],
            "estimators.solve_spd.s": layer_s["estimators.solve_spd"],
            "estimators.solve_spd.calls": calls("solve_spd"),
            "estimators.solve_spd.dofs": sum(self.spd_sizes),
            "estimators.solve_spd.gflop":
                sum(n ** 3 / 3 for n in self.spd_sizes) / 1e9,
            "estimators.s": layer_s["estimators"],
            "adaptive.marked": self.marked,
            "adaptive.self_s": layer_s["adaptive"],
            "cli.self_s": wall_s - self.run_experiment_seconds(),
            "cli.cpu_s": cpu_s,
            "trace.wall_s": wall_s,
        }
        for key in COUNTS:
            group = "panels" if key == "anisotropic" else "pairs"
            values[f"assembly.{group}.{key}"] = sum(c[key] for c in table)
        return values


def median_metrics(samples):
    """Median of each metric over the traced runs of one benchmark run."""
    return {name: statistics.median(s[name] for s in samples)
            for name in METRICS}
