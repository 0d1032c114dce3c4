"""Smoke test of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its tiny smoke DOF cap through the same code path
as the benchmark, traced and untraced, and checks that every metric named
in BENCHMARK.json is emitted.  Takes about 30 s on two cores, most of it
in the start-up of the child interpreters.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_harness():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == layers.METRICS


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    names = [m["name"] for m in spec()[key]]
    assert sorted(out["metrics"]) == sorted(names)
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert m["unit"] and m["unit"] in proc.stdout
        assert name in proc.stdout


def test_gate_rejects_a_perturbed_quantity(tmp_path):
    with open(run.REFERENCE) as f:
        ref = json.load(f)["uniform-singular@smoke"]
    out_csv = tmp_path / "out.csv"
    header = ref["header"] + ["wall_ms"]
    rows = [row + ["1.0"] for row in ref["rows"]]
    out_csv.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    assert run.gate(0, out_csv, ref) is None
    col = header.index("rho2")
    rows[0][col] = repr(float(rows[0][col]) * (1 + 1e-9))
    out_csv.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    assert "rho2" in run.gate(0, out_csv, ref)
    assert "exit code" in run.gate(3, out_csv, ref)


def test_missing_target_is_named(monkeypatch):
    import crbem  # noqa: F401

    monkeypatch.setitem(layers.TARGETS, ("crbem.mesh", "no_such_fn"), "mesh")
    with pytest.raises(LookupError, match="crbem.mesh.no_such_fn"):
        layers.Tracer().install()


def test_every_target_runs_on_some_workload():
    run.check_idle_sets()


def test_finest_graded_counts():
    from crbem import assembly, graded_square_mesh, uniform_refine

    fine, _ = uniform_refine(graded_square_mesh(16, 2.0))
    counts = layers.mesh_counts(fine, assembly.SINGULAR_ASPECT_LIMIT)
    assert counts == {"identical": 2048, "edge": 3008, "vertex": 10760,
                      "anisotropic": 768}


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "uniform-singular", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_hang_guard_is_not_a_gate_failure(tmp_path):
    with pytest.raises(run.ChildTimeout):
        run.spawn(str(tmp_path), None, False, 0.001)
    assert not issubclass(run.ChildTimeout, run.ChildFailure)
