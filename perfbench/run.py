"""crbem benchmark: convergence presets timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every preset runs ``crbem.cli.main`` in a
fresh child process (``child.py``) with BLAS threads pinned to 1, and its
CSV is checked against ``reference.json``.  Children run one after another
until ``--seconds`` have passed, at least one.  The presets are
deterministic and have no random input, so ``--seed`` selects nothing; it
is echoed in the output.

--trace 0 reports the end-to-end metrics (medians over the run):
  wall_s       seconds from the cli.main call until the CSV is written
  setup_s      seconds from child start until numpy, scipy and crbem are
               imported, over several import-only children
  peak_rss_mb  ru_maxrss of the child running the preset
--trace 1 reports the per-layer metrics of ``layers.py`` from traced
children.  ``failed`` / ``attempted`` in the result line is the failed
share: a child fails on a non-zero exit, an exception or a CSV mismatch.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only if every child passed, and 1 if one failed.  A preset child still
running after ``HANG_GUARD_S`` is taken as hung: the run stops with exit
code 3 and prints no result line, as a timeout is not a correctness
verdict.

``reference.json`` is not written by this script.  It holds the CSVs that
``crbem.cli.main`` wrote at the seed commit for the arguments of
``cli_args``, with the ``BLAS_PIN`` environment.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
import layers  # noqa: E402

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_RUNS = 5          # import-only children per run, after one warm-up
HANG_GUARD_S = 600.0    # about 10x the slowest preset child at the seed
SETUP_GUARD_S = 60.0    # hang guard of an import-only child
REL_TOL = 1e-12         # CSV quantities must match the reference this well
EXACT_COLUMNS = ("level", "N_coarse", "N_fine")
RATE_WINDOW = 4         # trailing levels of the mu_tilde2 slope, as crbem
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# name -> (crbem run options, full DOF cap, smoke DOF cap, wrapped
# functions the preset never calls)
WORKLOADS = {
    "uniform-singular": (
        ["--experiment", "uniform-singular"], 3000, 100,
        {"graded_square_mesh", "doerfler_mark", "solve_pair",
         "assemble_rhs_constant"}),
    "adaptive-singular": (
        ["--experiment", "adaptive-singular", "--theta", "0.5"], 1000, 300,
        {"graded_square_mesh", "assemble_rhs_constant"}),
    "graded-smooth": (
        ["--experiment", "graded-smooth", "--beta", "2"], 8000, 300,
        {"doerfler_mark", "assemble_rhs_power"}),
}


def reference_key(workload, smoke):
    return f"{workload}@smoke" if smoke else workload


def cli_args(workload, smoke, out_csv):
    options, cap, smoke_cap, _ = WORKLOADS[workload]
    return ["run", *options, "--max-fine-dofs", str(smoke_cap if smoke else cap),
            "--levels", "30", "--quiet", "--out-csv", out_csv]


def check_idle_sets():
    """Every wrapped function must be called by at least one workload."""
    never = set.intersection(*(idle for *_, idle in WORKLOADS.values()))
    unknown = set.union(*(idle for *_, idle in WORKLOADS.values())) - {
        name for _, name in layers.TARGETS}
    if never or unknown:
        raise SystemExit(f"wrapper targets no workload calls: "
                         f"{sorted(never)}; unknown: {sorted(unknown)}")


class ChildFailure(Exception):
    pass


class ChildTimeout(Exception):
    pass


def log(msg):
    print(msg, flush=True)


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def spawn(work, args, trace, timeout):
    """Run one child; return (result dict, monotonic spawn time)."""
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, CHILD, "--result", result_path]
    if trace:
        cmd.append("--trace")
    if args:
        cmd += ["--", *args]
    env = dict(os.environ, **BLAS_PIN)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildTimeout(f"child still running after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise ChildFailure(f"child exit {proc.returncode}: {tail}")
    with open(result_path) as f:
        return json.load(f), t_spawn


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    keep = [i for i, col in enumerate(header) if col != "wall_ms"]
    return ([header[i] for i in keep],
            [[row[i] for i in keep] for row in rows[1:]])


def gate(exit_code, out_csv, ref):
    """None if the run matches the reference, else what differs."""
    if exit_code != ref["exit_code"]:
        return f"exit code {exit_code}, reference {ref['exit_code']}"
    header, rows = read_csv(out_csv)
    if header != ref["header"]:
        return f"CSV columns {header}, reference {ref['header']}"
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} levels, reference {len(ref['rows'])}"
    for got, want in zip(rows, ref["rows"]):
        for col, a, b in zip(header, got, want):
            if col in EXACT_COLUMNS or a == "" or b == "":
                same = a == b
            else:
                same = abs(float(a) - float(b)) <= REL_TOL * abs(float(b))
            if not same:
                return f"level {got[0]} {col}: {a!r}, reference {b!r}"
    return None


def mu_tilde2_slope(out_csv):
    """Trailing slope of log mu_tilde2 against log N_coarse."""
    header, rows = read_csv(out_csv)
    n, mu = header.index("N_coarse"), header.index("mu_tilde2")
    pts = [(math.log(float(r[n])), math.log(float(r[mu])))
           for r in rows if r[mu] != ""][-RATE_WINDOW:]
    if len(pts) < 2:
        return float("nan")
    return statistics.linear_regression(*zip(*pts)).slope


def run_workload(workload, seconds, trace, smoke):
    """Run children until ``seconds`` pass; return the result object."""
    with open(REFERENCE) as f:
        ref = json.load(f)[reference_key(workload, smoke)]
    with workdir() as work:
        return _run(workload, seconds, trace, smoke, ref, work)


def _run(workload, seconds, trace, smoke, ref, work):
    idle = WORKLOADS[workload][3]
    setup, walls, rss, layer_samples = [], [], [], []
    if not trace:
        spawn(work, None, False, SETUP_GUARD_S)  # warm-up: file caches
        for _ in range(SETUP_RUNS):
            result, t_spawn = spawn(work, None, False, SETUP_GUARD_S)
            setup.append(result["ready"] - t_spawn)
    out_csv = os.path.join(work, "out.csv")
    args = cli_args(workload, smoke, out_csv)
    attempted = failed = 0
    start = time.monotonic()
    while True:
        attempted += 1
        try:
            result, t_spawn = spawn(work, args, trace, HANG_GUARD_S)
            problem = gate(result["exit_code"], out_csv, ref)
            if problem is None and trace:
                quiet = [layers.target_name(t) for t in layers.TARGETS
                         if t[1] not in idle
                         and result["calls"][layers.target_name(t)] == 0]
                if quiet:
                    problem = "wrapped functions never called: " + ", ".join(quiet)
        except ChildFailure as exc:
            problem = str(exc)
        if problem is not None:
            failed += 1
            log(f"child {attempted}: FAILED: {problem}")
        else:
            log(f"child {attempted}: wall {result['wall_s']:.3f} s, "
                f"peak RSS {result['peak_rss_mb']:.1f} MB, "
                f"mu_tilde2 slope {mu_tilde2_slope(out_csv):+.3f}")
            if trace:
                layer_samples.append(result["layers"])
                for level, counts in enumerate(result["mesh_counts"]):
                    log(f"  assembly {level}: {counts}")
            else:
                setup.append(result["ready"] - t_spawn)
                walls.append(result["wall_s"])
                rss.append(result["peak_rss_mb"])
        if time.monotonic() - start >= seconds:
            break

    if trace:
        units = layers.METRICS
        values = layers.median_metrics(layer_samples) if layer_samples else {}
    else:
        units = E2E_UNITS
        values = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
        values = {k: statistics.median(v) for k, v in values.items() if v}
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny DOF caps, for testing the harness")
    args = parser.parse_args(argv)
    # subprocess.run kills and reaps its child when an exception unwinds it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(ROOT, "src", "crbem", "__init__.py")):
        print(f"error: no crbem sources under {ROOT}/src", file=sys.stderr)
        return 2
    check_idle_sets()

    log(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
        f"{'  smoke' if args.smoke else ''}")
    try:
        out = run_workload(args.workload, args.seconds, bool(args.trace),
                           args.smoke)
    except ChildFailure as exc:  # an import-only child failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ChildTimeout as exc:
        print(f"error: hang guard: {exc}", file=sys.stderr)
        return 3
    log(f"failed_share {out['failed']}/{out['attempted']}")
    for name, m in out["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        log(f"{name:36s} {value:>14s} {m['unit']}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
