import csv
import io
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbem.adaptive import (
    CSV_COLUMNS,
    EXPERIMENTS,
    ExperimentConfig,
    LevelRecord,
    doerfler_mark,
    emit_csv,
    emit_svg_plot,
    fit_rate,
    run_experiment,
)
from crbem.cli import main


class TestDoerflerMark:
    def test_greedy_prefix(self):
        marked, converged = doerfler_mark([4.0, 3.0, 2.0, 1.0], 0.5)
        assert not converged
        assert set(marked) == {0, 1}

    def test_theta_near_one_marks_everything(self):
        marked, _ = doerfler_mark([4.0, 3.0, 2.0, 1.0], 0.999999)
        assert set(marked) == {0, 1, 2, 3}

    def test_tie_break_by_index(self):
        marked, _ = doerfler_mark([1.0, 1.0, 1.0, 1.0], 0.5)
        assert list(marked) == [0, 1]

    def test_all_zero_flags_converged(self):
        marked, converged = doerfler_mark([0.0, 0.0], 0.5)
        assert converged
        assert len(marked) == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            doerfler_mark([1.0, -2.0], 0.5)
        with pytest.raises(ValueError):
            doerfler_mark([1.0], 0.0)
        with pytest.raises(ValueError):
            doerfler_mark([1.0], 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=60),
           st.floats(min_value=0.01, max_value=0.99))
    def test_marking_is_valid_and_minimal(self, indicators, theta):
        indicators = np.asarray(indicators)
        total = indicators.sum()
        marked, converged = doerfler_mark(indicators, theta)
        if converged:
            assert total == 0.0
            return
        assert indicators[marked].sum() >= theta * total * (1 - 1e-12)
        if len(marked) > 1:
            smallest = marked[np.argmin(indicators[marked])]
            rest = [m for m in marked if m != smallest]
            assert indicators[rest].sum() < theta * total

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2,
                    max_size=40),
           st.floats(min_value=0.05, max_value=0.9),
           st.floats(min_value=0.05, max_value=0.9))
    def test_theta_monotonicity(self, indicators, t1, t2):
        indicators = np.asarray(indicators)
        if indicators.sum() == 0.0:
            return
        lo, hi = sorted([t1, t2])
        m_lo, _ = doerfler_mark(indicators, lo)
        m_hi, _ = doerfler_mark(indicators, hi)
        assert len(m_lo) <= len(m_hi)


def synthetic_history(ns, values, quantity="mu_tilde2"):
    return [LevelRecord(level=k, n_coarse=n, n_fine=4 * n, eta2=v,
                        eta_tilde2=v, mu2=v, mu_tilde2=v, rho2=v,
                        rho_hat2=v, conf_gap2=v, wall_ms=1.0)
            for k, (n, v) in enumerate(zip(ns, values))]


class TestFitRate:
    def test_exact_power_law(self):
        ns = np.array([10, 40, 160, 640, 2560])
        hist = synthetic_history(ns, ns ** -0.5)
        assert fit_rate(hist, "mu_tilde2") == pytest.approx(-0.5, abs=1e-12)

    def test_constant_series(self):
        ns = np.array([10, 40, 160, 640])
        hist = synthetic_history(ns, np.full(4, 3.3))
        assert fit_rate(hist, "mu_tilde2") == pytest.approx(0.0, abs=1e-12)

    def test_intercept_invariance(self):
        ns = np.array([10, 40, 160, 640])
        for c in (0.1, 7.0):
            hist = synthetic_history(ns, c * ns ** -0.25)
            assert fit_rate(hist, "eta2") == pytest.approx(-0.25, abs=1e-12)

    def test_nonpositive_rejected_with_level(self):
        ns = np.array([10, 40, 160, 640])
        vals = np.array([1.0, 0.5, 0.0, 0.25])
        hist = synthetic_history(ns, vals)
        with pytest.raises(ValueError, match="level 2"):
            fit_rate(hist, "eta2")

    def test_too_short(self):
        hist = synthetic_history([10], [1.0])
        with pytest.raises(ValueError):
            fit_rate(hist, "eta2")


class TestOutputs:
    def test_csv_schema_and_round_trip(self):
        ns = np.array([10, 40, 160])
        hist = synthetic_history(ns, ns ** -0.5)
        buf = io.StringIO()
        emit_csv(hist, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 4
        for row, rec in zip(rows[1:], hist):
            assert int(row[0]) == rec.level
            assert float(row[3]) == pytest.approx(rec.eta2, rel=1e-15)

    def test_csv_columns_hold_their_own_fields(self):
        # eleven distinct values, one per column, so that a column written
        # from another field shows
        hist = [LevelRecord(
            level=3, n_coarse=17, n_fine=71, eta2=0.25, eta_tilde2=0.375,
            mu2=0.5, mu_tilde2=0.625, rho2=0.75, rho_hat2=0.875,
            conf_gap2=1.125, wall_ms=12.5)]
        buf = io.StringIO()
        emit_csv(hist, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert dict(zip(rows[0], rows[1])) == {
            "level": "3", "N_coarse": "17", "N_fine": "71", "eta2": "0.25",
            "eta_tilde2": "0.375", "mu2": "0.5", "mu_tilde2": "0.625",
            "rho2": "0.75", "rho_hat2": "0.875", "conf_gap2": "1.125",
            "wall_ms": "12.5"}

    def test_csv_empty_fields_for_missing(self):
        hist = [LevelRecord(
            level=0, n_coarse=8, n_fine=None, eta2=None, eta_tilde2=None,
            mu2=None, mu_tilde2=None, rho2=1.0, rho_hat2=None,
            conf_gap2=0.5, wall_ms=1.0)]
        buf = io.StringIO()
        emit_csv(hist, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[1][2] == ""  # N_fine
        assert rows[1][3] == ""  # eta2

    def test_svg_well_formed_with_polylines(self):
        ns = np.array([10, 40, 160, 640])
        hist = synthetic_history(ns, ns ** -0.5)
        buf = io.StringIO()
        emit_svg_plot(hist, buf)
        root = ET.fromstring(buf.getvalue())
        polylines = [el for el in root.iter()
                     if el.tag.endswith("polyline")]
        # one per plotted quantity plus the guide line
        assert len(polylines) == 8


@pytest.mark.slow
class TestAdaptiveLoop:
    def test_theta_near_one_reproduces_uniform(self):
        cfg_a = ExperimentConfig(experiment="adaptive-smooth", theta=0.999999,
                                 max_levels=2, max_fine_dofs=2000)
        hist_a = run_experiment(cfg_a)
        cfg_u = ExperimentConfig(experiment="uniform-smooth",
                                 max_levels=3, max_fine_dofs=2000)
        hist_u = run_experiment(cfg_u)
        for ra, ru in zip(hist_a, hist_u):
            assert ra.n_coarse == ru.n_coarse
            assert ra.eta2 == pytest.approx(ru.eta2, rel=1e-9)

    def test_adaptive_ncoarse_nondecreasing(self):
        cfg = ExperimentConfig(experiment="adaptive-smooth", theta=0.5,
                               max_levels=6, max_fine_dofs=1500)
        hist = run_experiment(cfg)
        ns = [r.n_coarse for r in hist]
        assert all(b >= a for a, b in zip(ns, ns[1:]))
        assert len(hist) >= 3

    def test_determinism_bit_identical_csv(self):
        def run_once():
            cfg = ExperimentConfig(experiment="adaptive-singular", theta=0.5,
                                   max_levels=4, max_fine_dofs=1200)
            hist = run_experiment(cfg)
            buf = io.StringIO()
            emit_csv(hist, buf)
            # wall-clock column is the only nondeterministic one
            rows = [",".join(line.split(",")[:-1])
                    for line in buf.getvalue().splitlines()]
            return "\n".join(rows)

        assert run_once() == run_once()

    def test_indicator_identity_along_loop(self):
        from crbem.estimators import solve_pair, estimator_report
        from crbem.adaptive import _first_level
        cfg = ExperimentConfig(experiment="adaptive-smooth", theta=0.5,
                               max_levels=3, max_fine_dofs=1500)
        level = _first_level(cfg)
        for _ in range(3):
            pair = solve_pair(level)
            rec, indicators = estimator_report(pair)
            total = rec.mu_tilde2 + rec.rho2 + rec.rho_hat2
            assert indicators.sum() == pytest.approx(total, rel=1e-10)
            marked, _ = doerfler_mark(indicators, 0.5)
            from crbem import refine_nvb
            level = level.refined(refine_nvb(level.mesh, marked)[0])


@pytest.mark.parametrize("name", ["uniform-exact", "adaptive-smooth",
                                  "graded-smooth"])
def test_levels_of_a_run_share_one_store(name):
    # the fine level and the next coarse level carry the first level's
    # store of class values, so each table of a run evaluates only the
    # classes new to the run
    from crbem.adaptive import _first_level, _next_coarse
    from crbem.estimators import solve_pair
    config = ExperimentConfig(experiment=name)
    level = _first_level(config)
    pair = solve_pair(level)
    following = _next_coarse(config, 0, pair, np.arange(2))
    assert following.mesh.num_triangles > level.mesh.num_triangles
    assert pair.fine.classes is level.classes
    assert following.classes is level.classes


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig(experiment="nope").validate()

    def test_bad_theta(self):
        with pytest.raises(ValueError, match="theta"):
            ExperimentConfig(experiment="adaptive-smooth", theta=1.5).validate()

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            ExperimentConfig(experiment="graded-smooth", beta=0.5).validate()


# History fence: the CSV of every preset at small caps, plus the edge
# cases of the level and DOF limits, recorded from crbem.cli.main by
# running this file as a script (``PYTHONPATH=src python
# tests/test_adaptive.py``), which rewrites FENCE_PATH.
FENCE_PATH = os.path.join(os.path.dirname(__file__), "data",
                          "history_fence.json")
FENCE_CASES = {
    **{f"{name}@300": ["--experiment", name, "--max-fine-dofs", "300",
                       "--levels", "30"] for name in EXPERIMENTS},
    "uniform-smooth@0": ["--experiment", "uniform-smooth",
                         "--max-fine-dofs", "0"],
    "adaptive-smooth@0": ["--experiment", "adaptive-smooth",
                          "--max-fine-dofs", "0"],
    "graded-smooth@0": ["--experiment", "graded-smooth",
                        "--max-fine-dofs", "0"],
    **{f"{name}@300/levels{n}": ["--experiment", name, "--max-fine-dofs",
                                 "300", "--levels", str(n)]
       for name in ("uniform-smooth", "adaptive-singular") for n in (1, 2)},
    "graded-smooth/levels2": ["--experiment", "graded-smooth",
                              "--levels", "2"],
    "graded-smooth/beta3@300": ["--experiment", "graded-smooth", "--beta",
                                "3", "--max-fine-dofs", "300", "--levels",
                                "30"],
    # marking decided by rounding ties, over a chain of NVB tables that
    # the run's store of singular class values serves
    "adaptive-smooth@1000": ["--experiment", "adaptive-smooth",
                             "--max-fine-dofs", "1000", "--levels", "30"],
    # the benchmark's cap: power data on the reflection's DOF orbits, up to
    # the 512-panel table
    "uniform-singular@3000": ["--experiment", "uniform-singular",
                              "--max-fine-dofs", "3000", "--levels", "30"],
}
FENCE_EXACT = ("level", "N_coarse", "N_fine")


def run_fence_case(args, out_csv):
    """Exit code, header and rows (without wall_ms) of one CLI run."""
    code = main(["run", *args, "--quiet", "--out-csv", str(out_csv)])
    if code != 0:
        return {"exit_code": code, "header": None, "rows": []}
    with open(out_csv, newline="") as f:
        rows = list(csv.reader(f))
    keep = [i for i, col in enumerate(rows[0]) if col != "wall_ms"]
    return {"exit_code": code,
            "header": [rows[0][i] for i in keep],
            "rows": [[row[i] for i in keep] for row in rows[1:]]}


@pytest.mark.parametrize("case", list(FENCE_CASES))
def test_history_fence(case, tmp_path):
    with open(FENCE_PATH) as f:
        want = json.load(f)[case]
    got = run_fence_case(FENCE_CASES[case], tmp_path / "out.csv")
    assert got["exit_code"] == want["exit_code"]
    assert got["header"] == want["header"]
    assert len(got["rows"]) == len(want["rows"])
    for row, ref in zip(got["rows"], want["rows"]):
        for col, a, b in zip(want["header"], row, ref):
            if col in FENCE_EXACT or a == "" or b == "":
                assert a == b, (row[0], col)
            else:
                assert abs(float(a) - float(b)) <= 1e-12 * abs(float(b)), (
                    row[0], col, a, b)


def test_graded_beta_one_equals_uniform(tmp_path):
    # beta = 1 moves no vertex, so the graded branch of the loop must build
    # the meshes the uniform branch reuses and report the same numbers
    args = ["--max-fine-dofs", "1200", "--levels", "30"]
    uniform = run_fence_case(["--experiment", "uniform-smooth", *args],
                             tmp_path / "u.csv")
    graded = run_fence_case(["--experiment", "graded-smooth", "--beta", "1",
                             *args], tmp_path / "g.csv")
    assert uniform["exit_code"] == graded["exit_code"] == 0
    assert graded["header"] == uniform["header"]
    # uniform adds its coarse-only tail level
    assert len(graded["rows"]) == 3 and len(uniform["rows"]) == 4
    assert graded["rows"] == uniform["rows"][:3]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        fence = {case: run_fence_case(args, os.path.join(tmp, "out.csv"))
                 for case, args in FENCE_CASES.items()}
    os.makedirs(os.path.dirname(FENCE_PATH), exist_ok=True)
    with open(FENCE_PATH, "w") as f:
        json.dump(fence, f, indent=1)
        f.write("\n")
