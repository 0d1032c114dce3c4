import csv
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbem.cli import main
from crbem.adaptive import CSV_COLUMNS, EXPERIMENTS, ExperimentConfig


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.mark.parametrize("args, code, prefix", [
    (["--experiment", "uniform-smooth", "--max-fine-dofs", "100",
      "--levels", "2"], 0, None),
    (["--experiment", "adaptive-smooth", "--theta", "2"], 2, "error: "),
    (["--experiment", "graded-smooth", "--beta", "2000"], 3,
     "numerical failure: "),
], ids=["ok", "bad-config", "numerical-failure"])
def test_module_entry_point(tmp_path, args, code, prefix):
    # the exit codes and messages of ``python -m crbem.cli``, in a process
    # of its own, as a shell sees them
    out_csv = tmp_path / "x.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "crbem.cli", "run", *args, "--quiet",
         "--out-csv", str(out_csv)],
        capture_output=True, text=True, env=env, timeout=300)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
    if prefix is None:
        with open(out_csv, newline="") as f:
            assert next(csv.reader(f)) == list(CSV_COLUMNS)
    else:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
        assert not out_csv.exists()


@pytest.mark.slow
def test_run_writes_csv_and_svg(tmp_path):
    out_csv = tmp_path / "history.csv"
    out_svg = tmp_path / "history.svg"
    dump = tmp_path / "meshes"
    code = main([
        "run", "--experiment", "uniform-smooth", "--levels", "3",
        "--max-fine-dofs", "2000", "--out-csv", str(out_csv),
        "--out-svg", str(out_svg), "--dump-meshes", str(dump), "--quiet",
    ])
    assert code == 0
    with open(out_csv) as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) >= 3
    ET.parse(out_svg)  # well-formed XML
    assert sorted(os.listdir(dump))[0] == "level_00.mesh"

    from meshfile import mesh_io_read
    mesh = mesh_io_read(str(dump / "level_00.mesh"))
    assert mesh.num_triangles == 8


def test_invalid_config_exit_code(tmp_path, capsys):
    code = main([
        "run", "--experiment", "adaptive-smooth", "--theta", "1.5",
        "--out-csv", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "theta" in capsys.readouterr().err


def test_unknown_experiment_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["run", "--experiment", "bogus",
              "--out-csv", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_empty_history_is_a_config_error(tmp_path, capsys):
    code = main([
        "run", "--experiment", "adaptive-smooth", "--max-fine-dofs", "0",
        "--out-csv", str(tmp_path / "x.csv"),
        "--out-svg", str(tmp_path / "x.svg"),
    ])
    assert code == 2
    assert "max-fine-dofs" in capsys.readouterr().err


def _no_run(config):
    raise AssertionError("the experiment ran despite a bad output path")


@pytest.mark.parametrize("flag", ["--out-csv", "--out-svg"])
def test_output_in_missing_directory_is_a_config_error(tmp_path, capsys,
                                                        monkeypatch, flag):
    monkeypatch.setattr("crbem.cli.run_experiment", _no_run)
    paths = {"--out-csv": str(tmp_path / "x.csv"),
             "--out-svg": str(tmp_path / "x.svg")}
    paths[flag] = str(tmp_path / "missing" / "x.out")
    code = main(["run", "--experiment", "uniform-smooth",
                 "--out-csv", paths["--out-csv"],
                 "--out-svg", paths["--out-svg"]])
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err and "does not exist" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag, path", [
    ("--out-csv", ""), ("--out-csv", "newdir/"), ("--out-svg", ""),
    ("--out-svg", "newdir/"), ("--dump-meshes", "")])
def test_output_path_naming_nothing_is_a_config_error(tmp_path, capsys,
                                                      monkeypatch, flag, path):
    # an empty path, or a file path that ends in a separator, would pass
    # the directory checks and fail only after the run
    monkeypatch.setattr("crbem.cli.run_experiment", _no_run)
    monkeypatch.chdir(tmp_path)
    args = {"--out-csv": "x.csv", flag: path}
    code = main(["run", "--experiment", "uniform-smooth"]
                + [s for item in args.items() for s in item])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ")
    assert len(err.strip().splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_dump_meshes_onto_a_file_is_a_config_error(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr("crbem.cli.run_experiment", _no_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["run", "--experiment", "uniform-smooth",
                 "--out-csv", str(tmp_path / "x.csv"),
                 "--dump-meshes", str(taken)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--dump-meshes" in err and "not a directory" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags", [
    ("--out-csv", "out.csv", "--dump-meshes", "out.csv"),
    ("--out-csv", "o.txt", "--out-svg", "o.txt"),
], ids=["csv-is-dump-dir", "csv-is-svg"])
def test_colliding_output_paths_are_a_config_error(tmp_path, capsys,
                                                    monkeypatch, flags):
    # either the CSV lands in a directory the run made, or the SVG
    # overwrites it
    monkeypatch.setattr("crbem.cli.run_experiment", _no_run)
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--experiment", "uniform-exact", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} and {flags[2]} name the same")
    assert len(err.strip().splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_degenerate_grading_is_a_numerical_failure(tmp_path, capsys):
    code = main([
        "run", "--experiment", "graded-smooth", "--beta", "400",
        "--levels", "3", "--out-csv", str(tmp_path / "x.csv"),
    ])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["1024", "1e308"])
def test_overflowing_grading_is_one_failure_line(tmp_path, capsys, beta):
    # (2t)^beta overflows for t > 1/2 before np.where drops that branch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "run", "--experiment", "graded-smooth", "--beta", beta,
            "--levels", "3", "--out-csv", str(tmp_path / "x.csv"),
        ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: graded mesh")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.slow
def test_runaway_robust_path_is_a_numerical_failure(tmp_path, capsys):
    # beta = 50 slivers never settle; the live-cell cap stops the run
    code = main([
        "run", "--experiment", "graded-smooth", "--beta", "50",
        "--levels", "4", "--out-csv", str(tmp_path / "x.csv"),
    ])
    assert code == 3
    assert "robust panel quadrature did not settle" in capsys.readouterr().err


def test_out_of_memory_is_a_numerical_failure(tmp_path, capsys,
                                              monkeypatch):
    # as the next uniform level's 32768 x 32768 table would fail, without
    # allocating it
    def out_of_memory(config):
        raise MemoryError("Unable to allocate 8.00 GiB for an array with "
                          "shape (32768, 32768) and data type float64")

    monkeypatch.setattr("crbem.cli.run_experiment", out_of_memory)
    code = main(["run", "--experiment", "uniform-singular",
                 "--out-csv", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory: Unable to "
                          "allocate 8.00 GiB")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


# beta stays at most 8: stronger grading makes the robust path slow (about
# 20 s at beta = 20 on a 32-panel mesh); beta = 50 and 400 have own tests
@settings(max_examples=25, deadline=None)
@given(experiment=st.sampled_from(EXPERIMENTS),
       theta=st.floats(0.0, 1.2), beta=st.floats(0.5, 8.0),
       levels=st.integers(0, 3), max_fine_dofs=st.integers(0, 300))
def test_cli_contract(experiment, theta, beta, levels, max_fine_dofs):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", "--experiment", experiment, "--theta", repr(theta),
                "--beta", repr(beta), "--levels", str(levels),
                "--max-fine-dofs", str(max_fine_dofs), "--quiet",
                "--out-csv", os.path.join(tmp, "x.csv")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            assert exc.code == 2
        else:
            assert code in (0, 2, 3)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_negative_dof_cap_is_a_config_error(tmp_path, capsys, experiment):
    # before the fix, uniform presets wrote the initial mesh for a cap of
    # -5 and the others reported that no level fits; a cap of 0 stays valid
    code = main(["run", "--experiment", experiment, "--max-fine-dofs", "-5",
                 "--quiet", "--out-csv", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_fine_dofs must be at least 0")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_non_finite_beta_is_a_config_error(tmp_path, capsys, monkeypatch,
                                           beta):
    monkeypatch.setattr("crbem.cli.run_experiment", _no_run)
    code = main(["run", "--experiment", "graded-smooth", "--beta", beta,
                 "--out-csv", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "beta" in err and "finite" in err
    assert len(err.strip().splitlines()) == 1


class _Captured(Exception):
    pass


def test_minimal_run_uses_the_config_defaults(tmp_path, monkeypatch):
    def capture(config):
        raise _Captured(config)

    monkeypatch.setattr("crbem.cli.run_experiment", capture)
    for experiment in EXPERIMENTS:
        with pytest.raises(_Captured) as caught:
            main(["run", "--experiment", experiment,
                  "--out-csv", str(tmp_path / "x.csv")])
        assert caught.value.args[0] == ExperimentConfig(experiment=experiment)
