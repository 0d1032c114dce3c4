import csv
import os
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbem.cli import main
from crbem.adaptive import CSV_COLUMNS, EXPERIMENTS


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

    from crbem import mesh_io_read
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


def test_degenerate_grading_is_a_numerical_failure(tmp_path, capsys):
    code = main([
        "run", "--experiment", "graded-smooth", "--beta", "400",
        "--levels", "3", "--out-csv", str(tmp_path / "x.csv"),
    ])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.slow
def test_runaway_robust_path_is_a_numerical_failure(tmp_path, capsys):
    # beta = 50 slivers never settle; the live-cell cap stops the run
    code = main([
        "run", "--experiment", "graded-smooth", "--beta", "50",
        "--levels", "4", "--out-csv", str(tmp_path / "x.csv"),
    ])
    assert code == 3
    assert "robust panel quadrature did not settle" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["2", "10"])
def test_quad_order_out_of_range(tmp_path, capsys, order):
    code = main([
        "run", "--experiment", "uniform-smooth", "--quad-order", order,
        "--out-csv", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "quadrature order" in capsys.readouterr().err


# beta stays at most 8: stronger grading makes the robust path slow (about
# 20 s at beta = 20 on a 32-panel mesh); beta = 50 and 400 have own tests
@settings(max_examples=25, deadline=None)
@given(experiment=st.sampled_from(EXPERIMENTS),
       theta=st.floats(0.0, 1.2), beta=st.floats(0.5, 8.0),
       levels=st.integers(0, 3), max_fine_dofs=st.integers(0, 300),
       quad_order=st.integers(1, 11))
def test_cli_contract(experiment, theta, beta, levels, max_fine_dofs,
                      quad_order):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", "--experiment", experiment, "--theta", repr(theta),
                "--beta", repr(beta), "--levels", str(levels),
                "--max-fine-dofs", str(max_fine_dofs),
                "--quad-order", str(quad_order), "--quiet",
                "--out-csv", os.path.join(tmp, "x.csv")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            assert exc.code == 2
        else:
            assert code in (0, 2, 3)
