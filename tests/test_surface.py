"""Every exported function must be reached by some experiment preset.

A function that no run calls is dead weight in the public surface: it
either belongs next to the test that uses it, or it should go.
"""

import inspect
import sys

import crbem
from crbem.adaptive import EXPERIMENTS
from crbem.cli import main

# exported on purpose although no preset calls them
UNREACHED_BY_DESIGN = {
    # the entry point of the panel-pair oracle tests: one pair, any shape
    "panel_integral",
}


def test_every_export_is_reached(tmp_path):
    exported = {getattr(crbem, name).__code__: name
                for name in crbem.__all__
                if inspect.isfunction(getattr(crbem, name))}
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in exported:
            reached.add(exported[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name in EXPERIMENTS:
            code = main(["run", "--experiment", name,
                         "--max-fine-dofs", "300", "--levels", "30",
                         "--out-csv", str(tmp_path / f"{name}.csv"),
                         "--out-svg", str(tmp_path / f"{name}.svg"),
                         "--dump-meshes", str(tmp_path / name)])
            assert code == 0, name
    finally:
        sys.setprofile(previous)
    unreached = set(exported.values()) - reached - UNREACHED_BY_DESIGN
    assert not unreached, f"exported but never called: {sorted(unreached)}"
    assert UNREACHED_BY_DESIGN <= set(exported.values())
