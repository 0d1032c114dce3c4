"""Nonconforming boundary elements on the unit-square screen.

Crouzeix-Raviart discretization of the hypersingular integral equation in
curl form, two-level (h-h/2) a posteriori error estimators, and an
adaptive newest-vertex-bisection refinement loop.
"""

from .mesh import (
    Mesh,
    build_initial_square_mesh,
    refine_nvb,
    uniform_refine,
    graded_square_mesh,
    mesh_io_write,
)
from .spaces import (
    DofSpace,
    CoefVec,
    PwConstVecField,
    EdgeJumpField,
    cr_space,
    conforming_space,
    curl_field,
    embed_coarse_in_fine,
    jump_field,
    clement_interpolate,
    project_pwconst,
)
from .assembly import (
    EnergyForm,
    QuadratureRule,
    quadrature_rule,
    panel_integral,
    assemble_energy_form,
    energy_inner,
    assemble_stiffness,
    assemble_rhs_constant,
    assemble_rhs_power,
    assemble_rhs_manufactured,
)
from .estimators import (
    NumericalError,
    Level,
    SolvePair,
    LevelRecord,
    solve_spd,
    solve_pair,
    estimator_eta,
    estimator_eta_tilde,
    estimator_mu,
    estimator_mu_tilde,
    jump_term,
    conf_gap,
    estimator_report,
)
from .adaptive import (
    ExperimentConfig,
    doerfler_mark,
    run_experiment,
    fit_rate,
    emit_csv,
    emit_svg_plot,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
