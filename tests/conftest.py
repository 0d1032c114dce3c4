import numpy as np
import pytest

from crbem import (
    build_initial_square_mesh,
    uniform_refine,
    refine_nvb,
    conforming_space,
    CoefVec,
)
from crbem.spaces import curl_field
from crbem.estimators import Level, solve_pair


@pytest.fixture
def initial_mesh():
    return build_initial_square_mesh()


@pytest.fixture
def refined_once(initial_mesh):
    fine, _ = uniform_refine(initial_mesh)
    return initial_mesh, fine


@pytest.fixture(scope="session")
def center_hat_recipe():
    mesh0 = build_initial_square_mesh()
    space0 = conforming_space(mesh0)
    w = curl_field(CoefVec(space0, np.ones(space0.dof_count)))
    source = (mesh0.triangle_coords(), w.values)
    return ("manufactured", w, source), mesh0


@pytest.fixture(scope="session")
def pair_manufactured(center_hat_recipe):
    recipe, mesh0 = center_hat_recipe
    return solve_pair(Level(mesh0, recipe))


@pytest.fixture(scope="session")
def pair_constant():
    mesh0 = build_initial_square_mesh()
    mesh1, _ = uniform_refine(mesh0)
    return solve_pair(Level(mesh1, ("constant",)))


@pytest.fixture(scope="session")
def pair_power():
    mesh0 = build_initial_square_mesh()
    mesh, _ = refine_nvb(mesh0, [0])
    return solve_pair(Level(mesh, ("power", -0.6)))


@pytest.fixture(scope="session")
def fixture_pairs(pair_manufactured, pair_constant, pair_power):
    return {
        "manufactured": pair_manufactured,
        "constant": pair_constant,
        "power": pair_power,
    }
