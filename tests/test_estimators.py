import copy
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from crbem import (
    CoefVec,
    NumericalError,
    assemble_rhs_manufactured,
    assemble_stiffness,
    build_initial_square_mesh,
    conf_gap,
    cr_space,
    curl_field,
    energy_inner,
    estimator_eta,
    estimator_eta_tilde,
    estimator_mu,
    estimator_mu_tilde,
    estimator_report,
    graded_square_mesh,
    jump_term,
    refine_nvb,
    solve_spd,
    uniform_refine,
)
from crbem import estimators
from crbem.assembly import REFLECTION, TURN, panel_map
from crbem.spaces import PwConstVecField, dof_map, jump_field
from crbem.estimators import Level, SolvePair

from conforming import conforming_to_cr, prolong_conforming


def conforming_component(phi, form, conf_space):
    """a-orthogonal projection of a CR function onto the conforming space:
    solves a(phi0, psi) = a(phi, psi) for all conforming psi."""
    w = curl_field(phi)
    source = (form.mesh.triangle_coords(), w.values)  # read by CR only
    b = assemble_rhs_manufactured(form, conf_space, w, source)
    a = assemble_stiffness(form, conf_space)
    return CoefVec(conf_space, solve_spd(a, b))


@pytest.fixture(scope="module")
def graded_stiffness():
    """CR stiffness matrix and load vector of the refined graded mesh (512
    panels, beta = 2)."""
    level = Level(uniform_refine(graded_square_mesh(8, 2.0))[0],
                  ("power", -0.6))
    return assemble_stiffness(level.form, level.cr), level.load_cr


class TestSolveSpd:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.allclose(solve_spd(np.eye(3), b), b)

    def test_one_by_one(self):
        assert solve_spd(np.array([[4.0]]), np.array([2.0]))[0] == pytest.approx(0.5)

    def test_random_spd(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((50, 50))
        a = m.T @ m + np.eye(50)
        x = solve_spd(a, a @ np.ones(50))
        assert np.abs(x - 1.0).max() < 1e-9

    def test_non_spd_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NumericalError):
            solve_spd(a, np.ones(2))

    def test_bad_residual_rejected(self):
        # factors, but the solution has a relative residual near 2e-9
        with pytest.raises(NumericalError, match="solver residual"):
            solve_spd(sla.hilbert(12), np.ones(12))

    def test_factors_in_place(self, graded_stiffness):
        # the in-place factorization is the one of a copy, bit for bit,
        # and no second n x n array is allocated
        a, b = graded_stiffness
        want = sla.cho_solve(sla.cho_factor(a.copy()), b)
        a = a.copy()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            x = solve_spd(a, b)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.array_equal(x, want)
        assert peak < a.nbytes / 4


class TestSolvePair:
    def test_manufactured_coarse_conforming_is_exact(self, pair_manufactured):
        assert pair_manufactured.coarse.phi0.values == pytest.approx(
            [1.0], abs=1e-10)

    def test_partial_orthogonality(self, fixture_pairs):
        for name, pair in fixture_pairs.items():
            wphi = curl_field(pair.coarse.phi)
            a_phi = energy_inner(pair.coarse.form, wphi, wphi)
            what = curl_field(pair.fine.phi)
            conf = pair.coarse.conf
            for i in range(conf.dof_count):
                psi = CoefVec(conf, np.eye(conf.dof_count)[i])
                psi_fine = prolong_conforming(psi, pair.fine.mesh)
                lhs = energy_inner(pair.fine.form, what, curl_field(psi_fine))
                rhs = energy_inner(pair.coarse.form, wphi, curl_field(psi))
                f_psi = pair.coarse.load_conf[i]
                assert abs(lhs - rhs) <= 1e-8 * (a_phi + abs(f_psi)), name

    def test_conforming_component_equals_direct_solve(self, fixture_pairs):
        for name, pair in fixture_pairs.items():
            proj = conforming_component(pair.coarse.phi, pair.coarse.form,
                                        pair.coarse.conf)
            scale = np.abs(pair.coarse.phi0.values).max() + 1e-30
            assert np.abs(proj.values - pair.coarse.phi0.values).max() < (
                1e-9 * max(scale, 1.0)), name

    def test_conforming_component_projection_identity(self, pair_constant):
        pair = pair_constant
        conf = pair.coarse.conf
        rng = np.random.default_rng(1)
        psi = CoefVec(conf, rng.standard_normal(conf.dof_count))
        as_cr = conforming_to_cr(psi)
        proj = conforming_component(as_cr, pair.coarse.form, conf)
        assert np.abs(proj.values - psi.values).max() < 1e-10

    def test_conforming_component_orthogonality(self, pair_constant):
        pair = pair_constant
        w_cr = curl_field(pair.coarse.phi)
        w_cf = curl_field(pair.coarse.phi0)
        d = PwConstVecField(pair.coarse.mesh, w_cr.values - w_cf.values)
        cross = energy_inner(pair.coarse.form, d, w_cf)
        a_phi = energy_inner(pair.coarse.form, w_cr, w_cr)
        assert abs(cross) <= 1e-9 * a_phi


class TestLevelRefined:
    @pytest.fixture(scope="class")
    def exact_level(self):
        from crbem.adaptive import ExperimentConfig, _first_level
        return _first_level(ExperimentConfig(experiment="uniform-exact"))

    def test_children_take_their_parents_data(self, exact_level):
        fine = uniform_refine(exact_level.mesh)[0]
        w = exact_level.refined(fine).data[1].values
        assert np.array_equal(w, exact_level.data[1].values[fine.parent])

    def test_mesh_without_parents_rejected(self, exact_level):
        # 32 panels, as the uniform refinement, but no parents
        mesh = graded_square_mesh(4, 2.0)
        assert mesh.num_triangles == 32
        with pytest.raises(ValueError, match="not a refinement"):
            exact_level.refined(mesh)

    def test_refinement_of_another_mesh_rejected(self, exact_level):
        fine = uniform_refine(exact_level.mesh)[0]
        with pytest.raises(ValueError, match="not a refinement"):
            exact_level.refined(uniform_refine(fine)[0])


def _uniform_mesh(panels):
    mesh = build_initial_square_mesh()
    while mesh.num_triangles < panels:
        mesh = uniform_refine(mesh)[0]
    return mesh


# (space, solution, load) attributes of a Level
_SOLVES = [("cr", "phi", "load_cr"), ("conf", "phi0", "load_conf")]


def _check_full_solve_energies(level, names):
    """load . phi and the energy of the level's solution match those of
    the full solve to 1e-12 relative."""
    space, phi, load = (getattr(level, name) for name in names)
    full = CoefVec(space, solve_spd(assemble_stiffness(level.form, space),
                                    load))
    for x in (phi, full):
        assert np.abs(x.values).max() > 0.0
    assert load @ phi.values == pytest.approx(load @ full.values,
                                              rel=1e-12, abs=0.0)

    def energy(x):
        w = curl_field(x)
        return energy_inner(level.form, w, w)

    assert energy(phi) == pytest.approx(energy(full), rel=1e-12, abs=0.0)


class TestReducedSolve:
    """Constant data on a table with the quarter turn, and power data on
    one that the reflection y -> 1 - y maps onto itself too: the Galerkin
    solve on the DOF-orbit indicators."""

    @pytest.fixture(scope="class", params=["uniform", "graded"])
    def level(self, request):
        mesh = (_uniform_mesh(512) if request.param == "uniform"
                else uniform_refine(graded_square_mesh(8, 2.0))[0])
        assert mesh.num_triangles == 512
        level = Level(mesh, ("constant",))
        assert level.form.sigma is not None
        return level

    @pytest.mark.parametrize("names", _SOLVES, ids=["cr", "conforming"])
    def test_lifted_solution_is_turn_invariant(self, level, names):
        space, x = getattr(level, names[0]), getattr(level, names[1]).values
        img = dof_map(space, level.form.sigma, TURN.slots)
        assert np.array_equal(x[img], x)

    @pytest.mark.parametrize("names", _SOLVES, ids=["cr", "conforming"])
    def test_energies_match_the_full_solve(self, level, names):
        _check_full_solve_energies(level, names)

    @pytest.fixture(scope="class")
    def power_level(self):
        level = Level(_uniform_mesh(512), ("power", -0.6))
        assert level.mesh.num_triangles == 512
        assert level.form.sigma is not None
        return level

    @pytest.mark.parametrize("names", _SOLVES, ids=["cr", "conforming"])
    def test_lifted_power_solution_is_reflection_invariant(self, power_level,
                                                           names):
        level = power_level
        space, x = getattr(level, names[0]), getattr(level, names[1]).values
        rho = panel_map(level.mesh.triangle_coords(), REFLECTION)
        img = dof_map(space, rho, REFLECTION.slots)
        assert not np.array_equal(img, np.arange(len(img)))
        assert np.array_equal(x[img], x)
        # x^-0.6 is not turn-invariant, and neither is the solution
        turn = dof_map(space, level.form.sigma, TURN.slots)
        assert np.abs(x[turn] - x).max() > 1e-3 * np.abs(x).max()

    @pytest.mark.parametrize("names", _SOLVES, ids=["cr", "conforming"])
    def test_power_energies_match_the_full_solve(self, power_level, names):
        _check_full_solve_energies(power_level, names)

    @pytest.mark.parametrize("case", ["constant", "power", "no turn",
                                      "small table", "power, no turn"])
    def test_which_solves_are_reduced(self, monkeypatch, case):
        mesh = _uniform_mesh(32 if case == "small table" else 128)
        if case == "no turn":
            mesh = refine_nvb(mesh, [0])[0]
        elif case == "power, no turn":
            # an NVB mesh that the reflection maps onto itself, but not
            # the turn
            rho = panel_map(mesh.triangle_coords(), REFLECTION)
            mesh = refine_nvb(mesh, [0, rho[0]])[0]
            assert panel_map(mesh.triangle_coords(), REFLECTION) is not None
        data = (("power", -0.6) if case.startswith("power")
                else ("constant",))
        level = Level(mesh, data)
        sizes = []

        def counted(a, b):
            sizes.append(len(a))
            return solve_spd(a, b)

        monkeypatch.setattr(estimators, "solve_spd", counted)
        level.phi, level.phi0
        assert (level.form.sigma is None) == (case in (
            "no turn", "small table", "power, no turn"))
        full = [level.cr.dof_count, level.conf.dof_count]
        if case == "constant":
            # 4 DOFs an orbit, the center vertex alone
            assert sizes == [full[0] // 4, (full[1] + 3) // 4]
        elif case == "power":
            # 2 DOFs an orbit, the edge midpoints and nodes on y = 1/2
            # alone
            mesh = level.mesh
            alone = [(points[space.dof_to_entity][:, 1] == 0.5).sum()
                     for points, space in ((mesh.edge_midpoints, level.cr),
                                           (mesh.vertices, level.conf))]
            assert sizes == [(n + k) // 2 for n, k in zip(full, alone)]
            assert sizes == [92, 28]
        else:
            assert sizes == full


class TestEstimators:
    def test_eta_zero_for_prolongated_solution(self, pair_constant):
        pair = pair_constant
        base = curl_field(pair.coarse.phi)
        fake = SolvePair(pair.coarse, pair.fine)
        fake.fine_curl_diff = PwConstVecField(
            pair.fine.mesh, np.zeros((pair.fine.mesh.num_triangles, 2)))
        assert estimator_eta(fake) == 0.0

    def test_eta_positive(self, fixture_pairs):
        for pair in fixture_pairs.values():
            assert estimator_eta(pair) > 0.0

    def test_eta_tilde_zero_for_coarse_conforming(self, pair_constant):
        pair = pair_constant
        conf = pair.coarse.conf
        rng = np.random.default_rng(2)
        psi = CoefVec(conf, rng.standard_normal(conf.dof_count))
        psi_fine_cr = conforming_to_cr(prolong_conforming(psi, pair.fine.mesh))
        fine = copy.copy(pair.fine)
        fine.phi = psi_fine_cr
        fake = SolvePair(pair.coarse, fine)
        val = estimator_eta_tilde(fake)
        scale = np.sqrt(energy_inner(pair.fine.form, curl_field(psi_fine_cr),
                                     curl_field(psi_fine_cr)))
        assert val <= 1e-6 * max(scale, 1.0)

    def test_mu_single_element_formula(self, pair_constant):
        pair = pair_constant
        mesh = pair.coarse.mesh
        ones = PwConstVecField(
            pair.fine.mesh, np.tile([1.0, 0.0], (pair.fine.mesh.num_triangles, 1)))
        fake = SolvePair(pair.coarse, pair.fine)
        fake.fine_curl_diff = ones
        total, parts = estimator_mu(fake)
        h = np.sqrt(mesh.areas)
        assert np.allclose(parts, h * mesh.areas)
        assert total ** 2 == pytest.approx(parts.sum(), rel=1e-12)

    def test_mu_tilde_le_mu(self, fixture_pairs):
        for name, pair in fixture_pairs.items():
            mu, _ = estimator_mu(pair)
            mu_t, _ = estimator_mu_tilde(pair)
            assert mu_t <= mu * (1 + 1e-12), name

    def test_mu_parts_sum(self, pair_power):
        total, parts = estimator_mu(pair_power)
        assert parts.sum() == pytest.approx(total ** 2, rel=1e-12)
        total_t, parts_t = estimator_mu_tilde(pair_power)
        assert parts_t.sum() == pytest.approx(total_t ** 2, rel=1e-12)

    def test_mu_tilde_zero_for_parentwise_constant_curl(self, pair_constant):
        pair = pair_constant
        rng = np.random.default_rng(3)
        coarse_vals = rng.standard_normal((pair.coarse.mesh.num_triangles, 2))
        fake = SolvePair(pair.coarse, pair.fine)
        fake.fine_curl = PwConstVecField(
            pair.fine.mesh, coarse_vals[pair.fine.mesh.parent])
        total, _ = estimator_mu_tilde(fake)
        assert total < 1e-12

    def test_estimator_ratios_bounded(self, fixture_pairs):
        for name, pair in fixture_pairs.items():
            eta = estimator_eta(pair)
            eta_t = estimator_eta_tilde(pair)
            mu, _ = estimator_mu(pair)
            mu_t, _ = estimator_mu_tilde(pair)
            for val in (eta / eta_t, eta / mu_t, mu / mu_t):
                assert 1e-2 <= val <= 1e2, name


class TestJumpTerm:
    def test_conforming_zero(self, pair_constant):
        mesh = pair_constant.coarse.mesh
        conf = pair_constant.coarse.conf
        rng = np.random.default_rng(4)
        psi = conforming_to_cr(CoefVec(conf, rng.standard_normal(conf.dof_count)))
        total, parts = jump_term(psi)
        # interior jumps vanish; boundary traces of the hat combination are
        # nonzero only through the trace-against-zero convention
        interior = ~mesh.edge_boundary
        ln = mesh.edge_lengths[interior]
        deriv = jump_field(psi).jump_deriv[interior]
        assert (ln ** 3 * deriv ** 2).sum() < 1e-24
        assert np.all(parts >= 0)

    def test_single_edge_formula(self, initial_mesh):
        space = cr_space(initial_mesh)
        phi = CoefVec(space, np.eye(8)[2])
        total, parts = jump_term(phi)
        jumps = jump_field(phi)
        expect = 0.0
        for e in range(initial_mesh.num_edges):
            L = initial_mesh.edge_lengths[e]
            expect += L ** 2 * L * jumps.jump_deriv[e] ** 2
        assert total == pytest.approx(expect, rel=1e-12)
        assert parts.sum() == pytest.approx(total, rel=1e-12)


class TestIndicators:
    def test_global_identity(self, fixture_pairs):
        for name, pair in fixture_pairs.items():
            rec, indicators = estimator_report(pair)
            total = rec.mu_tilde2 + rec.rho2 + rec.rho_hat2
            assert indicators.sum() == pytest.approx(total, rel=1e-10), name

    def test_symmetric_data_symmetric_indicators(self, pair_constant):
        # f = 1 on the uniformly refined mesh: the square's symmetry group
        # maps elements to elements; indicator values must match on orbits
        pair = pair_constant
        mesh = pair.coarse.mesh
        _, ind = estimator_report(pair)
        cent = mesh.triangle_coords().mean(axis=1)

        def transform(p, k):
            x, y = p
            ops = [
                (x, y), (1 - x, y), (x, 1 - y), (1 - x, 1 - y),
                (y, x), (1 - y, x), (y, 1 - x), (1 - y, 1 - x),
            ]
            return ops[k]

        for k in range(8):
            mapped = np.array([transform(c, k) for c in cent])
            order = []
            for p in mapped:
                j = np.argmin(np.linalg.norm(cent - p, axis=1))
                assert np.linalg.norm(cent[j] - p) < 1e-12
                order.append(j)
            assert np.abs(ind[order] - ind).max() < 1e-8 * ind.max()

    def test_conf_gap_orthogonality_expansion(self, fixture_pairs):
        for name, pair in fixture_pairs.items():
            gap = conf_gap(pair.coarse)
            w_cr = curl_field(pair.coarse.phi)
            w_cf = curl_field(pair.coarse.phi0)
            a_phi = energy_inner(pair.coarse.form, w_cr, w_cr)
            a_phi0 = energy_inner(pair.coarse.form, w_cf, w_cf)
            assert gap == pytest.approx(a_phi - a_phi0,
                                        rel=1e-9, abs=1e-12 * a_phi), name

    def test_report_values_finite_nonnegative(self, fixture_pairs):
        for pair in fixture_pairs.values():
            rec, _ = estimator_report(pair)
            for v in (rec.eta2, rec.eta_tilde2, rec.mu2, rec.mu_tilde2,
                      rec.rho2, rec.rho_hat2, rec.conf_gap2):
                assert np.isfinite(v) and v >= 0.0
