import numpy as np
import pytest

from crbem import (
    CoefVec,
    Mesh,
    assemble_energy_form,
    assemble_rhs_constant,
    assemble_rhs_manufactured,
    assemble_rhs_power,
    assemble_stiffness,
    build_initial_square_mesh,
    conforming_space,
    cr_space,
    curl_field,
    energy_inner,
    graded_square_mesh,
    panel_integral,
    quadrature_rule,
    refine_nvb,
    uniform_refine,
)
from crbem.spaces import PwConstVecField
from crbem.assembly import (
    NumericalError,
    _apply_rule_pairs,
    _power_moments_element,
    _self_entry_closed_form,
)

from oracle import pair_value

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# unit-right-triangle self entry, frozen from the independent oracle
# (subdivision depth escalation agrees with the closed-form reduction)
SELF_ENTRY_UNIT_RIGHT = 0.079821446904249


class TestQuadratureRules:
    @pytest.mark.parametrize("case", ["identical", "edge-adjacent",
                                      "vertex-adjacent", "disjoint"])
    @pytest.mark.parametrize("order", [3, 5])
    def test_weights_sum_to_reference_measure(self, case, order):
        rule = quadrature_rule(case, order)
        assert rule.weights.min() > 0.0
        assert abs(rule.weights.sum() - 0.25) < 1e-12

    @pytest.mark.parametrize("case", ["identical", "edge-adjacent",
                                      "vertex-adjacent", "disjoint"])
    def test_nodes_inside_reference_triangle(self, case):
        rule = quadrature_rule(case, 4)
        for nodes in (rule.x_nodes, rule.y_nodes):
            assert np.all(nodes[:, 0] <= 1.0 + 1e-12)
            assert np.all(nodes[:, 1] >= -1e-12)
            assert np.all(nodes[:, 1] <= nodes[:, 0] + 1e-12)


def _direct_rule_value(rule, ta, tb):
    """Map the rule nodes into both panels and sum weights / |x - y|."""
    def mapped(t, nodes):
        return (t[0] + nodes[:, :1] * (t[1] - t[0])
                + nodes[:, 1:] * (t[2] - t[1]))

    def area2(t):
        (a, b), (c, d) = t[1] - t[0], t[2] - t[0]
        return abs(a * d - b * c)

    r = np.linalg.norm(mapped(ta, rule.x_nodes) - mapped(tb, rule.y_nodes),
                       axis=1)
    return (rule.weights / r).sum() * area2(ta) * area2(tb) / (4 * np.pi)


def _kernel_pairs(case):
    """Shape-regular panel pairs laid out as the rule of ``case`` expects:
    shared vertices first, in the same order on both panels."""
    p, q = np.array([0.1, 0.2]), np.array([1.1, 0.3])
    ta = np.array([p, q, [0.4, 1.0]])
    if case == "identical":
        return [(ta, ta), (UNIT_RIGHT, UNIT_RIGHT)]
    if case == "edge-adjacent":
        return [(ta, np.array([p, q, [0.7, -0.6]])),
                (UNIT_RIGHT, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, -1.0]]))]
    if case == "vertex-adjacent":
        return [(ta, np.array([p, [-0.8, 0.1], [-0.3, -0.7]])),
                (UNIT_RIGHT, np.array([[0.0, 0.0], [-1.0, 0.0], [-1.0, -1.0]]))]
    # UNIT_RIGHT + (s, 0) lies s - 1 from UNIT_RIGHT; diameters are sqrt(2)
    return [(UNIT_RIGHT, UNIT_RIGHT + [1.0 + rho * np.sqrt(2.0), 0.0])
            for rho in (0.3, 0.45, 0.6)]


class TestRuleKernel:
    @pytest.mark.parametrize("case", ["identical", "edge-adjacent",
                                      "vertex-adjacent", "disjoint"])
    @pytest.mark.parametrize("order", [3, 5])
    def test_matches_direct_evaluation(self, case, order):
        rule = quadrature_rule(case, order)
        pairs = _kernel_pairs(case)
        got = _apply_rule_pairs(rule, np.array([a for a, _ in pairs]),
                                np.array([b for _, b in pairs]))
        for value, (ta, tb) in zip(got, pairs):
            ref = _direct_rule_value(rule, ta, tb)
            assert abs(value - ref) / ref < 1e-13

    def test_table_invariant_under_dyadic_translation(self, refined_once):
        _, mesh, _ = refined_once
        moved = Mesh(mesh.vertices + [1024.0, -1024.0], mesh.triangles,
                     mesh.ref_edge)
        G = assemble_energy_form(mesh, 5).table
        H = assemble_energy_form(moved, 5).table
        assert np.abs(H - G).max() <= 1e-14 * np.abs(G).max()

    def test_non_finite_table_raises(self, initial_mesh, monkeypatch):
        monkeypatch.setattr("crbem.assembly._apply_rule_pairs",
                            lambda rule, ta, tb: np.full(len(ta), np.nan))
        with pytest.raises(NumericalError):
            assemble_energy_form(initial_mesh, 5)


class TestPanelIntegral:
    def test_self_entry_matches_oracle(self):
        oracle = pair_value(UNIT_RIGHT, UNIT_RIGHT, depth=6, order=14)
        assert oracle == pytest.approx(SELF_ENTRY_UNIT_RIGHT, rel=5e-9)
        got = panel_integral(UNIT_RIGHT, UNIT_RIGHT, order=5)
        assert abs(got - oracle) / oracle < 1e-6

    def test_order_escalation_identical(self):
        v5 = panel_integral(UNIT_RIGHT, UNIT_RIGHT, order=5)
        v7 = panel_integral(UNIT_RIGHT, UNIT_RIGHT, order=7)
        assert abs(v7 - v5) / abs(v5) < 1e-6

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_kernel_scaling(self, s):
        base = panel_integral(UNIT_RIGHT, UNIT_RIGHT, order=5)
        scaled = panel_integral(s * UNIT_RIGHT, s * UNIT_RIGHT, order=5)
        assert scaled == pytest.approx(s ** 3 * base, rel=1e-10)

    def test_kernel_scaling_disjoint(self):
        tb = UNIT_RIGHT + np.array([2.5, 0.7])
        base = panel_integral(UNIT_RIGHT, tb, order=5)
        for s in (0.5, 2.0):
            scaled = panel_integral(s * UNIT_RIGHT, s * tb, order=5)
            assert scaled == pytest.approx(s ** 3 * base, rel=1e-10)

    def test_far_field_limit(self):
        s = 0.01
        ta = s * UNIT_RIGHT
        tb = ta + np.array([0.5, 0.3])
        d = np.linalg.norm(tb.mean(0) - ta.mean(0))
        expected = (s * s / 2) ** 2 / (4 * np.pi * d)
        got = panel_integral(ta, tb, order=5)
        assert abs(got - expected) / expected < 1e-3

    @pytest.mark.parametrize("shift", [
        np.array([1.0, 0.0]),
        np.array([1.0, 1.0]) / np.sqrt(2.0),
        np.array([0.0, 1.0]),
    ])
    @pytest.mark.parametrize("separation", [2.0, 3.0, 8.0])
    def test_far_field_oracle_agreement(self, shift, separation):
        diam = np.sqrt(2.0)
        tb = UNIT_RIGHT + shift * 10.0
        from oracle import _ccw
        # walk the panel to the requested separation along the shift
        from scipy.spatial.distance import cdist
        s = np.linspace(0, 1, 400)
        edges_a = np.vstack([UNIT_RIGHT[i][None] * (1 - s)[:, None]
                             + UNIT_RIGHT[(i + 1) % 3][None] * s[:, None]
                             for i in range(3)])
        eb = np.vstack([tb[i][None] * (1 - s)[:, None]
                        + tb[(i + 1) % 3][None] * s[:, None]
                        for i in range(3)])
        d0 = cdist(edges_a, eb).min()
        tb = tb - shift * (d0 - separation * diam)
        got = panel_integral(UNIT_RIGHT, tb, order=5)
        ref = pair_value(UNIT_RIGHT, tb, depth=3, order=16)
        assert abs(got - ref) / ref < 1e-8

    def test_edge_adjacent_matches_oracle(self):
        tb = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, -1.0]])
        got = panel_integral(UNIT_RIGHT, tb, order=5)
        ref = pair_value(tb, UNIT_RIGHT, depth=6, order=14)
        assert abs(got - ref) / abs(ref) < 1e-6

    def test_vertex_adjacent_matches_oracle(self):
        tb = np.array([[0.0, 0.0], [-1.0, 0.0], [-1.0, -1.0]])
        got = panel_integral(UNIT_RIGHT, tb, order=5)
        ref = pair_value(tb, UNIT_RIGHT, depth=6, order=14)
        assert abs(got - ref) / abs(ref) < 1e-6

    def test_anisotropic_self_entry_uses_closed_form(self):
        sliver = np.array([[0.0, 0.0], [1e-3, 0.0], [1e-3, 0.7]])
        got = panel_integral(sliver, sliver, order=5)
        assert got == pytest.approx(float(_self_entry_closed_form(sliver)),
                                    rel=1e-12)

    def test_anisotropic_adjacent_pair(self):
        a = np.array([[0.0, 0.0], [2e-3, 0.0], [2e-3, 0.5]])
        b = np.array([[0.0, 0.0], [2e-3, 0.5], [0.0, 0.5]])
        got = panel_integral(a, b, order=5)
        ref = pair_value(a, b, depth=9, order=12)
        assert abs(got - ref) / abs(ref) < 1e-4

    def test_degenerate_panel_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            panel_integral(flat, UNIT_RIGHT)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            panel_integral(UNIT_RIGHT, UNIT_RIGHT, order=0)


class TestEnergyForm:
    def test_single_element_table(self):
        mesh = Mesh(UNIT_RIGHT, np.array([[0, 1, 2]]), np.array([0]))
        form = assemble_energy_form(mesh, 5)
        expected = panel_integral(UNIT_RIGHT, UNIT_RIGHT, 5)
        assert form.table.shape == (1, 1)
        assert form.table[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_initial_mesh_table(self, initial_mesh):
        form = assemble_energy_form(initial_mesh, 5)
        G = form.table
        assert np.abs(G - G.T).max() == 0.0
        assert (G > 0).all()
        diag = np.diag(G)
        assert np.ptp(diag) < 1e-10 * diag[0]  # congruent elements

    def test_table_matches_panel_integral(self, initial_mesh):
        form = assemble_energy_form(initial_mesh, 5)
        coords = initial_mesh.triangle_coords()
        for i, j in [(0, 0), (0, 1), (0, 3), (0, 4), (2, 6)]:
            expected = panel_integral(coords[i], coords[j], 5)
            assert form.table[i, j] == pytest.approx(expected, rel=5e-7)

    def test_graded_mesh_table_spd(self):
        mesh = graded_square_mesh(8, 3.0)
        form = assemble_energy_form(mesh, 5)
        space = cr_space(mesh)
        a = assemble_stiffness(form, space)
        eigvals = np.linalg.eigvalsh(a)
        assert eigvals.min() > 0

    def test_graded_entries_match_oracle(self):
        mesh = graded_square_mesh(8, 3.0)
        form = assemble_energy_form(mesh, 5)
        coords = mesh.triangle_coords()
        areas = mesh.areas
        sliver = int(np.argmin(areas))
        neighbors = np.argsort(
            np.linalg.norm(mesh.centroids - mesh.centroids[sliver], axis=1))
        for j in neighbors[:4]:
            ref = pair_value(coords[sliver], coords[j], depth=9, order=12)
            got = form.table[sliver, j]
            assert abs(got - ref) / abs(ref) < 5e-4


class TestEnergyInner:
    def test_zero_field(self, initial_mesh):
        form = assemble_energy_form(initial_mesh, 5)
        z = PwConstVecField(initial_mesh, np.zeros((8, 2)))
        assert energy_inner(form, z, z) == 0.0

    def test_symmetry(self, initial_mesh):
        form = assemble_energy_form(initial_mesh, 5)
        rng = np.random.default_rng(0)
        u = PwConstVecField(initial_mesh, rng.standard_normal((8, 2)))
        v = PwConstVecField(initial_mesh, rng.standard_normal((8, 2)))
        a = energy_inner(form, u, v)
        b = energy_inner(form, v, u)
        assert a == pytest.approx(b, rel=1e-12)

    def test_single_component(self):
        mesh = Mesh(UNIT_RIGHT, np.array([[0, 1, 2]]), np.array([0]))
        form = assemble_energy_form(mesh, 5)
        u = PwConstVecField(mesh, np.array([[1.0, 0.0]]))
        assert energy_inner(form, u, u) == pytest.approx(form.table[0, 0])

    def test_mesh_mismatch(self, initial_mesh):
        form = assemble_energy_form(initial_mesh, 5)
        other, _ = uniform_refine(initial_mesh)
        w = PwConstVecField(other, np.zeros((32, 2)))
        with pytest.raises(ValueError):
            energy_inner(form, w, w)


class TestStiffness:
    def test_conforming_initial(self, initial_mesh):
        form = assemble_energy_form(initial_mesh, 5)
        a = assemble_stiffness(form, conforming_space(initial_mesh))
        assert a.shape == (1, 1)
        assert a[0, 0] > 0

    def test_cr_initial_spd(self, initial_mesh):
        form = assemble_energy_form(initial_mesh, 5)
        a = assemble_stiffness(form, cr_space(initial_mesh))
        assert a.shape == (8, 8)
        assert np.allclose(a, a.T)
        assert np.linalg.eigvalsh(a).min() > 0

    def test_spd_on_refined_and_nvb_meshes(self, initial_mesh):
        for mesh in (uniform_refine(initial_mesh)[0],
                     refine_nvb(initial_mesh, [0, 3])[0]):
            form = assemble_energy_form(mesh, 5)
            for space in (cr_space(mesh), conforming_space(mesh)):
                a = assemble_stiffness(form, space)
                np.linalg.cholesky(a)  # raises if not SPD


class TestRhs:
    def test_constant_per_element_contribution(self, initial_mesh):
        space = cr_space(initial_mesh)
        b = assemble_rhs_constant(space)
        # each interior edge sees two elements of area 1/8
        assert np.allclose(b, 2 * (1 / 8) / 3)

    def test_constant_hat_contribution(self, refined_once):
        _, fine, _ = refined_once
        space = conforming_space(fine)
        b = assemble_rhs_constant(space)
        for d, z in enumerate(space.dof_to_entity):
            patch = np.flatnonzero((fine.triangles == z).any(axis=1))
            assert b[d] == pytest.approx(fine.areas[patch].sum() / 3, rel=1e-12)

    def test_constant_total(self, initial_mesh):
        space = cr_space(initial_mesh)
        b = assemble_rhs_constant(space)
        n_int = np.array([(~initial_mesh.edge_boundary[
            initial_mesh.tri_edges[t]]).sum() for t in range(8)])
        expected = (initial_mesh.areas * n_int / 3).sum()
        assert b.sum() == pytest.approx(expected, rel=1e-12)

    def test_power_zero_equals_constant(self, initial_mesh):
        space = cr_space(initial_mesh)
        assert np.allclose(assemble_rhs_power(space, 0.0),
                           assemble_rhs_constant(space), atol=1e-14)

    def test_power_unit_triangle_closed_form(self):
        alpha = -0.6
        moments = _power_moments_element(UNIT_RIGHT, alpha)
        assert moments.sum() == pytest.approx(
            1.0 / ((alpha + 1) * (alpha + 2)), rel=1e-12)

    def test_power_matches_gauss_away_from_axis(self):
        from numpy.polynomial.legendre import leggauss
        alpha = -0.6
        tri = np.array([[0.3, 0.1], [0.9, 0.2], [0.5, 0.8]])
        moments = _power_moments_element(tri, alpha)
        g, w = leggauss(40)
        g = 0.5 * (g + 1)
        w = 0.5 * w
        ga, gb = np.meshgrid(g, g, indexing="ij")
        wa, wb = np.meshgrid(w, w, indexing="ij")
        n1, n2 = ga.ravel(), (ga * gb).ravel()
        wts = (wa * wb * ga).ravel()
        pts = tri[0] + np.outer(n1, tri[1] - tri[0]) + np.outer(n2, tri[2] - tri[1])
        area2 = abs((tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
                    - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0]))
        lam = np.stack([1 - n1, n1 - n2, n2], axis=1)
        for j in range(3):
            ref = area2 * np.sum(wts * pts[:, 0] ** alpha * lam[:, j])
            assert moments[j] == pytest.approx(ref, rel=1e-10)

    def test_power_divergent_rejected(self, initial_mesh):
        with pytest.raises(ValueError):
            assemble_rhs_power(cr_space(initial_mesh), -1.0)

    def test_manufactured_zero(self, initial_mesh):
        form = assemble_energy_form(initial_mesh, 5)
        space = conforming_space(initial_mesh)
        phi = CoefVec(space, np.zeros(1))
        b = assemble_rhs_manufactured(form, space, phi)
        assert np.allclose(b, 0.0)

    def test_manufactured_cr_nonzero(self, initial_mesh):
        form = assemble_energy_form(initial_mesh, 5)
        conf = conforming_space(initial_mesh)
        phi = CoefVec(conf, np.ones(1))
        b = assemble_rhs_manufactured(form, cr_space(initial_mesh), phi)
        assert np.abs(b).max() > 0

    def test_manufactured_conforming_galerkin_reproduces_data(self, refined_once):
        _, fine, _ = refined_once
        form = assemble_energy_form(fine, 5)
        space = conforming_space(fine)
        rng = np.random.default_rng(8)
        phi = CoefVec(space, rng.standard_normal(space.dof_count))
        b = assemble_rhs_manufactured(form, space, phi)
        a = assemble_stiffness(form, space)
        x = np.linalg.solve(a, b)
        assert np.abs(x - phi.values).max() < 1e-10
