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
    RHO_CLOSE,
    RHO_FAR,
    SINGULAR_ASPECT_LIMIT,
    NumericalError,
    _apply_rule_pairs,
    _aspect,
    _curl_matrices,
    _far_table,
    _power_moments_element,
    _robust_pairs,
    _self_entry_closed_form,
    _triangle_distances,
    single_layer_field,
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


# -- pre-split reference copies of the robust path and the distances ----------
# The split-component kernels must reproduce these bit for bit: the robust
# path's stopping test and the band edges compare against thresholds, so a
# change of rounding can flip a decision and move a table entry.


def _ref_doubled_area(tris):
    d1 = tris[..., 1, :] - tris[..., 0, :]
    d2 = tris[..., 2, :] - tris[..., 0, :]
    return np.abs(d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])


def _ref_segment_potential(tris, pts):
    total = np.zeros(pts.shape[:2])
    for k in range(3):
        a = tris[:, k][:, None, :]
        t = (tris[:, (k + 1) % 3] - tris[:, k])[:, None, :]
        ln = np.linalg.norm(t, axis=2, keepdims=True)
        t = t / ln
        n = np.stack([t[..., 1], -t[..., 0]], axis=-1)
        rel = a - pts
        d = (rel * n).sum(-1)
        s_a = (rel * t).sum(-1)
        s_b = s_a + ln[..., 0]
        r_a = np.hypot(s_a, d)
        r_b = np.hypot(s_b, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.where(s_b < 0, d * d / (r_b - s_b), s_b + r_b)
            den = np.where(s_a < 0, d * d / (r_a - s_a), s_a + r_a)
            term = d * np.log(num / den)
        total += np.where(np.abs(d) < 1e-300, 0.0, np.nan_to_num(term))
    return total


def _ref_robust_pairs(ta, tb, rtol=1e-6, p=5, max_depth=24):
    g, w = np.polynomial.legendre.leggauss(p)
    g, w = 0.5 * (g + 1.0), 0.5 * w
    a, b = np.meshgrid(g, g, indexing="ij")
    wa, wb = np.meshgrid(w, w, indexing="ij")
    nodes = np.stack([a.ravel(), (a * b).ravel()], axis=1)
    wts = (wa * wb * a).ravel()

    def cell_values(cells, owner):
        e1 = cells[:, None, 1, :] - cells[:, None, 0, :]
        e2 = cells[:, None, 2, :] - cells[:, None, 1, :]
        pts = (cells[:, None, 0, :] + nodes[..., 0, None] * e1
               + nodes[..., 1, None] * e2)
        vals = _ref_segment_potential(tb[owner], pts)
        return _ref_doubled_area(cells) * (vals * wts).sum(axis=1)

    settled = np.zeros(len(ta))
    owner = np.arange(len(ta))
    cells = ta.copy()
    parent = cell_values(cells, owner)
    scale = np.abs(parent).copy()
    for depth in range(max_depth):
        if not len(owner):
            break
        m01 = 0.5 * (cells[:, 0] + cells[:, 1])
        m12 = 0.5 * (cells[:, 1] + cells[:, 2])
        m20 = 0.5 * (cells[:, 2] + cells[:, 0])
        kids = np.stack([np.stack([cells[:, 0], m01, m20], 1),
                         np.stack([m01, cells[:, 1], m12], 1),
                         np.stack([m20, m12, cells[:, 2]], 1),
                         np.stack([m01, m12, m20], 1)], axis=1)
        kv = cell_values(kids.reshape(-1, 3, 2),
                         np.repeat(owner, 4)).reshape(-1, 4)
        ksum = kv.sum(axis=1)
        done = np.abs(ksum - parent) <= rtol * np.maximum(scale[owner], 1e-300)
        if depth == max_depth - 1:
            done = np.ones_like(done)
        np.add.at(settled, owner[done], ksum[done])
        keep = ~done
        owner = np.repeat(owner[keep], 4)
        cells = kids[keep].reshape(-1, 3, 2)
        parent = kv[keep].ravel()
        running = settled.copy()
        np.add.at(running, owner, np.abs(parent))
        scale = np.maximum(scale, np.abs(running))
    return settled / (4.0 * np.pi)


def _ref_segment_distances(p1, p2, q1, q2):
    u = p2 - p1
    v = q2 - q1
    w0 = p1 - q1
    a = (u * u).sum(-1)
    b = (u * v).sum(-1)
    c = (v * v).sum(-1)
    d = (u * w0).sum(-1)
    e = (v * w0).sum(-1)
    den = a * c - b * b
    s = np.where(den > 1e-30, (b * e - c * d) / np.where(den > 1e-30, den, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = np.where(c > 1e-30, (b * s + e) / np.where(c > 1e-30, c, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    s = np.where(a > 1e-30, np.clip((b * t - d) / np.where(a > 1e-30, a, 1.0), 0.0, 1.0), 0.0)
    diff = (p1 + s[..., None] * u) - (q1 + t[..., None] * v)
    return np.linalg.norm(diff, axis=-1)


def _ref_triangle_distances(ta, tb):
    best = np.full(len(ta), np.inf)
    for i in range(3):
        for j in range(3):
            d = _ref_segment_distances(ta[:, i], ta[:, (i + 1) % 3],
                                       tb[:, j], tb[:, (j + 1) % 3])
            best = np.minimum(best, d)
    return best


def _ref_single_layer_field(source_coords, source_values, pts):
    flat = pts.reshape(1, -1, 2)
    u = np.zeros((flat.shape[1], 2))
    for s in range(len(source_coords)):
        pot = _ref_segment_potential(source_coords[s][None], flat)[0]
        u += pot[:, None] * source_values[s]
    return u.reshape(pts.shape[:-1] + (2,)) / (4.0 * np.pi)


def _diameters(coords):
    return np.sqrt(((coords[:, [1, 2, 0]] - coords) ** 2).sum(-1)).max(-1)


def _far_sweep(mesh):
    """Far table and near candidates of a mesh, as assemble_energy_form
    gets them at order 5 (far rule of order 3)."""
    coords = mesh.triangle_coords()
    return _far_table(coords, mesh.centroids, _diameters(coords), 3)


def _near_pairs(mesh):
    """Near candidates (i <= j, the diagonal included) of a mesh, as
    assemble_energy_form finds them, and the number of vertex indices each
    pair shares."""
    _, ci, cj = _far_sweep(mesh)
    shared = (mesh.triangles[ci][:, :, None]
              == mesh.triangles[cj][:, None, :]).sum(axis=(1, 2))
    return ci, cj, shared


@pytest.fixture(scope="module")
def graded_robust_case():
    """Robust-path pairs and disjoint near candidates of the refined graded
    mesh (512 panels, beta = 2), classified as assemble_energy_form does."""
    mesh = uniform_refine(graded_square_mesh(8, 2.0))[0]
    coords = mesh.triangle_coords()
    aniso = _aspect(coords) > SINGULAR_ASPECT_LIMIT
    diam = _diameters(coords)
    ci, cj, shared = _near_pairs(mesh)
    disjoint = shared == 0
    di, dj = ci[disjoint], cj[disjoint]
    rho = _ref_triangle_distances(coords[di], coords[dj]) / np.maximum(
        diam[di], diam[dj])
    robust = (shared < 3) & (aniso[ci] | aniso[cj])
    robust[disjoint] = rho < RHO_CLOSE
    return coords, (di, dj), (ci[robust], cj[robust])


class TestSplitKernels:
    def test_robust_pairs_bitwise_on_graded_mesh(self, graded_robust_case):
        coords, _, (ri, rj) = graded_robust_case
        assert len(ri) > 100
        ref = _ref_robust_pairs(coords[ri], coords[rj])
        assert np.array_equal(_robust_pairs(coords[ri], coords[rj]), ref)

    def test_triangle_distances_bitwise_on_graded_mesh(self,
                                                       graded_robust_case):
        coords, (ci, cj), _ = graded_robust_case
        ref = _ref_triangle_distances(coords[ci], coords[cj])
        assert np.array_equal(_triangle_distances(coords[ci], coords[cj]),
                              ref)

    def test_distances_off_block_size(self):
        # 4096 + 37 random pairs, including touching and crossing ones
        rng = np.random.default_rng(3)
        ta = rng.uniform(0.0, 1.0, (4133, 3, 2))
        tb = rng.uniform(0.0, 1.0, (4133, 3, 2))
        tb[::7] = ta[::7, [1, 2, 0]]
        tb[1::7, 0] = ta[1::7, 2]
        assert np.array_equal(_triangle_distances(ta, tb),
                              _ref_triangle_distances(ta, tb))

    @pytest.mark.parametrize("block", [3, 1024])
    def test_robust_pairs_off_block_size(self, monkeypatch, block):
        # 1031 shape-regular close pairs: neither the pair count nor the
        # child counts are multiples of the block size
        monkeypatch.setattr("crbem.assembly._ROBUST_BLOCK", block)
        rng = np.random.default_rng(5)
        n = 1031 if block == 1024 else 61
        ta = UNIT_RIGHT + rng.uniform(-0.05, 0.05, (n, 3, 2))
        tb = ta + [1.0 + rng.uniform(0.05, 0.3), 0.0]
        assert np.array_equal(_robust_pairs(ta, tb),
                              _ref_robust_pairs(ta, tb))

    def test_single_layer_field_bitwise(self, refined_once):
        # random points plus points on the source edges and at vertices,
        # where the per-edge terms hit the d = 0 and 0/0 branches
        _, mesh, _ = refined_once
        coords = mesh.triangle_coords()
        rng = np.random.default_rng(11)
        values = rng.standard_normal((mesh.num_triangles, 2))
        s = rng.uniform(0.0, 1.0, 60)[:, None]
        on_edges = np.concatenate([(1 - s) * coords[k, 0] + s * coords[k, 1]
                                   for k in range(3)])
        pts = np.concatenate([rng.uniform(-0.2, 1.2, (240, 2)), on_edges,
                              mesh.vertices])
        assert np.array_equal(single_layer_field(coords, values, pts),
                              _ref_single_layer_field(coords, values, pts))


def _ref_near_candidates(mesh):
    """All pairs i <= j whose centroid distance minus both radii is below
    RHO_FAR times the larger diameter, in (i, j) order, from one dense
    nt x nt comparison."""
    coords = mesh.triangle_coords()
    cent = mesh.centroids
    off = coords - cent[:, None, :]
    radius = np.sqrt(off[..., 0] * off[..., 0]
                     + off[..., 1] * off[..., 1]).max(axis=1)
    diam = _diameters(coords)
    dx = cent[:, None, 0] - cent[None, :, 0]
    dy = cent[:, None, 1] - cent[None, :, 1]
    bound = np.sqrt(dx * dx + dy * dy) - radius[:, None] - radius[None, :]
    near = bound < RHO_FAR * np.maximum(diam[:, None], diam[None, :])
    return np.nonzero(np.triu(near))


def _sweep_mesh(kind):
    """A mesh of 512 to about 1100 panels: three uniform refinements, random
    NVB marking or beta = 2 grading."""
    if kind == "graded":
        return uniform_refine(graded_square_mesh(8, 2.0))[0]
    mesh = build_initial_square_mesh()
    rng = np.random.default_rng(7)
    while mesh.num_triangles < (512 if kind == "uniform" else 600):
        if kind == "uniform":
            mesh = uniform_refine(mesh)[0]
        else:
            marked = rng.choice(mesh.num_triangles,
                                max(1, mesh.num_triangles // 6),
                                replace=False)
            mesh = refine_nvb(mesh, marked)[0]
    return mesh


def _far_mask(nt, *candidates):
    """True where (i, j) is no near candidate of any of the lists."""
    far = np.ones((nt, nt), dtype=bool)
    for ci, cj in candidates:
        far[ci, cj] = far[cj, ci] = False
    return far


class TestFarTable:
    @pytest.fixture(scope="class", params=["uniform", "nvb", "graded"])
    def swept(self, request):
        mesh = _sweep_mesh(request.param)
        return mesh, _far_sweep(mesh)

    def test_near_candidates_match_dense_reference(self, swept):
        mesh, (_, ci, cj) = swept
        ri, rj = _ref_near_candidates(mesh)
        assert np.array_equal(ci, ri) and np.array_equal(cj, rj)

    def test_table_bitwise_symmetric(self, swept):
        _, (G, _, _) = swept
        assert np.array_equal(G, G.T, equal_nan=True)

    def test_odd_strip_and_tile_sizes(self, swept, monkeypatch):
        # strips of 3 and tiles of 5 panels divide none of the panel counts
        mesh, (G, ci, cj) = swept
        assert mesh.num_triangles % 3 and mesh.num_triangles % 5
        monkeypatch.setattr("crbem.assembly._FAR_STRIP", 3)
        monkeypatch.setattr("crbem.assembly._FAR_TILE", 5)
        H, hi, hj = _far_sweep(mesh)
        assert np.array_equal(hi, ci) and np.array_equal(hj, cj)
        assert np.array_equal(H, H.T, equal_nan=True)
        far = _far_mask(mesh.num_triangles, (ci, cj))
        assert far.any()
        assert (np.abs(H[far] - G[far]) / G[far]).max() <= 1e-15

    def test_far_entries_match_direct_sum(self, swept):
        # every far entry of a few rows, summed pair by pair
        mesh, (G, ci, cj) = swept
        rule = quadrature_rule("disjoint", 3)
        coords = mesh.triangle_coords()
        far = _far_mask(mesh.num_triangles, (ci, cj))
        for i in (0, mesh.num_triangles // 2, mesh.num_triangles - 1):
            for j in np.flatnonzero(far[i]):
                ref = _direct_rule_value(rule, coords[i], coords[j])
                assert abs(G[i, j] - ref) <= 1e-14 * ref

    def test_translation_robust(self):
        # a shift that is not a power of two rounds every coordinate; the
        # far entries must not lose more than that rounding
        mesh = _sweep_mesh("graded")
        assert mesh.num_triangles == 512
        moved = Mesh(mesh.vertices + [1000.3, -999.7], mesh.triangles,
                     mesh.ref_edge)
        G, ci, cj = _far_sweep(mesh)
        H, hi, hj = _far_sweep(moved)
        far = _far_mask(mesh.num_triangles, (ci, cj), (hi, hj))
        assert far.sum() > 0.3 * far.size
        assert (np.abs(H[far] - G[far]) / G[far]).max() <= 1e-12


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

    @pytest.mark.parametrize("ta, tb", [
        # edge-adjacent slivers, a close pair (robust path), a far pair
        ([[0.0, 0.0], [2e-3, 0.0], [2e-3, 0.5]],
         [[0.0, 0.0], [2e-3, 0.5], [0.0, 0.5]]),
        (UNIT_RIGHT, UNIT_RIGHT + [1.2, 0.0]),
        (UNIT_RIGHT, UNIT_RIGHT + [2.5, 0.7]),
    ], ids=["edge-sliver", "close", "far"])
    def test_vertex_order_reversal_invariant(self, ta, tb):
        ta, tb = np.array(ta), np.array(tb)
        value = panel_integral(ta, tb, order=5)
        assert value > 0.0
        assert panel_integral(ta[::-1], tb, order=5) == value
        assert panel_integral(ta, tb[::-1], order=5) == value

    def test_tiny_sliver_self_entry_uses_closed_form(self):
        # edges shorter than any absolute coordinate tolerance (aspect
        # about 1e15); vertices are identified exactly, as in the table
        t = graded_square_mesh(4, 50.0).triangle_coords()[3]
        got = panel_integral(t, t, order=5)
        ref = float(_self_entry_closed_form(t))
        assert abs(got - ref) <= 1e-12 * ref  # ref is about 1.8e-31

    @pytest.mark.parametrize("element", [0, 4, 7])
    def test_non_finite_self_entry_raises(self, element):
        t = graded_square_mesh(4, 50.0).triangle_coords()[element]
        with pytest.raises(NumericalError):
            panel_integral(t, t, order=5)

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
        # the diagonal and every near candidate; edge pairs may be
        # traversed in opposite directions by the two
        for mesh in (initial_mesh, graded_square_mesh(4, 2.0),
                     refine_nvb(initial_mesh, [0, 3])[0]):
            form = assemble_energy_form(mesh, 5)
            coords = mesh.triangle_coords()
            ci, cj, _ = _near_pairs(mesh)
            for i, j in zip(ci, cj):
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


@pytest.fixture(scope="module")
def graded_form():
    return assemble_energy_form(_sweep_mesh("graded"), 5)


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

    @pytest.mark.parametrize("kind", ["cr", "conforming"])
    def test_blocked_stiffness_bitwise(self, graded_form, monkeypatch, kind):
        # 7-row blocks divide neither 736 (cr) nor 225 (conforming) DOFs
        monkeypatch.setattr("crbem.assembly._STIFF_BLOCK", 7)
        form = graded_form
        space = (cr_space if kind == "cr" else conforming_space)(form.mesh)
        assert space.dof_count % 7
        cx, cy = _curl_matrices(space)
        G = form.table
        a = cx @ (cx @ G).T + cy @ (cy @ G).T
        assert np.array_equal(assemble_stiffness(form, space),
                              0.5 * (a + a.T))


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
