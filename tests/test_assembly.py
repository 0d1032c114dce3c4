import itertools
import math
import re
import tracemalloc

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
from crbem import assembly
from crbem.spaces import PwConstVecField
from crbem.assembly import (
    ORDER,
    RHO_CLOSE,
    RHO_FAR,
    RHO_NEAR,
    SINGULAR_ASPECT_LIMIT,
    REFLECTION,
    NumericalError,
    _aspect_and_diameter,
    _curl_matrices,
    _edge_frames,
    _key_classes,
    _pair_values,
    _panel_potential,
    _panel_rows,
    _power_moments,
    _quarter_turn,
    _robust_pairs,
    _rule_monomials,
    _rule_values,
    _self_entry_closed_form,
    _split_pairs,
    _triangle_distances,
    panel_map,
    single_layer_field,
)

from oracle import inner_integral, pair_value, power_moments_element

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# the cell under which _panel_potential's nodes (x, y) are the points
# (x, y) themselves, as single_layer_field takes it
IDENTITY_CELL = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]])
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
        got = _rule_values(rule, _ref_rule_inputs(
            np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])))
        for value, (ta, tb) in zip(got, pairs):
            ref = _direct_rule_value(rule, ta, tb)
            assert abs(value - ref) / ref < 1e-13

    def test_gather_puts_stored_vertex_orders_back(self, refined_once):
        # every other panel stored with its vertices turned; the gather in
        # _pair_values hands the edge- and vertex-adjacent pairs to the
        # rule kernel in their rule's vertex order all the same
        _, mesh = refined_once
        _, ci, cj = _far_sweep(mesh)
        turn = np.array([[0, 1, 2], [1, 2, 0], [0, 1, 2], [2, 0, 1]]
                        * (mesh.num_triangles // 4))
        values = []
        for tris in (mesh.triangles,
                     np.take_along_axis(mesh.triangles, turn, axis=1)):
            values.append(
                _near_values(*_near_plan(mesh.vertices[tris], tris)))
        shared = (mesh.triangles[ci][:, :, None]
                  == mesh.triangles[cj][:, None, :]).sum(axis=(1, 2))
        adjacent = (shared == 1) | (shared == 2)
        assert adjacent.sum() > 50
        assert np.array_equal(values[1][adjacent], values[0][adjacent])

    def test_table_invariant_under_dyadic_translation(self, refined_once):
        _, mesh = refined_once
        moved = Mesh(mesh.vertices + [1024.0, -1024.0], mesh.triangles,
                     mesh.ref_edge)
        G = assemble_energy_form(mesh).table
        H = assemble_energy_form(moved).table
        assert np.abs(H - G).max() <= 1e-14 * np.abs(G).max()

    def test_non_finite_table_raises(self, initial_mesh, monkeypatch):
        monkeypatch.setattr(
            "crbem.assembly._rule_values",
            lambda rule, x: np.full(len(x), np.nan))
        with pytest.raises(NumericalError):
            assemble_energy_form(initial_mesh)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0],
                             ids=["nan", "inf", "zero"])
    def test_bad_entry_raises(self, monkeypatch, value):
        # one far entry G[i, j], i < j, set to NaN, +inf or zero in an
        # otherwise valid table, which the mirror copies to G[j, i]: the
        # reductions G.min() > 0 and G.max() < inf fail it
        mesh = _sweep_mesh("uniform")
        real = assembly._split_pairs

        def spoiled(G, *args):
            out = real(G, *args)
            r, c = np.nonzero(_far_mask(len(G), out[:2]))
            G[r[0], c[0]] = value
            return out

        monkeypatch.setattr(assembly, "_split_pairs", spoiled)
        with pytest.raises(NumericalError):
            assemble_energy_form(mesh)

    @pytest.mark.parametrize("finder", ["_key_classes", "_lattice_classes"])
    def test_pair_without_value_raises(self, monkeypatch, finder):
        # The table comes from np.empty, so a near pair that its label's
        # evaluator skips would keep whatever the memory held.  Here the
        # classes of the singular rules, or of the disjoint bands, make
        # each pair a copy of the next one: no pair of those labels is
        # evaluated, and every copy reads an entry that was never
        # written.  The near pass's written flags catch it.
        mesh = _sweep_mesh("graded")
        real = getattr(assembly, finder)

        def no_first_rows(*args):
            rep, exp = real(*args)
            return (np.arange(1, len(rep) + 1) % len(rep)).astype(
                rep.dtype), exp

        monkeypatch.setattr(assembly, finder, no_first_rows)
        with pytest.raises(NumericalError, match="got no value"):
            assemble_energy_form(mesh)


# -- pre-split reference copies of the robust path and the distances ----------
# The robust path's stopping test and the band edges compare against
# thresholds, so a change of rounding can flip a decision and move a table
# entry.  The split distance kernel must reproduce its reference bit for
# bit.  The robust path forms its point offsets from affine rows and its
# vertex distances with sqrt, where the reference maps points and takes
# np.hypot: it must evaluate the same cells and stay within rounding of it
# (_robust_near_reference).  It works in pair-relative coordinates, so its
# reference gets the panels as _robust_pairs sees them (_pair_relative).


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


def _pair_relative(ta, tb):
    """Both panels of each pair less vertex 0 of the inner panel tb."""
    origin = tb[:, :1]
    return ta - origin, tb - origin


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


def _identity_potential(frames, pts, cell=IDENTITY_CELL):
    """_panel_potential of each panel of frames (M, 3, 5) at the points
    pts (K, 2), one call per panel through the given cell with the nodes
    [1; x; y] of the points, as single_layer_field calls it: (M, K)."""
    basis = np.vstack([np.ones(len(pts)), pts.T])
    work = np.empty((8, 1, len(pts)))
    return np.array([
        _panel_potential(cell, f[None], basis, np.empty((3, 3, 2)),
                         work)[0].copy() for f in frames])


def _robust_near_reference(monkeypatch, ta, tb):
    """_robust_pairs(ta, tb), checked against _ref_robust_pairs on the
    pair-relative panels.

    The reference maps each Duffy point p, forms a - p and takes np.hypot;
    the path forms d and s_a as affine functions of the Duffy nodes
    (_edge_offset_rows) and takes sqrt(s^2 + d^2).  Either way d and s_a
    err by a few u S, with u = 2^-53 and S the pair's largest
    pair-relative coordinate magnitude, on the scale of its shortest edge
    h, and each distance by about an ulp.  As in
    test_pair_relative_coordinates_move_only_rounding, a point error of
    u S passes into the outer integral as about u S / h relative, and
    64 u S / h bounds it with room for the cells near the inner panel's
    edges (4.3 u S / h at most on the pairs of these tests).  A flipped
    subdivision decision moves a value on the scale of the stop tolerance
    1e-6 and changes the cells evaluated, so both paths must evaluate the
    same cells, recorded where each takes their doubled areas.
    """
    rel = _pair_relative(ta, tb)
    cells = {"got": [], "ref": []}

    def recording(area, seen):
        def recorded(c):
            seen.append(c.copy())
            return area(c)
        return recorded

    with monkeypatch.context() as m:
        m.setattr(assembly, "_doubled_area",
                  recording(assembly._doubled_area, cells["got"]))
        m.setitem(globals(), "_ref_doubled_area",
                  recording(_ref_doubled_area, cells["ref"]))
        got, ref = _robust_pairs(ta, tb), _ref_robust_pairs(*rel)
    got_cells, ref_cells = (np.concatenate(cells[k]).reshape(-1, 6)
                            for k in ("got", "ref"))
    assert np.array_equal(got_cells[np.lexsort(got_cells.T)],
                          ref_cells[np.lexsort(ref_cells.T)])
    h = np.minimum(*(np.sqrt(((t[:, [1, 2, 0]] - t) ** 2).sum(-1)).min(-1)
                     for t in rel))
    scale = np.maximum(*(np.abs(t).max(axis=(1, 2)) for t in rel))
    assert (np.abs(got - ref) <= 64 * 2.0 ** -53 * scale / h * ref).all()
    return got


def _diameters(coords):
    return np.sqrt(((coords[:, [1, 2, 0]] - coords) ** 2).sum(-1)).max(-1)


def _far_sweep(mesh):
    """The far entries of a mesh's table, NaN elsewhere, and its near
    candidates, as assemble_energy_form gets them."""
    coords = mesh.triangle_coords()
    G = np.full((len(coords),) * 2, np.nan)
    ci, cj, *_ = _split_pairs(G, coords, _panel_rows(coords),
                              _diameters(coords),
                              assembly._quarter_turn(coords))
    return G, ci, cj


def _candidates(coords, diam):
    """Near candidates and close flags of _split_pairs, which writes its
    far entries into a scratch table."""
    return _split_pairs(np.empty((len(coords),) * 2), coords,
                        _panel_rows(coords), diam, None)[:3]


def _near_plan(coords, tris):
    """The arguments (coords, rows, tris, i, j, label) of _pair_values for
    the near candidates of a mesh, labelled as assemble_energy_form labels
    them."""
    aspect, diam = _aspect_and_diameter(coords)
    ci, cj, close = _candidates(coords, diam)
    return coords, _panel_rows(coords), tris, ci, cj, assembly._classify_pairs(
        coords, tris, aspect, diam, ci, cj, close)


def _near_values(coords, rows, tris, i, j, label, *orbit):
    """The entries G[i, j] that _pair_values writes for the pairs (i, j),
    read back from a table of NaN."""
    G = np.full((len(coords),) * 2, np.nan)
    _pair_values(G, coords, rows, tris, i, j, label, *orbit)
    return G[i, j]


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
    aniso = _aspect_and_diameter(coords)[0] > SINGULAR_ASPECT_LIMIT
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
    def test_robust_pairs_bitwise_on_graded_mesh(self, graded_robust_case,
                                                 monkeypatch):
        # within rounding of the reference, with the same cells, and
        # bitwise the same on any block size: a block's GEMM must round a
        # row alike wherever it stands
        coords, _, (ri, rj) = graded_robust_case
        assert len(ri) > 100
        ta, tb = coords[ri], coords[rj]
        got = _robust_near_reference(monkeypatch, ta, tb)
        for block in (37, 1000, 4096):
            monkeypatch.setattr("crbem.assembly._ROBUST_BLOCK", block)
            assert np.array_equal(_robust_pairs(ta, tb), got)

    def test_robust_pairs_independent_of_batching(self, graded_robust_case):
        # the near pass hands the robust path _ROBUST_BLOCK / 4 pairs a
        # call: pairs taken one, seven or all at a time get the same bits,
        # as the stop test reads sums per pair only
        coords, _, (ri, rj) = graded_robust_case
        ta, tb = coords[ri], coords[rj]
        ref = _robust_pairs(ta, tb)
        for chunk in (1, 7):
            assert np.array_equal(np.concatenate([
                _robust_pairs(ta[lo:lo + chunk], tb[lo:lo + chunk])
                for lo in range(0, len(ta), chunk)]), ref)

    def test_triangle_distances_bitwise_on_graded_mesh(self,
                                                       graded_robust_case):
        coords, (ci, cj), _ = graded_robust_case
        ta, tb = coords[ci], coords[cj]
        assert np.array_equal(_triangle_distances(ta, tb),
                              _ref_triangle_distances(ta, tb))
        # random pairs, including touching and crossing ones
        rng = np.random.default_rng(3)
        ta = rng.uniform(0.0, 1.0, (4133, 3, 2))
        tb = rng.uniform(0.0, 1.0, (4133, 3, 2))
        tb[::7] = ta[::7, [1, 2, 0]]
        tb[1::7, 0] = ta[1::7, 2]
        assert np.array_equal(_triangle_distances(ta, tb),
                              _ref_triangle_distances(ta, tb))

    def test_pair_values_off_block_size(self, monkeypatch):
        # the near-field pass gathers, classifies and runs every kernel,
        # the robust path included, block by block
        mesh = graded_square_mesh(16, 2.0)
        coords = mesh.triangle_coords()
        ref = _near_values(*_near_plan(coords, mesh.triangles))
        for block in (37, 256):
            monkeypatch.setattr("crbem.assembly._PAIR_BLOCK", block)
            assert np.array_equal(
                _near_values(*_near_plan(coords, mesh.triangles)), ref)

    @pytest.mark.parametrize("kind", ["uniform", "nvb", "graded", "moved"])
    def test_centroid_bound_keeps_bands(self, monkeypatch, kind):
        # the same labels as with every disjoint pair banded by its exact
        # distance, from far fewer distances.  Infinite radii void the
        # bound: every pair is then a candidate and close, and the labels
        # of the real candidates are found by their codes i nt + j.
        mesh = _sweep_mesh("graded" if kind == "moved" else kind)
        if kind == "moved":
            mesh = Mesh(mesh.vertices + [1000.3, -999.7], mesh.triangles,
                        mesh.ref_edge)
        coords, tris = mesh.triangle_coords(), mesh.triangles
        nt = mesh.num_triangles
        counted = []

        def counting(a, b):
            counted.append(len(a))
            return _triangle_distances(a, b)

        monkeypatch.setattr("crbem.assembly._triangle_distances", counting)
        *_, ci, cj, got = _near_plan(coords, tris)
        exact = sum(counted)
        monkeypatch.setattr(
            "crbem.assembly._bounding_circles",
            lambda tris: (tris.mean(axis=-2), np.full(len(tris), np.inf)))
        *_, vi, vj, voided = _near_plan(coords, tris)
        assert len(vi) == nt * (nt + 1) // 2
        codes = vi.astype(np.int64) * nt + vj
        real = ci.astype(np.int64) * nt + cj
        at = np.searchsorted(codes, real)
        assert np.array_equal(codes[at], real)
        assert np.array_equal(voided[at], got)
        shared = (tris[vi][:, :, None] == tris[vj][:, None, :]).sum(
            axis=(1, 2))
        assert sum(counted) - exact == (shared == 0).sum()
        assert exact < 0.15 * (shared[at] == 0).sum()

    @pytest.mark.parametrize("block", [3, 1024])
    def test_robust_pairs_off_block_size(self, monkeypatch, block):
        # 1031 shape-regular close pairs: neither the pair count nor the
        # child counts are multiples of the block size
        monkeypatch.setattr("crbem.assembly._ROBUST_BLOCK", block)
        rng = np.random.default_rng(5)
        n = 1031 if block == 1024 else 61
        ta = UNIT_RIGHT + rng.uniform(-0.05, 0.05, (n, 3, 2))
        tb = ta + [1.0 + rng.uniform(0.05, 0.3), 0.0]
        got = _robust_near_reference(monkeypatch, ta, tb)
        # one block per call gives the same bits
        monkeypatch.setattr("crbem.assembly._ROBUST_BLOCK", 1 << 16)
        assert np.array_equal(_robust_pairs(ta, tb), got)

    @pytest.mark.parametrize("beta", [2.0, 3.0])
    def test_pair_relative_coordinates_move_only_rounding(self, beta):
        # Against the absolute-coordinate kernel, pair-relative coordinates
        # change only the rounding of the points the path forms: from
        # absolute coordinates each point errs by about u S, with
        # u = 2^-53 and S the pair's largest coordinate magnitude, on the
        # scale of the pair's shortest edge h, and an outer integral of
        # the smooth inner potential passes that on as about u S / h
        # relative.  64 u S / h bounds it with room for the amplification
        # of the cells near the inner panel's edges.  A flipped
        # subdivision decision moves a value on the scale of the stop
        # tolerance 1e-6, far above the bound (1.8e-12 at most here).
        mesh = uniform_refine(graded_square_mesh(8, beta))[0]
        coords, *_, ci, cj, labels = _near_plan(mesh.triangle_coords(),
                                               mesh.triangles)
        k = np.flatnonzero(labels == assembly._ROBUST)
        ta, tb = coords[ci[k]], coords[cj[k]]
        got, ref = _robust_pairs(ta, tb), _ref_robust_pairs(ta, tb)
        h = np.minimum(*(np.sqrt(((t[:, [1, 2, 0]] - t) ** 2).sum(-1))
                         .min(-1) for t in (ta, tb)))
        scale = np.maximum(np.abs(ta).max(axis=(1, 2)),
                           np.abs(tb).max(axis=(1, 2)))
        assert (got != ref).any()
        assert (np.abs(got - ref) <= 64 * 2.0 ** -53 * scale / h * ref).all()

    def test_segment_potential_near_edge_line(self):
        # (0.3, -d) approaches an edge line of the panel from outside; the
        # edge's term d log(num/den) tends to 0, also where d * d underflows
        frames = _edge_frames(UNIT_RIGHT[None])
        d = np.array([0.0, 1e-290, 1e-200, 1e-160, 1e-100])
        got = _identity_potential(frames, np.stack([np.full(d.shape, 0.3),
                                                    -d], axis=1))
        assert np.isfinite(got).all()
        assert (got == got[0, 0]).all()

    def test_edge_offset_rows_match_mapped_points(self):
        # d and s_a from the affine rows against the mapped Duffy points,
        # on random cells and inner panels at several scales, vertex 0 of
        # the inner panel at the origin.  Each side rounds a handful of
        # sums and products of numbers of size at most 2 S, with S the
        # pair's largest coordinate magnitude, so they agree to 16 u S
        # (10 u S at most here)
        rng = np.random.default_rng(17)
        m = 2000
        tb = rng.uniform(-1.0, 1.0, (m, 3, 2))
        tb -= tb[:, :1]
        cells = (rng.uniform(-1.0, 1.0, (m, 3, 2))
                 * 10.0 ** rng.uniform(-3.0, 0.0, (m, 1, 1))
                 + rng.uniform(-1.0, 1.0, (m, 1, 2)))
        frames = _edge_frames(tb)
        rows = assembly._edge_offset_rows(cells, frames,
                                          np.empty((3, 3, 2 * m)))
        nodes, _ = assembly._gauss_duffy(assembly._ROBUST_ORDER)
        n0, n1 = nodes[:, 0, None], nodes[:, 1, None]
        basis = np.stack([np.ones(len(nodes)), n0[:, 0], n1[:, 0]])
        c0, c1, c2 = (cells[:, None, k] for k in range(3))
        rel = frames[:, None, :, :2] - (c0 + n0 * (c1 - c0)
                                        + n1 * (c2 - c1))[:, :, None]
        tx, ty = frames[:, None, :, 2], frames[:, None, :, 3]
        d = rel[..., 0] * ty - rel[..., 1] * tx
        s_a = rel[..., 0] * tx + rel[..., 1] * ty
        scale = np.maximum(np.abs(cells).max(axis=(1, 2)),
                           np.abs(tb).max(axis=(1, 2)))[:, None]
        for k in range(3):
            got = rows[k].T @ basis
            assert (np.abs(got[:m] - d[..., k]) <= 16 * 2.0 ** -53 * scale).all()
            assert (np.abs(got[m:] - s_a[..., k])
                    <= 16 * 2.0 ** -53 * scale).all()

    def test_segment_potential_matches_oracle(self):
        # the shared closed form against the oracle's, which takes np.hypot
        # and drops every edge term with |d| < 1e-14.  At random points
        # both take the same branches and differ by rounding: a few u S,
        # S the panel's largest coordinate magnitude, per edge term (18 u S
        # at most here), within 64 u S.  On an edge line or at a vertex
        # the computed d of that edge is a rounding residue of a few u S
        # that the kernel keeps: its term d log(num/den) is at most about
        # |d| log(16 S^2 / d^2), some 75 |d|, per edge, within 1024 u S
        # over the three (242 u S at most here)
        rng = np.random.default_rng(23)
        u = 2.0 ** -53
        for _ in range(100):
            tri = rng.uniform(-1.0, 1.0, (3, 2)) * 10.0 ** rng.uniform(-2, 1)
            e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
            if e1[0] * e2[1] < e1[1] * e2[0]:
                tri = tri[[0, 2, 1]]
            scale = np.abs(tri).max()
            s = rng.uniform(0.0, 1.0, (40, 1))
            t = rng.uniform(-2.0, 3.0, (40, 1))
            on_lines = np.concatenate(
                [(1 - w) * tri[k] + w * tri[(k + 1) % 3]
                 for k in range(3) for w in (s, t)] + [tri])
            at_random = tri.mean(axis=0) + rng.uniform(-2, 2, (80, 2)) * scale
            frames = _edge_frames(tri[None])
            for pts, tol in ((at_random, 64), (on_lines, 1024)):
                got = _identity_potential(frames, pts)[0]
                assert (np.abs(got - inner_integral(tri, pts))
                        <= tol * u * scale).all()

    def test_identity_cell_maps_nodes_to_points(self):
        # single_layer_field takes _panel_potential with the identity cell
        # and the nodes [1; x; y] of its points.  On random inner panels
        # and cells at scales 1e-3 to 1, the potential at a cell's Duffy
        # points must equal the identity cell's at the mapped points.  Each
        # side forms d and s_a within 16 u S of the mapped point's, with S
        # the pair's largest coordinate magnitude, as in
        # test_edge_offset_rows_match_mapped_points.  An edge's term then
        # moves by at most 2 per unit change of s_a and 2 + log(num/den)
        # per unit change of d, where 0 <= log(num/den) <= log(32 S^2 /
        # d^2), as no distance exceeds 2 sqrt(2) S.  Every |d| here lies
        # far above 32 u S, so this first-order bound holds; with the
        # closed form's own rounding, 64 u S as in
        # test_segment_potential_matches_oracle, the two agree to
        # 32 u S sum_k (4 + log(32 S^2 / d_k^2)) + 64 u S (at most 1/60 of
        # it here).  A transposed or a clockwise identity cell maps the
        # nodes elsewhere and fails by far.
        rng = np.random.default_rng(29)
        m = 300
        u = 2.0 ** -53
        tb = rng.uniform(-1.0, 1.0, (m, 3, 2))
        tb -= tb[:, :1]
        cw = tb[:, 1, 0] * tb[:, 2, 1] < tb[:, 1, 1] * tb[:, 2, 0]
        tb[cw] = tb[cw][:, [0, 2, 1]]
        cells = (rng.uniform(-1.0, 1.0, (m, 3, 2))
                 * 10.0 ** rng.uniform(-3.0, 0.0, (m, 1, 1))
                 + rng.uniform(-1.0, 1.0, (m, 1, 2)))
        frames = _edge_frames(tb)
        nodes, _ = assembly._gauss_duffy(assembly._ROBUST_ORDER)
        basis = np.stack([np.ones(len(nodes)), nodes[:, 0], nodes[:, 1]])
        got = _panel_potential(cells, frames, basis, np.empty((3, 3, 2 * m)),
                               np.empty((8, m, len(nodes))))
        c0, c1, c2 = (cells[:, None, k] for k in range(3))
        pts = c0 + nodes[:, :1] * (c1 - c0) + nodes[:, 1:] * (c2 - c1)
        rel = frames[:, None, :, :2] - pts[:, :, None]
        d = (rel[..., 0] * frames[:, None, :, 3]
             - rel[..., 1] * frames[:, None, :, 2])
        scale = np.maximum(np.abs(cells).max(axis=(1, 2)),
                           np.abs(tb).max(axis=(1, 2)))[:, None]
        assert (np.abs(d) > 1e6 * 32 * u * scale[..., None]).all()
        tol = 32 * u * scale * (
            4 + np.log(32 * scale[..., None] ** 2 / d ** 2)).sum(-1)
        tol += 64 * u * scale

        def at_mapped_points(cell):
            return np.array([_identity_potential(frames[p:p + 1], pts[p],
                                                 cell)[0] for p in range(m)])

        assert (np.abs(got - at_mapped_points(IDENTITY_CELL)) <= tol).all()
        for cell in ([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                     [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]):
            assert (np.abs(got - at_mapped_points(np.array([cell])))
                    > tol).any()

    def test_single_layer_field_matches_oracle(self, refined_once):
        # the field against the oracle's closed form summed over the source
        # panels, at random points and at points on the source edges and
        # at vertices, where the per-edge terms hit the d = 0 and 0/0
        # branches.  As in test_segment_potential_matches_oracle, a
        # panel's potential is within 64 u S of the oracle's at random
        # points and within 1024 u S on its edge lines, here with S the
        # largest coordinate magnitude of the panels and points, so a
        # component of the field is within that times sum_s |w_s| / 4pi
        # (0.7 u S and 1.3 u S times that sum at most here)
        _, mesh = refined_once
        coords = mesh.triangle_coords()
        rng = np.random.default_rng(11)
        values = rng.standard_normal((mesh.num_triangles, 2))
        s = rng.uniform(0.0, 1.0, 60)[:, None]
        on_edges = np.concatenate([(1 - s) * coords[k, 0] + s * coords[k, 1]
                                   for k in range(3)])
        at_random = rng.uniform(-0.2, 1.2, (240, 2))
        weight = np.abs(values).sum(axis=0) / (4.0 * np.pi)
        for pts, tol in ((at_random, 64), (np.concatenate([on_edges,
                                                           mesh.vertices]),
                                           1024)):
            scale = max(np.abs(coords).max(), np.abs(pts).max())
            ref = sum(inner_integral(c, pts)[:, None] * v
                      for c, v in zip(coords, values)) / (4.0 * np.pi)
            assert (np.abs(single_layer_field(coords, values, pts) - ref)
                    <= tol * 2.0 ** -53 * scale * weight).all()


def _traced_peak(fn, *args):
    """Bytes that fn(*args) allocates at its peak above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_pair_values_memory_is_blocked(monkeypatch):
    # The near pass holds, per candidate, its label and its copy and
    # written flags (3 bytes), and no array of values: they go straight
    # into the table.  On top, one phase at a time:
    # - the classifier: per close candidate (a superset of its unsure
    #   pairs) the index, distance, both gathered diameters and their
    #   maximum, 40 bytes;
    # - per label, the index list of its pairs, 4 bytes a pair, and for
    #   a disjoint band the lattice keys, exponents, start flags and
    #   representatives while its classes are found, 14 more;
    # - for a singular label its kernel inputs, 136 bytes a pair, up to
    #   three times over while _key_classes runs, and its class keys;
    # - the robust path's own peak, measured on each of its calls of
    #   _ROBUST_BLOCK / 4 pairs, and their index list.
    # Each phase's work arrays stay under 1 MiB: blocks of _PAIR_BLOCK
    # pairs and the lattice's codes of 2048 panels.  On this table
    # 8 bytes a candidate, 5.1 MB, exceed that term, so one more array
    # of a value or an int64 index per candidate fails the bound.  The
    # store of singular class values is filled by a first pass, so that
    # the measured pass adds no class to it.
    mesh = graded_square_mesh(32, 2.0)
    coords, tris = mesh.triangle_coords(), mesh.triangles
    aspect, diam = _aspect_and_diameter(coords)
    ci, cj, close = _candidates(coords, diam)
    rows = _panel_rows(coords)
    G = np.empty((len(coords),) * 2)
    store = {}

    def near_pass():
        label = assembly._classify_pairs(coords, tris, aspect, diam, ci, cj,
                                         close)
        _pair_values(G, coords, rows, tris, ci, cj, label, None, store)
        return label

    label = near_pass()  # builds the cached rules and the store
    count = np.bincount(label, minlength=7)
    size = assembly._ROBUST_BLOCK // 4
    ri, rj = ci[label == assembly._ROBUST], cj[label == assembly._ROBUST]
    assert len(ri) > 2 * size
    robust = max(_traced_peak(_robust_pairs, coords[ri[lo:lo + size]],
                              coords[rj[lo:lo + size]])
                 for lo in range(0, len(ri), size))
    bands = count[assembly._DISJOINT], count[assembly._CLOSE]
    singular = (count[assembly._IDENTICAL], count[assembly._EDGE],
                count[assembly._VERTEX])
    phase = max(40 * np.count_nonzero(close), 18 * max(bands),
                (4 + 3 * 136 + 200) * max(singular), 4 * len(ri) + robust)
    assert 8 * len(ci) > 1 << 20
    assert _traced_peak(near_pass) < 3 * len(ci) + phase + (1 << 20)


def test_far_table_memory():
    # The split holds no more than the table, the near candidates twice,
    # as their int32 codes i nt + j (per-strip pieces, then joined) and as
    # the two index lists split from them, the orbit map, and work arrays
    # of at most 4 MiB: the candidates' close flags, and per strip its
    # bounds, its far pairs (at most 32,768 here), their orbit images
    # under the quarter turn, and the rule kernel's blocks.  The orbit map
    # takes 5 bytes a candidate, an int32 representative and a kept flag.
    # No array spans the far pairs of the whole table: on this mesh one
    # int64 index list of them alone takes 11.7 MB.
    mesh = uniform_refine(graded_square_mesh(16, 2.0))[0]
    coords = mesh.triangle_coords()
    diam = _diameters(coords)
    sigma = _quarter_turn(coords)
    assert sigma is not None
    rows = _panel_rows(coords)

    def far_table():
        G = np.empty((len(coords),) * 2)
        return G, _split_pairs(G, coords, rows, diam, sigma)

    G, (ci, cj, _, (rep, kept)) = far_table()
    limit = (G.nbytes + 2 * (ci.nbytes + cj.nbytes) + rep.nbytes
             + kept.nbytes + (4 << 20))
    del G
    assert _traced_peak(far_table) < limit


def test_near_turn_memory(monkeypatch):
    # The orbit map takes 5 bytes a candidate, its representative and
    # whether the turn keeps its order.  The copy flags take one byte
    # more, and finding them a few bytes more per candidate for a moment.
    # The far pairs' orbit images are held one strip at a time.
    mesh = uniform_refine(graded_square_mesh(8, 2.0))[0]
    ci, _, _ = _near_pairs(mesh)
    assemble_energy_form(mesh)  # builds the cached quadrature rules
    turned = _traced_peak(assemble_energy_form, mesh)
    monkeypatch.setattr("crbem.assembly._quarter_turn", lambda coords: None)
    assert turned <= _traced_peak(assemble_energy_form, mesh) + 16 * len(ci)


def _ref_near_candidates(mesh):
    """All pairs i <= j whose centroid distance minus both radii is below
    RHO_FAR times the larger diameter, in (i, j) order, from one dense
    nt x nt comparison."""
    coords = mesh.triangle_coords()
    cent = coords.mean(axis=1)
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
    if kind == "nvb":
        return _nvb_mesh(600)
    mesh = build_initial_square_mesh()
    while mesh.num_triangles < 512:
        mesh = uniform_refine(mesh)[0]
    return mesh


def _nvb_mesh(panels):
    """The initial mesh bisected by NVB, a random sixth of the panels at a
    time, until it has at least ``panels`` panels."""
    mesh = build_initial_square_mesh()
    rng = np.random.default_rng(7)
    while mesh.num_triangles < panels:
        marked = rng.choice(mesh.num_triangles,
                            max(1, mesh.num_triangles // 6), replace=False)
        mesh = refine_nvb(mesh, marked)[0]
    return mesh


def _far_mask(nt, *candidates):
    """True where (i, j), i <= j, is no near candidate of any of the
    lists: the far entries that _split_pairs writes."""
    far = np.triu(np.ones((nt, nt), dtype=bool))
    for ci, cj in candidates:
        far[ci, cj] = False
    return far


def _strict_lower(G):
    """The entries G[i, j], i > j, which no pass writes before the mirror
    of assemble_energy_form."""
    return G[np.tril_indices(len(G), -1)]


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
        # the far entries, i <= j, and the table of assemble_energy_form
        # that holds them and their mirror
        mesh, (G, ci, cj) = swept
        assert np.isnan(_strict_lower(G)).all()
        table = assemble_energy_form(mesh).table
        assert np.array_equal(table, table.T)
        far = _far_mask(mesh.num_triangles, (ci, cj))
        assert np.array_equal(table[far], G[far])

    def test_odd_strip_and_tile_sizes(self, swept, monkeypatch):
        # strips of 7 panels divide none of the panel counts, and the rule
        # kernel's blocks of 37 pairs, one GEMM step each, mostly divide
        # no strip's far pairs
        mesh, (G, ci, cj) = swept
        assert mesh.num_triangles % 7
        monkeypatch.setattr("crbem.assembly._SCAN_STRIP", 7)
        monkeypatch.setattr("crbem.assembly._RULE_CHUNK", 37 * 81)
        assert assembly._rule_step(quadrature_rule("disjoint", 3)) == 37
        H, hi, hj = _far_sweep(mesh)
        assert np.array_equal(hi, ci) and np.array_equal(hj, cj)
        assert np.isnan(_strict_lower(H)).all()
        far = _far_mask(mesh.num_triangles, (ci, cj))
        assert far.any()
        assert (np.abs(H[far] - G[far]) / G[far]).max() <= 1e-15

    def test_far_entries_match_direct_sum(self, swept):
        # every far entry of a few rows, summed pair by pair; the split
        # writes the pair (i, j) as G[min, max]
        mesh, (G, ci, cj) = swept
        rule = quadrature_rule("disjoint", 3)
        coords = mesh.triangle_coords()
        far = _far_mask(mesh.num_triangles, (ci, cj))
        far |= far.T
        for i in (0, mesh.num_triangles // 2, mesh.num_triangles - 1):
            for j in np.flatnonzero(far[i]):
                ref = _direct_rule_value(rule, coords[i], coords[j])
                assert abs(G[min(i, j), max(i, j)] - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("kind", ["uniform", "graded1", "graded2",
                                      "graded3", "refined"])
    def test_quarter_turn_found(self, kind):
        # vertex k of panel sigma[i] is vertex k of panel i turned, exactly
        if kind == "uniform":
            mesh = _sweep_mesh("uniform")
        elif kind == "refined":
            mesh = _sweep_mesh("graded")
        else:
            mesh = graded_square_mesh(16, float(kind[-1]))
        coords = mesh.triangle_coords()
        sigma = _quarter_turn(coords)
        assert sigma is not None
        assert np.array_equal(np.sort(sigma), np.arange(len(coords)))
        assert np.array_equal(coords[sigma, :, 0], 1.0 - coords[..., 1])
        assert np.array_equal(coords[sigma, :, 1], coords[..., 0])

    @pytest.mark.parametrize("kind", ["uniform", "graded2", "graded3"])
    def test_reflection_found(self, kind):
        # vertex 0 of panel rho[i] is vertex 0 of panel i reflected, and
        # vertices 1 and 2 swap, exactly; the panels stay counterclockwise
        mesh = (_sweep_mesh("uniform") if kind == "uniform"
                else graded_square_mesh(16, float(kind[-1])))
        coords = mesh.triangle_coords()
        rho = panel_map(coords, REFLECTION)
        assert rho is not None
        ident = np.arange(len(coords))
        assert np.array_equal(np.sort(rho), ident)
        assert np.array_equal(rho[rho], ident)
        image = coords[rho][:, [0, 2, 1]]
        assert np.array_equal(image[..., 0], coords[..., 0])
        assert np.array_equal(image[..., 1], 1.0 - coords[..., 1])
        d1, d2 = (coords[rho][:, k] - coords[rho][:, 0] for k in (1, 2))
        assert (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0.0).all()

    @pytest.mark.parametrize("kind", ["nvb", "moved", "ulp"])
    def test_no_reflection(self, kind):
        mesh = _sweep_mesh("nvb" if kind == "nvb" else "graded")
        vertices = mesh.vertices.copy()
        if kind == "moved":
            vertices += [1000.3, -999.7]
        elif kind == "ulp":
            interior = np.flatnonzero(~mesh.boundary_vertex)[0]
            vertices[interior, 1] = np.nextafter(vertices[interior, 1], 2.0)
        moved = Mesh(vertices, mesh.triangles, mesh.ref_edge)
        assert panel_map(moved.triangle_coords(), REFLECTION) is None

    @pytest.mark.parametrize("kind", ["nvb", "moved", "ulp"])
    def test_no_quarter_turn(self, kind):
        mesh = _sweep_mesh("nvb" if kind == "nvb" else "graded")
        vertices = mesh.vertices.copy()
        if kind == "moved":
            vertices += [1000.3, -999.7]
        elif kind == "ulp":
            interior = np.flatnonzero(~mesh.boundary_vertex)[0]
            vertices[interior, 0] = np.nextafter(vertices[interior, 0], 2.0)
        moved = Mesh(vertices, mesh.triangles, mesh.ref_edge)
        assert _quarter_turn(moved.triangle_coords()) is None

    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_turn_matches_full_sweep(self, monkeypatch, kind):
        mesh = _sweep_mesh(kind)
        G, ci, cj = _far_sweep(mesh)
        monkeypatch.setattr("crbem.assembly._quarter_turn",
                            lambda coords: None)
        H, hi, hj = _far_sweep(mesh)
        assert np.array_equal(ci, hi) and np.array_equal(cj, hj)
        assert np.isnan(_strict_lower(G)).all()
        far = _far_mask(mesh.num_triangles, (ci, cj))
        assert 2 * far.sum() > 0.3 * far.size
        assert (np.abs(G[far] - H[far]) / H[far]).max() <= 2e-15

    @pytest.mark.parametrize("levels", [0, 1])
    def test_small_tables_keep_their_bits(self, monkeypatch, levels):
        # 8 and 32 panels, adaptive-smooth's tied tables: every pair is a
        # near candidate
        mesh = build_initial_square_mesh()
        for _ in range(levels):
            mesh = uniform_refine(mesh)[0]
        assert _quarter_turn(mesh.triangle_coords()) is not None
        G, ci, _ = _far_sweep(mesh)
        nt = mesh.num_triangles
        assert len(ci) == nt * (nt + 1) // 2
        assert np.isnan(G).all()
        G = assemble_energy_form(mesh).table
        monkeypatch.setattr("crbem.assembly._quarter_turn",
                            lambda coords: None)
        assert np.array_equal(assemble_energy_form(mesh).table, G)

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
        assert 2 * far.sum() > 0.3 * far.size
        assert (np.abs(H[far] - G[far]) / G[far]).max() <= 1e-12


@pytest.mark.parametrize("kind", ["uniform", "nvb", "graded", "moved"])
def test_far_pairs_and_candidates_partition_the_table(kind):
    # The table comes from np.empty.  On a table of NaNs the split
    # writes G[i, j] of exactly the pairs i <= j that are no candidate of
    # the dense reference: it writes no near entry and nothing below the
    # diagonal, and a quarter-turn copy never reads an entry it has not
    # written.  The candidates it returns are the reference's, so the far
    # entries and the candidates partition the pairs i <= j.  uniform and
    # graded have the turn.
    mesh = _sweep_mesh("graded" if kind == "moved" else kind)
    if kind == "moved":
        mesh = Mesh(mesh.vertices + [1000.3, -999.7], mesh.triangles,
                    mesh.ref_edge)
    coords = mesh.triangle_coords()
    nt, diam = len(coords), _diameters(coords)
    sigma = _quarter_turn(coords)
    assert (sigma is not None) == (kind in ("uniform", "graded"))
    G = np.full((nt, nt), np.nan)
    ci, cj, *_ = _split_pairs(G, coords, _panel_rows(coords), diam, sigma)
    ri, rj = _ref_near_candidates(mesh)
    assert np.array_equal(ci, ri) and np.array_equal(cj, rj)
    far = _far_mask(nt, (ri, rj))
    assert 2 * far.sum() > 0.2 * nt * nt
    assert np.array_equal(~np.isnan(G), far)
    assert np.isnan(_strict_lower(G)).all()


def test_far_pair_with_a_near_representative_is_evaluated(monkeypatch):
    # Rounding can put a far pair's representative in the near band.  A
    # grown enclosing radius of panel 0, which leads its orbit, does that
    # on purpose: more pairs of panel 0 become candidates, while those of
    # its quarter-turn images stay far and must be evaluated, not copied.
    mesh = _sweep_mesh("uniform")
    coords = mesh.triangle_coords()
    nt, diam = len(coords), _diameters(coords)
    sigma = _quarter_turn(coords)
    real = assembly._bounding_circles

    def grown(tris):
        cent, radius = real(tris)
        radius[0] += 0.25
        return cent, radius

    monkeypatch.setattr(assembly, "_bounding_circles", grown)
    G, H = np.full((2, nt, nt), np.nan)
    rows = _panel_rows(coords)
    ci, cj, *_ = _split_pairs(G, coords, rows, diam, sigma)
    _split_pairs(H, coords, rows, diam, None)
    far = _far_mask(nt, (ci, cj))
    both = far | far.T
    # pairs (0, b), near, whose image (sigma 0, sigma b) is far
    assert (~both[0] & both[sigma[0], sigma]).sum() > 10
    assert np.array_equal(~np.isnan(G), far)
    assert (np.abs(G[far] - H[far]) / H[far]).max() <= 2e-15


@pytest.mark.parametrize("kind", ["uniform", "graded"])
def test_orbit_map_matches_reference(kind):
    # (rep, kept) of each near candidate, from sigma pair by pair: the
    # codes min nt + max of the four images, the candidate of the smallest
    # (itself where that is no candidate), and whether some image of the
    # smallest code keeps the order a <= b
    mesh = _sweep_mesh(kind)
    coords = mesh.triangle_coords()
    nt = len(coords)
    sigma = _quarter_turn(coords)
    ci, cj, _, (rep, kept) = _split_pairs(np.empty((nt, nt)), coords,
                                          _panel_rows(coords),
                                          _diameters(coords), sigma)
    a, b = ci.astype(np.int64), cj.astype(np.int64)
    images = [(a, b)]
    for _ in range(3):
        a, b = sigma[a], sigma[b]
        images.append((a, b))
    codes = np.stack([np.minimum(a, b) * nt + np.maximum(a, b)
                      for a, b in images], axis=1).tolist()
    ordered = np.stack([a <= b for a, b in images], axis=1).tolist()
    index = {c: k for k, c in enumerate(codes_k[0] for codes_k in codes)}
    ref_rep, ref_kept = np.empty(len(ci), np.int64), np.empty(len(ci), bool)
    for k, (c, o) in enumerate(zip(codes, ordered)):
        best = min(c)
        ref_rep[k] = index.get(best, k)
        ref_kept[k] = any(ok for ck, ok in zip(c, o) if ck == best)
    assert np.array_equal(rep, ref_rep) and np.array_equal(kept, ref_kept)
    own = ref_rep == np.arange(len(ci))
    assert own.sum() < 0.3 * len(ci) and (~ref_kept).any()


@pytest.mark.parametrize("kind", ["uniform", "nvb", "graded", "moved"])
def test_labels_match_dense_reference(kind):
    # the labels that assemble_energy_form evaluates are those of the
    # dense candidate reference: the case by the shared vertex count and
    # the aspects, the band of a disjoint pair by its exact distance
    mesh = _sweep_mesh("graded" if kind == "moved" else kind)
    if kind == "moved":
        mesh = Mesh(mesh.vertices + [1000.3, -999.7], mesh.triangles,
                    mesh.ref_edge)
    labels, real = [], assembly._classify_pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_classify_pairs",
                   lambda *args: labels.append(real(*args)) or labels[-1])
        assemble_energy_form(mesh)
    coords, tris = mesh.triangle_coords(), mesh.triangles
    ci, cj = _ref_near_candidates(mesh)
    shared = (tris[ci][:, :, None] == tris[cj][:, None, :]).sum(axis=(1, 2))
    lmax2 = ((coords[:, [1, 2, 0]] - coords) ** 2).sum(-1).max(-1)
    aniso = lmax2 / _ref_doubled_area(coords) > SINGULAR_ASPECT_LIMIT
    ref = np.array([assembly._DISJOINT, assembly._VERTEX, assembly._EDGE,
                    assembly._IDENTICAL])[shared]
    ref[(shared > 0) & (aniso[ci] | aniso[cj])] = assembly._ROBUST
    ref[(shared == 3) & aniso[ci]] = assembly._SELF
    d = np.flatnonzero(shared == 0)
    diam = _diameters(coords)
    rho = _ref_triangle_distances(coords[ci[d]], coords[cj[d]]) / np.maximum(
        diam[ci[d]], diam[cj[d]])
    ref[d[rho < RHO_NEAR]] = assembly._CLOSE
    ref[d[rho < RHO_CLOSE]] = assembly._ROBUST
    assert len(labels) == 1 and np.array_equal(labels[0], ref)
    if kind in ("graded", "moved"):
        assert len(np.unique(ref)) == 7


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_robust_path_settles_below_its_depth_cap(monkeypatch, beta):
    # A pair with live cells at depth _ROBUST_MAX_DEPTH raises
    # NumericalError.  With a cap of 8 instead of 24 the robust pairs of
    # the refined graded mesh keep their bits, so none of them comes
    # near the cap.
    mesh = uniform_refine(graded_square_mesh(8, beta))[0]
    coords, *_, ci, cj, labels = _near_plan(mesh.triangle_coords(),
                                           mesh.triangles)
    k = np.flatnonzero(labels == assembly._ROBUST)
    assert len(k) > 1000
    ta, tb = coords[ci[k]], coords[cj[k]]
    ref = _robust_pairs(ta, tb)
    monkeypatch.setattr("crbem.assembly._ROBUST_MAX_DEPTH", 8)
    assert np.array_equal(_robust_pairs(ta, tb), ref)


def test_robust_path_raises_at_its_depth_cap(monkeypatch):
    # No pair is accepted unsettled: with a cap of 3 levels some robust
    # pair of the refined graded mesh still has live cells, and both the
    # path and the table raise, naming the depth and, in the table, the
    # pair's panels
    mesh = uniform_refine(graded_square_mesh(8, 3.0))[0]
    coords, *_, ci, cj, labels = _near_plan(mesh.triangle_coords(),
                                           mesh.triangles)
    k = np.flatnonzero(labels == assembly._ROBUST)
    monkeypatch.setattr("crbem.assembly._ROBUST_MAX_DEPTH", 3)
    with pytest.raises(NumericalError, match="live cells at depth 4, and a "
                       "pair may take 4096 down to depth 3"):
        _robust_pairs(coords[ci[k]], coords[cj[k]])
    with pytest.raises(NumericalError, match=r"the pair of panels \d+ and "
                       r"\d+ takes \d+ live cells at depth 4"):
        assemble_energy_form(mesh)


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_robust_and_self_entries_shift_invariant(beta):
    # The shift (1000.3, -999.7) moves these dyadic coordinates exactly,
    # so every coordinate difference keeps its bits, and so do the
    # pair-relative robust path and the closed-form self entries.  The
    # moved mesh has no quarter turn and evaluates every pair whose entry
    # the unmoved mesh copies from its orbit.  The pairs compared are
    # those of the robust path or the self entries on both meshes: the
    # triangle distances are formed from absolute coordinates, and a
    # disjoint pair at a band edge exactly (rho = RHO_CLOSE or RHO_NEAR)
    # takes its band from their rounding.
    mesh = uniform_refine(graded_square_mesh(8, beta))[0]
    moved = Mesh(mesh.vertices + [1000.3, -999.7], mesh.triangles,
                 mesh.ref_edge)
    coords, moved_coords = mesh.triangle_coords(), moved.triangle_coords()
    assert np.array_equal(moved_coords - moved_coords[:, :1],
                          coords - coords[:, :1])
    assert _quarter_turn(moved_coords) is None
    *_, ci, cj, labels = _near_plan(coords, mesh.triangles)
    *_, mi, mj, moved_labels = _near_plan(moved_coords, moved.triangles)
    assert np.array_equal(ci, mi) and np.array_equal(cj, mj)
    both = [(lab == assembly._ROBUST) | (lab == assembly._SELF)
            for lab in (labels, moved_labels)]
    k = np.flatnonzero(both[0] & both[1])
    assert len(k) > 0.99 * max(both[0].sum(), both[1].sum()) > 1000
    G = assemble_energy_form(mesh).table
    H = assemble_energy_form(moved).table
    assert np.array_equal(G[ci[k], cj[k]], H[ci[k], cj[k]])


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_robust_and_self_copies_keep_the_table(beta):
    # On dyadic graded tables a robust or self entry copied from its
    # orbit is bitwise the pair's own value, so the table with the copies
    # equals, bit for bit, the table that evaluates every such pair
    mesh = uniform_refine(graded_square_mesh(16, beta))[0]
    G = assemble_energy_form(mesh).table
    real = assembly._pair_values

    def no_copies(G, coords, rows, tris, i, j, label, orbit, classes):
        rep, kept = orbit
        own = (label == assembly._ROBUST) | (label == assembly._SELF)
        rep = np.where(own, np.arange(len(rep)), rep)
        return real(G, coords, rows, tris, i, j, label, (rep, kept), classes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_pair_values", no_copies)
        H = assemble_energy_form(mesh).table
    assert np.array_equal(G, H)


class TestNearTurn:
    @pytest.fixture(scope="class",
                    params=["uniform", "graded", "fine", "uniform128"])
    def turned(self, request):
        # the near candidates and quarter turn of a mesh, and its tables
        # with and without the turn, each with the labels of its near pass
        # and the numbers of robust-path and rule pairs it evaluated.  The
        # 128-panel table is the smallest uniform one above _SMALL_TABLE.
        # Both runs take no lattice classes (_lattice_classes), which
        # join turned pairs of the disjoint bands with or without the turn.
        if request.param == "fine":
            mesh = uniform_refine(graded_square_mesh(16, 2.0))[0]
        elif request.param == "uniform128":
            mesh = uniform_refine(uniform_refine(
                build_initial_square_mesh())[0])[0]
            assert mesh.num_triangles == 128 > assembly._SMALL_TABLE
        else:
            mesh = _sweep_mesh(request.param)
        real = (assembly._classify_pairs, assembly._robust_pairs,
                assembly._rule_values)

        def recorded(fn, out, measure=lambda result: result):
            def wrapper(*args):
                result = fn(*args)
                out.append(measure(result))
                return result
            return wrapper

        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "_panel_lattice", lambda coords: None)
            for turn in (True, False):
                if not turn:
                    mp.setattr(assembly, "_quarter_turn", lambda coords: None)
                labels, robust, rows = [], [], []
                mp.setattr(assembly, "_classify_pairs",
                           recorded(real[0], labels))
                mp.setattr(assembly, "_robust_pairs",
                           recorded(real[1], robust, len))
                mp.setattr(assembly, "_rule_values",
                           recorded(real[2], rows, len))
                table = assemble_energy_form(mesh).table
                runs.append((table, labels[0], sum(robust), sum(rows)))
        ci, cj, _ = _near_pairs(mesh)
        return (ci, cj, _quarter_turn(mesh.triangle_coords())), runs

    def test_near_entries_agree(self, turned):
        (ci, cj, _), ((G, *_), (H, *_)) = turned
        assert (np.abs(G[ci, cj] - H[ci, cj]) / H[ci, cj]).max() <= 2e-15

    def test_same_labels_and_robust_entries(self, turned):
        # the robust and self entries, copies included, keep the bits of
        # the pass that evaluates every pair
        (ci, cj, _), ((G, labels, *_), (H, ref_labels, *_)) = turned
        assert np.array_equal(labels, ref_labels)
        k = np.flatnonzero((labels == assembly._ROBUST)
                           | (labels == assembly._SELF))
        assert np.array_equal(G[ci[k], cj[k]], H[ci[k], cj[k]])

    def test_tables_bitwise_symmetric(self, turned):
        _, runs = turned
        for table, *_ in runs:
            assert np.array_equal(table, table.T)

    def test_rule_pairs_evaluated_once_per_orbit(self, turned):
        _, ((*_, rows), (*_, ref_rows)) = turned
        assert rows < 0.26 * ref_rows

    def test_robust_pairs_evaluated_once_per_orbit_and_order(self, turned):
        # The robust path evaluates at most one pair per orbit, plus the
        # pairs that no turn onto the orbit's smallest pair (min, max)
        # takes in their own order, i before j, as the path's outer and
        # inner panels play unlike roles, and the pairs whose smallest
        # image is no robust pair: a disjoint pair at a band edge exactly
        # takes its band from rounding, which the turn may change.  All
        # three are counted here from the turned indices of the robust
        # pairs.
        (ci, cj, sigma), ((_, labels, robust, _), (*_, ref_robust, _)) = (
            turned)
        k = np.flatnonzero(labels == assembly._ROBUST)
        assert ref_robust == len(k)
        if not len(k):
            assert robust == 0
            return
        nt = len(sigma)
        a, b = ci[k].astype(np.int64), cj[k].astype(np.int64)
        images = [(a, b)]
        for _ in range(3):
            a, b = sigma[a], sigma[b]
            images.append((a, b))
        codes = [np.minimum(a, b) * nt + np.maximum(a, b) for a, b in images]
        best = np.min(codes, axis=0)
        kept = np.any([(c == best) & (a <= b)
                       for c, (a, b) in zip(codes, images)], axis=0)
        lone = ~np.isin(best, ci[k].astype(np.int64) * nt + cj[k])
        assert robust <= (len(np.unique(best[~lone])) + lone.sum()
                          + (~kept).sum())
        assert robust < 0.3 * len(k)
    def test_representative_of_another_label_is_evaluated(self):
        mesh = _sweep_mesh("graded")
        args = _near_plan(mesh.triangle_coords(), mesh.triangles)
        labels = args[-1]
        ref = _near_values(*args)
        disjoint = np.flatnonzero(labels == assembly._DISJOINT)
        k, m = disjoint[:2]
        rep = np.arange(len(labels))
        kept = np.ones(len(labels), bool)
        rep[k] = np.flatnonzero(labels == assembly._EDGE)[0]
        assert np.array_equal(_near_values(*args, (rep, kept)), ref)
        # a representative of the same label lends its value
        rep[k] = m
        got = _near_values(*args, (rep, kept))
        assert got[k] == got[m] and ref[k] != ref[m]
        # a robust pair copies only where the turn keeps its order
        robust = np.flatnonzero(labels == assembly._ROBUST)
        k, m = robust[:2]
        rep[k] = m
        kept[k] = False
        assert _near_values(*args, (rep, kept))[k] == ref[k] != ref[m]
        kept[k] = True
        assert _near_values(*args, (rep, kept))[k] == ref[m]


def _ref_rule_inputs(a, b):
    """The rule kernel's 15 Gram entries and two doubled areas, (P, 17), of
    the panel pairs (a[p], b[p]), (P, 3, 2) each, in the rule's vertex
    order, as an einsum over gathered (P, 15, 2) vector pairs."""
    gi, gj = np.triu_indices(5)
    vecs = np.stack([a[:, 0] - b[:, 0], a[:, 1] - a[:, 0], a[:, 2] - a[:, 1],
                     b[:, 0] - b[:, 1], b[:, 1] - b[:, 2]], axis=1)
    gram = np.einsum("pkc,pkc->pk", vecs[:, gi], vecs[:, gj])
    return np.column_stack([gram, _ref_doubled_area(a), _ref_doubled_area(b)])


def _ref_keys(x):
    """The rows of kernel inputs x times 4^-f, f half the binary exponent of
    the largest Gram diagonal entry, -0 as +0; f; and whether the
    normalisation round-trips."""
    gi, gj = np.triu_indices(5)
    f = np.frexp(x[:, np.flatnonzero(gi == gj)].max(axis=1))[1] // 2
    key = np.ldexp(x, -2 * f[:, None])
    return key + 0.0, f, (np.ldexp(key, 2 * f[:, None]) == x).all(axis=1)


def test_order_ids_number_the_vertex_orders():
    orders = assembly._ORDERS
    assert sorted(map(tuple, orders)) == sorted(
        itertools.permutations(range(3)))
    assert np.array_equal(orders[0], [0, 1, 2])
    assert np.array_equal(assembly._order_id(orders[:, 0], orders[:, 1]),
                          np.arange(len(orders)))


def test_rule_inputs_keep_the_earlier_bits():
    # Two panel rows in any of the 36 pairs of vertex orders give the
    # einsum's inputs of the panels with their vertices so reordered
    # (np.array_equal; a zero may differ in sign, which no sum of the
    # kernel's GEMM tells apart), on random panels of magnitudes 1e-12 to
    # 1e3 and on the singular pairs of a mesh
    rng = np.random.default_rng(13)
    n = 20000
    panels = (rng.standard_normal((2 * n, 3, 2))
              * 10.0 ** rng.uniform(-12.0, 3.0, (2 * n, 3, 2)))
    cases = [(panels, np.arange(n), np.arange(n, 2 * n))]
    mesh = uniform_refine(graded_square_mesh(16, 2.0))[0]
    ci, cj, shared = _near_pairs(mesh)
    singular = shared > 0
    assert singular.sum() > 10000
    cases.append((mesh.triangle_coords(), ci[singular], cj[singular]))
    orders = assembly._ORDERS
    for coords, i, j in cases:
        rows = _panel_rows(coords)
        nt = len(coords)
        for oi, oj in itertools.product(range(len(orders)), repeat=2):
            got = assembly._pair_inputs(rows, oi * nt + i, oj * nt + j)
            assert got.shape == (len(i), 17)
            want = _ref_rule_inputs(coords[i][:, orders[oi]],
                                    coords[j][:, orders[oj]])
            assert np.array_equal(got, want)


def test_rule_values_in_steps_match_the_panel_kernel():
    # the keyed labels evaluate rows of inputs formed for all their pairs
    # at once, with the bits of the streamed labels, which form their
    # inputs per GEMM step; so do rows of inputs in C order
    mesh = _nvb_mesh(200)
    coords = mesh.triangle_coords()
    rows = _panel_rows(coords)
    ci, cj, shared = _near_pairs(mesh)
    k = np.flatnonzero(shared == 0)[:500]
    a, b = ci[k], cj[k]
    rule = quadrature_rule("identical", 5)
    step = assembly._rule_step(rule)
    assert step < len(k)
    want = np.concatenate([
        _rule_values(rule, assembly._pair_inputs(rows, a[lo:lo + step],
                                                 b[lo:lo + step]))
        for lo in range(0, len(k), step)])
    assert np.array_equal(
        _rule_values(rule, assembly._pair_inputs(rows, a, b)), want)
    x = np.ascontiguousarray(_ref_rule_inputs(coords[a], coords[b]))
    assert np.array_equal(_rule_values(rule, x), want)


@pytest.mark.parametrize("case", ["identical", "edge-adjacent",
                                  "vertex-adjacent", "disjoint"])
@pytest.mark.parametrize("order", [ORDER - 2, ORDER])
def test_rule_monomials_match_the_gathered_products(case, order):
    # the products c_i c_j of c = (1, x1, x2, y1, y2), formed as whole
    # gathered (15, K) arrays, off-diagonal rows doubled: bit for bit
    rule = quadrature_rule(case, order)
    c = np.vstack([np.ones(len(rule.weights)), rule.x_nodes.T,
                   rule.y_nodes.T])
    gi, gj = np.triu_indices(5)
    want = c[gi] * c[gj]
    want[gi != gj] *= 2.0
    got = _rule_monomials(case, order)
    assert got.shape == (15, len(rule.weights))
    assert np.array_equal(got, want)
    assert not got.flags.writeable


def test_every_gemm_takes_at_most_one_step():
    # the GEMM rounds a row by its position in the block, so every GEMM
    # of the rule kernel, class representatives included, takes at most
    # _rule_step(rule) rows
    calls = []
    real = assembly._rule_monomials

    class Monomials:
        # numpy hands x @ Monomials(...) to __rmatmul__
        __array_ufunc__ = None

        def __init__(self, case, order):
            self.case = case
            self.step = assembly._rule_step(quadrature_rule(case, order))
            self.table = real(case, order)

        def __rmatmul__(self, x):
            calls.append((len(x), self.step, self.case))
            return x @ self.table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_rule_monomials", Monomials)
        assemble_energy_form(_nvb_mesh(200))
    assert {case for *_, case in calls} == {
        "identical", "edge-adjacent", "vertex-adjacent", "disjoint"}
    assert all(rows <= step for rows, step, _ in calls)


def _own_classes(x):
    return np.arange(len(x)), np.zeros(len(x), np.int32)


class TestRuleClasses:
    @pytest.fixture(scope="class", params=["uniform", "graded", "nvb"])
    def classed(self, request):
        # tables with the key and lattice classes and without them (every
        # pair its own class), each with the labels of its near pass, its
        # robust-path values and the kernel inputs its rule kernel saw per
        # singular case
        mesh = (_nvb_mesh(200) if request.param == "nvb"
                else _sweep_mesh(request.param))
        assert mesh.num_triangles > assembly._SMALL_TABLE
        real = (assembly._classify_pairs, assembly._robust_pairs,
                assembly._rule_values)
        runs = {}
        with pytest.MonkeyPatch.context() as mp:
            for run in ("classes", "none"):
                if run == "none":
                    mp.setattr(assembly, "_key_classes", _own_classes)
                    mp.setattr(assembly, "_panel_lattice", lambda coords: None)
                labels, robust, seen = [], [], {}

                def classify(*args):
                    labels.append(real[0](*args))
                    return labels[-1]

                def robust_pairs(*args):
                    robust.append(real[1](*args))
                    return robust[-1]

                def kernel(rule, x):
                    if rule.case != "disjoint":
                        seen.setdefault(rule.case, []).append(x)
                    return real[2](rule, x)

                mp.setattr(assembly, "_classify_pairs", classify)
                mp.setattr(assembly, "_robust_pairs", robust_pairs)
                mp.setattr(assembly, "_rule_values", kernel)
                table = assemble_energy_form(mesh).table
                runs[run] = (table, labels[0],
                             np.concatenate(robust or [np.empty(0)]),
                             {case: np.concatenate(calls)
                              for case, calls in seen.items()})
        ci, cj, _ = _near_pairs(mesh)
        return (ci, cj), runs

    def test_near_entries_agree(self, classed):
        (ci, cj), runs = classed
        G, H = runs["classes"][0], runs["none"][0]
        assert (np.abs(G[ci, cj] - H[ci, cj]) / H[ci, cj]).max() <= 2e-15

    def test_same_labels_robust_and_self_entries(self, classed):
        (ci, cj), runs = classed
        G, labels, robust, _ = runs["classes"]
        H, ref_labels, ref_robust, _ = runs["none"]
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(robust, ref_robust)
        k = np.flatnonzero((labels == assembly._ROBUST)
                           | (labels == assembly._SELF))
        assert np.array_equal(G[ci[k], cj[k]], H[ci[k], cj[k]])

    def test_tables_bitwise_symmetric(self, classed):
        _, runs = classed
        for table, *_ in runs.values():
            assert np.array_equal(table, table.T)

    def test_one_evaluation_per_key(self, classed):
        # the kernel sees one pair per distinct normalised kernel input of
        # the pairs it saw without the classes
        _, runs = classed
        ref, got = runs["none"][3], runs["classes"][3]
        assert set(got) == set(ref) == {"identical", "edge-adjacent",
                                        "vertex-adjacent"}
        for case, x in ref.items():
            key, _, exact = _ref_keys(x)
            assert exact.all()
            assert len(got[case]) == len(np.unique(key, axis=0)) < len(x)


def test_classes_start_at_the_first_equal_key():
    # on the kernel inputs of the singular pairs of a table, each
    # representative's key equals its row's bitwise and is the first such
    # key, and the exponents are those of the keys
    calls = []
    real = assembly._key_classes

    def record(x):
        calls.append((x, real(x)))
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_key_classes", record)
        assemble_energy_form(_nvb_mesh(200))
    assert len(calls) == 3
    for x, (rep, f) in calls:
        key, ref_f, exact = _ref_keys(x)
        assert exact.all()
        assert np.array_equal(f, ref_f)
        _, first, group = np.unique(key, axis=0, return_index=True,
                                    return_inverse=True)
        assert np.array_equal(rep, first[group])
        assert np.array_equal(key[rep].view(np.uint64), key.view(np.uint64))
        assert len(first) < len(x)


def test_inexact_key_is_its_own_class():
    # panels of size 1e150 and 1e-150 sharing a vertex: the small panel's
    # area underflows in the normalised key, so two copies of that pair
    # stay apart, while two copies of a unit pair form one class
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    coords = np.stack([1e150 * unit, 1e-150 * unit, unit, unit[[0, 2, 1]]
                       * np.array([-1.0, 1.0])])
    i, j = np.array([0, 0, 2, 2]), np.array([1, 1, 3, 3])
    x = _ref_rule_inputs(coords[i], coords[j])
    assert np.array_equal(_ref_keys(x)[2], [False, False, True, True])
    rep, _ = _key_classes(x)
    assert np.array_equal(rep, [0, 1, 2, 2])


class TestKeyClasses:
    # _key_classes on hand-made rows of 17 kernel inputs
    @staticmethod
    def _rows(n, seed):
        return np.random.default_rng(seed).uniform(0.5, 2.0, (n, 17))

    def test_rows_scaled_by_powers_of_four_form_one_class(self):
        base, other = self._rows(2, 23)
        g = np.array([3, 0, 0, -2, 5, 0])
        x = np.ldexp(np.stack([base, base, other, base, base, base]),
                     2 * g[:, None])
        rep, f = _key_classes(x)
        assert np.array_equal(rep, [0, 0, 2, 0, 0, 0])
        assert np.array_equal(f - f[rep], g - g[rep])

    def test_signed_zeros_form_one_class(self):
        x = np.repeat(self._rows(1, 29), 3, axis=0)
        x[:, 4] = [0.0, -0.0, 0.0]
        x[2, 7] = -x[2, 7]
        rep, _ = _key_classes(x)
        assert np.array_equal(rep, [0, 0, 2])

    def test_row_that_does_not_round_trip_is_its_own_class(self):
        x = np.repeat(self._rows(1, 31), 4, axis=0)
        x[:2, :15] *= 1e150
        x[:2, 16] = 1e-300
        assert np.array_equal(_ref_keys(x)[2], [False, False, True, True])
        rep, _ = _key_classes(x)
        assert np.array_equal(rep, [0, 1, 2, 2])


def test_stored_values_scale_to_the_key_and_skip_inexact_rows():
    # a class value enters the store as value times 8^-f and is read at
    # another scale times 8^f; a key with -0 reads that of +0; a row whose
    # key does not round-trip neither enters the store nor reads it
    r0, r1 = TestKeyClasses._rows(2, 37)
    r0[4] = 0.0
    bad = r1.copy()
    bad[:15] *= 1e150
    bad[16] = 1e-300
    seen = []

    def evaluate(rows):
        seen.append(rows)
        return 10.0 + rows

    store = {}
    got = assembly._stored_values(store, np.stack([r0, bad]), evaluate)
    assert np.array_equal(got, [10.0, 11.0]) and len(store) == 1
    scaled = np.ldexp(r0, 6)
    scaled[4] = -0.0
    got = assembly._stored_values(store, np.stack([scaled, bad, r1]),
                                  evaluate)
    assert np.array_equal(seen[-1], [1, 2])
    assert got[0] == np.ldexp(10.0, 9) and len(store) == 2


def test_no_pairs_no_classes():
    rep, f = _key_classes(np.empty((0, 17)))
    assert rep.shape == f.shape == (0,)


def test_scaled_mesh_scales_keyed_entries_exactly():
    # panels twice the size give exactly 8 times the rule values: classes
    # join pairs whose kernel inputs differ by powers of 4, and so do the
    # lattice classes of the disjoint bands
    mesh = _nvb_mesh(200)
    scaled = Mesh(2.0 * mesh.vertices, mesh.triangles, mesh.ref_edge)
    *_, ci, cj, labels = _near_plan(mesh.triangle_coords(), mesh.triangles)
    for kinds in ((assembly._IDENTICAL, assembly._EDGE, assembly._VERTEX),
                  (assembly._DISJOINT, assembly._CLOSE)):
        k = np.flatnonzero(np.isin(labels, kinds))
        assert len(k) > 500
        G = assemble_energy_form(mesh).table
        H = assemble_energy_form(scaled).table
        assert np.array_equal(H[ci[k], cj[k]], 8.0 * G[ci[k], cj[k]])


@pytest.mark.parametrize("kind", ["uniform", "nvb", "graded", "moved"])
def test_panel_rows_give_the_rule_inputs(kind, monkeypatch):
    # pairs in natural vertex order, near and far, get from two panel rows
    # the inputs that the einsum forms from their coordinates (a zero may
    # differ in sign), and _rule_pairs gives the values of inputs formed
    # per GEMM step, bitwise, at odd steps too
    mesh = _sweep_mesh("graded" if kind == "moved" else kind)
    if kind == "moved":
        mesh = Mesh(mesh.vertices + [1000.3, -999.7], mesh.triangles,
                    mesh.ref_edge)
    coords = mesh.triangle_coords()
    rows = _panel_rows(coords)
    ci, cj, shared = _near_pairs(mesh)
    far = np.random.default_rng(3).integers(0, len(coords), (2, 20000))
    a, b = np.concatenate([ci, far[0]]), np.concatenate([cj, far[1]])
    assert np.array_equal(assembly._pair_inputs(rows, a, b),
                          _ref_rule_inputs(coords[a], coords[b]))
    k = np.flatnonzero(shared == 0)[:5000]
    for order, chunk in ((ORDER - 1, None), (ORDER - 1, 37 * 256),
                         (ORDER - 2, 101 * 81)):
        if chunk:
            monkeypatch.setattr("crbem.assembly._RULE_CHUNK", chunk)
        rule = quadrature_rule("disjoint", order)
        step = assembly._rule_step(rule)
        want = np.concatenate([
            _rule_values(rule, _ref_rule_inputs(
                coords[ci[k[lo:lo + step]]], coords[cj[k[lo:lo + step]]]))
            for lo in range(0, len(k), step)])
        assert np.array_equal(assembly._rule_pairs(rule, rows, ci, cj, k),
                              want)


# the eight symmetries of the square as integer matrices
_SQUARE = [np.array(m) for m in (
    [[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
    [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[-1, 0], [0, 1]], [[0, -1], [-1, 0]])]


def _ref_lattice_classes(coords, a, b):
    """Classes of the pairs (a[p], b[p]) of dyadic panels under the
    symmetries of the square, translation, scaling by powers of two and
    exchange, brute force.  A pair's integer geometry in one of the 16
    maps is each panel's edge vectors v1 - v0 and v2 - v0 over 2^g, g the
    2-adic valuation of its integer coordinates, as a sorted pair, then
    g_b - g_a and b0 - a0 over 2^s, s = min(g_a, g_b); its class is the
    lexicographically smallest of the 16 rows.  Returns the first pair of
    each pair's class and s."""
    K = np.ldexp(coords, 40).astype(np.int64)
    assert np.array_equal(np.ldexp(K.astype(float), -40), coords)
    g = np.array([(v & -v).bit_length() - 1 for v in
                  np.bitwise_or.reduce(np.abs(K).reshape(len(K), 6), axis=1)
                  .tolist()])

    def edges(k, e):
        u, w = ((k[:, v] - k[:, 0]) // (2 ** e)[:, None] for v in (1, 2))
        swap = (u[:, 0] > w[:, 0]) | ((u[:, 0] == w[:, 0]) & (u[:, 1] > w[:, 1]))
        return np.where(swap[:, None], w, u), np.where(swap[:, None], u, w)

    s = np.minimum(g[a], g[b])
    rows = np.arange(len(a))
    best = None
    for p, q in ((a, b), (b, a)):
        for m in _SQUARE:
            kp, kq = K[p] @ m.T, K[q] @ m.T
            row = np.column_stack([*edges(kp, g[p]), *edges(kq, g[q]),
                                   g[q] - g[p],
                                   (kq[:, 0] - kp[:, 0]) // (2 ** s)[:, None]])
            if best is None:
                best = row
                continue
            diff = row != best
            col = diff.argmax(axis=1)
            less = diff.any(axis=1) & (row[rows, col] < best[rows, col])
            best[less] = row[less]
    _, first, group = np.unique(best, axis=0, return_index=True,
                                return_inverse=True)
    return first[group.ravel()], s


@pytest.mark.parametrize("kind", ["nvb", "uniform", "apex"])
def test_lattice_classes_join_scaled_copies(kind):
    # on the band pairs of a dyadic mesh the lattice classes are those of
    # the brute-force reference, every class of equal float key
    # (_key_classes) lies in one of them, and a pair's rule value is its
    # representative's times 8^(s - s_rep) up to rounding.  "apex" is the
    # uniform mesh with each panel's vertices turned so that vertex 0 is
    # its right angle, which a mirror fixes: its panels have two frames.
    mesh = _nvb_mesh(200) if kind == "nvb" else _sweep_mesh("uniform")
    tris = mesh.triangles
    if kind == "apex":
        coords = mesh.triangle_coords()
        edge2 = ((coords[:, [1, 2, 0]] - coords) ** 2).sum(axis=2)
        first = (edge2.argmax(axis=1) + 2) % 3
        tris = np.take_along_axis(tris, (first[:, None] + [0, 1, 2]) % 3,
                                  axis=1)
    coords, _, _, ci, cj, labels = _near_plan(mesh.vertices[tris], tris)
    lattice = assembly._panel_lattice(coords)
    assert lattice is not None
    assert len(lattice[1]) == (2 if kind == "apex" else 1)
    for band, order in ((assembly._DISJOINT, ORDER - 1),
                        (assembly._CLOSE, ORDER)):
        k = np.flatnonzero(labels == band)
        rep, s = assembly._lattice_classes(lattice, ci, cj, k)
        first, ref_s = _ref_lattice_classes(coords, ci[k], cj[k])
        assert np.array_equal(rep, first)
        # the exponents up to the scale of the lattice
        assert len(np.unique(s - ref_s)) == 1
        x = _ref_rule_inputs(coords[ci[k]], coords[cj[k]])
        by_key = _key_classes(x)[0]
        assert np.array_equal(rep[by_key], rep)
        assert len(np.unique(rep)) < len(np.unique(by_key))
        assert len(np.unique(rep)) < 0.75 * len(k)
        value = _rule_values(quadrature_rule("disjoint", order), x)
        want = np.ldexp(value[rep], 3 * (s.astype(np.int64) - s[rep]))
        assert (np.abs(value - want) <= 2e-15 * want).all()


def test_mirrored_turned_scaled_and_exchanged_pairs_form_one_class():
    # a pair of dyadic panels, its mirror image (vertices 1 and 2 swapped,
    # so that it stays counterclockwise), its quarter turns, a copy twice
    # its size and the exchanged pair, each moved by its own offset
    a = np.array([[0.0, 0.0], [3.0, 1.0], [1.0, 2.0]])
    b = np.array([[5.0, 1.0], [6.0, 3.0], [4.0, 2.0]])
    mirror = np.array([1.0, -1.0])
    turns = [(a, b)]
    for _ in range(3):
        turns.append(tuple(np.stack([-p[:, 1], p[:, 0]], axis=1)
                           for p in turns[-1]))
    pairs = [*turns, ((a * mirror)[[0, 2, 1]], (b * mirror)[[0, 2, 1]]),
             (2.0 * a, 2.0 * b), (b, a)]
    coords = np.concatenate([np.stack(pair) + [64.0 * c, 32.0]
                             for c, pair in enumerate(pairs)])
    i, j = np.arange(0, len(coords), 2), np.arange(1, len(coords), 2)
    rep, s = assembly._lattice_classes(assembly._panel_lattice(coords), i, j,
                                       np.arange(len(i)))
    assert np.array_equal(rep, np.zeros(len(i)))
    assert np.array_equal(s - s[0], [0, 0, 0, 0, 0, 1, 0])
    x = _ref_rule_inputs(coords[i], coords[j])
    # the classes of equal float key join the turned and scaled copies
    # only
    assert np.array_equal(_key_classes(x)[0], [0, 0, 0, 0, 4, 0, 6])
    value = _rule_values(quadrature_rule("disjoint", ORDER - 1), x)
    want = np.ldexp(value[0], 3 * s)
    assert (np.abs(value - want) <= 2e-15 * want).all()


def test_pair_and_its_mirror_across_a_symmetric_panel_form_one_class():
    # a right-angled panel a with vertex 0 at its right angle maps onto
    # itself under the mirror (x, y) -> (y, x); so the pair (a, b) and its
    # mirror image (a, b') are copies, which one frame of a cannot join
    a = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    b = np.array([[4.0, 1.0], [6.0, 2.0], [5.0, 3.0]])
    coords = np.stack([a, b, a + 16.0, b[[0, 2, 1]][:, ::-1] + 16.0])
    lattice = assembly._panel_lattice(coords)
    assert len(lattice[1]) == 2
    rep, s = assembly._lattice_classes(lattice, np.array([0, 2]),
                                       np.array([1, 3]), np.arange(2))
    assert np.array_equal(rep, [0, 0]) and np.array_equal(s, [0, 0])


def test_no_singular_key_twice_in_a_run(monkeypatch):
    # over an adaptive run the identical, edge and vertex kernels of
    # tables above _SMALL_TABLE see each normalised kernel input once:
    # every Level of the run shares one store of class values
    from crbem.adaptive import ExperimentConfig, run_experiment

    seen, panels = {}, [0]
    real = assembly._pair_values, assembly._rule_values

    def pair_values(G, coords, *args):
        panels[0] = len(coords)
        return real[0](G, coords, *args)

    def kernel(rule, x):
        if rule.case != "disjoint" and panels[0] > assembly._SMALL_TABLE:
            seen.setdefault(rule.case, []).append(x)
        return real[1](rule, x)

    monkeypatch.setattr(assembly, "_pair_values", pair_values)
    monkeypatch.setattr(assembly, "_rule_values", kernel)
    records = run_experiment(ExperimentConfig(
        experiment="adaptive-singular", max_fine_dofs=1000))
    assert len(records) > 3
    assert set(seen) == {"identical", "edge-adjacent", "vertex-adjacent"}
    for case, calls in seen.items():
        key, _, exact = _ref_keys(np.concatenate(calls))
        assert exact.all() and len(calls) > 3
        assert len(np.unique(key, axis=0)) == len(key)


def test_table_alone_keeps_its_bits():
    # the store of class values is an argument: a table assembled alone
    # has the same bits whatever was assembled before it, and one
    # assembled with a store filled by other tables stays within rounding
    mesh = _nvb_mesh(200)
    alone = assemble_energy_form(mesh).table.copy()
    store = {}
    for other in (_sweep_mesh("uniform"), uniform_refine(mesh)[0]):
        assemble_energy_form(other, store)
        assemble_energy_form(other)
    assert store
    assert np.array_equal(assemble_energy_form(mesh).table, alone)
    shared = assemble_energy_form(mesh, store).table
    assert (np.abs(shared - alone) <= 2e-15 * alone).all()


def test_small_tables_leave_the_store_alone():
    # a store of class values that a larger uniform table filled, each
    # value doubled: tables of at most _SMALL_TABLE panels neither read
    # nor write it, while the larger table reads it
    mesh = build_initial_square_mesh()
    small = [mesh, uniform_refine(mesh)[0]]
    large = uniform_refine(small[-1])[0]
    assert small[-1].num_triangles == assembly._SMALL_TABLE
    store = {}
    want = assemble_energy_form(large, store).table
    for values in store.values():
        for key in values:
            values[key] *= 2.0
    before = {case: dict(values) for case, values in store.items()}
    for m in small:
        assert np.array_equal(assemble_energy_form(m, store).table,
                              assemble_energy_form(m).table)
    assert store == before
    assert not np.array_equal(assemble_energy_form(large, store).table, want)


@pytest.mark.parametrize("kind", ["moved", "graded"])
def test_no_lattice_classes_off_the_dyadic_grid(kind, monkeypatch):
    # The grading with beta = 1.5 has coordinates that no power of two
    # turns into integers below 2^52.  The uniform mesh moved by
    # (1000.3, -999.7) lies on the grid of 2^-42 within that bound, but
    # every panel has a coordinate that is an odd multiple of 2^-42, while
    # its edges are multiples of 2^-5, so its edges over 2^g do not fit
    # the shape codes.  Neither mesh has a lattice, and the bands evaluate
    # every pair.
    mesh = (_sweep_mesh("uniform") if kind == "moved"
            else uniform_refine(graded_square_mesh(8, 1.5))[0])
    if kind == "moved":
        mesh = Mesh(mesh.vertices + [1000.3, -999.7], mesh.triangles,
                    mesh.ref_edge)
    assert mesh.num_triangles > assembly._SMALL_TABLE
    lattice = assembly._panel_lattice(mesh.triangle_coords())
    assert lattice is None
    classes = []
    real = assembly._lattice_classes

    def recorded(*args):
        classes.append(real(*args))
        return classes[-1]

    monkeypatch.setattr(assembly, "_lattice_classes", recorded)
    assemble_energy_form(mesh)
    assert len(classes) == (2 if lattice else 0)
    assert all(c is None for c in classes)


def test_lattice_key_that_does_not_fit_takes_no_classes():
    # unit panels 2^50 apart: a0 - b0 over 2^s does not fit its field of
    # the int64 key, so the pair takes no class; two copies of a pair four
    # units apart form one class
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    far = assembly._panel_lattice(np.stack([unit, unit + [2.0 ** 50, 0.0]]))
    one = np.array([0])
    assert assembly._lattice_classes(far, one, one + 1, one) is None
    near = assembly._panel_lattice(np.stack([unit + [4.0 * p, 0.0]
                                             for p in range(4)]))
    rep, s = assembly._lattice_classes(near, np.array([0, 2]),
                                       np.array([1, 3]), np.arange(2))
    assert np.array_equal(rep, [0, 0]) and np.array_equal(s, [0, 0])


class TestPanelIntegral:
    def test_self_entry_matches_oracle(self):
        oracle = pair_value(UNIT_RIGHT, UNIT_RIGHT, depth=6, order=14)
        assert oracle == pytest.approx(SELF_ENTRY_UNIT_RIGHT, rel=5e-9)
        got = panel_integral(UNIT_RIGHT, UNIT_RIGHT)
        assert abs(got - oracle) / oracle < 1e-6

    def test_order_escalation_identical(self):
        a = UNIT_RIGHT[None]
        v5, v7 = (_rule_values(quadrature_rule("identical", p),
                               _ref_rule_inputs(a, a))[0] for p in (5, 7))
        assert abs(v7 - v5) / abs(v5) < 1e-6

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_kernel_scaling(self, s):
        base = panel_integral(UNIT_RIGHT, UNIT_RIGHT)
        scaled = panel_integral(s * UNIT_RIGHT, s * UNIT_RIGHT)
        assert scaled == pytest.approx(s ** 3 * base, rel=1e-10)

    def test_kernel_scaling_disjoint(self):
        tb = UNIT_RIGHT + np.array([2.5, 0.7])
        base = panel_integral(UNIT_RIGHT, tb)
        for s in (0.5, 2.0):
            scaled = panel_integral(s * UNIT_RIGHT, s * tb)
            assert scaled == pytest.approx(s ** 3 * base, rel=1e-10)

    def test_far_field_limit(self):
        s = 0.01
        ta = s * UNIT_RIGHT
        tb = ta + np.array([0.5, 0.3])
        d = np.linalg.norm(tb.mean(0) - ta.mean(0))
        expected = (s * s / 2) ** 2 / (4 * np.pi * d)
        got = panel_integral(ta, tb)
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
        got = panel_integral(UNIT_RIGHT, tb)
        ref = pair_value(UNIT_RIGHT, tb, depth=3, order=16)
        assert abs(got - ref) / ref < 1e-8

    def test_edge_adjacent_matches_oracle(self):
        tb = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, -1.0]])
        got = panel_integral(UNIT_RIGHT, tb)
        ref = pair_value(tb, UNIT_RIGHT, depth=6, order=14)
        assert abs(got - ref) / abs(ref) < 1e-6

    def test_vertex_adjacent_matches_oracle(self):
        tb = np.array([[0.0, 0.0], [-1.0, 0.0], [-1.0, -1.0]])
        got = panel_integral(UNIT_RIGHT, tb)
        ref = pair_value(tb, UNIT_RIGHT, depth=6, order=14)
        assert abs(got - ref) / abs(ref) < 1e-6

    def test_anisotropic_self_entry_uses_closed_form(self):
        sliver = np.array([[0.0, 0.0], [1e-3, 0.0], [1e-3, 0.7]])
        got = panel_integral(sliver, sliver)
        assert got == pytest.approx(_self_entry_closed_form(sliver[None])[0],
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
        value = panel_integral(ta, tb)
        assert value > 0.0
        assert panel_integral(ta[::-1], tb) == value
        assert panel_integral(ta, tb[::-1]) == value

    def test_tiny_sliver_self_entry_uses_closed_form(self):
        # edges shorter than any absolute coordinate tolerance (aspect
        # about 1e15); vertices are identified exactly, as in the table
        t = graded_square_mesh(4, 50.0).triangle_coords()[3]
        got = panel_integral(t, t)
        ref = _self_entry_closed_form(t[None])[0]
        assert abs(got - ref) <= 1e-12 * ref  # ref is about 1.8e-31

    @pytest.mark.parametrize("element", [0, 4, 7])
    def test_non_finite_self_entry_raises(self, element):
        t = graded_square_mesh(4, 50.0).triangle_coords()[element]
        with pytest.raises(NumericalError):
            panel_integral(t, t)

    def test_anisotropic_adjacent_pair(self):
        a = np.array([[0.0, 0.0], [2e-3, 0.0], [2e-3, 0.5]])
        b = np.array([[0.0, 0.0], [2e-3, 0.5], [0.0, 0.5]])
        got = panel_integral(a, b)
        ref = pair_value(a, b, depth=9, order=12)
        assert abs(got - ref) / abs(ref) < 1e-4

    def test_degenerate_panel_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            panel_integral(flat, UNIT_RIGHT)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            quadrature_rule("identical", 0)


class TestEnergyForm:
    def test_single_element_table(self):
        mesh = Mesh(UNIT_RIGHT, np.array([[0, 1, 2]]), np.array([0]))
        form = assemble_energy_form(mesh)
        expected = panel_integral(UNIT_RIGHT, UNIT_RIGHT)
        assert form.table.shape == (1, 1)
        assert form.table[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_initial_mesh_table(self, initial_mesh):
        form = assemble_energy_form(initial_mesh)
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
            form = assemble_energy_form(mesh)
            coords = mesh.triangle_coords()
            ci, cj, _ = _near_pairs(mesh)
            for i, j in zip(ci, cj):
                expected = panel_integral(coords[i], coords[j])
                assert form.table[i, j] == pytest.approx(expected, rel=5e-7)

    def test_graded_mesh_table_spd(self):
        mesh = graded_square_mesh(8, 3.0)
        form = assemble_energy_form(mesh)
        space = cr_space(mesh)
        a = assemble_stiffness(form, space)
        eigvals = np.linalg.eigvalsh(a)
        assert eigvals.min() > 0

    def test_robust_cell_cap_holds_per_pair(self, monkeypatch):
        # 1800 robust pairs, each of whose subdivision peaks at no more than
        # 256 live cells, in calls of 256 pairs, _ROBUST_BLOCK / 4.
        # Without the quarter turn every robust pair is evaluated.  At a
        # cap of 256 a pair the table keeps its bits; at 252 a pair that
        # peaks at 256 fails, in its call and alone.
        mesh = graded_square_mesh(16, 2.0)
        coords = mesh.triangle_coords()
        monkeypatch.setattr(assembly, "_quarter_turn", lambda coords: None)
        G = assemble_energy_form(mesh).table
        monkeypatch.setattr(assembly, "_ROBUST_MAX_CELLS", 256)
        assert np.array_equal(assemble_energy_form(mesh).table, G)
        monkeypatch.setattr(assembly, "_ROBUST_MAX_CELLS", 252)
        with pytest.raises(NumericalError, match="takes 256 live cells at "
                           "depth") as failed:
            assemble_energy_form(mesh)
        a, b = map(int, re.search(r"the pair of panels (\d+) and (\d+)",
                                  str(failed.value)).groups())
        with pytest.raises(NumericalError, match="pair 0 of the call takes "
                           "256 live cells"):
            _robust_pairs(coords[[a]], coords[[b]])
        # 256 copies of the pair hold 65,536 live cells together, and each
        # settles under a cap of 256 with the value of the pair alone
        monkeypatch.setattr(assembly, "_ROBUST_MAX_CELLS", 256)
        many = _robust_pairs(coords[[a] * 256], coords[[b] * 256])
        assert np.array_equal(many, np.full(256, G[a, b]))

    def test_graded_entries_match_oracle(self):
        mesh = graded_square_mesh(8, 3.0)
        form = assemble_energy_form(mesh)
        coords = mesh.triangle_coords()
        areas = mesh.areas
        sliver = int(np.argmin(areas))
        cent = coords.mean(axis=1)
        neighbors = np.argsort(np.linalg.norm(cent - cent[sliver], axis=1))
        for j in neighbors[:4]:
            ref = pair_value(coords[sliver], coords[j], depth=9, order=12)
            got = form.table[sliver, j]
            assert abs(got - ref) / abs(ref) < 5e-4


class TestEnergyInner:
    def test_zero_field(self, initial_mesh):
        form = assemble_energy_form(initial_mesh)
        z = PwConstVecField(initial_mesh, np.zeros((8, 2)))
        assert energy_inner(form, z, z) == 0.0

    def test_symmetry(self, initial_mesh):
        form = assemble_energy_form(initial_mesh)
        rng = np.random.default_rng(0)
        u = PwConstVecField(initial_mesh, rng.standard_normal((8, 2)))
        v = PwConstVecField(initial_mesh, rng.standard_normal((8, 2)))
        a = energy_inner(form, u, v)
        b = energy_inner(form, v, u)
        assert a == pytest.approx(b, rel=1e-12)

    def test_single_component(self):
        mesh = Mesh(UNIT_RIGHT, np.array([[0, 1, 2]]), np.array([0]))
        form = assemble_energy_form(mesh)
        u = PwConstVecField(mesh, np.array([[1.0, 0.0]]))
        assert energy_inner(form, u, u) == pytest.approx(form.table[0, 0])

    def test_mesh_mismatch(self, initial_mesh):
        form = assemble_energy_form(initial_mesh)
        other, _ = uniform_refine(initial_mesh)
        w = PwConstVecField(other, np.zeros((32, 2)))
        with pytest.raises(ValueError):
            energy_inner(form, w, w)


@pytest.fixture(scope="module")
def graded_form():
    return assemble_energy_form(_sweep_mesh("graded"))


class TestStiffness:
    def test_conforming_initial(self, initial_mesh):
        form = assemble_energy_form(initial_mesh)
        a = assemble_stiffness(form, conforming_space(initial_mesh))
        assert a.shape == (1, 1)
        assert a[0, 0] > 0

    def test_cr_initial_spd(self, initial_mesh):
        form = assemble_energy_form(initial_mesh)
        a = assemble_stiffness(form, cr_space(initial_mesh))
        assert a.shape == (8, 8)
        assert np.allclose(a, a.T)
        assert np.linalg.eigvalsh(a).min() > 0

    def test_spd_on_refined_and_nvb_meshes(self, initial_mesh):
        for mesh in (uniform_refine(initial_mesh)[0],
                     refine_nvb(initial_mesh, [0, 3])[0]):
            form = assemble_energy_form(mesh)
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


def own_source(phi):
    """The curl density of phi on its own mesh, as a manufactured-data
    source."""
    return (phi.space.mesh.triangle_coords(), curl_field(phi).values)


class TestRhs:
    def test_constant_per_element_contribution(self, initial_mesh):
        space = cr_space(initial_mesh)
        b = assemble_rhs_constant(space)
        # each interior edge sees two elements of area 1/8
        assert np.allclose(b, 2 * (1 / 8) / 3)

    def test_constant_hat_contribution(self, refined_once):
        _, fine = refined_once
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
        moments = _power_moments(UNIT_RIGHT[None], alpha)[0]
        assert moments.sum() == pytest.approx(
            1.0 / ((alpha + 1) * (alpha + 2)), rel=1e-12)

    def test_power_matches_gauss_away_from_axis(self):
        from numpy.polynomial.legendre import leggauss
        alpha = -0.6
        tri = np.array([[0.3, 0.1], [0.9, 0.2], [0.5, 0.8]])
        moments = _power_moments(tri[None], alpha)[0]
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
        form = assemble_energy_form(initial_mesh)
        space = conforming_space(initial_mesh)
        phi = CoefVec(space, np.zeros(1))
        b = assemble_rhs_manufactured(form, space, curl_field(phi),
                                      own_source(phi))
        assert np.allclose(b, 0.0)

    def test_manufactured_cr_nonzero(self, initial_mesh):
        form = assemble_energy_form(initial_mesh)
        conf = conforming_space(initial_mesh)
        phi = CoefVec(conf, np.ones(1))
        b = assemble_rhs_manufactured(form, cr_space(initial_mesh),
                                      curl_field(phi), own_source(phi))
        assert np.abs(b).max() > 0

    def test_manufactured_conforming_galerkin_reproduces_data(self, refined_once):
        _, fine = refined_once
        form = assemble_energy_form(fine)
        space = conforming_space(fine)
        rng = np.random.default_rng(8)
        phi = CoefVec(space, rng.standard_normal(space.dof_count))
        b = assemble_rhs_manufactured(form, space, curl_field(phi),
                                      own_source(phi))
        a = assemble_stiffness(form, space)
        x = np.linalg.solve(a, b)
        assert np.abs(x - phi.values).max() < 1e-10


@pytest.fixture(scope="module")
def nvb_10k():
    mesh = _nvb_mesh(10_000)
    assert mesh.num_triangles >= 10_000
    return mesh


def _oracle_moments(coords, alpha, power=pow):
    return np.array([power_moments_element(tri, alpha, power)
                     for tri in coords])


# every vertical edge leaves one strip of width zero, which adds nothing,
# and so does the strip of width 1e-301 of "narrow-strip".  The one-ulp
# strip's midpoint rounds onto its right end, so all three edges span it
# and the first two in edge order bound it.
HAND_MADE = {
    "narrow-strip": [[0.0, 0.0], [1e-301, 1.0], [0.5, 0.2]],
    "one-ulp-strip": [[0.5 + 2.0**-53, 0.0], [0.5 + 2.0**-52, 1.0],
                      [0.9, 0.3]],
    "vertical-left": [[0.2, 0.1], [0.7, 0.4], [0.2, 0.9]],
    "vertical-right": [[0.1, 0.3], [0.6, 0.05], [0.6, 0.8]],
    "vertical-on-axis": [[0.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
    "vertex-on-axis": [[0.0, 0.2], [0.5, 0.0], [0.3, 0.6]],
    "clockwise": [[0.3, 0.1], [0.5, 0.8], [0.9, 0.2]],
}


class TestPowerMoments:
    @pytest.mark.parametrize("alpha", [-0.6, -0.25])
    @pytest.mark.parametrize("kind", ["uniform", "nvb", "graded2",
                                      "graded3"])
    def test_equal_to_the_element_oracle(self, nvb_10k, kind, alpha):
        if kind == "uniform":
            meshes = [build_initial_square_mesh()]
            for _ in range(4):
                meshes.append(uniform_refine(meshes[-1])[0])
        elif kind == "nvb":
            meshes = [nvb_10k]
        else:
            meshes = [graded_square_mesh(16, float(kind[-1]))]
        for mesh in meshes:
            coords = mesh.triangle_coords()
            assert np.array_equal(_power_moments(coords, alpha),
                                  _oracle_moments(coords, alpha))

    @pytest.mark.parametrize("name", list(HAND_MADE))
    def test_hand_made_triangles(self, name):
        tri = np.array(HAND_MADE[name])
        assert np.array_equal(_power_moments(tri[None], -0.6)[0],
                              power_moments_element(tri, -0.6))

    def test_every_power_from_libm(self):
        # numpy's array power may round differently from libm's pow (on
        # some hosts in about 5% of inputs), so 6000 random x catch a
        # switch to it
        coords = np.random.default_rng(11).random((2000, 3, 2))
        assert np.array_equal(_power_moments(coords, -0.6),
                              _oracle_moments(coords, -0.6, math.pow))
