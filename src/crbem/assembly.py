"""Singular panel-pair quadrature and energy-form assembly.

The energy bilinear form is realized through the dense element-pair table
G[i][j] = (1/4pi) int_Ti int_Tj |x-y|^(-1), assembled once per mesh and
shared by every space on that mesh.

Panel pairs are integrated with regularizing coordinate transformations
per adjacency case (identical / edge-adjacent / vertex-adjacent /
disjoint) followed by tensor Gauss rules.  Rule nodes live on the
4-dimensional parameter domain tau x tau with tau = {0 <= w2 <= w1 <= 1};
all transformation Jacobians are folded into the weights, so the weights
are positive and sum to vol(tau x tau) = 1/4.

The cases are told apart in one place, _pair_values, by the number of
vertex indices a pair shares (3, 2, 1, 0); disjoint pairs are then binned
by separation.  assemble_energy_form fills the whole table with the
far-field rule and calls _pair_values once, on the diagonal and the near
candidates.  panel_integral assembles the table of a one- or two-panel
mesh, so single pairs take exactly the table's path.

The far table is one sweep of row strips of _FAR_STRIP panels against
column tiles of _FAR_TILE panels, j >= i, the strip's own square first.
Squared distances of the rule points come from per-component
differences, written into two tile buffers allocated once, so no
cancellation on absolute coordinates enters.  The far rule's weights
factor as w_k w_l area2_i area2_j: a tile reduces by a GEMV with w and
then w @, and the area product is applied per tile.  The diagonal tile
is averaged with its transpose, so the table is bitwise symmetric.  The
same strip loop collects the near candidates, the pairs i <= j possibly
closer than RHO_FAR diameters, in (i, j) order.  Near pairs are not
skipped: they are 7-65% of all pairs and do not form whole tiles.

Memory: the table G (nt x nt) and a Galerkin matrix A (n x n) are the
only arrays of that size.  The tile buffers take 2 x 663 KB at the
default order, and assemble_stiffness fills A by blocks of _STIFF_BLOCK
DOF rows, each symmetrized in place against the rows above it.

Every rule-based pair (the three singular cases and the near and close
disjoint bands) is evaluated by one kernel.  A node pair (x1, x2),
(y1, y2) maps to x - y = d + x1 e1a + x2 e2a - y1 e1b - y2 e2b with
d = a0 - b0, so |x - y|^2 is a quadratic form in c = (1, x1, x2, y1, y2)
with the Gram matrix of (d, e1a, e2a, -e1b, -e2b).  The 15 Gram entries
per pair times a cached (15, K) monomial table per rule give r^2 for a
block of pairs in one GEMM, followed by an in-place square root and
reciprocal and a GEMV with the weights.  Only coordinate differences enter, so there is no cancellation
on absolute coordinates.

The transformed rules converge geometrically for shape-regular panels but
degrade on strongly anisotropic ones (boundary-graded meshes).  Pairs
beyond the rules' anisotropy or proximity envelope switch to a robust
semi-analytic path: the inner integral of the kernel over a flat panel is
evaluated in closed form and the outer integral by adaptive subdivision;
identical anisotropic panels use a fully closed-form self-entry.

The robust path computes the edge frames of the inner panels (start
vertex, unit tangent, length) once per call and evaluates the closed form
in place on split x and y coordinate arrays, in blocks of _ROBUST_BLOCK
cells times the 25 Duffy points.  The triangle distances that pick the
disjoint bands are split and blocked the same way.  Both kernels keep the
floating-point operations of the earlier (M, K, 2) formulation, in the
same order: subdivision stops where four children agree with their parent
to _ROBUST_RTOL and the bands compare distance ratios with RHO_CLOSE and
RHO_NEAR, so a change of rounding could flip a decision and move a table
entry by up to about 1e-6 relative.  The tests keep the earlier kernels
and check bit equality.  A table makes one robust-path call; once its
live cells pass _ROBUST_MAX_CELLS it raises NumericalError instead of
running out of memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .mesh import Mesh
from .spaces import PwConstVecField, CoefVec, barycentric_gradients, curl_field

__all__ = [
    "EnergyForm",
    "QuadratureRule",
    "quadrature_rule",
    "panel_integral",
    "assemble_energy_form",
    "energy_inner",
    "assemble_stiffness",
    "assemble_rhs_constant",
    "assemble_rhs_power",
    "assemble_rhs_manufactured",
]

FOUR_PI = 4.0 * np.pi

# adjacency-case tensor orders relative to the base order p:
# identical/edge/vertex use p, near-field disjoint p-1, far-field p-2.
DEFAULT_ORDER = 5
# dist/max(diam) band edges for disjoint pairs
RHO_FAR = 6.0
RHO_NEAR = 0.6
RHO_CLOSE = 0.3
# aspect = (longest edge)^2 / (2 |T|); 2.0 for right isosceles triangles.
# Above this, singular-case rules lose accuracy and the robust path is used.
SINGULAR_ASPECT_LIMIT = 3.0

_ROBUST_RTOL = 1e-6
_ROBUST_ORDER = 5
_ROBUST_MAX_DEPTH = 24
# cells per block of the robust-path kernel: its ten (1024, 25) work arrays
# stay in L2.  Single-thread time for the 5480 robust pairs of the
# 2048-panel beta=2 graded mesh: 2.2 s at 1024 cells, 2.6 s at 4096, about
# flat from 256 to 1024.
_ROBUST_BLOCK = 1024
# live cells of one robust-path call before it gives up with NumericalError.
# One call serves a whole table: the beta=2 graded preset peaks at 140,480
# cells (2048 panels), 7.5 times below the cap; beta=20 reaches exactly
# 2^20 cells on its 32-panel mesh and still settles, because only a count
# above the cap fails.  Without a cap, beta=50 runs out of memory.
_ROBUST_MAX_CELLS = 1 << 20
# panel pairs per block of _triangle_distances.  Single-thread time for the
# 639k near candidates of the same mesh: 0.45 s at 4096 pairs, 0.76 s at
# 1024, 0.55 s at 16384 and 1.05 s unblocked.
_DIST_BLOCK = 4096
# panels per row strip and per column tile of _far_table: two 663 KB tile
# buffers at the default order.  Single-thread time of the far sweep with
# its near candidates on the 2048-panel beta=2 graded mesh (best to median
# of 5, over three runs): 1.0-1.4 s at 2 x 512 and 1 x 1024, 1.2-1.7 s at
# 16 x 64, 1.4-1.9 s at 4 x 256 and 1.8-2.0 s at 2 x 128.  Numpy's
# broadcast subtraction is about four times faster per element on tile
# rows of 4608 points than on rows of 576.
_FAR_STRIP = 2
_FAR_TILE = 512
# DOF rows per block of assemble_stiffness.  Single-thread time for the
# 3008 CR DOFs of the same mesh: 0.21-0.26 s at 16 or 32 rows, 0.22-0.33 s
# at 64, 0.39-0.50 s at 256 and 0.60-0.77 s at 1024.
_STIFF_BLOCK = 32


class NumericalError(RuntimeError):
    """A numerical step failed: an energy table that is not finite,
    symmetric and positive, a non-SPD matrix or a bad solver residual."""


@dataclass(frozen=True)
class QuadratureRule:
    """Panel-pair rule on the 4D parameter domain after regularization.

    ``x_nodes``/``y_nodes`` are points of the reference triangle
    {0 <= w2 <= w1 <= 1} for the two panels; weights include all
    transformation Jacobians and sum to 1/4.
    """

    case: str
    order: int
    x_nodes: np.ndarray
    y_nodes: np.ndarray
    weights: np.ndarray


def _gauss01(p):
    g, w = leggauss(p)
    return 0.5 * (g + 1.0), 0.5 * w


def _gauss01_composite(p, nsplit):
    g, w = _gauss01(p)
    return (np.concatenate([(g + k) / nsplit for k in range(nsplit)]),
            np.concatenate([w / nsplit] * nsplit))


def _tensor4(p, split_dims=()):
    """Tensor Gauss rule on [0, 1]^4; the split directions are composite
    over two panels."""
    axes = []
    for d in range(4):
        if d in split_dims:
            axes.append(_gauss01_composite(p, 2))
        else:
            axes.append(_gauss01(p))
    pts = np.stack(np.meshgrid(*[a[0] for a in axes], indexing="ij"),
                   axis=-1).reshape(-1, 4)
    wts = np.stack(np.meshgrid(*[a[1] for a in axes], indexing="ij"),
                   axis=-1).reshape(-1, 4).prod(axis=1)
    return pts, wts


@lru_cache(maxsize=None)
def quadrature_rule(case, order):
    """Build (and cache) the regularized rule for one adjacency case."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    if case == "identical":
        # difference coordinates z = x - y; the hexagon z-domain splits
        # into three symmetric sector pairs, each Duffy-scaled radially.
        # The angular direction is composite (2 panels) to resolve the
        # kernel's complex singularities at moderate Bernstein radius.
        q, gw = _tensor4(order, split_dims=(1,))
        xi, eta, a, b = q.T
        w = gw * xi * (1.0 - xi) ** 2 * a
        ys = [np.stack([(1 - xi) * a, (1 - xi) * a * b], 1),
              np.stack([xi * (1 - eta) + (1 - xi) * a, (1 - xi) * a * b], 1),
              np.stack([xi + (1 - xi) * a, (1 - xi) * a * b], 1)]
        zs = [np.stack([xi, xi * eta], 1),
              np.stack([xi * eta, xi], 1),
              np.stack([xi * (eta - 1), xi * eta], 1)]
        xn, yn, wn = [], [], []
        for y, z in zip(ys, zs):
            x = y + z
            xn += [x, y]
            yn += [y, x]
            wn += [w, w]
    elif case == "edge-adjacent":
        # shared edge parametrized by w1 at w2 = 0 on both panels; the
        # joint radial scaling of (x1 - y1, x2, y2) leaves two subregions,
        # both composite in the two angular directions.
        q, gw = _tensor4(order, split_dims=(2, 3))
        q1, q2, q3, q4 = q.T
        xa = np.stack([q1, q1 * q2], 1)
        ya = np.stack([q1 * (1 - q2 * q3 * q4), q1 * q2 * q4 * (1 - q3)], 1)
        wa = gw * q1 ** 3 * q2 ** 2 * q4
        xb = np.stack([q1, q1 * q2 * q4], 1)
        yb = np.stack([q1 * (1 - q2 * q3), q1 * q2 * (1 - q3)], 1)
        wb = gw * q1 ** 3 * q2 ** 2
        xn, yn, wn = [], [], []
        for x, y, w in ((xa, ya, wa), (xb, yb, wb)):
            xn += [x, y]
            yn += [y, x]
            wn += [w, w]
    elif case == "vertex-adjacent":
        # shared vertex at parameter origin of both panels; joint radial
        # Duffy split by which panel is outer.  This case has the weakest
        # convergence constant of the transformed rules, so it runs three
        # orders above the nominal one.
        q, gw = _tensor4(order + 3)
        xi, eta, b1, b2 = q.T
        w = gw * xi ** 3 * eta
        xn = [np.stack([xi, xi * b1], 1), np.stack([xi * eta, xi * eta * b1], 1)]
        yn = [np.stack([xi * eta, xi * eta * b2], 1), np.stack([xi, xi * b2], 1)]
        wn = [w, w]
    elif case == "disjoint":
        q, gw = _tensor4(order)
        a1, b1, a2, b2 = q.T
        xn = [np.stack([a1, a1 * b1], 1)]
        yn = [np.stack([a2, a2 * b2], 1)]
        wn = [gw * a1 * a2]
    else:
        raise ValueError(f"unknown adjacency case {case!r}")
    rule = QuadratureRule(case, order, np.vstack(xn), np.vstack(yn),
                          np.concatenate(wn))
    rule.x_nodes.setflags(write=False)
    rule.y_nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def _doubled_area(tris):
    d1 = tris[..., 1, :] - tris[..., 0, :]
    d2 = tris[..., 2, :] - tris[..., 0, :]
    return np.abs(d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])


def _map_nodes(tris, nodes):
    """Map reference nodes (K,2) into triangles (...,3,2) -> (...,K,2)."""
    e1 = tris[..., None, 1, :] - tris[..., None, 0, :]
    e2 = tris[..., None, 2, :] - tris[..., None, 1, :]
    return (tris[..., None, 0, :] + nodes[..., 0, None] * e1
            + nodes[..., 1, None] * e2)


# upper triangle of the 5x5 Gram matrix of (d, e1a, e2a, -e1b, -e2b)
_GRAM_I, _GRAM_J = np.triu_indices(5)
# r^2 entries per block of the rule kernel: 1 MB stays in cache from the
# GEMM through the square root to the GEMV (10-30% faster than 8 MB
# blocks in single-thread timings of the vertex, identical and disjoint
# rules)
_RULE_CHUNK = 1 << 17


@lru_cache(maxsize=None)
def _rule_monomials(case, order):
    """(15, K) products c_i c_j of c = (1, x1, x2, y1, y2) over the rule's
    nodes, off-diagonal products doubled."""
    rule = quadrature_rule(case, order)
    c = np.vstack([np.ones(len(rule.weights)), rule.x_nodes.T, rule.y_nodes.T])
    mono = c[_GRAM_I] * c[_GRAM_J]
    mono[_GRAM_I != _GRAM_J] *= 2.0
    mono.setflags(write=False)
    return mono


def _apply_rule_pairs(rule, ta, tb):
    """Rule evaluation for panel pairs ta, tb of shape (P, 3, 2).

    The edge vectors are e1 = v1 - v0 and e2 = v2 - v1, as in _map_nodes;
    r^2 = gram @ monomials is one GEMM per block (see the module notes).
    """
    mono = _rule_monomials(rule.case, rule.order)
    out = np.empty(len(ta))
    step = max(1, _RULE_CHUNK // mono.shape[1])
    for lo in range(0, len(ta), step):
        a = ta[lo:lo + step]
        b = tb[lo:lo + step]
        vecs = np.stack([a[:, 0] - b[:, 0], a[:, 1] - a[:, 0],
                         a[:, 2] - a[:, 1], b[:, 0] - b[:, 1],
                         b[:, 1] - b[:, 2]], axis=1)
        gram = np.einsum("pkc,pkc->pk", vecs[:, _GRAM_I], vecs[:, _GRAM_J])
        r = gram @ mono
        np.sqrt(r, out=r)
        np.divide(1.0, r, out=r)
        out[lo:lo + step] = r @ rule.weights
    return out * _doubled_area(ta) * _doubled_area(tb) / FOUR_PI


# -- robust semi-analytic path -------------------------------------------------


def _edge_frames(tris):
    """Edge frames of panels (M, 3, 2) -> (M, 3, 5): start vertex (x, y),
    unit tangent (x, y) and length of edge k, which runs from vertex k to
    vertex k + 1."""
    t = tris[:, [1, 2, 0]] - tris
    ln = np.sqrt(t[..., 0] * t[..., 0] + t[..., 1] * t[..., 1])
    return np.stack([tris[..., 0], tris[..., 1], t[..., 0] / ln,
                     t[..., 1] / ln, ln], axis=-1)


def _segment_potential(frames, px, py):
    """int_tri 1/|x-y| dy in closed form, batched.

    frames: (M, 3, 5) edge frames of counterclockwise panels (see
    _edge_frames); px, py: (M, K) point coordinates in the same plane.
    Each edge adds d log(num/den), with d the signed distance of the point
    to the edge line and num, den from the tangential offsets s_b, s_a of
    the edge's end points; the rationalized form is used where s < 0.
    """
    total = np.zeros(px.shape)
    rx, ry, d, s_a, s_b, r_a, r_b, num, tmp = (np.empty(px.shape)
                                               for _ in range(9))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(3):
            ax, ay, tx, ty, ln = (frames[:, k, j, None] for j in range(5))
            np.subtract(ax, px, out=rx)
            np.subtract(ay, py, out=ry)
            # d = rel . n with the outward normal n = (ty, -tx)
            np.multiply(rx, ty, out=d)
            d -= np.multiply(ry, tx, out=tmp)
            np.multiply(rx, tx, out=s_a)
            s_a += np.multiply(ry, ty, out=tmp)
            np.add(s_a, ln, out=s_b)
            np.hypot(s_a, d, out=r_a)
            np.hypot(s_b, d, out=r_b)
            dd = np.multiply(d, d, out=rx)
            np.add(s_b, r_b, out=num)
            neg = np.less(s_b, 0.0)
            if neg.any():
                np.divide(dd, np.subtract(r_b, s_b, out=tmp), out=num,
                          where=neg)
            den = np.add(s_a, r_a, out=ry)
            neg = np.less(s_a, 0.0, out=neg)
            if neg.any():
                np.divide(dd, np.subtract(r_a, s_a, out=tmp), out=den,
                          where=neg)
            term = np.log(np.divide(num, den, out=num), out=num)
            term *= d
            if not np.isfinite(term).all():
                np.nan_to_num(term, copy=False)
            small = np.less(np.abs(d, out=tmp), 1e-300, out=neg)
            if small.any():
                term[small] = 0.0
            total += term
    return total


@lru_cache(maxsize=None)
def _gauss_duffy(p):
    g, w = _gauss01(p)
    a, b = np.meshgrid(g, g, indexing="ij")
    wa, wb = np.meshgrid(w, w, indexing="ij")
    nodes = np.stack([a.ravel(), (a * b).ravel()], axis=1)
    return nodes, (wa * wb * a).ravel()


def _robust_pairs(ta, tb):
    """Adaptive outer quadrature over ta of the closed-form inner
    potential of tb; handles arbitrarily anisotropic or close panels.

    Raises NumericalError when the live cells of the subdivision exceed
    _ROBUST_MAX_CELLS.
    """
    ta = np.asarray(ta, float)
    tb = np.asarray(tb, float)
    nodes, wts = _gauss_duffy(_ROBUST_ORDER)
    n0, n1 = nodes[:, 0], nodes[:, 1]
    frames = _edge_frames(tb)

    def cell_values(cells, owner):
        out = np.empty(len(cells))
        for lo in range(0, len(cells), _ROBUST_BLOCK):
            c = cells[lo:lo + _ROBUST_BLOCK]
            # Duffy nodes mapped as v0 + n0 (v1 - v0) + n1 (v2 - v1)
            px, py = ((c[:, 1, i] - c[:, 0, i])[:, None] * n0 + c[:, 0, i, None]
                      + (c[:, 2, i] - c[:, 1, i])[:, None] * n1 for i in (0, 1))
            vals = _segment_potential(frames[owner[lo:lo + _ROBUST_BLOCK]],
                                      px, py)
            vals *= wts
            out[lo:lo + _ROBUST_BLOCK] = _doubled_area(c) * vals.sum(axis=1)
        return out

    n_pairs = len(ta)
    settled = np.zeros(n_pairs)
    owner = np.arange(n_pairs)
    cells = ta.copy()
    parent = cell_values(cells, owner)
    scale = np.abs(parent)
    for depth in range(_ROBUST_MAX_DEPTH):
        if not len(owner):
            break
        if 4 * len(owner) > _ROBUST_MAX_CELLS:
            raise NumericalError(
                f"robust panel quadrature did not settle: {4 * len(owner)} "
                f"live cells at depth {depth + 1} exceed the cap of "
                f"{_ROBUST_MAX_CELLS} (panels too anisotropic)")
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
        done = (np.abs(ksum - parent)
                <= _ROBUST_RTOL * np.maximum(scale[owner], 1e-300))
        if depth == _ROBUST_MAX_DEPTH - 1:
            done = np.ones_like(done)
        np.add.at(settled, owner[done], ksum[done])
        keep = ~done
        owner = np.repeat(owner[keep], 4)
        cells = kids[keep].reshape(-1, 3, 2)
        parent = kv[keep].ravel()
        running = settled.copy()
        np.add.at(running, owner, np.abs(parent))
        scale = np.maximum(scale, np.abs(running))
    return settled / FOUR_PI


def _self_entry_closed_form(tris):
    """Exact identical-panel value for the flat kernel.

    After radial and parallel reductions the self integral reduces to
    three 1D integrals of 1/|u + eta*v| with closed-form antiderivatives.
    Slivers of aspect near 1e15 can give log(0) and then inf - inf; the
    NaN is left for the table check to report.
    """
    tris = np.asarray(tris, float)
    squeeze = tris.ndim == 2
    if squeeze:
        tris = tris[None]
    c1 = tris[:, 1] - tris[:, 0]
    c2 = tris[:, 2] - tris[:, 1]

    def seg(u, v):
        a = (v * v).sum(-1)
        b = (u * v).sum(-1)
        c = (u * u).sum(-1)
        sa = np.sqrt(a)

        def anti(eta):
            s = np.sqrt(a * eta * eta + 2 * b * eta + c)
            return np.log(a * eta + b + sa * s) / sa

        return anti(1.0) - anti(0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        total = seg(c1, c2) + seg(c2, c1) + seg(-c1, c1 + c2)
    area2 = _doubled_area(tris)
    out = area2 ** 2 / 3.0 * total / FOUR_PI
    return out[0] if squeeze else out


# -- pair classification helpers -----------------------------------------------


def _aspect(tris):
    edges = tris[..., [1, 2, 0], :] - tris[..., [0, 1, 2], :]
    lmax2 = (edges ** 2).sum(-1).max(-1)
    return lmax2 / _doubled_area(tris)


def _triangle_distances(ta, tb):
    """Minimum distance between disjoint triangles, batched (P,3,2).

    Per edge pair, the closest points p1 + s u and q1 + t v are found by
    clamping the unconstrained minimizer s to [0, 1], then t given s, then
    s given t.
    """
    best = np.full(len(ta), np.inf)
    for lo in range(0, len(ta), _DIST_BLOCK):
        a = ta[lo:lo + _DIST_BLOCK]
        b = tb[lo:lo + _DIST_BLOCK]
        ax, ay, bx, by = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
        ux, uy = ax[:, [1, 2, 0]] - ax, ay[:, [1, 2, 0]] - ay
        vx, vy = bx[:, [1, 2, 0]] - bx, by[:, [1, 2, 0]] - by
        uu = ux * ux + uy * uy
        vv = vx * vx + vy * vy
        out = best[lo:lo + _DIST_BLOCK]
        for i in range(3):
            for j in range(3):
                wx = ax[:, i] - bx[:, j]
                wy = ay[:, i] - by[:, j]
                uv = ux[:, i] * vx[:, j] + uy[:, i] * vy[:, j]
                uw = ux[:, i] * wx + uy[:, i] * wy
                vw = vx[:, j] * wx + vy[:, j] * wy
                den = uu[:, i] * vv[:, j] - uv * uv
                s = np.zeros(len(a))
                np.divide(uv * vw - vv[:, j] * uw, den, out=s,
                          where=den > 1e-30)
                np.clip(s, 0.0, 1.0, out=s)
                t = np.zeros(len(a))
                np.divide(uv * s + vw, vv[:, j], out=t, where=vv[:, j] > 1e-30)
                np.clip(t, 0.0, 1.0, out=t)
                s[:] = 0.0
                np.divide(uv * t - uw, uu[:, i], out=s, where=uu[:, i] > 1e-30)
                np.clip(s, 0.0, 1.0, out=s)
                dx = (ax[:, i] + s * ux[:, i]) - (bx[:, j] + t * vx[:, j])
                dy = (ay[:, i] + s * uy[:, i]) - (by[:, j] + t * vy[:, j])
                np.minimum(out, np.sqrt(dx * dx + dy * dy), out=out)
    return best


def _reorder(tris, first, second=None):
    """Reindex panel vertices so ``first`` (and optionally ``second``)
    lead; the remaining vertex fills the last slot."""
    first = np.asarray(first, dtype=np.int64)
    if second is None:
        idx = np.stack([first, (first + 1) % 3, (first + 2) % 3], axis=1)
    else:
        second = np.asarray(second, dtype=np.int64)
        idx = np.stack([first, second, 3 - first - second], axis=1)
    return np.take_along_axis(tris, idx[:, :, None], axis=1)


def _pair_values(coords, tris, aspect, diam, i, j, order):
    """Table entries of the panel pairs (i[k], j[k]), i <= j, of one mesh.

    A pair is classified by how many vertex indices its panels share: 3
    identical, 2 edge-adjacent, 1 vertex-adjacent, 0 disjoint.  Singular
    pairs of two shape-regular panels get their case's rule; identical
    anisotropic panels get the closed-form self entry and the other
    singular pairs with an anisotropic panel the robust path.  Disjoint
    pairs are binned by rho = dist / max(diam): the disjoint rule of order
    p - 1 (rho >= RHO_NEAR) or p (rho >= RHO_CLOSE), else the robust path.

    The kernel's GEMM rounds a row differently depending on its position
    in the block, so rows keep a fixed order: edge pairs sorted by their
    shared edge (lo, hi), which both panels traverse lo -> hi, and every
    other class in the order given.  The robust path takes (coords[i],
    coords[j]) as they are.
    """
    shared = tris[i][:, :, None] == tris[j][:, None, :]
    count = shared.sum(axis=(1, 2))
    iso = ((aspect[i] <= SINGULAR_ASPECT_LIMIT)
           & (aspect[j] <= SINGULAR_ASPECT_LIMIT))
    out = np.full(len(i), np.nan)
    robust = (count > 0) & (count < 3) & ~iso

    def apply_rule(case, p, k, ta, tb):
        if len(k):
            out[k] = _apply_rule_pairs(quadrature_rule(case, p), ta, tb)

    k = np.flatnonzero((count == 3) & iso)
    apply_rule("identical", order, k, coords[i[k]], coords[j[k]])
    k = np.flatnonzero((count == 3) & ~iso)
    out[k] = _self_entry_closed_form(coords[i[k]])

    k = np.flatnonzero((count == 2) & iso)
    ends = np.sort(tris[i[k]][shared[k].any(axis=2)].reshape(-1, 2), axis=1)
    by_edge = np.lexsort((ends[:, 1], ends[:, 0]))
    k, ends = k[by_edge], ends[by_edge]

    def along_edge(t):
        lo, hi = (np.argmax(tris[t] == v[:, None], axis=1) for v in ends.T)
        return _reorder(coords[t], lo, hi)

    apply_rule("edge-adjacent", order, k, along_edge(i[k]), along_edge(j[k]))

    # the shared vertex leads on both panels
    k = np.flatnonzero((count == 1) & iso)
    ta = _reorder(coords[i[k]], np.argmax(shared[k].any(axis=2), axis=1))
    tb = _reorder(coords[j[k]], np.argmax(shared[k].any(axis=1), axis=1))
    apply_rule("vertex-adjacent", order, k, ta, tb)

    k = np.flatnonzero(count == 0)
    rho = (_triangle_distances(coords[i[k]], coords[j[k]])
           / np.maximum(diam[i[k]], diam[j[k]]))
    for band, p in ((k[rho >= RHO_NEAR], max(order - 1, 1)),
                    (k[(rho >= RHO_CLOSE) & (rho < RHO_NEAR)], order)):
        apply_rule("disjoint", p, band, coords[i[band]], coords[j[band]])
    robust[k[rho < RHO_CLOSE]] = True

    k = np.flatnonzero(robust)
    out[k] = _robust_pairs(coords[i[k]], coords[j[k]])
    return out


# -- public operations ----------------------------------------------------------


@dataclass
class EnergyForm:
    """Dense element-pair single-layer table for one mesh."""

    mesh: object
    table: np.ndarray  # (nt, nt), symmetric, positive entries

    def __post_init__(self):
        nt = self.mesh.num_triangles
        if self.table.shape != (nt, nt):
            raise ValueError("energy table does not match the mesh")


def panel_integral(ta, tb, order=DEFAULT_ORDER):
    """(1/4pi) int_ta int_tb |x-y|^(-1) for two flat panels.

    Both panels are oriented counterclockwise and vertices with exactly
    equal coordinates are merged.  The value is the off-diagonal entry of
    the energy table of that two-panel mesh (a one-panel mesh if the
    vertex sets are equal), so the pair gets the rule or robust path its
    table entry would get.
    """
    pair = np.array([ta, tb], dtype=float).reshape(2, 3, 2)
    d1 = pair[:, 1] - pair[:, 0]
    d2 = pair[:, 2] - pair[:, 0]
    cw = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0.0
    pair[cw] = pair[cw, ::-1]
    same = (pair[1][:, None] == pair[0][None]).all(axis=2)
    new = ~same.any(axis=1)
    tri_b = np.where(new, 2 + np.cumsum(new), same.argmax(axis=1))
    tris = [[0, 1, 2]] if set(tri_b) == {0, 1, 2} else [[0, 1, 2], tri_b]
    mesh = Mesh(np.vstack([pair[0], pair[1][new]]), tris,
                np.zeros(len(tris), dtype=np.int64))
    return float(assemble_energy_form(mesh, order).table[0, -1])


def _far_table(coords, cent, diam, p):
    """Far-field table and near candidates of a mesh, in one sweep.

    Every entry G[i, j] gets the tensorized disjoint rule of order p; the
    diagonal comes out non-finite (coincident points) and the entries of
    the near candidates are overwritten afterwards.  Row strips of
    _FAR_STRIP panels run against column tiles of _FAR_TILE panels, j >=
    i, the strip's own square first (see the module notes).

    The near candidates are the pairs i <= j possibly closer than RHO_FAR
    diameters, in (i, j) order.  The diagonal and every pair that shares a
    vertex are among them: their centroid distance is at most the sum of
    the two radii.
    """
    nt = len(coords)
    nodes, w = _gauss_duffy(p)
    k = len(w)
    pts = _map_nodes(coords, nodes)
    px = np.ascontiguousarray(pts[..., 0])
    py = np.ascontiguousarray(pts[..., 1])
    area2 = _doubled_area(coords)
    radius = np.linalg.norm(coords - cent[:, None, :], axis=2).max(axis=1)
    G = np.empty((nt, nt))
    size = _FAR_STRIP * max(_FAR_STRIP, _FAR_TILE) * k * k
    dx, dy = np.empty(size), np.empty(size)
    near_i, near_j = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i0 in range(0, nt, _FAR_STRIP):
            i1 = min(nt, i0 + _FAR_STRIP)
            xa, ya = px[i0:i1].ravel(), py[i0:i1].ravel()
            tiles = [(i0, i1)] + [(j0, min(nt, j0 + _FAR_TILE))
                                  for j0 in range(i1, nt, _FAR_TILE)]
            for j0, j1 in tiles:
                shape = ((i1 - i0) * k, (j1 - j0) * k)
                r = dx[:shape[0] * shape[1]].reshape(shape)
                t = dy[:r.size].reshape(shape)
                np.subtract.outer(xa, px[j0:j1].ravel(), out=r)
                r *= r
                np.subtract.outer(ya, py[j0:j1].ravel(), out=t)
                t *= t
                r += t
                np.sqrt(r, out=r)
                np.divide(1.0, r, out=r)
                vals = w @ (r.reshape(-1, k) @ w).reshape(i1 - i0, k, j1 - j0)
                vals *= area2[i0:i1, None]
                vals *= area2[j0:j1]
                if j0 == i0:
                    # the two reduction orders of a pair differ in
                    # rounding; the table must be bitwise symmetric
                    vals = 0.5 * (vals + vals.T)
                G[i0:i1, j0:j1] = vals
                G[j0:j1, i0:i1] = vals.T
            dc = np.linalg.norm(cent[i0:i1, None, :] - cent[None, i0:, :],
                                axis=2)
            bound = dc - radius[i0:i1, None] - radius[None, i0:]
            thresh = RHO_FAR * np.maximum(diam[i0:i1, None], diam[None, i0:])
            ii, jj = np.nonzero(np.triu(bound < thresh))
            near_i.append(ii + i0)
            near_j.append(jj + i0)
    G /= FOUR_PI
    return G, np.concatenate(near_i), np.concatenate(near_j)


def assemble_energy_form(mesh, order=DEFAULT_ORDER):
    """Element-pair single-layer table for all panel pairs of a mesh.

    Every pair starts from the far-field rule; the near candidates, the
    diagonal included, are then evaluated by _pair_values.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    coords = mesh.triangle_coords()
    aspect = _aspect(coords)
    diam = np.sqrt(((coords[:, [1, 2, 0], :] - coords) ** 2).sum(-1)).max(-1)
    G, i, j = _far_table(coords, mesh.centroids, diam, max(order - 2, 1))
    vals = _pair_values(coords, mesh.triangles, aspect, diam, i, j, order)
    G[i, j] = vals
    G[j, i] = vals

    if not (np.isfinite(G).all() and (G == G.T).all() and G.min() > 0.0):
        raise NumericalError("energy table is not finite, symmetric and "
                             "positive")
    G.setflags(write=False)
    return EnergyForm(mesh, G)


def energy_inner(form, u, v):
    """a(u, v) = sum_{T,T'} (u_T . v_T') G[T][T'] for curl fields."""
    if u.mesh is not form.mesh or v.mesh is not form.mesh:
        raise ValueError("fields do not live on the form's mesh")
    G = form.table
    return float(u.values[:, 0] @ G @ v.values[:, 0]
                 + u.values[:, 1] @ G @ v.values[:, 1])


def _curl_matrices(space):
    """Sparse per-component maps from DOFs to elementwise basis curls."""
    mesh = space.mesh
    grads = barycentric_gradients(mesh)
    rows, cols, gx, gy = [], [], [], []
    if space.kind == "cr":
        for slot in range(2):
            t = mesh.edge_tris[space.dof_to_entity, slot]
            valid = t >= 0
            tt = t[valid]
            eids = space.dof_to_entity[valid]
            loc = np.argmax(mesh.tri_edges[tt] == eids[:, None], axis=1)
            g = -2.0 * grads[tt, loc]
            rows.append(np.flatnonzero(valid))
            cols.append(tt)
            gx.append(g[:, 0])
            gy.append(g[:, 1])
    elif space.kind == "conforming":
        dof = space.entity_to_dof[mesh.triangles]  # (nt, 3)
        t_idx, loc = np.nonzero(dof >= 0)
        g = grads[t_idx, loc]
        rows.append(dof[t_idx, loc])
        cols.append(t_idx)
        gx.append(g[:, 0])
        gy.append(g[:, 1])
    else:
        raise ValueError(f"unknown space kind {space.kind!r}")
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    gx = np.concatenate(gx)
    gy = np.concatenate(gy)
    shape = (space.dof_count, mesh.num_triangles)
    # curl = (g_y, -g_x)
    cx = sp.csr_matrix((gy, (rows, cols)), shape=shape)
    cy = sp.csr_matrix((-gx, (rows, cols)), shape=shape)
    return cx, cy


def assemble_stiffness(form, space):
    """Galerkin matrix A[i][j] = a(basis_i, basis_j) on the given space."""
    if space.mesh is not form.mesh:
        raise ValueError("space does not live on the form's mesh")
    cx, cy = _curl_matrices(space)
    G = form.table
    n = space.dof_count
    A = np.empty((n, n))
    for r0 in range(0, n, _STIFF_BLOCK):
        r1 = min(n, r0 + _STIFF_BLOCK)
        rows = slice(r0, r1)
        # rows of a.T for a = cx (cx G)^T + cy (cy G)^T; then the pairs of
        # this block with the blocks above it become 0.5 (a + a^T)
        A[rows] = (cx @ (cx[rows] @ G).T + cy @ (cy[rows] @ G).T).T
        s = A[rows, :r1] + A[:r1, rows].T
        s *= 0.5
        A[rows, :r1] = s
        A[:r1, rows] = s.T
    return A


def assemble_rhs_constant(space):
    """Load vector of f = 1: every supported basis integrates to |T|/3."""
    mesh = space.mesh
    b = np.zeros(space.dof_count)
    if space.kind == "cr":
        dof = space.entity_to_dof[mesh.tri_edges]
        t_idx, loc = np.nonzero(dof >= 0)
        np.add.at(b, dof[t_idx, loc], mesh.areas[t_idx] / 3.0)
    else:
        dof = space.entity_to_dof[mesh.triangles]
        t_idx, loc = np.nonzero(dof >= 0)
        np.add.at(b, dof[t_idx, loc], mesh.areas[t_idx] / 3.0)
    return b


def _power_moments_element(tri, alpha):
    """Exact int_T x^alpha * lambda_j for one triangle, j = 0, 1, 2.

    The triangle is cut into x-monotone strips; the inner y-integral of
    an affine function over an interval with affine bounds is a quadratic
    in x, and int x^(alpha+k) has a closed form for alpha > -1.
    """
    x = tri[:, 0]
    y = tri[:, 1]
    area2 = ((tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
             - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0]))
    # affine barycentric coefficients: lambda_j = (a_j + b_j x + c_j y)/area2
    a_c = np.array([x[1] * y[2] - x[2] * y[1],
                    x[2] * y[0] - x[0] * y[2],
                    x[0] * y[1] - x[1] * y[0]])
    b_c = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c_c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])

    order = np.argsort(x, kind="stable")
    xs = x[order]
    moments = np.zeros(3)

    def edge_line(i, j):
        # y(x) on the edge between vertices i and j
        dx = x[j] - x[i]
        slope = (y[j] - y[i]) / dx
        return y[i] - slope * x[i], slope

    for x0, x1 in ((xs[0], xs[1]), (xs[1], xs[2])):
        if x1 - x0 <= 1e-300:
            continue
        xm = 0.5 * (x0 + x1)
        lines = []
        for i, j in ((0, 1), (1, 2), (2, 0)):
            lo, hi = min(x[i], x[j]), max(x[i], x[j])
            if lo <= xm <= hi and x[j] - x[i] != 0.0:
                lines.append(edge_line(i, j))
        (i0, s0), (i1, s1) = lines[0], lines[1]
        if i0 + s0 * xm > i1 + s1 * xm:
            (i0, s0), (i1, s1) = (i1, s1), (i0, s0)
        # cross-section [y_lo, y_hi] with y = i + s x; for each j:
        # inner = (a + b x)(y_hi - y_lo) + c (y_hi^2 - y_lo^2)/2
        dy0 = i1 - i0
        dy1 = s1 - s0
        sq0 = i1 * i1 - i0 * i0
        sq1 = 2.0 * (i1 * s1 - i0 * s0)
        sq2 = s1 * s1 - s0 * s0
        for j in range(3):
            # quadratic coefficients of the inner integral in x
            q0 = a_c[j] * dy0 + 0.5 * c_c[j] * sq0
            q1 = a_c[j] * dy1 + b_c[j] * dy0 + 0.5 * c_c[j] * sq1
            q2 = b_c[j] * dy1 + 0.5 * c_c[j] * sq2
            for k, q in enumerate((q0, q1, q2)):
                e = alpha + k + 1.0
                moments[j] += q * (x1 ** e - x0 ** e) / e
    return moments / area2


def assemble_rhs_power(space, alpha):
    """Load vector of f = x^alpha for -1 < alpha < 0, exact per element."""
    if not -1.0 < alpha:
        raise ValueError(f"power {alpha} gives a divergent load integral")
    mesh = space.mesh
    coords = mesh.triangle_coords()
    moments = np.empty((mesh.num_triangles, 3))
    for t in range(mesh.num_triangles):
        moments[t] = _power_moments_element(coords[t], alpha)
    b = np.zeros(space.dof_count)
    if space.kind == "cr":
        # psi_e = 1 - 2 lambda_opp
        total = moments.sum(axis=1)
        dof = space.entity_to_dof[mesh.tri_edges]
        t_idx, loc = np.nonzero(dof >= 0)
        np.add.at(b, dof[t_idx, loc], total[t_idx] - 2.0 * moments[t_idx, loc])
    else:
        dof = space.entity_to_dof[mesh.triangles]
        t_idx, loc = np.nonzero(dof >= 0)
        np.add.at(b, dof[t_idx, loc], moments[t_idx, loc])
    return b


def single_layer_field(source_coords, source_values, pts):
    """The single-layer potential of a piecewise-constant vector density,
    u(x) = (1/4pi) sum_S w_S int_S |x-y|^(-1) dy, evaluated at pts (...,2)."""
    shape = pts.shape
    px = pts[..., 0].reshape(1, -1)
    py = pts[..., 1].reshape(1, -1)
    frames = _edge_frames(np.asarray(source_coords, float))
    u = np.zeros((px.shape[1], 2))
    for s in range(len(source_coords)):
        pot = _segment_potential(frames[s:s + 1], px, py)[0]
        u += pot[:, None] * source_values[s]
    return u.reshape(shape[:-1] + (2,)) / FOUR_PI


def _consistency_correction(space, field_fn):
    """Inter-element part of the manufactured data functional.

    Pairing the hypersingular data with a discontinuous test function
    elementwise leaves boundary terms: sum_T int_{dT} psi (u . t) ds with
    u = field_fn (the single-layer field of the manufactured curl
    density) and t the counterclockwise tangent.  For continuous test
    functions vanishing on the screen boundary these cancel, so
    conforming spaces skip this.
    """
    if space.kind != "cr":
        return np.zeros(space.dof_count)
    mesh = space.mesh
    # 10-point Gauss on three panels per edge
    s_nodes, s_wts = _gauss01_composite(10, 3)
    coords = mesh.triangle_coords()
    c = np.zeros(space.dof_count)
    # edge k of every triangle runs counterclockwise from local vertex
    # k+1 to k+2; traces of the three edge basis functions along it are
    # 1 (own edge), 2s-1, and 1-2s.
    for k in range(3):
        a = coords[:, (k + 1) % 3, :]
        b = coords[:, (k + 2) % 3, :]
        seg = b - a
        length = np.linalg.norm(seg, axis=1)
        pts = a[:, None, :] + s_nodes[None, :, None] * seg[:, None, :]
        u = field_fn(pts)
        ut = (u * seg[:, None, :]).sum(-1) / length[:, None]
        base = length * (s_wts[None, :] * ut).sum(axis=1)
        lin = length * ((s_wts * (2.0 * s_nodes - 1.0))[None, :] * ut).sum(axis=1)
        for off, t_const, t_lin in ((0, 1.0, 0.0), (1, 0.0, 1.0),
                                    (2, 0.0, -1.0)):
            dof = space.entity_to_dof[mesh.tri_edges[:, (k + off) % 3]]
            valid = dof >= 0
            np.add.at(c, dof[valid],
                      t_const * base[valid] + t_lin * lin[valid])
    return c


def assemble_rhs_manufactured(form, space, phi, source=None):
    """Load vector of the manufactured data f = W(phi).

    ``phi`` is either a conforming coefficient vector on the form's mesh
    or a piecewise-constant curl field on that mesh (the curl of a
    coarse-mesh function carried to this mesh).  Entries against
    conforming test functions are a(phi, basis_i); nonconforming test
    functions additionally see the inter-element terms of the data,
    evaluated from ``source`` = (panel coords, curl values), the curl
    density on its coarsest mesh (defaults to the form's mesh).
    """
    if isinstance(phi, CoefVec):
        if phi.space.mesh is not form.mesh:
            raise ValueError("phi does not live on the form's mesh")
        w = curl_field(phi)
    elif isinstance(phi, PwConstVecField):
        if phi.mesh is not form.mesh:
            raise ValueError("phi does not live on the form's mesh")
        w = phi
    else:
        raise TypeError("phi must be a CoefVec or PwConstVecField")
    if space.mesh is not form.mesh:
        raise ValueError("space does not live on the form's mesh")
    cx, cy = _curl_matrices(space)
    G = form.table
    b = cx @ (G @ w.values[:, 0]) + cy @ (G @ w.values[:, 1])
    if space.kind == "cr":
        if source is None:
            source = (form.mesh.triangle_coords(), w.values)
        coords, values = source
        b = b + _consistency_correction(
            space, lambda pts: single_layer_field(coords, values, pts))
    return b
