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

The cases are told apart in one place, _classify_pairs, by the number of
vertex indices a pair shares (3, 2, 1, 0); disjoint pairs are then binned
by separation.  One pass, _split_pairs, splits the pairs i <= j in two
and makes the decision in one place.  It runs over strips of _SCAN_STRIP
rows, j >= i, and forms each pair's centroid bound (the centroid distance
less both enclosing radii) once.  Where the bound is below RHO_FAR times
the larger diameter the pair is a near candidate, the diagonal included;
the others are far, and the pass writes them at once with the disjoint
rule of order ORDER - 2 from the rule kernel below, one GEMM step a block
of gathered pairs.  _classify_pairs labels the candidates and
_pair_values evaluates them.  Each pass writes G[i, j] and G[j, i] of a
pair with the same value, so every entry is written once and the table
is bitwise symmetric.  panel_integral assembles the table of a one- or
two-panel mesh, so single pairs take exactly the table's path.  Timings
and memory measurements of every design choice below are in CHANGES.md.

The meshes of the uniform and graded runs map onto themselves under the
quarter turn (x, y) -> (1 - y, x), panel by panel and vertex k onto vertex
k.  panel_map finds the panel map of such an isometry from exact
coordinates, with no tolerance; _quarter_turn is its call for the turn,
TURN, whose map is sigma.  The images (sigma^a i, sigma^a j), a = 0..3, of
a pair, each taken as (min, max), form its orbit, and the image of
smallest code min nt + max is its representative.  A pair sees the kernel
only through its geometry, so an image's value differs from the pair's own
by rounding only.  _split_pairs copies a far pair's entry from its
representative wherever that is far too; the representative lies in the
same strip or an earlier one, so a strip evaluates its other pairs first.
Where no sigma exists (NVB meshes, translated meshes, gradings whose
coordinates do not turn exactly) every far pair is evaluated.

The near pass uses the same turn.  After its strip loop, _split_pairs maps
each near candidate to its representative, and tells whether the turn
keeps the pair's order.  _classify_pairs labels every candidate as without
the turn; then one copy rule serves every label: a pair copies its
representative's value where that is another pair of its label, and for
the robust path, whose outer and inner panels play unlike roles, where the
turn keeps the order too.  The others are evaluated: a quarter of the rule
pairs, and a quarter of the robust and self pairs plus the few that the
turn takes in the other order.  A rule entry so differs from the turn-less
pass by rounding only.  The closed-form self entries and the robust path
see coordinate differences only, which a turn of a dyadic mesh maps
exactly, so their copies are bitwise the pair's own values and no
subdivision decision moves.  Tables of at most _SMALL_TABLE panels take no
turn, evaluate every pair and keep their bits.

Every rule-based pair (the three singular cases, the near and close
disjoint bands and the far pairs) is evaluated by one kernel, which sees
a pair only through 17 numbers, _rule_inputs.  A node pair (x1, x2),
(y1, y2) maps to x - y = d + x1 e1a + x2 e2a - y1 e1b - y2 e2b with
d = a0 - b0, so |x - y|^2 is a quadratic form in c = (1, x1, x2, y1, y2)
with the Gram matrix of (d, e1a, e2a, -e1b, -e2b).  Its 15 entries, each
a two-term dot product, and the two doubled areas are the inputs.
_rule_values takes (P, 17) rows of them: the Gram entries times a cached
(15, K) monomial table per rule give r^2 in one GEMM, followed by an
in-place square root and reciprocal and a GEMV with the weights.  Only
coordinate differences enter, so there is no cancellation on absolute
coordinates.  The GEMM rounds a row by its position in the block, so
_rule_values runs every GEMM on _rule_step(rule) rows in a fixed order.
A pair in natural vertex order, a far pair or one of the disjoint bands,
takes 8 of its inputs from one panel each: the three Gram entries within
a panel and the areas.  _panel_rows forms 10 numbers per panel once per
table, with the operations of _rule_inputs: vertex 0, e1 = v1 - v0,
e2 = v2 - v1, the Gram entries e1.e1, e1.e2 and e2.e2, and the doubled
area.  _rule_pairs, the one call of the far pass and the bands, gathers
two such rows per pair for one GEMM step of pairs at a time, and
_pair_inputs forms only the nine entries with d = a0 - b0 or a vector of
each panel, with -e1b and -e2b as exact negations.  So every input equals
that of _rule_inputs; a zero may differ in sign, which the GEMM's sums do
not tell apart, and the tables keep their bits.  The singular labels take
each pair's panels in a vertex order of its own, so they gather
coordinates and form all 17 inputs by _rule_inputs.

The identical, edge and vertex rules then evaluate one pair per class of
equal kernel input.  _pair_values stores the inputs of such a label,
_key_classes finds the classes on them, and the first row of each class
is evaluated from the stored inputs.  Quarter turns, reflections and
exact translations of a pair leave its inputs bitwise equal, and a
scaling by 2^g multiplies them by exactly 4^g and the value by 8^g, so
every pair of a class takes its class value times a power of 8.  A class
value differs from the pair's own by the GEMM's row-position rounding,
as with the turn.  The class values last a run: assemble_energy_form
takes a store, a dict that estimators.Level passes from each level to
the next, keyed by the rule and a class's exactly normalised key
(_normalised, -0 taken as +0), of value times 8^-f.  _stored_values
reads a class found there and evaluates only the others, in their
order, so each table evaluates the classes that are new to the run.
Keys that do not round-trip never enter the store.  A table assembled
alone gets a fresh store and so the same bits whatever was assembled
before it.  Tables of at most _SMALL_TABLE panels form no classes and
neither read nor write the store.

The disjoint bands are classed on an integer lattice instead, as storing
and sorting their float inputs cost more time and memory than it saved,
and under the disjoint rule's full symmetry.  The rule is a tensor Gauss
rule after a Duffy map, x = v0 + a (1 - b) (v1 - v0) + a b (v2 - v0), and
its nodes in b are symmetric about 1/2, so it cannot tell a panel's
vertices 1 and 2 apart, nor the two panels of a pair.  Where a table's
coordinates times some 2^L are integers below 2^52, so that every
coordinate difference is exact, _panel_lattice gives each panel its
exponent g, the 2-adic valuation of its integers, and its forms: the id
of the unordered pair {v1 - v0, v2 - v0} / 2^g under each of the
square's eight symmetries.  The smallest form is the panel's shape, and
the symmetries that give it are its frames, two where a mirror swaps its
edges (a panel whose vertex 0 is the apex of an isosceles triangle).
_lattice_classes keys a band pair (a, b) in a frame h of a by a's shape,
b's form under h, g_b - g_a and h (b0 - a0) over 2^s, s the smaller
exponent, takes the smallest such key over a's frames and over both orders
of the pair, and packs it and the pair's place into one int64.  Pairs of
equal key are copies of each other under the square's symmetries,
translation, scaling by 2^(s - s_rep) and exchange of the panels, so their
values agree up to rounding and the factor 8^(s - s_rep), and the classes
keep the contract of _key_classes: the first pair of a class in the band's
order is evaluated, and the others take its value times 8^(s - s_rep).
Both mechanisms take the first row of each run of a stable sort from one
helper, _first_of_runs.  Tables without a lattice (gradings whose
coordinates are not dyadic, meshes translated off their grid, whose edges
over 2^g do not fit the shape codes), tables of at most _SMALL_TABLE
panels and keys that do not fit an int64 evaluate every band pair.

Memory: the table G (nt x nt) and a Galerkin matrix A (n x n) are the only
quadratic arrays of a run, and no step makes a temporary of their size.
estimators.solve_spd factors A in place, and assemble_energy_form checks
G by its minimum and maximum, which NaN fails too, and by square tiles.
assemble_stiffness fills A by blocks of _STIFF_BLOCK DOF rows, then
symmetrizes it in place, one pair of square tiles of that side at a time.
On the orbit indicators of the quarter turn (constant data, see
estimators) A has the orbits' rows only, about n/4, and on those of the
reflection (power data) about n/2; no n x n array is made.  The near
candidates are two int32 index lists and one flag byte each, and the orbit
map one more int32 and one more byte.  _split_pairs holds the far pairs of
one strip at a time, their orbit images, and the kernel inputs of one
block of them; no list spans the far pairs of the table.  Its strips keep
a candidate as one code, 4 bytes, and its flag, as two index lists kept
between the far pairs' work arrays left more heap behind for the rest of
the run.  It builds the orbit map once the candidates are joined, in
blocks, as maps built per strip raised the peak memory of the graded runs.
The near-field pass works in blocks too: _classify_pairs labels the near
candidates in blocks of _PAIR_BLOCK rows with one byte each, after the
table is allocated, as classifying before it left more freed heap behind
for the rest of the run.  _pair_values keeps one written flag a candidate,
and per label only the indices of its pairs (and for a keyed label their
kernel inputs, for a band with lattice classes one key, then one
representative, per pair).  It writes each block of values straight into
G, and its class and orbit copies read their sources back from G in
blocks of _PAIR_BLOCK, so no array of values spans the candidates.  One
loop, _gathered, gathers the panels of a block of pairs, in the vertex
order of their case, for a kernel that sees only that block, and the
robust path takes _ROBUST_BLOCK / 4 pairs a call, so that its live cells
grow with one block only.

The transformed rules converge geometrically for shape-regular panels but
degrade on strongly anisotropic ones (boundary-graded meshes).  Pairs
beyond the rules' anisotropy or proximity envelope switch to a robust
semi-analytic path: the inner integral of the kernel over a flat panel is
evaluated in closed form and the outer integral by adaptive subdivision;
identical anisotropic panels use a fully closed-form self-entry.

The robust path moves each pair to pair-relative coordinates, vertex 0
of the inner panel at the origin, computes the edge frames of the inner
panels (start vertex, unit tangent, length) once per call and evaluates
the closed form in blocks of _ROBUST_BLOCK cells times the 25 Duffy
points.  One front end, _panel_potential, evaluates the closed form of
panels at the points that affine cells map given nodes to.  An edge's
term, _edge_potential, needs only the signed distance d of a point to
the edge line and the offset s_a of the edge's start vertex along it,
and takes the distances to the edge's ends as sqrt(s^2 + d^2).
Pair-relative offsets are of the size of the panels, so the squares
cannot overflow, and hypot, which guards against that in libm, costs
several times as much.  d and s_a are affine in the nodes:
_edge_offset_rows forms their coefficients per cell, and one GEMM per
edge evaluates them at every point of a block, with no point mapped.
single_layer_field takes the same front end with the identity cell
(0, 0), (1, 0), (1, 1), which maps the nodes (x, y) to the points
themselves.  A robust value so differs from the closed form at mapped
points, taken with hypot, by rounding only, a small multiple of u S / h
for pair-relative coordinates of size S and a shortest edge h.
Subdivision stops where four children agree with their parent to
_ROBUST_RTOL, so a flipped decision would move a table entry by about
1e-6 relative, far above that; a decision flips only where its test
lies within rounding of the threshold.  The tests check against such a
mapped-point reference that the path evaluates the same cells and stays
within the rounding bound.  A block's GEMM must round a row alike
wherever it stands, so that the block size changes no bit; the tests
check that too.
The triangle distances that pick the disjoint bands work on split
x and y coordinate arrays and keep the floating-point operations of the
earlier (M, K, 2) formulation, in the same order, as the bands compare
distance ratios with RHO_CLOSE and RHO_NEAR; the tests check them bit
for bit against the earlier kernel.  Most disjoint pairs need no
distance: the candidate scan marks close only the pairs that its
centroid bound, less a rounding margin, cannot place at rho >= RHO_NEAR,
and only the disjoint ones among them get exact distances, with the same
bands.  The robust path runs once per block of pairs; its stop test reads
only sums per pair, so blocking changes no bit.  Past _ROBUST_MAX_CELLS
live cells in a block it raises NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .mesh import Mesh
from .spaces import barycentric_gradients

__all__ = [
    "EnergyForm",
    "Isometry",
    "TURN",
    "REFLECTION",
    "panel_map",
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

# tensor order of the singular-case rules (identical, edge, vertex) and
# of close disjoint pairs; near disjoint pairs take ORDER - 1, far pairs
# ORDER - 2
ORDER = 5
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
# cells per block of the robust-path kernel: its eight (1024, 25) work
# arrays take 1.6 MB, about one core's L2 cache (timings of other sizes
# in CHANGES.md).  The near-field pass hands the path a quarter of this
# many pairs a call, whose first children fill one block.
_ROBUST_BLOCK = 1024
# live cells of one robust-path call, _ROBUST_BLOCK / 4 pairs, before it
# gives up with NumericalError: far above the peak of the graded presets,
# and without a cap beta=50 runs out of memory
_ROBUST_MAX_CELLS = 1 << 20
# panel pairs per block of the near-field pass: of _classify_pairs and of
# each gather that feeds a kernel
_PAIR_BLOCK = 4096
# rows per strip of _split_pairs, the one pass that splits the pairs
_SCAN_STRIP = 16
# tables of at most this many panels take no quarter turn, form no
# classes and neither read nor write a store of class values, and keep
# their bits: adaptive-smooth's 8- and
# 32-panel tables, the initial mesh and its uniform refinement, on which
# rounding picks 4 of 8 tied indicators for Doerfler marking; they have
# no far pair.  Larger tables, the 128-panel uniform one among them, take
# the classes, and the turn where the mesh has one.
# This guard goes with the decision on that tie (ROADMAP.md, "Marking
# that rounding cannot decide" under the decisions for the maintainers).
_SMALL_TABLE = 32
# DOF rows per block of assemble_stiffness, and the side of the square
# tiles in which it symmetrizes A and assemble_energy_form checks that G
# is symmetric
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


# upper triangle of the 5x5 Gram matrix of (d, e1a, e2a, -e1b, -e2b)
_GRAM_I, _GRAM_J = np.triu_indices(5)
# r^2 entries per GEMM of the rule kernel: 1 MB stays in cache from the
# GEMM through the square root to the GEMV
_RULE_CHUNK = 1 << 17


@lru_cache(maxsize=None)
def _rule_monomials(case, order):
    """(15, K) products c_i c_j of c = (1, x1, x2, y1, y2) over the rule's
    nodes, off-diagonal products doubled."""
    rule = quadrature_rule(case, order)
    c = np.vstack([np.ones(len(rule.weights)), rule.x_nodes.T, rule.y_nodes.T])
    # row by row into one array, with no full-size temporary
    mono = np.empty((len(_GRAM_I), c.shape[1]))
    for row, (p, q) in enumerate(zip(_GRAM_I, _GRAM_J)):
        np.multiply(c[p], c[q], out=mono[row])
        if p != q:
            mono[row] *= 2.0
    mono.setflags(write=False)
    return mono


def _rule_step(rule):
    """Pairs per GEMM of the rule kernel: _RULE_CHUNK r^2 entries."""
    return max(1, _RULE_CHUNK // len(rule.weights))


def _rule_inputs(a, b):
    """All the rule kernel sees of the panel pairs (a[p], b[p]), (P, 3, 2)
    each, in the rule's vertex order, as (P, 17) rows: the 15 Gram entries
    of (d, e1a, e2a, -e1b, -e2b) in _GRAM_I, _GRAM_J order, each the
    two-term dot product x x' + y y', then the doubled areas of a and b.

    The five vectors are formed component by component as (5, P) rows and
    each input is one contiguous row of a (17, P) array, returned
    transposed, so the work arrays take 17 + 10 + 5 + 1 doubles a pair."""
    x = np.empty((17, len(a)))
    x[15] = _doubled_area(a)
    x[16] = _doubled_area(b)
    vx, vy = (np.stack([a[:, 0, c] - b[:, 0, c], a[:, 1, c] - a[:, 0, c],
                        a[:, 2, c] - a[:, 1, c], b[:, 0, c] - b[:, 1, c],
                        b[:, 1, c] - b[:, 2, c]]) for c in (0, 1))
    tmp = np.empty(len(a))
    for row, (p, q) in enumerate(zip(_GRAM_I, _GRAM_J)):
        np.multiply(vx[p], vx[q], out=x[row])
        x[row] += np.multiply(vy[p], vy[q], out=tmp)
    return x.T


# the Gram entries of _rule_inputs that take one vector of each panel of a
# pair, or d, as (entry, p, q); the other six, each within one panel, are
# the rows 6 to 8 of _panel_rows
_CROSS = [(e, p, q) for e, (p, q) in enumerate(zip(_GRAM_I, _GRAM_J))
          if p == 0 or (p < 3 <= q)]


def _panel_rows(coords):
    """What the kernel inputs of a pair in natural vertex order take from
    each panel (nt, 3, 2), as (10, nt) rows: vertex 0, e1 = v1 - v0 and
    e2 = v2 - v1 (x, y each), the Gram entries e1.e1, e1.e2 and e2.e2, and
    the doubled area, each by the operations of _rule_inputs."""
    v0, v1, v2 = coords.transpose(1, 2, 0)
    rows = np.empty((10, len(coords)))
    rows[0:2] = v0
    e1 = np.subtract(v1, v0, out=rows[2:4])
    e2 = np.subtract(v2, v1, out=rows[4:6])
    for row, (u, v) in enumerate(((e1, e1), (e1, e2), (e2, e2)), 6):
        np.multiply(u[0], v[0], out=rows[row])
        rows[row] += u[1] * v[1]
    rows[9] = _doubled_area(coords)
    return rows


def _pair_inputs(rows, a, b):
    """_rule_inputs of the panel pairs (a[p], b[p]), index arrays, in
    natural vertex order, from the rows of _panel_rows: the six Gram
    entries within one panel and the areas are copied, and only the nine
    with d = a0 - b0 or one vector of each panel are formed.  -e1b and
    -e2b are exact negations, so every input equals that of _rule_inputs;
    a zero may differ in sign, which no sum of the kernel's GEMM tells
    apart."""
    ra, rb = rows.take(a, axis=1), rows.take(b, axis=1)
    x = np.empty((17, len(a)))
    x[[5, 6, 9, 15]] = ra[6:]
    x[[12, 13, 14, 16]] = rb[6:]
    np.subtract(ra[:2], rb[:2], out=rb[:2])
    np.negative(rb[2:6], out=rb[2:6])
    # (d, e1a, e2a, -e1b, -e2b), x and y rows each
    vec = (rb[0:2], ra[2:4], ra[4:6], rb[2:4], rb[4:6])
    tmp = np.empty(len(a))
    for row, p, q in _CROSS:
        np.multiply(vec[p][0], vec[q][0], out=x[row])
        x[row] += np.multiply(vec[p][1], vec[q][1], out=tmp)
    return x.T


def _rule_values(rule, x):
    """Rule values of the pairs whose kernel inputs (_rule_inputs) are the
    rows of x: per GEMM step of _rule_step(rule) rows, r^2 = x[:, :15] @
    monomials in one GEMM, then an in-place square root and reciprocal and
    a GEMV with the weights.  The GEMM rounds a row by its position, so
    every row keeps its place in its step."""
    step = _rule_step(rule)
    out = np.empty(len(x))
    for lo in range(0, len(x), step):
        y = x[lo:lo + step]
        r = y[:, :15] @ _rule_monomials(rule.case, rule.order)
        np.sqrt(r, out=r)
        np.divide(1.0, r, out=r)
        out[lo:lo + step] = (r @ rule.weights) * y[:, 15] * y[:, 16] / FOUR_PI
    return out


def _first_of_runs(order, start):
    """The first row of each row's run of equal keys: order lists the rows
    in a stable sort by key, and start marks the sorted places where a new
    key begins (start[0] is True).  A run's first row is the row at its
    first place; the map is built in blocks of _PAIR_BLOCK places."""
    rep = np.empty(len(order), np.int32)
    first = 0
    for lo in range(0, len(order), _PAIR_BLOCK):
        new = start[lo:lo + _PAIR_BLOCK]
        at = np.where(new, np.arange(lo, lo + len(new)), first)
        np.maximum.accumulate(at, out=at)
        rep[order[lo:lo + _PAIR_BLOCK]] = order.take(at)
        first = at[-1]
    return rep


def _normalised(x):
    """The exponent f and key of each row of x, (n, 17) inputs of
    _rule_inputs: f is half the binary exponent of the row's largest Gram
    diagonal entry and the key is the row times 4^-f, or NaN throughout
    where that does not round-trip.  A row scaled by 4^g has the same key
    and f + g, and its rule value is 8^(f - f') times that of a row of
    the same key and exponent f', up to the GEMM's row-position rounding.
    """
    f = np.frexp(x[:, :15][:, _GRAM_I == _GRAM_J].max(axis=1))[1] >> 1
    key = np.ldexp(x, -2 * f[:, None])
    key[(np.ldexp(key, 2 * f[:, None]) != x).any(axis=1)] = np.nan
    return key, f


def _key_classes(x):
    """Classes of equal kernel input among the rows of x, (n, 17) inputs
    of _rule_inputs: the index of each row's class representative, its
    first row, and the exponent f of each row's key (_normalised).

    One stable lexsort of the keys puts each run of equal keys in row
    order; NaN equals nothing, not even itself, so a key whose
    normalisation does not round-trip is its own class.  Float comparison
    takes -0 for +0, as the kernel's sums of products do.
    """
    key, f = _normalised(x)
    order = np.lexsort(key.T)
    start = np.zeros(len(x), bool)
    start[:1] = True
    for word in key.T:
        word = word[order]
        start[1:] |= word[1:] != word[:-1]
    return _first_of_runs(order, start), f


def _stored_values(store, x, evaluate):
    """Rule values of the rows of x, (n, 17) kernel inputs of distinct
    classes, through store, a dict of class values that lasts a run.

    A row whose normalised key (_normalised, -0 taken as +0) is in the
    store takes the stored value times 8^f.  The others are evaluated by
    evaluate(rows), an index array in row order, and those whose key
    round-trips enter the store as value times 8^-f."""
    key, f = _normalised(x)
    key += 0.0
    words = [row.tobytes() for row in key]
    new = np.flatnonzero([w not in store for w in words])
    out = np.empty(len(x))
    out[new] = evaluate(new)
    for p, word in enumerate(words):
        if word in store:
            out[p] = math.ldexp(store[word], 3 * int(f[p]))
    for p in new[~np.isnan(key[new, 0])]:
        store[words[p]] = math.ldexp(out[p], -3 * int(f[p]))
    return out


def _symmetry(h, x, y):
    """S_h (x, y), elementwise, for the symmetries h = 0..7 of the square:
    the mirror (x, y) -> (x, -y) if h >= 4, then the quarter turn
    (x, y) -> (-y, x), h mod 4 times."""
    t = h & 3
    c, s = np.array([1, 0, -1, 0]).take(t), np.array([0, 1, 0, -1]).take(t)
    y = np.where(h >= 4, -y, y)
    return c * x - s * y, s * x + c * y


def _panel_lattice(coords):
    """Integer codes of the panels (nt, 3, 2) for _lattice_classes, or None
    unless coords times some 2^L are integers below 2^52 in magnitude, so
    that every coordinate difference is exact, and each panel's edge
    vectors over 2^g fit the 15-bit fields of its shape code.

    With K = coords 2^L, a panel gets its exponent g, the 2-adic valuation
    of its six integers, and its form under each symmetry S_h of the
    square (_symmetry): the id of the unordered pair {S_h u, S_h w} among
    all panels and symmetries, u = (K1 - K0) / 2^g and w = (K2 - K0) / 2^g.
    Its shape is its smallest form, and its frames are the first and the
    last h that give the shape; they differ only where a mirror swaps u
    and w.  Where they differ for no panel, as on the presets' tables of
    more than _SMALL_TABLE panels, the first is the only frame.  A mesh
    translated off its grid has edges of the size of its coordinates over
    2^g, and takes no lattice.
    Returns (g, frames, shape, forms (8, nt), K0x, K0y, number of forms),
    frames a tuple of one or two (nt,) arrays."""
    m, e = np.frexp(coords)
    mant = np.ldexp(m, 53).astype(np.int64)
    # the bits below the binary point: 53 - e less the trailing zeros of
    # the integer mantissa
    tz = np.frexp((mant & -mant).astype(float))[1] - 1
    shift = int(np.where(mant != 0, 53 - e - tz, 0).max())
    K = np.ldexp(coords, max(shift, 0))
    if not np.abs(K).max() < 2.0 ** 52:
        return None
    K = K.astype(np.int64)
    bits = np.bitwise_or.reduce(np.abs(K).reshape(len(K), 6), axis=1)
    g = np.frexp((bits & -bits).astype(float))[1].astype(np.int64) - 1
    (ux, wx), (uy, wy) = ((K[:, 1:, c] - K[:, :1, c]).T >> g for c in (0, 1))
    if max(np.abs(v).max() for v in (ux, uy, wx, wy)) >= 1 << 14:
        return None

    def packed(x, y):
        return (x + (1 << 14)) << 15 | (y + (1 << 14))

    forms = np.empty((8, len(K)), np.int64)
    for h in range(8):
        p, q = packed(*_symmetry(h, ux, uy)), packed(*_symmetry(h, wx, wy))
        forms[h] = np.minimum(p, q) << 30 | np.maximum(p, q)
    ids, forms = np.unique(forms, return_inverse=True)
    forms = forms.reshape(8, -1)
    shape = forms.min(axis=0)
    canon = forms == shape
    frames = canon.argmax(axis=0), 7 - canon[::-1].argmax(axis=0)
    if np.array_equal(*frames):
        frames = frames[:1]
    return g, frames, shape, forms, K[:, 0, 0], K[:, 0, 1], len(ids)


def _lattice_classes(lattice, i, j, k):
    """Classes of congruent panel pairs among the pairs (i[k], j[k]), from
    the codes of _panel_lattice: the index of each pair's representative,
    its first pair, and the pair's exponent s, as _key_classes gives them;
    None where the keys do not fit an int64.

    The key of a pair (a, b) in a's frame h is a's shape, b's form under
    S_h, g_b - g_a and S_h (b0 - a0) / 2^s, s the smaller exponent; the
    pair's key is the smallest of those of (a, b) and (b, a) in each of
    their first panel's frames.  Pairs of equal key are copies of
    each other under the symmetries of the square, translation, scaling
    by 2^(s - s_rep) and exchange of the panels, none of which the
    disjoint rule tells apart, so their values agree up to rounding and
    the factor 8^(s - s_rep).  The key and the pair's place are packed
    into one int64 per pair, in blocks of _PAIR_BLOCK pairs, and sorted in
    place, which sorts equal keys by place."""
    g, frames, shape, forms, k0x, k0y, nforms = lattice
    n, nt = len(k), len(g)
    span = int(g.max() - g.min())
    wf, wg, wr = (nforms - 1).bit_length(), (2 * span).bit_length(), \
        max(n - 1, 1).bit_length()
    wd = (61 - 2 * wf - wg - wr) // 2
    if wd < 2:
        return None
    half = 1 << (wd - 1)
    forms = forms.ravel()
    # the offset fields (ox + half) << wd | (oy + half) of S_h (x, y) are
    # x tx[h] + y ty[h] + (half << wd) + half, with (tx, ty) the fields of
    # S_h of the unit vectors
    (mxx, mxy), (myx, myy) = (_symmetry(np.arange(8), *v)
                              for v in ((1, 0), (0, 1)))
    tx, ty = (mxx << wd) + mxy, (myx << wd) + myy
    key = np.empty(n, np.int64)
    exp = np.empty(n, np.int8)
    for lo in range(0, n, _PAIR_BLOCK):
        m = k[lo:lo + _PAIR_BLOCK]
        a, b = i.take(m), j.take(m)
        ga, gb = g.take(a), g.take(b)
        s = np.minimum(ga, gb)
        dx, dy = ((k0.take(b) - k0.take(a)) >> s for k0 in (k0x, k0y))
        if max(np.abs(dx).max(), np.abs(dy).max()) >= half:
            return None
        best = None
        for p, q, sign in ((a, b, 1), (b, a, -1)):
            base = ((sign * (gb - ga) + span) << 2 * wd) + (half << wd) + half
            head = shape.take(p) << wf
            for frame in frames:
                h = frame.take(p)
                code = head | forms.take(h * nt + q)
                code <<= wg + 2 * wd
                code += base
                code += sign * (tx.take(h) * dx + ty.take(h) * dy)
                best = code if best is None else np.minimum(best, code)
        key[lo:lo + len(m)] = best << wr | np.arange(lo, lo + len(m))
        exp[lo:lo + len(m)] = s
    key.sort()
    start = np.ones(n, bool)
    for lo in range(1, n, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, n)
        start[lo:hi] = (key[lo:hi] >> wr) != (key[lo - 1:hi - 1] >> wr)
    key &= (1 << wr) - 1
    return _first_of_runs(key, start), exp


# -- robust semi-analytic path -------------------------------------------------


def _edge_frames(tris):
    """Edge frames of panels (M, 3, 2) -> (M, 3, 5): start vertex (x, y),
    unit tangent (x, y) and length of edge k, which runs from vertex k to
    vertex k + 1."""
    t = tris[:, [1, 2, 0]] - tris
    ln = np.sqrt(t[..., 0] * t[..., 0] + t[..., 1] * t[..., 1])
    return np.stack([tris[..., 0], tris[..., 1], t[..., 0] / ln,
                     t[..., 1] / ln, ln], axis=-1)


def _edge_potential(d, s_a, ln, total, work):
    """Add one edge's term of int_tri 1/|x-y| dy to total, in place.

    d: signed distance of each point to the edge line, positive outside a
    counterclockwise panel; s_a: tangential offset of the edge's start
    vertex from the point; ln: the edge length, broadcast against them;
    work: five scratch arrays of the shape of d.  The term is
    d log(num/den), with num and den = s + r at the edge's end and start
    vertex, s_b = s_a + ln and r = sqrt(s^2 + d^2).  The rationalized form
    d^2 / (r - s) is used where s < 0.  s and d must be of moderate size,
    as the squares would overflow beyond about 1e154; _panel_potential,
    its one caller, gets pair-relative cells from the robust path and
    points on the scale of the mesh from single_layer_field.
    """
    s_b, dd, r_a, r_b, num = work
    with np.errstate(divide="ignore", invalid="ignore"):
        np.add(s_a, ln, out=s_b)
        np.multiply(d, d, out=dd)
        for s, r in ((s_a, r_a), (s_b, r_b)):
            np.multiply(s, s, out=r)
            r += dd
            np.sqrt(r, out=r)
        np.add(s_b, r_b, out=num)
        neg = np.less(s_b, 0.0)
        if neg.any():
            np.divide(dd, np.subtract(r_b, s_b, out=r_b), out=num, where=neg)
        den = np.add(s_a, r_a, out=s_b)
        neg = np.less(s_a, 0.0, out=neg)
        if neg.any():
            np.divide(dd, np.subtract(r_a, s_a, out=r_a), out=den, where=neg)
        # the term's limit 0 where d * d is not normal and num / den
        # would overflow or be 0 / 0
        small = np.less(np.abs(d, out=r_a), 1e-150, out=neg)
        if small.any():
            num[small] = den[small] = 1.0
        term = np.log(np.divide(num, den, out=num), out=num)
        term *= d
        total += term


def _edge_offset_rows(cells, frames, out):
    """The d and s_a of _edge_potential as affine functions of the nodes
    (n0, n1) of cells (M, 3, 2), for the edges of frames (M, 3, 5).

    At the point p = c0 + n0 (c1 - c0) + n1 (c2 - c1) of a cell, edge k
    has d = (a_k - p) . n and s_a = (a_k - p) . t, with a_k its start
    vertex, t its tangent and n = (ty, -tx).  Each is alpha + beta n0 +
    gamma n1, with alpha, beta and gamma the same dot products of a_k - c0,
    c0 - c1 and c1 - c2.  Writes out (3, 3, 2M): for edge k and each
    coefficient the rows of d of every cell, then those of s_a, so that
    out[k].T @ [1; n0; n1] gives both in one GEMM of at least two rows.
    Returns out.
    """
    m = len(cells)
    (c0x, c0y), (c1x, c1y), (c2x, c2y) = cells.transpose(1, 2, 0)
    ax, ay, tx, ty, _ = frames.transpose(2, 1, 0)
    for j, (vx, vy) in enumerate(((ax - c0x, ay - c0y),
                                  (c0x - c1x, c0y - c1y),
                                  (c1x - c2x, c1y - c2y))):
        d, s_a = out[:, j, :m], out[:, j, m:]
        np.multiply(vx, ty, out=d)
        d -= vy * tx
        np.multiply(vx, tx, out=s_a)
        s_a += vy * ty
    return out


def _panel_potential(cells, frames, basis, coefs, work):
    """int_tri 1/|x-y| dy in closed form for the panels of frames (M, 3, 5)
    (see _edge_frames), at the points p = c0 + n0 (c1 - c0) + n1 (c2 - c1)
    of the cells (M, 3, 2) for the nodes of basis = [1; n0; n1], (3, K).

    coefs, (3, 3, 2B), and work, (8, B, K), are scratch arrays for
    B >= M cells; returns work[0, :M], the (M, K) potentials.
    _edge_offset_rows gives the coefficients of d and s_a of each edge,
    one GEMM per edge evaluates them at the nodes, and _edge_potential
    adds the edge's term.  The identity cell (0, 0), (1, 0), (1, 1) maps
    the nodes (x, y) to the points (x, y) themselves.
    """
    m = len(cells)
    total = work[0, :m]
    ds = work[1:3].reshape(-1, basis.shape[1])[:2 * m]
    coef = _edge_offset_rows(cells, frames, coefs[..., :2 * m])
    total[...] = 0.0
    for k in range(3):
        np.matmul(coef[k].T, basis, out=ds)
        _edge_potential(ds[:m], ds[m:], frames[:, k, 4, None], total,
                        work[3:, :m])
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

    The path works in pair-relative coordinates: vertex 0 of each inner
    panel is subtracted from both panels before any frame or cell is
    formed.  It so sees coordinate differences only, and a quarter turn
    of a pair of dyadic panels, which maps their differences exactly,
    maps every floating-point operation of the path exactly: the turned
    pair, taken in the same order, gets bitwise the same value.

    A block of cells gets the inner potential at its Duffy points from
    one call of _panel_potential; the blocks of _ROBUST_BLOCK cells run
    in turn in one set of work arrays, each into its own slice of the
    cell values.  Raises NumericalError when the live cells of the
    subdivision exceed _ROBUST_MAX_CELLS.
    """
    nodes, wts = _gauss_duffy(_ROBUST_ORDER)
    # the nodes of _panel_potential: the Duffy points of every cell
    basis = np.stack([np.ones(len(wts)), nodes[:, 0], nodes[:, 1]])
    # the four children of a cell as points of its vertices and midpoints
    children = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])
    origin = tb[:, :1]
    frames = _edge_frames(tb - origin)
    cells = ta - origin
    n_pairs = len(ta)
    settled = np.zeros(n_pairs)
    owner = np.arange(n_pairs)
    # the work arrays of _panel_potential: the cell values, d and s_a (one
    # array of 2 _ROBUST_BLOCK rows, the GEMM's output) and
    # _edge_potential's five, and the GEMM's coefficient rows of each edge
    work = np.empty((8, _ROBUST_BLOCK, len(wts)))
    coefs = np.empty((3, 3, 2 * _ROBUST_BLOCK))

    def cell_values(cells, owner):
        out = np.empty(len(cells))
        for lo in range(0, len(cells), _ROBUST_BLOCK):
            hi = lo + _ROBUST_BLOCK
            c = cells[lo:hi]
            total = _panel_potential(c, frames[owner[lo:hi]], basis, coefs,
                                     work)
            total *= wts
            out[lo:hi] = _doubled_area(c) * total.sum(axis=1)
        return out

    parent = cell_values(cells, owner)
    scale = np.abs(parent)
    for depth in range(_ROBUST_MAX_DEPTH):
        if not len(owner):
            break
        if 4 * len(owner) > _ROBUST_MAX_CELLS:
            raise NumericalError(
                f"robust panel quadrature did not settle: "
                f"{4 * len(owner)} live cells at depth {depth + 1} "
                f"exceed the cap of {_ROBUST_MAX_CELLS} (panels too "
                f"anisotropic)")
        # vertices 0, 1, 2 and the midpoints of edges 01, 12, 20
        pts = np.concatenate([cells, 0.5 * (cells + cells[:, [1, 2, 0]])],
                             axis=1)
        kids = pts[:, children]
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
    """Exact identical-panel values of the panels tris, (n, 3, 2), for
    the flat kernel.

    After radial and parallel reductions the self integral reduces to
    three 1D integrals of 1/|u + eta*v| with closed-form antiderivatives.
    Slivers of aspect near 1e15 can give log(0) and then inf - inf; the
    NaN is left for the table check to report.
    """
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
    return area2 ** 2 / 3.0 * total / FOUR_PI


# -- pair classification helpers -----------------------------------------------


def _aspect_and_diameter(tris):
    """Aspect (longest edge)^2 / (2 |T|) and diameter, the longest edge, of
    each panel (..., 3, 2), from one pass over the edges."""
    lmax2 = ((tris[..., [1, 2, 0], :] - tris) ** 2).sum(-1).max(-1)
    return lmax2 / _doubled_area(tris), np.sqrt(lmax2)


def _bounding_circles(tris):
    """Centroids and radii of panels (..., 3, 2): each panel lies in the
    disc of its radius about its centroid."""
    cent = tris.mean(axis=-2)
    return cent, np.linalg.norm(tris - cent[..., None, :], axis=-1).max(-1)


def _triangle_distances(a, b):
    """Minimum distances of the disjoint panels a[p], b[p], (P, 3, 2) each.

    Per edge pair, the closest points p1 + s u and q1 + t v are found by
    clamping the unconstrained minimizer s to [0, 1], then t given s, then
    s given t.
    """
    ax, ay, bx, by = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    ux, uy = ax[:, [1, 2, 0]] - ax, ay[:, [1, 2, 0]] - ay
    vx, vy = bx[:, [1, 2, 0]] - bx, by[:, [1, 2, 0]] - by
    uu = ux * ux + uy * uy
    vv = vx * vx + vy * vy
    best = np.full(len(a), np.inf)
    for i in range(3):
        for j in range(3):
            wx = ax[:, i] - bx[:, j]
            wy = ay[:, i] - by[:, j]
            uv = ux[:, i] * vx[:, j] + uy[:, i] * vy[:, j]
            uw = ux[:, i] * wx + uy[:, i] * wy
            vw = vx[:, j] * wx + vy[:, j] * wy
            den = uu[:, i] * vv[:, j] - uv * uv
            s = np.zeros(len(a))
            np.divide(uv * vw - vv[:, j] * uw, den, out=s, where=den > 1e-30)
            np.clip(s, 0.0, 1.0, out=s)
            t = np.zeros(len(a))
            np.divide(uv * s + vw, vv[:, j], out=t, where=vv[:, j] > 1e-30)
            np.clip(t, 0.0, 1.0, out=t)
            s[:] = 0.0
            np.divide(uv * t - uw, uu[:, i], out=s, where=uu[:, i] > 1e-30)
            np.clip(s, 0.0, 1.0, out=s)
            dx = (ax[:, i] + s * ux[:, i]) - (bx[:, j] + t * vx[:, j])
            dy = (ay[:, i] + s * uy[:, i]) - (by[:, j] + t * vy[:, j])
            np.minimum(best, np.sqrt(dx * dx + dy * dy), out=best)
    return best


def _slot_order(first, second):
    """Vertex orders (P, 3) in which slot ``first`` leads and slot
    ``second`` follows; the remaining slot fills the last place."""
    return np.stack([first, second, 3 - first - second], axis=1)


def _gathered(kernel, coords, i, j, k, slots=None):
    """The rows of kernel(a, b) over the panel pairs (i[k], j[k]), stacked,
    in blocks of _PAIR_BLOCK pairs of gathered panels; slots, if given, is
    a pair of (len(k), 3) vertex orders in which the panels are taken.  An
    empty k gives an empty 1-D array."""
    out = np.empty(0)
    for lo in range(0, len(k), _PAIR_BLOCK):
        rows = slice(lo, lo + _PAIR_BLOCK)
        a, b = i[k[rows]], j[k[rows]]
        if slots is None:
            vals = kernel(coords[a], coords[b])
        else:
            vals = kernel(coords[a[:, None], slots[0][rows]],
                          coords[b[:, None], slots[1][rows]])
        if not lo:
            out = np.empty((len(k),) + vals.shape[1:])
        out[rows] = vals
    return out


def _rule_pairs(rule, rows, i, j, k):
    """Rule values of the panel pairs (i[k], j[k]) in natural vertex order,
    from the panel rows of _panel_rows: the inputs of one GEMM step of
    pairs are formed at a time, so every GEMM sees the rows it would see
    on stored inputs."""
    step = _rule_step(rule)
    out = np.empty(len(k))
    for lo in range(0, len(k), step):
        m = k[lo:lo + step]
        out[lo:lo + step] = _rule_values(
            rule, _pair_inputs(rows, i.take(m), j.take(m)))
    return out


# what evaluates a near pair, as _classify_pairs labels it: the rule of its
# adjacency case, numbered by the vertices the pair shares (a disjoint pair
# at rho >= RHO_NEAR takes order ORDER - 1), the disjoint rule of order
# ORDER at RHO_CLOSE <= rho < RHO_NEAR, the closed-form self entry or the
# robust path
_DISJOINT, _VERTEX, _EDGE, _IDENTICAL, _CLOSE, _SELF, _ROBUST = range(7)
# the label by shared vertex count plus 4 unless both panels are
# shape-regular; disjoint pairs are banded afterwards
_BY_COUNT = np.array([_DISJOINT, _VERTEX, _EDGE, _IDENTICAL,
                      _DISJOINT, _ROBUST, _ROBUST, _SELF], np.int8)


def _classify_pairs(coords, tris, aspect, diam, i, j, close):
    """Label (int8) of each panel pair (i[k], j[k]): what evaluates it.

    A pair is classified by how many vertex indices its panels share: 3
    identical, 2 edge-adjacent, 1 vertex-adjacent, 0 disjoint.  Singular
    pairs of two shape-regular panels get their case's rule; identical
    anisotropic panels get the closed-form self entry and the other
    singular pairs with an anisotropic panel the robust path.  Disjoint
    pairs are binned by rho = dist / max(diam): the disjoint rule of order
    ORDER - 1 (rho >= RHO_NEAR) or ORDER (rho >= RHO_CLOSE), else the
    robust path.  The pairs are counted in blocks of _PAIR_BLOCK, and
    exact distances are computed only for the disjoint pairs flagged in
    close, those that _split_pairs could not place at rho >= RHO_NEAR.
    """
    label = np.empty(len(i), np.int8)
    # shared vertices counted by nine comparisons of gathered index rows;
    # every gather is a take, several times faster than fancy indexing
    cols = np.ascontiguousarray(tris.T)
    for lo in range(0, len(i), _PAIR_BLOCK):
        a, b = i[lo:lo + _PAIR_BLOCK], j[lo:lo + _PAIR_BLOCK]
        ta, tb = cols.take(a, axis=1), cols.take(b, axis=1)
        count = np.zeros(len(a), np.int8)
        for p in range(3):
            for q in range(3):
                count += ta[p] == tb[q]
        iso = ((aspect.take(a) <= SINGULAR_ASPECT_LIMIT)
               & (aspect.take(b) <= SINGULAR_ASPECT_LIMIT))
        label[lo:lo + _PAIR_BLOCK] = _BY_COUNT[count + 4 * ~iso]
    unsure = np.flatnonzero(close & (label == _DISJOINT))
    rho = _gathered(_triangle_distances, coords, i, j, unsure)
    rho /= np.maximum(diam.take(i.take(unsure)), diam.take(j.take(unsure)))
    label[unsure[rho < RHO_NEAR]] = _CLOSE
    label[unsure[rho < RHO_CLOSE]] = _ROBUST
    return label


def _pair_values(G, coords, rows, tris, i, j, label, orbit=None,
                 classes=None):
    """Write the table entries G[i, j] and G[j, i] of the panel pairs
    (i[k], j[k]), i <= j, of one mesh.

    label, from _classify_pairs, says what evaluates each pair.  The
    singular rules take their kernel inputs from _gathered, which hands
    them the panels of one block of the pairs of a label; the bands take
    _rule_pairs one GEMM step of pairs at a time, the self entries the
    panels of _PAIR_BLOCK pairs and the robust path those of
    _ROBUST_BLOCK / 4 pairs, whose first children fill one block of its
    kernel.  Each block of values goes straight into both triangles of G.
    orbit, if given, is the pair (rep, kept) of _split_pairs: each pair's
    representative under the quarter turn and whether the turn keeps the
    pair's order.  One copy rule serves every label: a pair takes its
    representative's value where that is another pair of its label and,
    for the robust path, whose outer and inner panels play unlike roles,
    where the order is kept.  Every other pair is evaluated.  A
    representative is its own, so it is evaluated, and the copies read
    the representatives' values back from G, in blocks of _PAIR_BLOCK
    pairs, once all labels are written.  On dyadic meshes a copied self
    entry or robust value is bitwise the pair's own; a rule copy differs
    from it by the GEMM's rounding.  On tables of more than _SMALL_TABLE
    panels the identical, edge and vertex rules store the kernel inputs of
    their pairs, evaluate one row per class of _key_classes, the first in
    the rule's order, and scale its value, read back from G, to the other
    pairs of the class; the disjoint bands do the same with the classes
    of _lattice_classes where the mesh has a lattice.  The singular rules
    read the class values that classes, a store of a run
    (assemble_energy_form), holds, and evaluate and store only the others;
    None gives a fresh store.  The band pairs take their inputs from rows,
    the _panel_rows of coords.  A pair is marked written when it gets a
    value, and a copy only if its source was, so a pair that no evaluator
    reached raises NumericalError: G comes from np.empty and holds no NaN
    to show it.

    Besides per-block work arrays, the pass holds 12 bytes per pair: the
    label, the copy and written flags, the orbit (5 bytes) and, for the
    label at work, its pair indices (4 bytes), which take 3 bytes per pair
    and 12 per pair of the label for a moment while they are picked; the
    classification runs before it.  A keyed label adds its kernel inputs,
    136 bytes per pair of that label, up to three times that while
    _key_classes runs, and then 8: representative and exponent.  A band
    with lattice classes adds 14 bytes per pair while they are found, its
    int64 key, sorted in place, an int8 exponent, a start flag and the
    int32 representative, then 6 with the flag of its first pairs, and 4
    per class: their pair indices.

    The kernel's GEMM rounds a row differently depending on its position
    in the block, so rows keep a fixed order: edge pairs sorted by their
    shared edge (lo, hi), which both panels traverse lo -> hi, and every
    other label in the order given.  The robust path takes (coords[i],
    coords[j]) as they are.
    """
    written = np.zeros(len(i), bool)
    copy = np.zeros(len(i), bool)
    classes = {} if classes is None else classes
    if orbit is not None:
        rep, kept = orbit
        for lo in range(0, len(i), _PAIR_BLOCK):
            r, own = rep[lo:lo + _PAIR_BLOCK], label[lo:lo + _PAIR_BLOCK]
            copy[lo:lo + len(r)] = (
                (r != np.arange(lo, lo + len(r))) & (label.take(r) == own)
                & (kept[lo:lo + len(r)] | (own != _ROBUST)))

    def put(k, vals, done=True):
        a, b = i.take(k), j.take(k)
        G[a, b] = vals
        G[b, a] = vals
        written[k] = done

    def put_copies(k, src, exponent=0):
        # the pairs k take the values of the pairs src times 2^exponent
        vals = G[i.take(src), j.take(src)]
        put(k, np.ldexp(vals, exponent, out=vals), written.take(src))

    def emit(k, evaluate, size):
        for lo in range(0, len(k), size):
            m = k[lo:lo + size]
            put(m, evaluate(m))

    def along_shared_edge(k):
        ti = tris[i[k]]
        shared = ti[:, :, None] == tris[j[k]][:, None, :]
        ends = np.sort(ti[shared.any(axis=2)].reshape(-1, 2), axis=1)
        by_edge = np.lexsort((ends[:, 1], ends[:, 0]))
        k, ends = k[by_edge], ends[by_edge]

        def along_edge(t):
            return _slot_order(*(np.argmax(tris[t] == v[:, None], axis=1)
                                 for v in ends.T))

        return k, (along_edge(i[k]), along_edge(j[k]))

    def at_shared_vertex(k):
        # the shared vertex leads on both panels, the others follow in
        # cyclic order
        shared = tris[i[k]][:, :, None] == tris[j[k]][:, None, :]
        vi = np.argmax(shared.any(axis=2), axis=1)
        vj = np.argmax(shared.any(axis=1), axis=1)
        return k, (_slot_order(vi, (vi + 1) % 3),
                   _slot_order(vj, (vj + 1) % 3))

    def evaluated(kind):
        return np.flatnonzero((label == kind) & ~copy).astype(np.int32)

    def spread(k, classes, evaluate):
        # evaluate(rows) writes the first row of each class; its value is
        # then scaled to the other rows of the class, in blocks
        cls, f = classes
        first = cls == np.arange(len(k), dtype=cls.dtype)
        evaluate(np.flatnonzero(first).astype(np.int32))
        for lo in range(0, len(k), _PAIR_BLOCK):
            m = lo + np.flatnonzero(~first[lo:lo + _PAIR_BLOCK])
            r = cls.take(m)
            # the difference of two exponents fits their type, 3 times it
            # may not
            put_copies(k.take(m), k.take(r),
                       3 * (f.take(m) - f.take(r)).astype(np.int32))

    def singular_rule(kind, case, ordered=lambda k: (k, None)):
        k, slots = ordered(evaluated(kind))
        rule = quadrature_rule(case, ORDER)
        x = _gathered(_rule_inputs, coords, i, j, k, slots)
        if len(coords) <= _SMALL_TABLE or not len(k):
            put(k, _rule_values(rule, x))
            return
        store = classes.setdefault((case, ORDER), {})
        spread(k, _key_classes(x), lambda own: put(k[own], _stored_values(
            store, x[own], lambda new: _rule_values(rule, x[own[new]]))))

    def band_rules():
        # the lattice is dropped before the self entries and the robust path
        lattice = (_panel_lattice(coords) if len(coords) > _SMALL_TABLE
                   else None)
        for kind, p in ((_DISJOINT, ORDER - 1), (_CLOSE, ORDER)):
            k = evaluated(kind)
            rule = quadrature_rule("disjoint", p)
            step = _rule_step(rule)

            def band(m):
                return _rule_pairs(rule, rows, i, j, m)

            classes = lattice and _lattice_classes(lattice, i, j, k)
            if classes:
                spread(k, classes, lambda own: emit(k[own], band, step))
            else:
                emit(k, band, step)

    singular_rule(_IDENTICAL, "identical")
    singular_rule(_EDGE, "edge-adjacent", along_shared_edge)
    singular_rule(_VERTEX, "vertex-adjacent", at_shared_vertex)
    band_rules()
    emit(evaluated(_SELF),
         lambda m: _self_entry_closed_form(coords[i.take(m)]), _PAIR_BLOCK)
    emit(evaluated(_ROBUST),
         lambda m: _robust_pairs(coords[i.take(m)], coords[j.take(m)]),
         _ROBUST_BLOCK // 4)
    if orbit is not None:
        for lo in range(0, len(i), _PAIR_BLOCK):
            k = lo + np.flatnonzero(copy[lo:lo + _PAIR_BLOCK])
            put_copies(k, rep.take(k))
    if not written.all():
        raise NumericalError(
            f"energy table: {np.count_nonzero(~written)} near pairs got no "
            f"value")


# -- public operations ----------------------------------------------------------


@dataclass
class EnergyForm:
    """Dense element-pair single-layer table for one mesh.

    sigma is the panel map of the quarter turn that the table was
    assembled with (_quarter_turn), or None: on meshes without the turn
    and on tables of at most _SMALL_TABLE panels.
    """

    mesh: object
    table: np.ndarray  # (nt, nt), symmetric, positive entries
    sigma: np.ndarray | None = None

    def __post_init__(self):
        nt = self.mesh.num_triangles
        if self.table.shape != (nt, nt):
            raise ValueError("energy table does not match the mesh")


def panel_integral(ta, tb):
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
    return float(assemble_energy_form(mesh).table[0, -1])


class Isometry(NamedTuple):
    """An isometry of the unit square: ``point`` maps the coordinate
    arrays x, y to their images, and vertex k of a panel goes to vertex
    ``slots[k]`` of its image panel.  Each slot order below is its own
    inverse."""

    point: Callable
    slots: tuple


# the quarter turn keeps the vertex order; the reflection reverses the
# orientation, so it keeps vertex 0 and swaps vertices 1 and 2, and the
# image panels stay counterclockwise
TURN = Isometry(lambda x, y: (1.0 - y, x), (0, 1, 2))
REFLECTION = Isometry(lambda x, y: (x, 1.0 - y), (0, 2, 1))


def panel_map(coords, isometry):
    """Panel map s of an isometry of the panels coords (nt, 3, 2), or
    None if some panel has no image.

    Vertex k of panel s[i] has exactly the coordinates of vertex
    isometry.slots[k] of panel i mapped, with no tolerance.  As the slot
    order is its own inverse, vertex k of panel i goes to vertex slots[k]
    of panel s[i].
    """
    nt = len(coords)
    image = np.stack(isometry.point(coords[..., 0], coords[..., 1]),
                     axis=-1)[:, isometry.slots]
    src, dst = (np.lexsort(c.reshape(nt, 6).T) for c in (image, coords))
    if not np.array_equal(image[src], coords[dst]):
        return None
    s = np.empty(nt, np.intp)
    s[src] = dst
    return s


def _quarter_turn(coords):
    """Panel map sigma of the quarter turn (TURN), or None where some
    panel has no exact image or some orbit of sigma has fewer than four
    panels."""
    sigma = panel_map(coords, TURN)
    if sigma is None:
        return None
    twice, ident = sigma[sigma], np.arange(len(coords))
    if (twice == ident).any() or not np.array_equal(twice[twice], ident):
        return None
    return sigma


def _smallest_image(codes, a, b, sigma, kept=None):
    """The smallest code min nt + max among the images (sigma^t a,
    sigma^t b), t = 0..3, of the pairs (a, b), a <= b, whose own codes are
    codes.  kept, if given, a bool per pair, is set in place to whether
    some turn t that gives the smallest code keeps the pair's order,
    sigma^t a <= sigma^t b."""
    nt = len(sigma)
    if kept is not None:
        kept[...] = True
    for _ in range(3):
        a, b = sigma[a], sigma[b]
        image = np.minimum(a, b) * nt + np.maximum(a, b)
        if kept is not None:
            # a smaller image decides the order; an equal one may add it
            ordered = a <= b
            kept[:] = np.where(image < codes, ordered,
                               kept | (ordered & (image == codes)))
        codes = np.minimum(codes, image)
    return codes


def _split_pairs(G, coords, rows, diam, sigma):
    """Write the far entries of a mesh's table G and return its near
    candidates i <= j in (i, j) order, as two int32 index lists, a close
    flag each and, with the quarter turn sigma, their orbit map.

    One loop over strips of _SCAN_STRIP rows forms each pair's centroid
    bound once (_bounding_circles).  A pair is a candidate where the bound
    is below RHO_FAR times the larger diameter d, so the diagonal and
    every pair that shares a vertex are, and far otherwise.  A candidate
    is close unless the bound less 1e-9 S is at least RHO_NEAR d, S the
    pair's largest coordinate magnitude.  The bound is at most the
    distance, as each disc holds its panel; as computed, both are within
    100 u S of their exact values, u = 2^-53, and S >= d / 3, so where the
    bound less 1e-9 S gives rho >= RHO_NEAR, the computed distance does
    too: a pair that is not close keeps its band without one.

    A strip's far pairs get the rule kernel, in G[i, j] and G[j, i]
    alike.  With sigma, a far pair whose representative, its image of
    smallest code (_smallest_image), is far too copies that image's
    entry, which lies in this strip or an earlier one, so a strip
    evaluates its other pairs first.  The loop keeps each candidate as
    its code i nt + j; the index lists are split from the joined codes.
    The orbit map (rep, kept) gives each candidate's representative,
    itself where that is no candidate, and whether some turn onto it maps
    i onto its smaller index.  It is built after the loop, in blocks of
    _PAIR_BLOCK candidates, whose codes are sorted and searched.
    """
    nt = len(coords)
    cent, radius = _bounding_circles(coords)
    cx, cy = cent[:, 0].copy(), cent[:, 1].copy()
    scale = np.abs(coords).max(axis=(1, 2))

    def bounds(a, b):
        # a and b broadcast: arrays, or a slice and a column slice
        gx, gy = cx[a] - cx[b], cy[a] - cy[b]
        return (np.sqrt(gx * gx + gy * gy) - radius[a] - radius[b],
                np.maximum(diam[a], diam[b]))

    rule = quadrature_rule("disjoint", ORDER - 2)
    # nt^2 - 1 fits int32 up to nt = 46340, a table of 17 GB
    dtype = np.int32 if nt <= 46340 else np.int64
    codes, close = [], []
    for i0 in range(0, nt, _SCAN_STRIP):
        bound, dmax = bounds(np.s_[i0:i0 + _SCAN_STRIP, None], np.s_[i0:])
        near = bound < RHO_FAR * dmax
        ii, jj = np.nonzero(np.triu(near))
        a, b = ii + i0, jj + i0
        codes.append((a * nt + b).astype(dtype))
        close.append(bound[ii, jj]
                     - 1e-9 * np.maximum(scale.take(a), scale.take(b))
                     < RHO_NEAR * dmax[ii, jj])
        far = np.triu(~near)
        a, b = np.nonzero(far)
        a += i0
        b += i0
        ra, rb, copy = a, b, np.zeros(len(a), bool)
        if sigma is not None:
            far_codes = a * nt + b
            best = _smallest_image(far_codes, a, b, sigma)
            ra, rb = np.divmod(best, nt)
            bound, dmax = bounds(ra, rb)
            copy = (best != far_codes) & ~(bound < RHO_FAR * dmax)
        k = np.flatnonzero(~copy)
        G[a[k], b[k]] = _rule_pairs(rule, rows, a, b, k)
        k = np.flatnonzero(copy)
        G[a[k], b[k]] = G[ra[k], rb[k]]
        # G[j, i] = G[i, j] of the strip's far pairs, by one masked copy of
        # its column block rather than a scatter down the columns
        np.copyto(G[i0:, i0:i0 + _SCAN_STRIP], G[i0:i0 + _SCAN_STRIP, i0:].T,
                  where=far.T)
    codes, close = np.concatenate(codes), np.concatenate(close)
    i, j = (x.astype(np.int32, copy=False) for x in np.divmod(codes, nt))
    if sigma is None:
        return i, j, close, None
    sigma = sigma.astype(dtype)
    rep = np.empty(len(i), dtype)
    kept = np.empty(len(i), bool)
    for lo in range(0, len(i), _PAIR_BLOCK):
        block = slice(lo, lo + _PAIR_BLOCK)
        best = _smallest_image(codes[block], i[block], j[block], sigma,
                               kept[block])
        # best is at most the pair's own code, so the search stays in range
        at = np.searchsorted(codes, best)
        rep[block] = np.where(codes[at] == best, at,
                              np.arange(lo, lo + len(at)))
    return i, j, close, (rep, kept)


def _tile_pairs(n):
    """Slices (rows, cols) of the square tiles of side _STIFF_BLOCK on and
    below the diagonal of an n x n array: with the tiles (cols, rows) they
    cover it, so a symmetric operation on each pair reads no array
    transposed as a whole."""
    for r0 in range(0, n, _STIFF_BLOCK):
        for c0 in range(0, r0 + 1, _STIFF_BLOCK):
            yield (slice(r0, r0 + _STIFF_BLOCK), slice(c0, c0 + _STIFF_BLOCK))


def assemble_energy_form(mesh, classes=None):
    """Element-pair single-layer table for all panel pairs of a mesh.

    The table comes from np.empty.  _split_pairs writes the far pairs
    and returns the near candidates, the diagonal included, which are
    labelled by _classify_pairs, from its close flags, and evaluated by
    _pair_values.  Each pass writes G[i, j] and G[j, i] of its pairs, so
    every entry is written once.  Tables of more than _SMALL_TABLE panels
    take the quarter turn in both passes, where the mesh has one.  Both
    passes take the rule kernel's panel rows, formed once (_panel_rows).
    The check makes no nt x nt temporary: it takes G.min() and G.max(),
    which NaN fails as well, and compares the square tiles G[r, c] with
    G[c, r].T (_tile_pairs) instead of G with G.T as a whole.

    classes is the store of the singular rules' class values, a dict that
    the tables of one run share, so that each evaluates only the classes
    new to the run (_stored_values); None gives a fresh one, so a table
    assembled alone has the same bits whatever was assembled before it.
    """
    coords = mesh.triangle_coords()
    aspect, diam = _aspect_and_diameter(coords)
    sigma = _quarter_turn(coords) if len(coords) > _SMALL_TABLE else None
    G = np.empty((len(coords),) * 2)
    rows = _panel_rows(coords)
    i, j, close, orbit = _split_pairs(G, coords, rows, diam, sigma)
    label = _classify_pairs(coords, mesh.triangles, aspect, diam, i, j, close)
    _pair_values(G, coords, rows, mesh.triangles, i, j, label, orbit, classes)
    if not (G.min() > 0.0 and G.max() < np.inf
            and all((G[r, c] == G[c, r].T).all()
                    for r, c in _tile_pairs(len(G)))):
        raise NumericalError("energy table is not finite, symmetric and "
                             "positive")
    G.setflags(write=False)
    return EnergyForm(mesh, G, sigma)


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
    dof = space.element_dofs
    t_idx, loc = np.nonzero(dof >= 0)
    rows = dof[t_idx, loc]
    g = space.basis[1] * grads[t_idx, loc]
    shape = (space.dof_count, mesh.num_triangles)
    # curl = (g_y, -g_x)
    cx = sp.csr_matrix((g[:, 1], (rows, t_idx)), shape=shape)
    cy = sp.csr_matrix((-g[:, 0], (rows, t_idx)), shape=shape)
    return cx, cy


def assemble_stiffness(form, space, orbits=None):
    """Galerkin matrix A[i][j] = a(basis_i, basis_j) on the given space.

    With orbits, a DOF's orbit index under a panel map (spaces.dof_orbits;
    estimators.Level takes the quarter turn's or the reflection's), the basis
    is the orbit indicators instead: basis function o is the sum of the basis
    functions of orbit o, so the matrix is S A S^T with S the orbit-sum
    matrix, formed as (C S^T)^T G (C S^T) from the summed curl matrices C S^T,
    with no n x n array.  Both bases take the same loop: blocks of
    _STIFF_BLOCK rows of a = cx G cx^T + cy G cy^T, then A = 0.5 (a + a^T) in
    place, one pair of square tiles at a time, so A is bitwise symmetric.
    """
    if space.mesh is not form.mesh:
        raise ValueError("space does not live on the form's mesh")
    cx, cy = _curl_matrices(space)
    if orbits is not None:
        # S[o, i] = 1 where DOF i lies in orbit o
        dofs = np.arange(len(orbits))
        S = sp.csr_matrix((np.ones(len(dofs)), (orbits, dofs)))
        cx, cy = S @ cx, S @ cy
    G = form.table
    n = cx.shape[0]
    A = np.empty((n, n))
    for r0 in range(0, n, _STIFF_BLOCK):
        rows = slice(r0, r0 + _STIFF_BLOCK)
        # rows of a.T for a = cx (cx G)^T + cy (cy G)^T
        A[rows] = (cx @ (cx[rows] @ G).T + cy @ (cy[rows] @ G).T).T
    # then A = 0.5 (a + a^T), one pair of square tiles at a time
    for rows, cols in _tile_pairs(n):
        s = A[rows, cols] + A[cols, rows].T
        s *= 0.5
        A[rows, cols] = s
        A[cols, rows] = s.T
    return A


def assemble_rhs_constant(space):
    """Load vector of f = 1: every supported basis integrates to |T|/3."""
    dof = space.element_dofs
    t_idx, loc = np.nonzero(dof >= 0)
    b = np.zeros(space.dof_count)
    np.add.at(b, dof[t_idx, loc], space.mesh.areas[t_idx] / 3.0)
    return b


# x^e of an array, each value by libm's pow: array np.power may take SIMD
# code that differs from libm in the last bit, and the moments are
# ill-conditioned (see _power_moments)
_libm_pow = np.frompyfunc(math.pow, 2, 1)


def _power_moments(coords, alpha):
    """int_T x^alpha * lambda_j for every triangle of coords (nt, 3, 2),
    j = 0, 1, 2, as an (nt, 3) array.

    Each triangle is cut at its middle vertex into two x-monotone strips;
    the inner y-integral of an affine function over an interval with
    affine bounds is a quadratic in x, and int x^(alpha+k) has a closed
    form for alpha > -1.  A strip of width at most 1e-300 adds nothing.
    The closed form is exact, its floating-point value is not: for x^-0.6
    it is off by up to 3.0e-10 relative on the 8192-panel uniform mesh and
    1.9e-7 on a 46,239-panel random NVB mesh, against 50-digit arithmetic.
    So every x^e is libm's, taken once per distinct x.
    """
    x = coords[..., 0]
    y = coords[..., 1]
    nxt, prv = [1, 2, 0], [2, 0, 1]
    area2 = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
             - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    # affine barycentric coefficients: lambda_j = (a_j + b_j x + c_j y)/area2
    a_c = x[:, nxt] * y[:, prv] - x[:, prv] * y[:, nxt]
    b_c = y[:, nxt] - y[:, prv]
    c_c = x[:, prv] - x[:, nxt]
    # edges (0, 1), (1, 2), (2, 0) as lines y = icpt + slope x, taken from
    # their first vertex; a vertical edge spans no strip
    dx = x[:, nxt] - x
    slope = (y[:, nxt] - y) / np.where(dx != 0.0, dx, 1.0)
    icpt = y - slope * x
    lo = np.minimum(x, x[:, nxt])
    hi = np.maximum(x, x[:, nxt])

    xs = np.sort(x, axis=1)
    values, inverse = np.unique(xs, return_inverse=True)
    inverse = inverse.reshape(xs.shape)
    exponents = [alpha + k + 1.0 for k in range(3)]
    powers = [_libm_pow(values, e).astype(float)[inverse] for e in exponents]
    moments = np.zeros((len(coords), 3))
    for s in range(2):
        # the triangles whose strip s is wider than 1e-300
        t = np.flatnonzero(xs[:, s + 1] - xs[:, s] > 1e-300)
        xm = 0.5 * (xs[t, s] + xs[t, s + 1])
        # the first two edges that span the strip's midpoint, lower first
        spans = ((lo[t] <= xm[:, None]) & (xm[:, None] <= hi[t])
                 & (dx[t] != 0.0))
        count = np.cumsum(spans, axis=1)
        e0 = np.argmax(count == 1, axis=1)
        e1 = np.argmax(count == 2, axis=1)
        i0, s0 = icpt[t, e0], slope[t, e0]
        i1, s1 = icpt[t, e1], slope[t, e1]
        swap = i0 + s0 * xm > i1 + s1 * xm
        i0, i1 = np.where(swap, i1, i0), np.where(swap, i0, i1)
        s0, s1 = np.where(swap, s1, s0), np.where(swap, s0, s1)
        # cross-section [y_lo, y_hi] with y = i + s x; for each j:
        # inner = (a + b x)(y_hi - y_lo) + c (y_hi^2 - y_lo^2)/2
        dy0 = (i1 - i0)[:, None]
        dy1 = (s1 - s0)[:, None]
        sq0 = (i1 * i1 - i0 * i0)[:, None]
        sq1 = (2.0 * (i1 * s1 - i0 * s0))[:, None]
        sq2 = (s1 * s1 - s0 * s0)[:, None]
        a, b, c = a_c[t], b_c[t], c_c[t]
        # quadratic coefficients of the inner integral in x
        q = (a * dy0 + 0.5 * c * sq0,
             a * dy1 + b * dy0 + 0.5 * c * sq1,
             b * dy1 + 0.5 * c * sq2)
        for qk, e, p in zip(q, exponents, powers):
            moments[t] += qk * (p[t, s + 1] - p[t, s])[:, None] / e
    return moments / area2[:, None]


def assemble_rhs_power(space, alpha):
    """Load vector of f = x^alpha for -1 < alpha < 0, by strip moments."""
    if not -1.0 < alpha:
        raise ValueError(f"power {alpha} gives a divergent load integral")
    mesh = space.mesh
    moments = _power_moments(mesh.triangle_coords(), alpha)
    # slot basis const + lin*lambda_k: const*(sum of moments) + lin*moment_k
    const, lin = space.basis
    total = moments.sum(axis=1)
    dof = space.element_dofs
    t_idx, loc = np.nonzero(dof >= 0)
    b = np.zeros(space.dof_count)
    np.add.at(b, dof[t_idx, loc],
              const * total[t_idx] + lin * moments[t_idx, loc])
    return b


def single_layer_field(source_coords, source_values, pts):
    """The single-layer potential of a piecewise-constant vector density,
    u(x) = (1/4pi) sum_S w_S int_S |x-y|^(-1) dy, evaluated at pts (...,2).

    Each source panel's potential comes from one call of
    _panel_potential, the robust path's closed form, with the identity
    cell (0, 0), (1, 0), (1, 1), under which the nodes [1; x; y] are the
    points themselves.  The points should lie on the scale of the mesh
    (see _edge_potential)."""
    flat = pts.reshape(-1, 2)
    basis = np.vstack([np.ones(len(flat)), flat.T])
    identity = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]])
    frames = _edge_frames(np.asarray(source_coords, float))
    u = np.zeros((len(flat), 2))
    coefs = np.empty((3, 3, 2))
    work = np.empty((8, 1, len(flat)))
    for s in range(len(source_coords)):
        pot = _panel_potential(identity, frames[s:s + 1], basis, coefs,
                               work)[0]
        u += pot[:, None] * source_values[s]
    return u.reshape(pts.shape[:-1] + (2,)) / FOUR_PI


def _consistency_correction(space, source):
    """Inter-element part of the manufactured data functional.

    Pairing the hypersingular data with a discontinuous test function
    elementwise leaves boundary terms: sum_T int_{dT} psi (u . t) ds with
    u the single-layer field of the manufactured curl density source =
    (panel coords, curl values) and t the counterclockwise tangent.  For
    continuous test functions vanishing on the screen boundary these
    cancel, so only the Crouzeix-Raviart space needs this.
    """
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
        u = single_layer_field(*source, pts)
        ut = (u * seg[:, None, :]).sum(-1) / length[:, None]
        base = length * (s_wts[None, :] * ut).sum(axis=1)
        lin = length * ((s_wts * (2.0 * s_nodes - 1.0))[None, :] * ut).sum(axis=1)
        for off, t_const, t_lin in ((0, 1.0, 0.0), (1, 0.0, 1.0),
                                    (2, 0.0, -1.0)):
            dof = space.element_dofs[:, (k + off) % 3]
            valid = dof >= 0
            np.add.at(c, dof[valid],
                      t_const * base[valid] + t_lin * lin[valid])
    return c


def assemble_rhs_manufactured(form, space, w, source):
    """Load vector of the manufactured data f = W(phi).

    ``w`` is the curl of phi, a PwConstVecField on the form's mesh (the
    curl of a coarse-mesh function carried to this mesh).  Entries
    against conforming test functions are a(phi, basis_i); nonconforming
    test functions additionally see the inter-element terms of the data,
    evaluated from ``source`` = (panel coords, curl values), the curl
    density on its coarsest mesh.
    """
    if w.mesh is not form.mesh:
        raise ValueError("w does not live on the form's mesh")
    if space.mesh is not form.mesh:
        raise ValueError("space does not live on the form's mesh")
    cx, cy = _curl_matrices(space)
    G = form.table
    b = cx @ (G @ w.values[:, 0]) + cy @ (G @ w.values[:, 1])
    if space.kind == "cr":
        b = b + _consistency_correction(space, source)
    return b
