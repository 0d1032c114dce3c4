"""Independent reference for panel-pair integrals.

The inner integral of 1/|x-y| over a flat triangle has a closed form per
edge (divergence theorem); the outer integral is done by uniform
subdivision plus tensor Gauss.  This path shares no code with the
production quadrature rules.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

FOUR_PI = 4.0 * np.pi
_CHUNK = 1024  # sub-triangles per batch of pair_value


def _ccw(tri):
    tri = np.asarray(tri, float)
    s = ((tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
         - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0]))
    return tri if s > 0 else tri[[0, 2, 1]]


def inner_integral(tri, pts):
    """int_tri 1/|x-y| dy evaluated at coplanar points, closed form."""
    tri = _ccw(tri)
    pts = np.atleast_2d(np.asarray(pts, float))
    total = np.zeros(len(pts))
    for k in range(3):
        a, b = tri[k], tri[(k + 1) % 3]
        t = b - a
        ln = np.hypot(*t)
        t = t / ln
        n = np.array([t[1], -t[0]])
        d = (a - pts) @ n
        s_a = (a - pts) @ t
        s_b = s_a + ln
        r_a = np.hypot(s_a, d)
        r_b = np.hypot(s_b, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.where(s_b < 0, d * d / (r_b - s_b), s_b + r_b)
            den = np.where(s_a < 0, d * d / (r_a - s_a), s_a + r_a)
            term = d * np.log(num / den)
        total += np.where(np.abs(d) < 1e-14, 0.0, np.nan_to_num(term))
    return total


def pair_value(ta, tb, depth=5, order=14):
    """(1/4pi) int_ta int_tb 1/|x-y| by subdivision of the outer panel.

    The 4^depth sub-triangles are built level by level and integrated
    ``_CHUNK`` at a time.
    """
    tris = _ccw(ta)[None]
    tb = np.asarray(tb, float)
    for _ in range(depth):
        t0, t1, t2 = tris[:, 0], tris[:, 1], tris[:, 2]
        m01, m12, m20 = (t0 + t1) / 2, (t1 + t2) / 2, (t2 + t0) / 2
        tris = np.stack([np.stack([t0, m01, m20], 1),
                         np.stack([m01, t1, m12], 1),
                         np.stack([m20, m12, t2], 1),
                         np.stack([m01, m12, m20], 1)], axis=1).reshape(-1, 3, 2)
    g, w = leggauss(order)
    g = 0.5 * (g + 1.0)
    w = 0.5 * w
    ga, gb = np.meshgrid(g, g, indexing="ij")
    wa, wb = np.meshgrid(w, w, indexing="ij")
    n1 = ga.ravel()[None, :, None]
    n2 = (ga * gb).ravel()[None, :, None]
    wts = (wa * wb * ga).ravel()
    total = 0.0
    for lo in range(0, len(tris), _CHUNK):
        t = tris[lo:lo + _CHUNK]
        area2 = np.abs((t[:, 1, 0] - t[:, 0, 0]) * (t[:, 2, 1] - t[:, 0, 1])
                       - (t[:, 1, 1] - t[:, 0, 1]) * (t[:, 2, 0] - t[:, 0, 0]))
        pts = (t[:, None, 0] + n1 * (t[:, None, 1] - t[:, None, 0])
               + n2 * (t[:, None, 2] - t[:, None, 1]))
        vals = inner_integral(tb, pts.reshape(-1, 2)).reshape(len(t), -1)
        total += area2 @ (vals @ wts)
    return total / FOUR_PI
