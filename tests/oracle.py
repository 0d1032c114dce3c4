"""Independent references for panel-pair integrals and power moments.

The inner integral of 1/|x-y| over a flat triangle has a closed form per
edge (divergence theorem); the outer integral is done by uniform
subdivision plus tensor Gauss.  This path shares no code with the
production quadrature rules.

power_moments_element is the strip formula of the power load vector, one
triangle at a time in scalar arithmetic.  The batched production pass
must give it bitwise.
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


def power_moments_element(tri, alpha, power=pow):
    """int_T x^alpha * lambda_j for one triangle, j = 0, 1, 2, with every
    x^e taken as ``power(x, e)`` (numpy's scalar power by default).

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
                moments[j] += q * (power(x1, e) - power(x0, e)) / e
    return moments / area2
