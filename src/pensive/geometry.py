"""Boundary curves and chord geometry.

Smooth ovals are represented by an analytic parametrization z(t), t in
[0, 2*pi), held as complex-valued callables, plus cumulative arc-length
tables so every public operation works in arc length s. Orientation is
counterclockwise with the enclosed region on the left of the tangent;
the inward normal is i*tangent in complex form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import ellipeinc

from .errors import (
    CornerHit,
    CornerUndefined,
    InvalidAngle,
    InvalidParameter,
    Unsupported,
)

TWO_PI = 2.0 * math.pi

# incidence angles closer than this to 0 or pi are rejected as tangential
ANGLE_TOL = 1e-6

# chord landings within this arc length of a polygon vertex abort
CORNER_TOL = 1e-9

_GL_X, _GL_W = leggauss(12)


def _wrap(t):
    return np.mod(t, TWO_PI)


def wrap_to_half(x, period):
    """Reduce x modulo period into [-period/2, period/2)."""
    return (x + 0.5 * period) % period - 0.5 * period


class BoundaryCurve:
    """Closed smooth oval given by an analytic parametrization.

    Use the factory functions :func:`disk`, :func:`ellipse`,
    :func:`neumann_oval` and :func:`curve_from_points` rather than the
    constructor.
    """

    kind = "generic"

    def __init__(self, kind, zfun, dzfun, d2zfun, params=None, nodes=2048,
                 arclen_exact=None):
        self.kind = kind
        self.params = dict(params or {})
        self._zf = zfun
        self._dzf = dzfun
        self._d2zf = d2zfun
        self._arclen_exact = arclen_exact
        self._build_tables(int(nodes))

    # -- construction ------------------------------------------------

    def _build_tables(self, m):
        self._M = m
        self._h = TWO_PI / m
        t = np.arange(m) * self._h
        self._t_nodes = t
        self._z_nodes = self._zf(t)
        if self._arclen_exact is not None:
            s = self._arclen_exact(np.append(t, TWO_PI))
        else:
            # cumulative arc length by 12-point Gauss-Legendre per panel
            mid = t + 0.5 * self._h
            tq = mid[:, None] + 0.5 * self._h * _GL_X[None, :]
            sp = np.abs(self._dzf(tq.ravel())).reshape(m, 12)
            panel = 0.5 * self._h * sp @ _GL_W
            s = np.concatenate([[0.0], np.cumsum(panel)])
        self._s_nodes = s
        self.perimeter = float(s[-1])
        kap = self.curvature_t(t)
        self._kmin = float(kap.min())
        self._kmax = float(kap.max())
        self.is_convex = self._kmin > 1e-12
        # signed area by the periodic trapezoid rule (spectral accuracy)
        z = self._z_nodes
        dz = self._dzf(t)
        self.area = float(0.5 * np.mean(np.imag(np.conj(z) * dz)) * TWO_PI)

    # -- parameter-space evaluation ------------------------------------

    def zpoint_t(self, t):
        return self._zf(_wrap(np.asarray(t, dtype=float)))

    def speed_t(self, t):
        return np.abs(self._dzf(_wrap(np.asarray(t, dtype=float))))

    def tangent_t(self, t):
        dz = self._dzf(_wrap(np.asarray(t, dtype=float)))
        return dz / np.abs(dz)

    def curvature_t(self, t):
        t = _wrap(np.asarray(t, dtype=float))
        dz = self._dzf(t)
        d2z = self._d2zf(t)
        return np.imag(np.conj(dz) * d2z) / np.abs(dz) ** 3

    def arclen_t(self, t):
        """Arc length from t=0 to t, vectorized, t in [0, 2*pi]."""
        t = np.asarray(t, dtype=float)
        if self._arclen_exact is not None:
            return self._arclen_exact(t)
        idx = np.clip((t / self._h).astype(int), 0, self._M - 1)
        t0 = idx * self._h
        half = 0.5 * (t - t0)
        tq = (t0 + half)[..., None] + half[..., None] * _GL_X
        sp = np.abs(self._dzf(_wrap(tq.reshape(-1)))).reshape(tq.shape)
        return self._s_nodes[idx] + (sp @ _GL_W) * half

    def t_of_s(self, s):
        """Invert arc length; Newton polish from the table guess."""
        s = np.mod(np.asarray(s, dtype=float), self.perimeter)
        t = np.interp(s, self._s_nodes, np.append(self._t_nodes, TWO_PI))
        for _ in range(8):
            f = self.arclen_t(np.clip(t, 0.0, TWO_PI)) - s
            t = t - f / np.abs(self._dzf(_wrap(t)))
            t = np.clip(t, 0.0, TWO_PI)
        return t

    # -- arc-length evaluation -----------------------------------------

    def point(self, s):
        z = self._zf(_wrap(self.t_of_s(s)))
        return np.stack([np.real(z), np.imag(z)], axis=-1)

    def tangent(self, s):
        tau = self.tangent_t(self.t_of_s(s))
        return np.stack([np.real(tau), np.imag(tau)], axis=-1)

    def normal(self, s):
        """Inward unit normal (interior on the left)."""
        tau = self.tangent(s)
        return np.stack([-tau[..., 1], tau[..., 0]], axis=-1)

    def curvature(self, s):
        return self.curvature_t(self.t_of_s(s))


@dataclass
class PolygonBoundary:
    """Closed polygon, counterclockwise vertices.

    rational_angles optionally declares each interior angle as
    2*pi*m/n; required by the interval-exchange machinery.
    """

    vertices: np.ndarray
    rational_angles: list | None = None
    kind: str = field(default="polygon", init=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise InvalidParameter("polygon needs at least 3 planar vertices")
        area = 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1)
                                  - v[:, 1] * np.roll(v[:, 0], -1)))
        if area <= 0:
            raise InvalidParameter("vertices must be counterclockwise")
        self.vertices = v
        self.area = area
        e = np.roll(v, -1, axis=0) - v
        self.edge_len = np.hypot(e[:, 0], e[:, 1])
        if self.edge_len.min() <= 0:
            raise InvalidParameter("degenerate polygon edge")
        self.edge_tan = e / self.edge_len[:, None]
        self.cum_s = np.concatenate([[0.0], np.cumsum(self.edge_len)])
        self.perimeter = float(self.cum_s[-1])
        tprev = np.roll(self.edge_tan, 1, axis=0)
        turn = np.arctan2(
            tprev[:, 0] * self.edge_tan[:, 1] - tprev[:, 1] * self.edge_tan[:, 0],
            (tprev * self.edge_tan).sum(axis=1))
        self.interior_angles = np.pi - turn
        if self.rational_angles is not None:
            if len(self.rational_angles) != len(v):
                raise InvalidParameter("one (m, n) pair per vertex required")
            for ang, (mm, nn) in zip(self.interior_angles, self.rational_angles):
                if abs(ang - TWO_PI * mm / nn) > 1e-12:
                    raise InvalidParameter(
                        "declared angle 2*pi*%d/%d does not match %.17g" % (mm, nn, ang))
        self.is_convex = bool(np.all(self.interior_angles < np.pi))

    @property
    def angle_lcm(self):
        if self.rational_angles is None:
            raise Unsupported("no rational angles declared")
        return math.lcm(*[n for _, n in self.rational_angles])

    def edge_of(self, s):
        """(edge index, arc length along that edge) for scalar or array s."""
        s = np.mod(np.asarray(s, dtype=float), self.perimeter)
        i = np.searchsorted(self.cum_s, s, side="right") - 1
        i = np.minimum(i, len(self.edge_len) - 1)
        return i, s - self.cum_s[i]

    def nearest_vertex_gap(self, s):
        d = np.abs(wrap_to_half(s - self.cum_s[:-1], self.perimeter))
        j = int(np.argmin(d))
        return j, float(d[j])

    def point(self, s):
        i, u = self.edge_of(s)
        return self.vertices[i] + u[..., None] * self.edge_tan[i]

    def tangent(self, s):
        j, gap = self.nearest_vertex_gap(s)
        if gap < 1e-12 * max(1.0, self.perimeter):
            raise CornerUndefined("tangent undefined at vertex %d" % j)
        i, _ = self.edge_of(s)
        return self.edge_tan[i].copy()

    def curvature(self, s):
        self.tangent(s)
        return 0.0


# -- factories ---------------------------------------------------------


def disk(radius=1.0):
    if radius <= 0:
        raise InvalidParameter("radius must be positive")
    r = float(radius)
    return BoundaryCurve(
        "disk",
        lambda t: r * np.exp(1j * t),
        lambda t: 1j * r * np.exp(1j * t),
        lambda t: -r * np.exp(1j * t),
        params={"radius": r},
        nodes=1024,
        arclen_exact=lambda t: r * np.asarray(t, dtype=float),
    )


def ellipse(a, b, nodes=None):
    if a <= 0 or b <= 0:
        raise InvalidParameter("semi-axes must be positive")
    a = float(a)
    b = float(b)
    # arc length in closed form: |z'| = b*sqrt(1 - m sin^2 t), m = 1 - (a/b)^2
    m = 1.0 - (a / b) ** 2

    def arclen(t):
        return b * ellipeinc(np.asarray(t, dtype=float), m)

    aspect = max(a / b, b / a)
    if nodes is None:
        nodes = int(min(2 ** 18, max(2048, 64 * aspect)))
    return BoundaryCurve(
        "ellipse",
        lambda t: a * np.cos(t) + 1j * b * np.sin(t),
        lambda t: -a * np.sin(t) + 1j * b * np.cos(t),
        lambda t: -a * np.cos(t) - 1j * b * np.sin(t),
        params={"a": a, "b": b},
        nodes=nodes,
        arclen_exact=arclen,
    )


def neumann_oval(lam, nodes=4096):
    """Image of the unit circle under z = a*Z/(1 - lam^2 Z^2), area pi.

    Convex for small lam, pinched toward an hourglass as lam grows; the
    map degenerates at lam = 1.
    """
    if not 0 <= lam < 1:
        raise InvalidParameter("lam must lie in [0, 1)")
    lam = float(lam)
    a = (1.0 - lam ** 4) / math.sqrt(1.0 + lam ** 4)
    l2 = lam * lam

    def F(Z):
        return a * Z / (1.0 - l2 * Z * Z)

    def Fp(Z):
        return a * (1.0 + l2 * Z * Z) / (1.0 - l2 * Z * Z) ** 2

    def Fpp(Z):
        return 2.0 * a * l2 * Z * (3.0 + l2 * Z * Z) / (1.0 - l2 * Z * Z) ** 3

    def zf(t):
        return F(np.exp(1j * np.asarray(t, dtype=float)))

    def dzf(t):
        Z = np.exp(1j * np.asarray(t, dtype=float))
        return Fp(Z) * 1j * Z

    def d2zf(t):
        Z = np.exp(1j * np.asarray(t, dtype=float))
        return -(Fpp(Z) * Z * Z + Fp(Z) * Z)

    return BoundaryCurve("neumann_oval", zf, dzf, d2zf,
                         params={"lam": lam, "a": a}, nodes=nodes)


def curve_from_points(xy, nodes=4096):
    """Closed generic oval through sample points (k, 2), counterclockwise."""
    p = np.asarray(xy, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2 or len(p) < 8:
        raise InvalidParameter("need at least 8 sample points of shape (k, 2)")
    if np.allclose(p[0], p[-1]):
        p = p[:-1]
    area = 0.5 * float(np.sum(p[:, 0] * np.roll(p[:, 1], -1)
                              - p[:, 1] * np.roll(p[:, 0], -1)))
    if area <= 0:
        raise InvalidParameter("sample points must run counterclockwise")
    closed = np.vstack([p, p[:1]])
    seg = np.hypot(*np.diff(closed, axis=0).T)
    u = np.concatenate([[0.0], np.cumsum(seg)])
    u *= TWO_PI / u[-1]
    spl = CubicSpline(u, closed, bc_type="periodic", extrapolate="periodic")
    d1 = spl.derivative()
    d2 = spl.derivative(2)

    def mk(f):
        def g(t):
            v = f(np.mod(t, TWO_PI))
            return v[..., 0] + 1j * v[..., 1]
        return g

    return BoundaryCurve("generic", mk(spl), mk(d1), mk(d2), nodes=nodes)


def regular_polygon(k, circumradius=1.0):
    ang = TWO_PI * (np.arange(k) + 0.5) / k + np.pi / 2
    v = circumradius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    g = math.gcd(k - 2, 2 * k)
    pairs = [((k - 2) // g, 2 * k // g)] * k
    return PolygonBoundary(v, rational_angles=pairs)


# -- point queries ------------------------------------------------------


def point_tangent_curvature(curve, s):
    """Return (point, unit tangent, curvature) at arc length s.

    Raises CornerUndefined on a polygon vertex.
    """
    if isinstance(curve, PolygonBoundary):
        tau = curve.tangent(s)
        return curve.point(s), tau, 0.0
    t = curve.t_of_s(s)
    z = curve.zpoint_t(t)
    tau = curve.tangent_t(t)
    return (np.stack([np.real(z), np.imag(z)], axis=-1),
            np.stack([np.real(tau), np.imag(tau)], axis=-1),
            curve.curvature_t(t))


def _require_smooth(curve, what):
    """Raise Unsupported when curve is a polygon; what names the operation."""
    if isinstance(curve, PolygonBoundary):
        raise Unsupported("%s needs a smooth table" % what)


def curvature_bounds(curve):
    if isinstance(curve, PolygonBoundary):
        raise Unsupported("polygon has no curvature bounds")
    return curve._kmin, curve._kmax


def arc_advance(curve, s, delta):
    return float(np.mod(s + delta, curve.perimeter))


# -- chords -------------------------------------------------------------


def _check_angle(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < ANGLE_TOL) or np.any(theta > np.pi - ANGLE_TOL):
        raise InvalidAngle("incidence angle must lie in (%g, pi - %g)"
                           % (ANGLE_TOL, ANGLE_TOL))
    return theta


def _chord_seed_gap(curve, t0, theta):
    """A parameter offset certainly before the chord endpoint."""
    sp = float(curve.speed_t(t0))
    kap = max(abs(float(curve.curvature_t(t0))), 1e-12)
    est = 2.0 * math.sin(min(theta, math.pi - theta)) / (kap * sp)
    return min(1e-4, 1e-3 * est)


def chord(curve, s, theta):
    """First boundary intersection of the ray leaving gamma(s) at angle theta.

    Returns (s2, theta2, length) with theta2 the reflected outgoing
    angle at the landing point, equal to the incidence angle there.
    """
    if isinstance(curve, PolygonBoundary):
        return _chord_polygon(curve, s, theta)
    theta = float(_check_angle(theta))
    t0 = float(curve.t_of_s(s))
    z0 = complex(curve.zpoint_t(t0))
    dhat = complex(curve.tangent_t(t0)) * np.exp(1j * theta)
    cd = np.conj(dhat)

    def f(t):
        return np.imag(cd * (curve.zpoint_t(t) - z0))

    if curve.is_convex:
        n_scan = 256
        off = np.linspace(0.0, TWO_PI, n_scan + 1)[1:]
        vals = f(t0 + off)
        pos = np.nonzero(vals > 0.0)[0]
        if len(pos) == 0:
            # endpoint sits inside the last scan cell (very short chord on
            # the clockwise side); probe it at geometrically shrinking gaps
            lo = t0 + off[-2]
            hi = None
            u = TWO_PI / n_scan
            for _ in range(60):
                u *= 0.5
                if f(t0 + TWO_PI - u) > 0.0:
                    hi = t0 + TWO_PI - u
                    break
            if hi is None:
                raise InvalidAngle("no chord endpoint found; ray left the oval")
        else:
            j = int(pos[0])
            lo = t0 + (off[j - 1] if j > 0
                       else _chord_seed_gap(curve, t0, theta))
            hi = t0 + off[j]
        tstar = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    else:
        tstar = _first_hit_polyline(curve, t0, z0, dhat, f)
    zs = complex(curve.zpoint_t(tstar))
    tau2 = complex(curve.tangent_t(tstar))
    c2 = float(np.clip(np.real(np.conj(tau2) * dhat), -1.0, 1.0))
    s2 = float(curve.arclen_t(_wrap(tstar))) % curve.perimeter
    return s2, math.acos(c2), abs(zs - z0)


def _first_hit_polyline(curve, t0, z0, dhat, f):
    """First positive ray-polyline intersection, then a local polish."""
    z = curve._z_nodes
    zn = np.roll(z, -1)
    a = z - z0
    b = zn - z0
    cd = np.conj(dhat)
    fa = np.imag(cd * a)
    fb = np.imag(cd * b)
    cross = (fa <= 0.0) != (fb <= 0.0)
    if not np.any(cross):
        raise InvalidAngle("ray does not meet the boundary again")
    w = fa[cross] / (fa[cross] - fb[cross])
    hit = a[cross] * (1 - w) + b[cross] * w
    u = np.real(np.conj(dhat) * hit)
    idx_all = np.nonzero(cross)[0]
    scale = float(np.abs(z).max())
    ok = u > 1e-9 * scale
    # drop the trivial intersection at the launch point
    gap = np.abs(wrap_to_half(curve._t_nodes[idx_all] - t0, TWO_PI))
    ok &= (gap > 1.5 * curve._h) | (u > 1e-3 * scale)
    if not np.any(ok):
        raise InvalidAngle("ray does not re-enter the region")
    k = int(idx_all[ok][np.argmin(u[ok])])
    lo = curve._t_nodes[k]
    hi = lo + curve._h
    if f(lo) == 0.0:
        return lo
    if f(lo) * f(hi) > 0:
        lo -= curve._h
    return brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)


def chord_batch(curve, s, theta):
    """Vectorized chord for convex smooth ovals.

    Returns (s2, theta2, length) arrays. Scan plus bisection plus a few
    Newton steps; accuracy near 1e-12 in the curve parameter.
    """
    if isinstance(curve, PolygonBoundary) or not curve.is_convex:
        out = [chord(curve, float(si), float(thi))
               for si, thi in zip(np.ravel(s), np.ravel(theta))]
        arr = np.array(out, dtype=float)
        return arr[:, 0], arr[:, 1], arr[:, 2]
    theta = _check_angle(np.asarray(theta, dtype=float)).ravel()
    s = np.asarray(s, dtype=float).ravel()
    t0 = curve.t_of_s(s)
    z0 = curve.zpoint_t(t0)
    dhat = curve.tangent_t(t0) * np.exp(1j * theta)
    cd = np.conj(dhat)

    n_scan = 256
    off = np.linspace(0.0, TWO_PI, n_scan + 1)[1:]
    fv = np.imag(cd[:, None] * (curve.zpoint_t(t0[:, None] + off[None, :])
                                - z0[:, None]))
    pos = fv > 0.0
    j = np.argmax(pos, axis=1)
    bad = ~pos[np.arange(len(s)), j]
    if np.any(bad):
        # rows the coarse scan misses get the scalar treatment
        s2b = np.empty(len(s))
        t2b = np.empty(len(s))
        lnb = np.empty(len(s))
        good = ~bad
        if np.any(good):
            g2, gt, gl = chord_batch(curve, s[good], theta[good])
            s2b[good], t2b[good], lnb[good] = g2, gt, gl
        for i in np.nonzero(bad)[0]:
            s2b[i], t2b[i], lnb[i] = chord(curve, float(s[i]), float(theta[i]))
        return s2b, t2b, lnb
    sp = curve.speed_t(t0)
    kap = np.maximum(np.abs(curve.curvature_t(t0)), 1e-12)
    seed = np.minimum(1e-4, 2e-3 * np.sin(np.minimum(theta, np.pi - theta))
                      / (kap * sp))
    lo = t0 + np.where(j > 0, off[np.maximum(j - 1, 0)], seed)
    hi = t0 + off[j]
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        fm = np.imag(cd * (curve.zpoint_t(mid) - z0))
        neg = fm < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    t = 0.5 * (lo + hi)
    for _ in range(2):
        ft = np.imag(cd * (curve.zpoint_t(t) - z0))
        dft = np.imag(cd * curve._dzf(_wrap(t)))
        step = np.where(np.abs(dft) > 1e-300, ft / dft, 0.0)
        t = np.clip(t - step, lo - curve._h, hi + curve._h)
    zs = curve.zpoint_t(t)
    tau2 = curve.tangent_t(t)
    c2 = np.clip(np.real(np.conj(tau2) * dhat), -1.0, 1.0)
    s2 = np.mod(curve.arclen_t(_wrap(t)), curve.perimeter)
    return s2, np.arccos(c2), np.abs(zs - z0)


def _chord_polygon(poly, s, theta):
    theta = float(_check_angle(theta))
    p0 = poly.point(s)
    tau = poly.tangent(s)  # CornerUndefined at a vertex
    ct, st = math.cos(theta), math.sin(theta)
    dhat = np.array([ct * tau[0] - st * tau[1], ct * tau[1] + st * tau[0]])
    v = poly.vertices
    e = poly.edge_tan
    rel = v - p0
    # solve p0 + u*dhat = v_k + w*e_k per edge (Cramer)
    den = e[:, 0] * dhat[1] - e[:, 1] * dhat[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0]) / den
        w = (dhat[0] * rel[:, 1] - dhat[1] * rel[:, 0]) / den
    tol = 1e-12 * max(1.0, poly.perimeter)
    okay = (np.abs(den) > 1e-300) & (u > tol) & (w >= -1e-12) & \
        (w <= poly.edge_len + 1e-12)
    if not np.any(okay):
        raise InvalidAngle("ray does not meet the polygon again")
    cand = np.nonzero(okay)[0]
    k = cand[np.argmin(u[cand])]
    wk = float(np.clip(w[k], 0.0, poly.edge_len[k]))
    if wk < CORNER_TOL:
        raise CornerHit("chord lands on vertex %d" % k)
    if poly.edge_len[k] - wk < CORNER_TOL:
        raise CornerHit("chord lands on vertex %d" % ((k + 1) % len(v)))
    s2 = float(np.mod(poly.cum_s[k] + wk, poly.perimeter))
    c2 = float(np.clip(np.dot(dhat, poly.edge_tan[k]), -1.0, 1.0))
    return s2, math.acos(c2), float(u[k])


# -- configuration ------------------------------------------------------


def curve_from_config(cfg):
    """Build a curve from a flat mapping (CLI section contents)."""
    kind = str(cfg.get("kind", "")).strip().lower()
    if kind == "disk":
        return disk(float(cfg.get("radius", 1.0)))
    if kind == "ellipse":
        return ellipse(float(cfg["a"]), float(cfg["b"]))
    if kind == "neumann_oval":
        return neumann_oval(float(cfg["lam"]))
    if kind == "csv":
        pts = np.loadtxt(cfg["path"], delimiter=",", ndmin=2)
        return curve_from_points(pts)
    if kind == "polygon":
        if "vertices" in cfg:
            rows = [r for r in str(cfg["vertices"]).split(";") if r.strip()]
            pts = np.array([[float(x) for x in r.split(",")] for r in rows])
        else:
            pts = np.loadtxt(cfg["path"], delimiter=",", ndmin=2)
        return PolygonBoundary(pts)
    if kind == "regular_polygon":
        return regular_polygon(int(cfg["sides"]),
                               float(cfg.get("circumradius", 1.0)))
    raise InvalidParameter("unknown curve kind %r" % kind)
