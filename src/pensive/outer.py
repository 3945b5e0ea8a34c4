"""Pensive outer billiards in tangent coordinates and the spherical
swept-area duality.

A point X outside a strictly convex oval has right-tangent coordinates
(alpha, r): X = gamma + r T with T the forward unit tangent and alpha
the tangent bearing. The pensive outer step slides the tangency until
the bearing advances by theta(r) = 2 a(r) / r^2 and reflects through
the new tangency, preserving the area form mu = r dr ^ dalpha.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import geometry as geo
from .errors import (InvalidParameter, InvalidPoint, NotExterior,
                     Unsupported)
from .variational import point_inside

TWO_PI = 2.0 * math.pi


def _as_xy(point):
    arr = np.asarray(point, dtype=float).ravel()
    if arr.size != 2 or not np.all(np.isfinite(arr)):
        raise InvalidPoint("points are (x, y) pairs")
    return arr


@dataclass(frozen=True)
class OuterPoint:
    """Exterior point with its tangent coordinates."""

    x: float
    y: float
    alpha: float
    r: float
    t: float
    side: str = "right"

    @property
    def xy(self):
        return np.array([self.x, self.y])


def tangent_coordinates(curve, X, side="right"):
    """Tangent coordinates of an exterior point.

    side="right" solves X = gamma(t) + r T(t) with r > 0 (the image of
    the forward tangent ray); side="left" solves X = gamma(t) - r T(t).
    """
    geo._require_smooth(curve, "the outer map")
    if side not in ("right", "left"):
        raise InvalidParameter("side is 'right' or 'left'")
    X = _as_xy(X)
    try:
        if point_inside(curve, X):
            raise NotExterior("point lies inside the oval")
    except InvalidPoint:
        raise NotExterior("point lies on the oval")
    zx = complex(X[0], X[1])
    n_scan = 512
    ts = np.linspace(0.0, TWO_PI, n_scan, endpoint=False)
    zc = curve.zpoint_t(ts)
    tau = curve.tangent_t(ts)
    rel = zx - zc
    cross = np.imag(np.conj(tau) * rel)
    sgn = 1.0 if side == "right" else -1.0

    def f(t):
        taut = curve.zpoint_t(t)
        return float(np.imag(np.conj(curve.tangent_t(t)) * (zx - taut)))

    best = None
    for k in range(n_scan):
        k2 = (k + 1) % n_scan
        if cross[k] == 0.0 or cross[k] * cross[k2] > 0.0:
            continue
        lo, hi = ts[k], ts[k] + TWO_PI / n_scan
        if f(lo) * f(hi) > 0:
            continue
        tstar = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
        tauh = complex(curve.tangent_t(tstar))
        proj = float(np.real(np.conj(tauh) * (zx - curve.zpoint_t(tstar))))
        if sgn * proj > 0:
            best = (tstar % TWO_PI, sgn * proj, tauh)
    if best is None:
        raise NotExterior("no tangent ray reaches the point")
    tstar, r, tauh = best
    alpha = math.atan2(tauh.imag, tauh.real) % TWO_PI
    return OuterPoint(x=float(X[0]), y=float(X[1]), alpha=alpha, r=r,
                      t=tstar, side=side)


def outer_step(curve, X, side="right"):
    """Classical outer billiard: reflect X through its tangency point."""
    op = tangent_coordinates(curve, X, side=side)
    p = curve.zpoint_t(op.t)
    y = 2.0 * p - complex(op.x, op.y)
    return np.array([y.real, y.imag])


@dataclass(frozen=True)
class OuterDelay:
    """Swept-area delay, stored canonically as the bearing shift."""

    theta: object
    label: str = "custom"

    def shift(self, r):
        return float(self.theta(r))

    def area(self, r):
        return 0.5 * r * r * float(self.theta(r))

    @classmethod
    def from_angle(cls, theta_fn, label="angle"):
        return cls(theta=theta_fn, label=label)

    @classmethod
    def from_area(cls, a_fn, label="area"):
        return cls(theta=lambda r: 2.0 * a_fn(r) / (r * r), label=label)

    @classmethod
    def zero(cls):
        return cls(theta=lambda r: 0.0, label="zero")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _turn_integral(curve, t0, t1):
    """Tangent turning between parameters, by panelled Gauss--Legendre."""
    if t1 == t0:
        return 0.0
    n_panel = max(1, int(math.ceil(abs(t1 - t0) / (math.pi / 2))))
    edges = np.linspace(t0, t1, n_panel + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ts = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        vals = curve.curvature_t(ts) * curve.speed_t(ts)
        total += 0.5 * (b - a) * float(_GL_WEIGHTS @ vals)
    return total


def _advance_tangency(curve, t0, turn):
    """Parameter at which the tangent bearing has advanced by `turn`."""
    if turn == 0.0:
        return t0
    k_full = math.floor(turn / TWO_PI)
    rem = turn - TWO_PI * k_full

    def w(t):
        return float(curve.curvature_t(t) * curve.speed_t(t))

    if rem < 1e-12:
        dt = rem / w(t0)
    else:
        dt = brentq(lambda d: _turn_integral(curve, t0, t0 + d) - rem,
                    0.0, TWO_PI, xtol=1e-13)
        for _ in range(2):
            dt -= (_turn_integral(curve, t0, t0 + dt) - rem) / w(t0 + dt)
    return t0 + dt + TWO_PI * k_full


def pensive_outer_step(curve, odelay, X):
    """Slide the tangency through the bearing shift, then reflect."""
    op = tangent_coordinates(curve, X, side="right")
    turn = odelay.shift(op.r)
    tq = _advance_tangency(curve, op.t, turn)
    q = curve.zpoint_t(tq)
    tau = curve.tangent_t(tq)
    y = q - op.r * tau
    return np.array([float(np.real(y)), float(np.imag(y))])


def area_preservation_check(curve, odelay, points, h=None):
    """Max |det - 1| of the finite-difference Jacobian of the map."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if h is None:
        h = 1e-6 * max(1.0, curve.perimeter / TWO_PI)
    worst = 0.0
    for p in pts:
        cols = []
        for d in (np.array([h, 0.0]), np.array([0.0, h])):
            yp = pensive_outer_step(curve, odelay, p + d)
            ym = pensive_outer_step(curve, odelay, p - d)
            cols.append((yp - ym) / (2 * h))
        det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
        worst = max(worst, abs(det - 1.0))
    return worst


# -- spherical curves and the duality --------------------------------------


def _stencil1(fun, u, h):
    return (fun(u - 2 * h) - 8 * fun(u - h) + 8 * fun(u + h)
            - fun(u + 2 * h)) / (12 * h)


def _stencil2(fun, u, h):
    return (-fun(u - 2 * h) + 16 * fun(u - h) - 30 * fun(u)
            + 16 * fun(u + h) - fun(u + 2 * h)) / (12 * h * h)


class SphericalCurve:
    """Closed curve on the unit sphere, 2 pi periodic in its parameter.

    Derivatives default to high-order central differences; analytic
    callables can be supplied for precision-critical curves.
    """

    def __init__(self, fun, dfun=None, d2fun=None, nodes=2048):
        self._fun = fun
        self._dfun = dfun
        self._d2fun = d2fun
        self._h = 1e-3
        us = np.linspace(0.0, TWO_PI, nodes, endpoint=False)
        pts = np.array([fun(u) for u in us])
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise InvalidParameter("curve does not lie on the unit sphere")
        self._us = us
        self._pts = pts
        sp = np.array([np.linalg.norm(self.deriv(u)) for u in us])
        ds = np.concatenate([[0.0], np.cumsum(
            0.5 * (sp[1:] + sp[:-1]) * np.diff(us))])
        total = ds[-1] + 0.5 * (sp[-1] + sp[0]) * (TWO_PI - us[-1])
        self._s_tab = ds
        self.length = float(total)

    def point(self, u):
        return np.asarray(self._fun(u), dtype=float)

    def deriv(self, u):
        if self._dfun is not None:
            return np.asarray(self._dfun(u), dtype=float)
        return _stencil1(lambda v: np.asarray(self._fun(v), dtype=float),
                         u, self._h)

    def deriv2(self, u):
        if self._d2fun is not None:
            return np.asarray(self._d2fun(u), dtype=float)
        if self._dfun is not None:
            return _stencil1(
                lambda v: np.asarray(self._dfun(v), dtype=float),
                u, self._h)
        return _stencil2(lambda v: np.asarray(self._fun(v), dtype=float),
                         u, self._h)

    def tangent(self, u):
        d = self.deriv(u)
        return d / np.linalg.norm(d)

    def u_of_s(self, s):
        s = float(s) % self.length
        return float(np.interp(s, self._s_tab, self._us))

    def s_of_u(self, u):
        u = float(u) % TWO_PI
        return float(np.interp(u, self._us, self._s_tab))

    def hemisphere_axis(self):
        m = self._pts.mean(axis=0)
        nm = np.linalg.norm(m)
        if nm < 1e-9:
            raise Unsupported("curve is not in an open hemisphere")
        v = m / nm
        if np.min(self._pts @ v) < 1e-9:
            raise Unsupported("curve is not in an open hemisphere")
        return v

    def dual(self):
        """Curve of poles of the tangent great circles."""

        def dfun(u):
            g = self.point(u)
            dg = self.deriv(u)
            d2g = self.deriv2(u)
            v = np.cross(g, dg)
            vp = np.cross(g, d2g)
            nv = np.linalg.norm(v)
            return vp / nv - v * (v @ vp) / nv ** 3

        return SphericalCurve(
            lambda u: _unit(np.cross(self.point(u), self.deriv(u))),
            dfun=dfun)


def _unit(v):
    return v / np.linalg.norm(v)


def spherical_cap(psi):
    """Latitude circle at polar angle psi, oriented ccw around the pole."""
    if not 0 < psi < math.pi / 2:
        raise InvalidParameter("cap angle must lie in (0, pi/2)")
    sp, cp = math.sin(psi), math.cos(psi)
    return SphericalCurve(
        lambda u: np.array([sp * math.cos(u), sp * math.sin(u), cp]),
        dfun=lambda u: np.array([-sp * math.sin(u), sp * math.cos(u),
                                 0.0]),
        d2fun=lambda u: np.array([-sp * math.cos(u), -sp * math.sin(u),
                                  0.0]))


def sphere_swept_area(sigma, s1, s2, theta):
    """Area swept by a tangent segment of angular length theta."""
    val, _ = quad(_sweep_weight(sigma), s1, s2, limit=400)
    return (1.0 - math.cos(theta)) * val


def _sweep_weight(sigma):
    def w(u):
        g = sigma.point(u)
        dg = sigma.deriv(u)
        d2g = sigma.deriv2(u)
        return abs(d2g @ np.cross(g, dg)) / (dg @ dg)

    return w


def spherical_outer_step(sigma, area_of_r, X):
    """Pensive outer billiard on the sphere for the curve sigma.

    X is reflected through the tangency of its trailing tangent great
    circle once that tangent segment has swept area_of_r(r). The dual
    chart reverses orientation, so the trailing ray here plays the role
    the forward ray plays in the plane.
    """
    X = _unit(np.asarray(X, dtype=float))
    n_scan = 512
    us = np.linspace(0.0, TWO_PI, n_scan, endpoint=False)

    def g(u):
        p = sigma.point(u)
        tng = sigma.tangent(u)
        return float(X @ _unit(np.cross(p, tng)))

    vals = np.array([g(u) for u in us])
    best = None
    for k in range(n_scan):
        k2 = (k + 1) % n_scan
        if vals[k] == 0.0 or vals[k] * vals[k2] > 0.0:
            continue
        lo, hi = us[k], us[k] + TWO_PI / n_scan
        if g(lo) * g(hi) > 0:
            continue
        ustar = brentq(g, lo, hi, xtol=1e-14)
        p = sigma.point(ustar)
        tng = sigma.tangent(ustar)
        cr = max(-1.0, min(1.0, float(X @ p)))
        r = math.acos(cr)
        cand = math.cos(r) * p - math.sin(r) * tng
        resid = np.linalg.norm(cand - X)
        if resid < 1e-7:
            best = (ustar, r)
    if best is None:
        raise NotExterior("no forward tangent circle through the point")
    ustar, r = best
    target = float(area_of_r(r))
    w = _sweep_weight(sigma)
    fac = 1.0 - math.cos(r)
    if abs(target) < 1e-15 or fac < 1e-15:
        uq = ustar
    else:
        span = target / fac

        def acc(du):
            val, _ = quad(w, ustar, ustar + du, limit=400)
            return val - span

        hi = TWO_PI / 8
        while acc(hi) < 0 and hi < 8 * TWO_PI:
            hi *= 2.0
        if acc(hi) < 0:
            raise InvalidParameter("swept-area target not reachable")
        uq = ustar + brentq(acc, 0.0, hi, xtol=1e-13)
    pq = sigma.point(uq)
    tq = sigma.tangent(uq)
    return math.cos(r) * pq + math.sin(r) * tq


def pole_of_ray(p, d):
    """Pole of the oriented great circle through p with direction d."""
    return _unit(np.cross(p, d))


def spherical_pensive_poles(curve, law, s, theta):
    """Poles of the incoming and outgoing rays of one pensive bounce.

    The bounce happens at arclength s with incidence theta; the slide
    covers ell(theta) of arclength before the equal-angle reflection.
    """
    if not 0 < theta < math.pi:
        raise InvalidParameter("incidence angle must lie in (0, pi)")
    u1 = curve.u_of_s(s)
    p1 = curve.point(u1)
    t1 = curve.tangent(u1)
    n1 = np.cross(p1, t1)
    d_in = math.cos(theta) * t1 - math.sin(theta) * n1
    X = pole_of_ray(p1, d_in)
    s2 = s + law.ell_theta(theta)
    u2 = curve.u_of_s(s2)
    p2 = curve.point(u2)
    t2 = curve.tangent(u2)
    n2 = np.cross(p2, t2)
    d_out = math.cos(theta) * t2 + math.sin(theta) * n2
    Y = pole_of_ray(p2, d_out)
    return X, Y


def sphere_duality_check(curve, law, samples):
    """Compare the pensive billiard on the curve with the pensive
    outer billiard on its dual, sample by sample.

    samples is an iterable of (s, theta) pairs; the returned report
    lists per-sample distances between the outgoing-ray pole and the
    outer-step image, plus their maximum.
    """
    curve.hemisphere_axis()
    dual = curve.dual()

    def a_of_r(r):
        return law.ell_theta(r) * (1.0 - math.cos(r))

    rows = []
    worst = 0.0
    for s, theta in samples:
        X, Y = spherical_pensive_poles(curve, law, s, theta)
        Y_outer = spherical_outer_step(dual, a_of_r, X)
        err = float(np.linalg.norm(Y - Y_outer))
        rows.append((float(s), float(theta), err))
        worst = max(worst, err)
    return {"samples": rows, "max_error": worst}
