"""Pensive outer billiards in tangent coordinates and the spherical
swept-area duality.

A point X outside a strictly convex oval has right-tangent coordinates
(alpha, r): X = gamma + r T with T the forward unit tangent and alpha
the tangent bearing. The pensive outer step slides the tangency until
the bearing advances by theta(r) = 2 a(r) / r^2 and reflects through
the new tangency, preserving the area form mu = r dr ^ dalpha.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import geometry as geo
from .errors import (InvalidParameter, InvalidPoint, NotExterior,
                     Unsupported, finite_float)

TWO_PI = 2.0 * math.pi

# a tangent length below this times |X| + |gamma| is the rounding of
# Re(conj T (X - gamma)): X then lies on the oval within rounding
_R_ROUND = 4.0 * np.finfo(float).eps


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

    f(t) = Im(conj T(t) (X - gamma(t))) is the signed distance from X to
    the tangent line at t, positive on the table's side. On a strictly
    convex table it is positive at every t for an interior point, so a
    scan with no sign change, or no tangency whose r clears the rounding
    of r, means X lies inside the oval or on it, within rounding.
    """
    geo._require_smooth(curve, "the outer map")
    if not curve.is_convex:
        raise Unsupported("the outer map needs a strictly convex table")
    if side not in ("right", "left"):
        raise InvalidParameter("side is 'right' or 'left'")
    X = _as_xy(X)
    zx = complex(X[0], X[1])
    sgn = 1.0 if side == "right" else -1.0

    def f(t):
        return np.imag(np.conj(curve.tangent_t(t)) * (zx - curve.zpoint_t(t)))

    # the right tangency is where f falls through zero, the left where it
    # rises; the scan is f at the curve's table of 512 nodes
    ts, zs, cT = curve._tangent_scan
    for tstar in geo._periodic_zeros(f, ts, np.imag(cT * (zx - zs)), TWO_PI,
                                     direction=-sgn):
        tau = complex(curve.tangent_t(tstar))
        p = complex(curve.zpoint_t(tstar))
        r = sgn * float(np.real(np.conj(tau) * (zx - p)))
        if r > _R_ROUND * (abs(zx) + abs(p)):
            break
    else:
        raise NotExterior("point lies inside or on the oval: no tangent "
                          "ray reaches it")
    alpha = math.atan2(tau.imag, tau.real) % TWO_PI
    return OuterPoint(x=float(X[0]), y=float(X[1]), alpha=alpha, r=r,
                      t=tstar % TWO_PI, side=side)


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
        """theta(r); InvalidParameter unless it is finite (a value too
        large for a float counts as infinite)."""
        try:
            turn = self.theta(r)
        except OverflowError:
            turn = math.inf
        return finite_float(turn, "bearing shift theta(%r)" % r)

    def area(self, r):
        return 0.5 * r * r * self.shift(r)

    @classmethod
    def from_angle(cls, theta_fn, label="angle"):
        return cls(theta=theta_fn, label=label)

    @classmethod
    def from_area(cls, a_fn, label="area"):
        return cls(theta=lambda r: 2.0 * a_fn(r) / (r * r), label=label)

    @classmethod
    def zero(cls):
        return cls(theta=lambda r: 0.0, label="zero")


def _bearing(curve, t):
    """Unwrapped tangent bearing at parameter t: the bearing of the node
    cell holding t plus the tangent's turn from that node, exact while the
    tangent turns by less than pi inside one cell."""
    bear = curve._bearing_nodes
    p, k = divmod(math.floor(t / curve._h), curve._M)
    return bear[k] + p * (bear[-1] - bear[0]) + cmath.phase(
        complex(curve.tangent_t(t)) * curve._dz_nodes[k].conjugate())


def _turn_integral(curve, t0, t1):
    """Tangent turning between parameters, the integral of kappa |gamma'|."""
    return _bearing(curve, t1) - _bearing(curve, t0)


def _advance_tangency(curve, t0, turn):
    """Parameter at which the tangent bearing has advanced by `turn`.

    The target bearing falls in one node cell k of one period; brentq
    solves for it over cells k - 1 to k + 1. The bearing increases on a
    convex table, so the bracket's ends keep clear signs even when the
    target sits on a node, within the rounding of the table.
    """
    bear = curve._bearing_nodes
    p, rem = divmod(_bearing(curve, t0) + turn - bear[0], bear[-1] - bear[0])
    k = min(int(np.searchsorted(bear, bear[0] + rem, side="right")) - 1,
            curve._M - 1)
    tk = curve._t_nodes[k]
    u = brentq(lambda u: _bearing(curve, u) - bear[0] - rem,
               tk - curve._h, tk + 2.0 * curve._h, xtol=1e-15, rtol=8.9e-16)
    return u + TWO_PI * p


def pensive_outer_step(curve, odelay, X):
    """Slide the tangency through the bearing shift, then reflect."""
    return _slide_and_reflect(curve, odelay,
                              tangent_coordinates(curve, X, side="right"))


def _slide_and_reflect(curve, odelay, op):
    """The pensive outer image of the point with right-tangent
    coordinates op."""
    turn = odelay.shift(op.r)
    tq = _advance_tangency(curve, op.t, turn)
    q = curve.zpoint_t(tq)
    tau = curve.tangent_t(tq)
    y = q - op.r * tau
    return np.array([float(np.real(y)), float(np.imag(y))])


def area_preservation_check(curve, odelay, points):
    """Max |det - 1| of the finite-difference Jacobian of the map."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
        raise InvalidPoint("points are a non-empty list of (x, y) pairs")
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


_NODES = 2048
_US = np.linspace(0.0, TWO_PI, _NODES, endpoint=False)
# Fourier coefficients of a node table below this fraction of the largest
# are roundoff. Kept, they put noise of size k eps into the k-th term of
# the derivative, and each dual differentiates its curve's noise again.
_CHOP = 1e-14


class SphericalCurve:
    """Closed curve on the unit sphere, 2 pi periodic in its parameter.

    The curve is its table of points at 2048 equispaced nodes. Points and
    derivatives anywhere are sums of the table's Fourier series with its
    roundoff tail dropped (spectral differentiation: Trefethen, *Spectral
    Methods in MATLAB*, SIAM 2000, ch. 3). Arc length comes from one node
    table: the node speeds integrated spectrally, with cubic Hermite
    interpolation between nodes in both directions.
    """

    def __init__(self, fun):
        self._set_table(np.array([fun(u) for u in _US], dtype=float))

    @classmethod
    def _from_table(cls, pts):
        crv = cls.__new__(cls)
        crv._set_table(pts)
        return crv

    def _set_table(self, pts):
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise InvalidParameter("curve does not lie on the unit sphere")
        self._pts = pts
        self._dual = None
        # the series without its tail and without the Nyquist term, which
        # has no derivative (the node count is even)
        f = np.fft.rfft(pts, axis=0)
        f[np.abs(f) < _CHOP * np.abs(f).max()] = 0.0
        f[-1] = 0.0
        k = np.arange(_NODES // 2 + 1)
        df = 1j * k[:, None] * f
        self._d1 = np.fft.irfft(df, _NODES, axis=0)
        # point(u) and deriv(u) sum the kept terms, each conjugate pair
        # folded into one term of weight 2
        kept = np.flatnonzero(f.any(axis=1))
        w = np.where(kept == 0, 1.0, 2.0)[:, None] / _NODES
        self._k = kept
        self._c = f[kept] * w
        self._dc = df[kept] * w
        # arc length at the nodes: the mean speed times u plus the periodic
        # antiderivative of the rest, its Fourier terms over ik (the mean
        # and the Nyquist term dropped)
        sp = np.linalg.norm(self._d1, axis=1)
        c = np.fft.rfft(sp) / (1j * np.maximum(k, 1))
        c[0] = c[-1] = 0.0
        per = np.fft.irfft(c, _NODES)
        mean = sp.mean()
        self.length = float(TWO_PI * mean)
        # the tables close at the period end u = 2 pi, s = length
        self._us = np.append(_US, TWO_PI)
        self._s_tab = np.append(mean * _US + per - per[0], self.length)
        self._sp = np.append(sp, sp[0])
        # the inverse needs a positive speed: a curve that stops (the dual
        # of a great circle is a point) has no arc-length parameter
        self._dus = 1.0 / self._sp if np.all(sp > 0.0) else None

    def point(self, u):
        return (np.exp(1j * u * self._k) @ self._c).real

    def deriv(self, u):
        return (np.exp(1j * u * self._k) @ self._dc).real

    def tangent(self, u):
        d = self.deriv(u)
        return d / np.linalg.norm(d)

    def u_of_s(self, s):
        """Parameter at arc length s from u = 0, unwrapped."""
        if self._dus is None:
            raise InvalidParameter("curve has zero speed: arc length does "
                                   "not invert")
        p, rem = divmod(finite_float(s, "arc length s"), self.length)
        return _hermite(self._s_tab, self._us, self._dus, rem) + p * TWO_PI

    def s_of_u(self, u):
        """Arc length from u = 0 to u, unwrapped: s_of_u(2 pi) = length."""
        p, rem = divmod(finite_float(u, "parameter u"), TWO_PI)
        return _hermite(self._us, self._s_tab, self._sp, rem) + p * self.length

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
        """Curve of poles of the tangent great circles, built on the first
        call from the node points and derivatives. Its speed is this
        curve's tangent turning rate."""
        if self._dual is None:
            v = np.cross(self._pts, self._d1)
            self._dual = SphericalCurve._from_table(
                v / np.linalg.norm(v, axis=1)[:, None])
        return self._dual


def _hermite(x, y, dy, v):
    """Cubic Hermite interpolant of the table (x, y) with slopes dy at v."""
    k = min(int(np.searchsorted(x, v, side="right")) - 1, x.size - 2)
    h, dl = x[k + 1] - x[k], y[k + 1] - y[k]
    t = (v - x[k]) / h
    d0, d1 = h * dy[k], h * dy[k + 1]
    return float(y[k] + t * (d0 + t * (3.0 * dl - 2.0 * d0 - d1
                                       + t * (d0 + d1 - 2.0 * dl))))


def _unit(v):
    n = np.linalg.norm(v) if np.size(v) == 3 else math.nan
    if not 0.0 < n < math.inf:
        raise InvalidPoint("sphere points are finite nonzero 3-vectors")
    return v / n


def _cross(a, b):
    """Cross product of two 3-vectors, without np.cross's overhead."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def spherical_cap(psi):
    """Latitude circle at polar angle psi, oriented ccw around the pole."""
    if not 0 < psi < math.pi / 2:
        raise InvalidParameter("cap angle must lie in (0, pi/2)")
    sp, cp = math.sin(psi), math.cos(psi)
    return SphericalCurve(
        lambda u: np.array([sp * math.cos(u), sp * math.sin(u), cp]))


def sphere_swept_area(sigma, u1, u2, theta):
    """Area swept by a tangent segment of angular length theta while its
    tangency runs from u1 to u2: (1 - cos theta) times the tangent
    turning, which is the arc length of the dual between u1 and u2."""
    dual = sigma.dual()
    return (1.0 - math.cos(theta)) * (dual.s_of_u(u2) - dual.s_of_u(u1))


def spherical_outer_step(sigma, area_of_r, X):
    """Pensive outer billiard on the sphere for the curve sigma.

    X is reflected through the tangency of its trailing tangent great
    circle once that tangent segment has swept area_of_r(r). The dual
    chart reverses orientation, so the trailing ray here plays the role
    the forward ray plays in the plane. X lies on the tangent great
    circle at u where X is orthogonal to the dual's point there; of the
    two such tangencies the trailing one is where X . dual(u) rises, so
    only that one is polished. The swept area is (1 - cos r) times the
    dual's arc length: the scan and the slide both run on the dual's
    node table.
    """
    X = _unit(np.asarray(X, dtype=float))
    dual = sigma.dual()
    for ustar in geo._periodic_zeros(lambda u: float(X @ dual.point(u)),
                                     dual._us[:-1], dual._pts @ X, TWO_PI,
                                     direction=+1):
        p = sigma.point(ustar)
        tng = sigma.tangent(ustar)
        r = math.acos(max(-1.0, min(1.0, float(X @ p))))
        if np.linalg.norm(math.cos(r) * p - math.sin(r) * tng - X) < 1e-7:
            break
    else:
        raise NotExterior("no forward tangent circle through the point")
    target = finite_float(area_of_r(r), "swept area a(%r)" % r)
    fac = 1.0 - math.cos(r)
    uq = ustar
    if abs(target) >= 1e-15 and fac >= 1e-15:
        uq = dual.u_of_s(dual.s_of_u(ustar) + target / fac)
    return math.cos(r) * sigma.point(uq) + math.sin(r) * sigma.tangent(uq)


def pole_of_ray(p, d):
    """Pole of the oriented great circle through p with direction d."""
    return _unit(_cross(p, d))


def spherical_pensive_poles(curve, law, s, theta):
    """Poles of the incoming and outgoing rays of one pensive bounce.

    The bounce happens at arclength s with incidence theta; the slide
    covers ell(theta) of arclength before the equal-angle reflection.
    """
    if not 0 < theta < math.pi:
        raise InvalidParameter("incidence angle must lie in (0, pi)")

    def pole(s, side):
        # ray at arclength s, turned by theta off the tangent to the side
        u = curve.u_of_s(s)
        p, t = curve.point(u), curve.tangent(u)
        return pole_of_ray(p, math.cos(theta) * t
                           + side * math.sin(theta) * _cross(p, t))

    return pole(s, -1.0), pole(s + law.ell_theta(theta), 1.0)


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
