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
from functools import partial

import numpy as np

from . import geometry as geo
from .errors import (InvalidParameter, InvalidPoint, NotExterior,
                     Unsupported, finite_float)

TWO_PI = 2.0 * math.pi

# a tangent length below this times |X| + |gamma| is the rounding of
# Re(conj T (X - gamma)): X then lies on the oval within rounding
_R_ROUND = 4.0 * np.finfo(float).eps
# the batched Newton polishes stop after a step under a few ulps of 2 pi
_STEP_TOL = 4e-15


def _as_xy(point):
    arr = np.asarray(point, dtype=float).ravel()
    if arr.size != 2 or not np.all(np.isfinite(arr)):
        raise InvalidPoint("points are (x, y) pairs")
    return arr


def _require_oval(curve):
    geo._require_smooth(curve, "the outer map")
    if not curve.is_convex:
        raise Unsupported("the outer map needs a strictly convex table")


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
    the tangent line at t, positive on the table's side; each sign change
    of its scan is polished in its cell (:func:`_tangency_in_cell`), the
    first candidate whose r clears the rounding winning. On a strictly
    convex table f is positive at every t for an interior point, so a
    scan with no sign change, or no tangency whose r clears the rounding
    of r, means X lies inside the oval or on it, within rounding.
    """
    _require_oval(curve)
    if side not in ("right", "left"):
        raise InvalidParameter("side is 'right' or 'left'")
    X = _as_xy(X)
    zx = complex(X[0], X[1])
    sgn = 1.0 if side == "right" else -1.0
    # the right tangency is where f falls through zero, the left where it
    # rises; the scan is f at the curve's table of 512 nodes
    ts, zs, cT = curve._tangent_scan
    vals = np.imag(cT * (zx - zs))
    on_node, crossing, nxt = geo._scan_zeros(vals, direction=-sgn)
    for i in np.flatnonzero(on_node | crossing).tolist():
        tstar = float(ts[i])
        if crossing[i]:
            # the polish's residual -sgn f rises through the root
            tstar = _tangency_in_cell(
                curve, zx, sgn, tstar,
                float(ts[i + 1]) if i + 1 < ts.size else TWO_PI,
                -sgn * float(vals[i]), -sgn * float(nxt[i]))
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


def _tangency_in_cell(curve, zx, sgn, a, b, fa, fb):
    """The side's tangency in the scan cell [a, b], whose scan ends read
    fa < 0 < fb in the sign of :func:`_tangency_step`'s residual, polished
    by :func:`geometry._newton_one`. A scan end this close to 0 may
    differ in sign from its one-point residual (a point on the oval, or
    a tangency on a cell end), so both ends are read again there: if they
    do not change sign, the zero lies within rounding of the end whose
    sign disagrees with the scan, or on the end where it is 0."""
    if min(-fa, fb) <= 64.0 * _R_ROUND * (abs(zx) + curve._zmax):
        with np.errstate(divide="ignore", invalid="ignore"):
            ga = _tangency_step(curve, a, zx, sgn)[0]
            gb = _tangency_step(curve, b, zx, sgn)[0]
        if ga * gb >= 0.0:
            return b if ga < 0.0 else a
    return geo._newton_one(partial(_tangency_step, curve), a, a, b, fa, fb,
                           (zx, sgn), _STEP_TOL)


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


def _bearing(curve, t, dz=None):
    """Unwrapped tangent bearing at parameter t, given z'(t) there or not:
    the bearing of the node cell holding t plus the tangent's turn from
    that node, exact while the tangent turns by less than pi inside one
    cell."""
    bear = curve._bearing_nodes
    p, k = divmod(math.floor(t / curve._h), curve._M)
    if dz is None:
        dz = complex(curve._dzf(t % TWO_PI))
    return float(bear[k] + p * (bear[-1] - bear[0])) + cmath.phase(
        dz * complex(curve._dz_nodes[k]).conjugate())


def _turn_integral(curve, t0, t1):
    """Tangent turning between parameters, the integral of kappa |gamma'|."""
    return _bearing(curve, t1) - _bearing(curve, t0)


def _advance_one(curve, t0, turn):
    """:func:`_advance_tangencies` for one float t0 and turn, in Python
    floats: the landing as u and its whole periods p. The bearing
    increases on a convex table, so the bracket over node cells k - 1 to
    k + 1 keeps clear signs at its ends even when the target sits on a
    node, within the rounding of the table."""
    bear, h, m = curve._bearing_nodes, curve._h, curve._M
    full = float(bear[-1] - bear[0])
    # the turn's whole periods come off first, fmod being exact, so the
    # target is rounded at most at two periods, not at the turn's size
    r = math.fmod(turn, full)
    p, rem = divmod(_bearing(curve, t0) + r - float(bear[0]), full)
    p += round((turn - r) / full)
    target = float(bear[0]) + rem
    k = min(int(np.searchsorted(bear, target, side="right")) - 1, m - 1)
    # the bracket's end residuals, read from the table at nodes k - 1 and
    # k + 2 of the period unwrapped
    lo = float(bear[k - 1]) if k else float(bear[-2]) - full
    hi = float(bear[k + 2]) if k + 2 <= m else float(bear[1]) + full
    bk, tk = float(bear[k]), float(curve._t_nodes[k])
    dzf, d2zf = curve._dzf, curve._d2zf

    def step(u):
        uw = u % TWO_PI
        dz, d2z = complex(dzf(uw)), complex(d2zf(uw))
        f = _bearing(curve, u, dz) - target
        return f, -f * (dz.real ** 2 + dz.imag ** 2) / (
            dz.real * d2z.imag - dz.imag * d2z.real)

    u = geo._newton_one(
        step, tk + h * (target - bk) / (float(bear[k + 1]) - bk), tk - h,
        tk + 2.0 * h, lo - target, hi - target, (), _STEP_TOL)
    return u, p


def _advance_tangency(curve, t0, turn):
    """Parameter at which the tangent bearing has advanced by `turn`,
    unwrapped: u + 2 pi p of :func:`_advance_one`."""
    u, p = _advance_one(curve, t0, turn)
    return u + TWO_PI * p


def pensive_outer_step(curve, odelay, X):
    """Slide the tangency through the bearing shift, then reflect."""
    return _slide_and_reflect(curve, odelay,
                              tangent_coordinates(curve, X, side="right"))


def _slide_and_reflect(curve, odelay, op):
    """The pensive outer image of the point with right-tangent
    coordinates op. z and T are read at the wrapped landing u, the
    whole periods of the slide kept apart, as the batch does."""
    u = _advance_one(curve, op.t, odelay.shift(op.r))[0] % TWO_PI
    dz = complex(curve._dzf(u))
    y = complex(curve._zf(u)) - op.r * (dz / abs(dz))
    return np.array([y.real, y.imag])


def _outer_images(curve, odelay, X):
    """Pensive outer images of the exterior points X, an (n, 2) array of
    finite floats, all rows at once: the batched
    :func:`pensive_outer_step`.

    The tangencies are the falling sign changes of the rows' 512-node
    scans, the slides the parameters where the bearing reaches its
    target; one safeguarded Newton (:func:`geometry._newton_rows`)
    polishes all rows of each, stopping under a few ulps of 2 pi. Per
    row the rules are the scalar step's, and so are the errors
    (Unsupported, NotExterior, InvalidParameter from the shift). The
    shift odelay.shift is called per row on a float, since a user's
    callable need not take arrays.

    The input size picks the path. One point steps on Python floats
    (:func:`geometry._newton_one`), many points step here. Measured on a
    2-vCPU x86-64 VM on ellipse(2, 1) and neumann_oval(0.3) with
    a(r) = r^3, one point takes 0.10-0.12 ms on the scalar path and
    0.45-0.84 ms as a one-row batch, and 40 points 4.6-6.0 ms one by one
    and 0.7-0.9 ms as one batch. So pensive_outer_step,
    tangent_coordinates and the CLI step one point at a time, and
    area_preservation_check steps its 4n points here.
    """
    _require_oval(curve)
    t, r = _right_tangencies(curve, X[:, 0] + 1j * X[:, 1])
    turn = np.array([odelay.shift(v) for v in r.tolist()])
    tq = geo._wrap(_advance_tangencies(curve, t, turn)[0])
    dz = curve._dzf(tq)
    y = curve._zf(tq) - r * (dz / np.abs(dz))
    return np.stack([y.real, y.imag], axis=-1)


def _right_tangencies(curve, zx):
    """Right tangencies (t, r) of the exterior points zx, an array.

    The candidates are the falling sign changes of each row's scan,
    their bracket ends the scan values, polished at once with the
    derivative -kappa |z'| Re(conj T (X - z)); as in
    :func:`tangent_coordinates`, a zero on a node is that node, and the
    first candidate by cell whose r clears the rounding wins.
    NotExterior if a row has none."""
    ts, zs, cT = curve._tangent_scan
    vals = np.imag(cT * (zx[:, None] - zs))
    on_node, crossing, nxt = geo._scan_zeros(vals, direction=-1)
    row, cell = np.nonzero(on_node | crossing)
    t = ts[cell]
    pol = np.flatnonzero(crossing[row, cell])
    if pol.size:
        i, j = row[pol], cell[pol]
        t[pol] = geo._newton_rows(
            partial(_tangency_step, curve), ts[j], ts[j],
            np.append(ts[1:], TWO_PI)[j], -vals[i, j], -nxt[i, j], (zx[i],),
            _STEP_TOL)
    tw = geo._wrap(t)
    dz = curve._dzf(tw)
    p = curve._zf(tw)
    r = np.real(np.conj(dz / np.abs(dz)) * (zx[row] - p))
    ok = np.flatnonzero(r > _R_ROUND * (np.abs(zx[row]) + np.abs(p)))
    rows, first = np.unique(row[ok], return_index=True)
    if rows.size < zx.size:
        raise NotExterior("point lies inside or on the oval: no tangent "
                          "ray reaches it")
    return tw[ok[first]], r[ok[first]]


def _tangency_step(curve, t, zx, sgn=1.0):
    """The tangency polish's residual -sgn Im(conj z' (X - z)) at t, which
    rises through the side's root, and its Newton increment from the
    derivative -kappa |z'| Re(conj T (X - z)) on either side; t and zx are
    floats or arrays of rows."""
    tw = geo._wrap(t)
    dz = curve._dzf(tw)
    w = np.conj(dz) * (zx - curve._zf(tw))
    return -sgn * w.imag, (w.imag / w.real * (dz.real ** 2 + dz.imag ** 2)
                           / np.imag(np.conj(dz) * curve._d2zf(tw)))


def _bearings(curve, t, dz):
    """Unwrapped tangent bearings at the parameters t, an array, given
    z'(t) there: :func:`_bearing` in array arithmetic."""
    p, k = np.divmod(np.floor(t / curve._h).astype(int), curve._M)
    bear = curve._bearing_nodes
    return bear[k] + p * (bear[-1] - bear[0]) + np.angle(
        dz * np.conj(curve._dz_nodes[k]))


def _advance_tangencies(curve, t0, turn):
    """Parameters at which the tangent bearing has advanced by the turns
    from the parameters t0, arrays: :func:`_advance_tangency` with all
    rows polished at once, returned as u in [-h, 2 pi + 2 h] and the
    whole periods p of the landing u + 2 pi p, so that u keeps the bits
    the unwrapped sum would round off. Each bracket's end residuals are
    read from the bearing table at nodes k - 1 and k + 2, and the
    derivative is kappa |z'| = Im(conj z' z'') / |z'|^2."""
    bear, h, m = curve._bearing_nodes, curve._h, curve._M
    full = bear[-1] - bear[0]
    # the turns' whole periods come off first, as in _advance_one
    r = np.fmod(turn, full)
    p, rem = np.divmod(_bearings(curve, t0, curve._dzf(t0)) + r - bear[0],
                       full)
    p += np.round((turn - r) / full)
    target = bear[0] + rem
    k = np.minimum(np.searchsorted(bear, target, side="right") - 1, m - 1)
    # the bearings at nodes -1 to m + 1, one period unwrapped
    ext = np.concatenate(([bear[-2] - full], bear, [bear[1] + full]))
    tk = curve._t_nodes[k]

    def step(u, target):
        tw = geo._wrap(u)
        dz = curve._dzf(tw)
        f = _bearings(curve, u, dz) - target
        return f, -f * (dz.real ** 2 + dz.imag ** 2) / np.imag(
            np.conj(dz) * curve._d2zf(tw))

    u = geo._newton_rows(
        step, tk + h * (target - bear[k]) / (bear[k + 1] - bear[k]),
        tk - h, tk + 2.0 * h, ext[k] - target, ext[k + 3] - target,
        (target,), _STEP_TOL)
    return u, p


def area_preservation_check(curve, odelay, points):
    """Max |det - 1| of the finite-difference Jacobian of the map.

    The 4n displaced points (each point moved by +-h in x and in y) are
    stepped as one batch (:func:`_outer_images`)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts) or \
            not np.isfinite(pts).all():
        raise InvalidPoint("points are a non-empty list of finite (x, y) "
                           "pairs")
    h = 1e-6 * max(1.0, curve.perimeter / TWO_PI)
    d = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    y = _outer_images(curve, odelay,
                      (pts[:, None, :] + d).reshape(-1, 2)).reshape(-1, 4, 2)
    cx = (y[:, 0] - y[:, 1]) / (2 * h)
    cy = (y[:, 2] - y[:, 3]) / (2 * h)
    det = cx[:, 0] * cy[:, 1] - cx[:, 1] * cy[:, 0]
    return float(np.max(np.abs(det - 1.0)))


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
