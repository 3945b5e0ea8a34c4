"""Boundary curves and chord geometry.

Smooth ovals are represented by an analytic parametrization z(t), t in
[0, 2*pi), held as complex-valued callables, plus cumulative arc-length
tables so every public operation works in arc length s. Orientation is
counterclockwise with the enclosed region on the left of the tangent;
the inward normal is i*tangent in complex form.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    CornerHit,
    CornerUndefined,
    InvalidAngle,
    InvalidParameter,
    Unsupported,
    finite_float,
    whole_count,
)

TWO_PI = 2.0 * math.pi

# incidence angles closer than this to 0 or pi are rejected as tangential
ANGLE_TOL = 1e-6

# chord landings within this arc length of a polygon vertex abort
CORNER_TOL = 1e-9

_GL_X, _GL_W = leggauss(12)

# cells of the chord window's turning table
_SCAN_CELLS = 64
# (row, node) pairs per chunk of the first-hit scan: its memory bound
_HIT_PAIRS = 2 ** 18


def _wrap(t):
    return np.mod(t, TWO_PI)


def wrap_to_half(x, period):
    """Reduce x modulo period into [-period/2, period/2)."""
    return (x + 0.5 * period) % period - 0.5 * period


def brentq(f, a, b, xtol, rtol):
    """scipy.optimize.brentq, imported on the first call. No pensive code
    calls it: every bracketed root is polished by :func:`_newton_one`.
    The name stays only because the benchmark's span tracer looks it up
    (``bench/spans.py`` FOREIGN), and goes with that entry."""
    from scipy.optimize import brentq
    return brentq(f, a, b, xtol=xtol, rtol=rtol)


def _periodic_zeros(step, grid, vals, period, direction=0):
    """Zeros of a period-periodic scalar residual, each once, ascending by
    scan cell; step(x) gives the residual at x and its Newton increment.

    grid is one period of ascending scan points and vals the residual
    there. A zero on a node is returned as that node. The nodes and cells
    are picked in one array pass over the scan, so step reads only the
    ends of the picked cells. A cell whose end residuals change sign is
    polished from them by :func:`_root_in`, to brentq's xtol + rtol |x|
    (xtol 1e-15, rtol 8.9e-16). Where the scalar residual disagrees in
    sign with the scan at one end of such a cell (vectorized and scalar
    evaluation, or the residual at both ends of the period, can differ by
    an ulp), the zero lies within rounding of that end, and the end is
    returned. direction -1 keeps only the zeros where the scan falls
    (+ to -), +1 only those where it rises, 0 every zero.
    """
    on_node, crossing, _ = _scan_zeros(vals, direction)
    ends = np.append(grid[1:], grid[0] + period)
    zeros = []
    for i in np.flatnonzero(on_node | crossing):
        a = float(grid[i])
        if on_node[i]:
            zeros.append(a)
            continue
        b = float(ends[i])
        sa, sb = step(a)[0], step(b)[0]
        if min(sa, sb) <= 0.0 <= max(sa, sb):
            zeros.append(_root_in(step, a, b, sa, sb,
                                  1e-15 + 8.9e-16 * max(abs(a), abs(b))))
        else:
            zeros.append(b if (sa < 0.0) == (vals[i] < 0.0) else a)
    return zeros


def _scan_zeros(vals, direction=0):
    """The zeros of periodic scans along the last axis of vals, as masks:
    the nodes where a scan is zero, and the cells (a node and the next,
    the last closing the period) where it changes sign; direction as in
    :func:`_periodic_zeros`. Also the scan at each node's next node."""
    # each node's neighbours, read as slices of the scan padded by one
    # value at each end of the period
    ext = np.concatenate((vals[..., -1:], vals, vals[..., :1]), axis=-1)
    nxt = ext[..., 2:]
    on_node = (vals == 0.0) & (direction * (nxt - ext[..., :-2]) >= 0.0)
    # signs, not a product, which can underflow to 0 on subnormals
    crossing = (((vals < 0.0) != (nxt < 0.0)) & (vals != 0.0) & (nxt != 0.0)
                & (direction * nxt >= 0.0))
    return on_node, crossing, nxt


class BoundaryCurve:
    """Closed smooth oval given by an analytic parametrization.

    Use the factory functions :func:`disk`, :func:`ellipse`,
    :func:`neumann_oval` and :func:`curve_from_points` rather than the
    constructor.
    """

    kind = "generic"
    # the landing parameters of chords from a closed form,
    # _land_t(curve, t0, theta, cd) for rays leaving z(t0) at angles theta,
    # cd the conjugate ray directions; factories that have one set it
    _land_t = None

    def __init__(self, kind, zfun, dzfun, d2zfun, params=None, nodes=2048,
                 arclen_exact=None, speed_series=None):
        """arclen_exact, when given, is the arc length from 0 in closed
        form. speed_series, when given, is the cosine series of an even
        speed of period pi: coefficients c[k] of cos(2kt). Otherwise arc
        length is integrated by Gauss-Legendre panels."""
        self.kind = kind
        self.params = dict(params or {})
        self._zf = zfun
        self._dzf = dzfun
        self._d2zf = d2zfun
        self._arclen_exact = arclen_exact
        self._series = None
        if speed_series is not None:
            c = np.asarray(speed_series, dtype=float)
            k = np.arange(1, len(c))
            # arc length is c[0] t + sum_k amp[k] sin(2kt)
            self._series = (c[0], k, c[1:] / (2 * k))
        self._build_tables(int(nodes))

    # -- construction ------------------------------------------------

    def _build_tables(self, m):
        self._M = m
        self._h = TWO_PI / m
        t = np.arange(m) * self._h
        self._t_nodes = t
        self._t_closed = np.append(t, TWO_PI)
        self._z_nodes = self._zf(t)
        if self._arclen_exact is not None:
            s = self._arclen_exact(self._t_closed)
        elif self._series is not None:
            # the series integrated term by term, at most 2^20 terms at a
            # time, each sine read as Im e^{2ikt}: freeing that complex
            # block lifts glibc's mmap threshold above the per-call arrays
            # of the outer and orbit solvers, which a smaller one would
            # leave to a fresh mmap, with page faults, on every call
            c0, k, amp = self._series
            tc = self._t_closed
            rows = 2 ** 20 // max(len(k), 1)
            s = c0 * tc + np.concatenate([
                (np.exp(2j * k * tc[i:i + rows, None]).imag * amp).sum(axis=-1)
                for i in range(0, len(tc), rows)])
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
        z = self._z_nodes
        dz = self._dz_nodes = self._dzf(t)
        # per scan cell: the tangent's largest turning rate (per unit of
        # parameter) at the nodes of the cell and of its two neighbours
        cell = np.maximum.reduceat(np.abs(kap * dz),
                                   np.arange(_SCAN_CELLS) * m // _SCAN_CELLS)
        self._turn_near = np.maximum(cell, np.maximum(np.roll(cell, 1),
                                                      np.roll(cell, -1)))
        # unwrapped tangent bearing at the nodes, closed by the full turn at
        # t = 2 pi: each node's own angle plus a whole number of turns
        a = np.angle(np.append(dz, dz[0]))
        self._bearing_nodes = a - TWO_PI * np.concatenate(
            [[0.0], np.cumsum(np.round(np.diff(a) / TWO_PI))])
        self._zmax = float(np.abs(z).max())
        # signed area by the periodic trapezoid rule (spectral accuracy)
        self.area = float(0.5 * np.mean(np.imag(np.conj(z) * dz)) * TWO_PI)

    @functools.cached_property
    def _tangent_scan(self):
        """The outer map's tangency scan, built on first use: 512
        equispaced parameters, the points there and the conjugate unit
        tangents."""
        ts = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        return ts, self.zpoint_t(ts), np.conj(self.tangent_t(ts))

    @functools.cached_property
    def _turning_nodes(self):
        """The tangent's turning at the closed node table, from 0 at t = 0
        to 2 pi at t = 2 pi, built on first use. On a convex oval it is
        the unwrapped bearing less its first node. On a non-convex table
        it is the cumulative absolute turning, each node cell counting at
        least half the mean turning per unit arc length, 2 pi / P, so that
        no nearly straight stretch about an inflection turns by almost
        nothing, scaled to end at 2 pi; it never falls."""
        bear = self._bearing_nodes
        if self.is_convex:
            return bear - bear[0]
        floor = 0.5 * TWO_PI / self.perimeter * np.diff(self._s_nodes)
        turn = np.concatenate([[0.0], np.cumsum(np.maximum(
            np.abs(np.diff(bear)), floor))])
        return turn * (TWO_PI / turn[-1])

    # -- parameter-space evaluation ------------------------------------

    def zpoint_t(self, t):
        return self._zf(_wrap(np.asarray(t, dtype=float)))

    def _zdiff(self, t, t0):
        """z(t) - z(t0); factories that can write it without cancellation
        set their own on the instance."""
        return self.zpoint_t(t) - self.zpoint_t(t0)

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
        """Arc length from t=0 to t, vectorized, t in [0, 2*pi].

        Unless it is in closed form, it is the table at the node t0 below
        t plus the arc length from t0 to t: the speed series' terms
        integrated, each difference of sines written as a product, or
        12-point Gauss-Legendre. The increment is small, so its rounding
        stays far below an ulp of the sum: arc length then rounds
        monotonically between neighbouring floats, as the Newton passes
        of :meth:`t_of_s` need to stop early.
        """
        t = np.asarray(t, dtype=float)
        if self._arclen_exact is not None:
            return self._arclen_exact(t)
        k = np.minimum(np.maximum((t / self._h).astype(int), 0), self._M - 1)
        t0 = k * self._h
        if self._series is not None:
            # sin(2jt) - sin(2jt0) = 2 cos(j(t + t0)) sin(j(t - t0))
            c0, j, amp = self._series
            d = t - t0
            terms = np.cos(j * (t + t0)[..., None]) * np.sin(j * d[..., None])
            return self._s_nodes[k] + (c0 * d
                                       + 2.0 * (terms * amp).sum(axis=-1))
        half = 0.5 * (t - t0)
        tq = (t0 + half)[..., None] + half[..., None] * _GL_X
        sp = np.abs(self._dzf(_wrap(tq.reshape(-1)))).reshape(tq.shape)
        return self._s_nodes[k] + (sp @ _GL_W) * half

    def t_of_s(self, s):
        """Invert arc length: up to 8 Newton passes from the table guess.

        The passes stop early once one leaves every entry unchanged, or
        returns every entry to its value of two passes before: later
        passes would repeat that fixed point or 2-cycle, so the result is
        bit for bit that of all 8 passes, and no entry depends on the
        others in the array. InvalidParameter unless every arc is finite.
        """
        s = np.asarray(s, dtype=float)
        # one arc, the common call, is checked without a ufunc call
        if not (math.isfinite(s.item()) if s.size == 1
                else np.isfinite(s).all()):
            raise InvalidParameter("arc length must be finite")
        s = np.mod(s, self.perimeter)
        t = np.interp(s, self._s_nodes, self._t_closed)
        prev = None
        for k in range(1, 9):
            f = self.arclen_t(t) - s
            tn = np.minimum(np.maximum(t - f / np.abs(self._dzf(_wrap(t))),
                                       0.0), TWO_PI)
            if (tn == t).all():
                return tn
            if prev is not None and (tn == prev).all():
                # a 2-cycle: pass 8 lands on tn when 8 - k is even
                return tn if k % 2 == 0 else t
            prev, t = t, tn
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
        if not np.all(np.isfinite(v)):
            raise InvalidParameter("polygon vertices must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            area = 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1)
                                      - v[:, 1] * np.roll(v[:, 0], -1)))
        if not math.isfinite(area):
            raise InvalidParameter("polygon area overflows")
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
        """(nearest vertex, arc length to it) per entry of scalar or array s."""
        d = np.abs(wrap_to_half(np.asarray(s, dtype=float)[..., None]
                                - self.cum_s[:-1], self.perimeter))
        j, gap = d.argmin(axis=-1), d.min(axis=-1)
        return (int(j), float(gap)) if np.ndim(s) == 0 else (j, gap)

    def point(self, s):
        i, u = self.edge_of(s)
        return self.vertices[i] + u[..., None] * self.edge_tan[i]

    def tangent(self, s):
        """Unit tangent, shape s.shape + (2,); CornerUndefined if any entry
        sits on a vertex."""
        j, gap = self.nearest_vertex_gap(s)
        on = np.flatnonzero(np.asarray(gap) < 1e-12 * max(1.0, self.perimeter))
        if on.size:
            raise CornerUndefined("tangent undefined at vertex %d"
                                  % np.ravel(j)[on[0]])
        i, _ = self.edge_of(s)
        return self.edge_tan[i].copy()

    def curvature(self, s):
        self.tangent(s)
        return 0.0 if np.ndim(s) == 0 else np.zeros(np.shape(s))


# -- factories ---------------------------------------------------------


def disk(radius=1.0):
    r = finite_float(radius, "radius")
    if r <= 0:
        raise InvalidParameter("radius must be positive")
    return _with_half_angle_diff(r, r, BoundaryCurve(
        "disk",
        lambda t: r * np.exp(1j * t),
        lambda t: 1j * r * np.exp(1j * t),
        lambda t: -r * np.exp(1j * t),
        params={"radius": r},
        nodes=1024,
        arclen_exact=lambda t: r * np.asarray(t, dtype=float),
    ))


def _with_half_angle_diff(a, b, curve):
    """Give the ellipse z(t) = a cos t + i b sin t (the disk: a = b = r)
    its exact chord vector z(t) - z(t0) = 2 sin((t - t0)/2) z'((t + t0)/2)
    and its landings in closed form, the hook ``_land_t``.

    (x, y) -> (x / a, y / b) takes each chord to a chord of the unit
    circle, and one that leaves e^{i t0} at angle theta' to the tangent
    there lands at t0 + 2 theta', theta' = arg(d' (-i) e^{-i t0}) for the
    pulled-back ray direction d'. With d along z'(t0) e^{i theta}, the
    tangential parts cancel by hand: tan theta' = |z'(t0)|^2 sin(theta) /
    (ab cos(theta) + (b^2 - a^2) sin(t0) cos(t0) sin(theta)), which keeps
    theta' to a few ulps relative at both grazing ends."""
    dzf = curve._dzf
    curve._zdiff = lambda t, t0: (2.0 * np.sin(0.5 * (t - t0)) *
                                  dzf(0.5 * (t + t0)))

    def land_t(_curve, t0, theta, _cd):
        s, c, st = np.sin(t0), np.cos(t0), np.sin(theta)
        return t0 + 2.0 * np.arctan2(st * (a * a * s * s + b * b * c * c),
                                     a * b * np.cos(theta)
                                     + (b * b - a * a) * s * c * st)

    curve._land_t = land_t
    return curve


def ellipse(a, b):
    a, b = finite_float(a, "a"), finite_float(b, "b")
    if a <= 0 or b <= 0:
        raise InvalidParameter("semi-axes must be positive")
    from scipy.special import ellipeinc

    # arc length in closed form: |z'| = b*sqrt(1 - m sin^2 t), m = 1 - (a/b)^2
    m = 1.0 - (a / b) ** 2

    def arclen(t):
        return b * ellipeinc(np.asarray(t, dtype=float), m)

    aspect = max(a / b, b / a)
    return _with_half_angle_diff(a, b, BoundaryCurve(
        "ellipse",
        lambda t: a * np.cos(t) + 1j * b * np.sin(t),
        lambda t: -a * np.sin(t) + 1j * b * np.cos(t),
        lambda t: -a * np.cos(t) - 1j * b * np.sin(t),
        params={"a": a, "b": b},
        nodes=int(min(2 ** 18, max(2048, 64 * aspect))),
        arclen_exact=arclen,
    ))


class NeumannMap:
    """Conformal map z = F(Z) = a Z / (1 - lam^2 Z^2) of the unit disk onto
    the Neumann oval of area pi, with F', F'' and the inverse.

    F, Fp, Fpp and inv take scalars or arrays.
    """

    def __init__(self, lam):
        if not 0 <= lam < 1:
            raise InvalidParameter("lam must lie in [0, 1)")
        self.lam = float(lam)
        self.a = (1.0 - self.lam ** 4) / math.sqrt(1.0 + self.lam ** 4)
        self.l2 = self.lam * self.lam

    def F(self, Z):
        return self.a * Z / (1.0 - self.l2 * Z * Z)

    def Fp(self, Z):
        return self.a * (1.0 + self.l2 * Z * Z) / (1.0 - self.l2 * Z * Z) ** 2

    def Fpp(self, Z):
        return (2.0 * self.a * self.l2 * Z * (3.0 + self.l2 * Z * Z) /
                (1.0 - self.l2 * Z * Z) ** 3)

    def inv(self, z):
        """F^-1(z), the branch with F^-1(z) ~ z / a; the root of
        l2 z Z^2 + a Z - z = 0 written without cancellation at small z.
        Arrays take np.sqrt; one complex point takes cmath.sqrt, the
        cheaper call on the vortex velocities' scalar path."""
        sqrt = np.sqrt if isinstance(z, np.ndarray) else cmath.sqrt
        return 2.0 * z / (self.a + sqrt(self.a * self.a +
                                        4.0 * self.l2 * z * z))


def neumann_oval(lam):
    """Image of the unit circle under z = a*Z/(1 - lam^2 Z^2), area pi.

    Convex for small lam, pinched toward an hourglass as lam grows; the
    map degenerates at lam = 1. A convex oval (lam below sqrt(2) - 1)
    lands its chords by a cubic, the hook ``_land_t``; the others take
    the ray's first crossing.
    """
    m = NeumannMap(lam)

    def zf(t):
        return m.F(np.exp(1j * np.asarray(t, dtype=float)))

    def dzf(t):
        Z = np.exp(1j * np.asarray(t, dtype=float))
        return m.Fp(Z) * 1j * Z

    def d2zf(t):
        Z = np.exp(1j * np.asarray(t, dtype=float))
        return -(m.Fpp(Z) * Z * Z + m.Fp(Z) * Z)

    def zdiff(t, t0):
        # F(Z) - F(Z0) = a (Z - Z0)(1 + l2 Z Z0) / ((1 - l2 Z^2)(1 - l2 Z0^2)),
        # Z - Z0 = 2i sin(d/2) w with d = t - t0 and w = e^{i(t + t0)/2};
        # the denominator, with u = l2 w^2 = l2 Z Z0, is 1 - 2u cos d + u^2
        d = t - t0
        w = np.exp(0.5j * (t + t0))
        u = m.l2 * (w * w)
        return (2j * m.a * np.sin(0.5 * d) * w * (1.0 + u)
                / (1.0 + u * (u - 2.0 * np.cos(d))))

    # the speed |F'(e^{it})| is even, of period pi and analytic in
    # w = e^{2it} for l2 < |w| < 1/l2, so its cosine coefficients fall like
    # l2^k: K terms reach double precision, read off one rfft
    K = int(17.0 / -math.log10(m.l2)) + 4 if m.l2 > 0.0 else 0
    n = 4 * K + 4
    coef = np.fft.rfft(np.abs(dzf(np.pi * np.arange(n) / n))).real[:K + 1] / n
    coef[1:] *= 2.0
    curve = BoundaryCurve("neumann_oval", zf, dzf, d2zf,
                          params={"lam": m.lam, "a": m.a}, nodes=4096,
                          speed_series=coef)

    def land_t(curve, t0, theta, cd):
        # item 20's cubic (ROADMAP) in the real coordinate y = tan(delta/2 -
        # theta), delta = t2 - t0. With A = l2 e^{2i t0}, sigma = e^{i
        # delta/2} and C = e^{-i theta} (1 + conj A)(1 - A), a positive
        # multiple of item 20's, conj(d) (z(t2) - z(t0)) is 2a sin(delta/2)
        # times a positive multiple of C sigma (1 + A sigma^2) / (1 -
        # A sigma^4), and the landing makes that real: Im(p3 sigma^3 +
        # p2 sigma) = 0, p3 = 2 Re(C) A, p2 = C + conj(C) l2^2. With sigma =
        # e^{i theta} (1 + iy) / |1 + iy| that is a real cubic in y. On a
        # convex oval its lead coefficient and its depressed form's p are
        # positive (the disk's is y^3 + y), so its one real root is the
        # hyperbolic form's; the polish in the window keeps the one landing
        # there, whatever the start
        shape = cd.shape
        t0, theta, cd = (x.ravel() for x in np.broadcast_arrays(t0, theta,
                                                                cd))
        A = m.l2 * np.exp(2j * t0)
        e = np.exp(1j * theta)
        # (1 + conj A)(1 - A)
        b = (1.0 - m.l2 * m.l2) - 2j * A.imag
        # p2 e^{i theta} and p3 e^{3i theta}
        p2 = b + np.conj(b) * (m.l2 * m.l2) * (e * e)
        p3 = 2.0 * (b / e).real * A * (e * e * e)
        a3 = p2.real - p3.real
        b2, b1, b0 = ((p2.imag - 3.0 * p3.imag) / a3,
                      (p2.real + 3.0 * p3.real) / a3, (p2.imag + p3.imag) / a3)
        p = b1 - b2 * b2 / 3.0
        q = b0 - b2 * (b1 - 2.0 * b2 * b2 / 9.0) / 3.0
        k = np.sqrt(p / 3.0)
        y = -2.0 * k * np.sinh(np.arcsinh(0.5 * q / k ** 3) / 3.0) - b2 / 3.0
        lo, hi = _window(curve, t0, theta)
        f = np.imag(cd * zdiff(np.stack([lo, hi]), t0))
        _require_resolved(curve, f)
        if not ((f[0] < 0.0) & (f[1] > 0.0)).all():
            raise InvalidAngle("chord landing not bracketed in its window")
        return _polish(curve, t0 + 2.0 * (theta + np.arctan(y)),
                       (lo, hi, *f), t0, cd, zdiff).reshape(shape)

    curve._zdiff = zdiff
    if curve.is_convex:
        curve._land_t = land_t
    return curve


def curve_from_points(xy):
    """Closed generic oval through sample points (k, 2), counterclockwise."""
    from scipy.interpolate import CubicSpline

    p = np.asarray(xy, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2 or len(p) < 8:
        raise InvalidParameter("need at least 8 sample points of shape (k, 2)")
    if not np.isfinite(p).all():
        raise InvalidParameter("sample points must be finite")
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

    return BoundaryCurve("generic", mk(spl), mk(d1), mk(d2), nodes=4096)


def regular_polygon(k, circumradius=1.0):
    k = whole_count(k, "sides", least=3)
    circumradius = finite_float(circumradius, "circumradius")
    if circumradius <= 0:
        raise InvalidParameter("circumradius must be positive")
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
        return curve.point(s), tau, curve.curvature(s)
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
    _require_smooth(curve, "curvature bounds")
    return curve._kmin, curve._kmax


def arc_advance(curve, s, delta):
    """The arc s + delta reduced mod the perimeter; InvalidParameter
    unless it is finite."""
    s = s + delta
    if not math.isfinite(s):
        raise InvalidParameter("arc length must be finite")
    return float(np.mod(s, curve.perimeter))


# -- chords -------------------------------------------------------------


def _check_angle(theta):
    theta = np.asarray(theta, dtype=float)
    # written so that nan fails it
    if not ((theta >= ANGLE_TOL) & (theta <= np.pi - ANGLE_TOL)).all():
        raise InvalidAngle("incidence angle must lie in (%g, pi - %g)"
                           % (ANGLE_TOL, ANGLE_TOL))
    return theta


def _window(curve, t0, theta):
    """Open parameter window (lo, hi) holding every boundary crossing of
    the chord leaving t0 at angle theta, except t0 itself.

    The chord from z(t0) to z(t) points along the mean tangent over
    [t0, t], so it cannot reach angle theta before the tangent has
    turned by theta; going back from t0 + 2 pi, by pi - theta. With w
    bounding the turning rate within one scan cell h of t0, no crossing
    lies within min(h, theta / w) after t0 or min(h, (pi - theta) / w)
    before t0 + 2 pi: one rule at either grazing end, and the residual
    of a convex oval is negative at lo and positive at hi.
    """
    h = TWO_PI / _SCAN_CELLS
    w = 2.0 * curve._turn_near[(t0 // h).astype(int) % _SCAN_CELLS]
    return (t0 + np.minimum(h, theta / w),
            t0 + TWO_PI - np.minimum(h, (np.pi - theta) / w))


def _require_resolved(curve, f_ends):
    """Raise InvalidAngle unless the residuals at the window ends stand
    clear of roundoff, so no cell next to them shows a false crossing."""
    if (np.abs(f_ends) <= 1e-14 * curve._zmax).any():
        raise InvalidAngle("chord too close to tangency to resolve")


def _launch_t(curve, s):
    """Launch parameters t_of_s(s) of the arcs s, at least 1-d."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.size > 1 and (s == s.flat[0]).all():
        # a sweep from one arc inverts it once, to the scalar call's bits
        return np.full(s.shape, curve.t_of_s(s.ravel()[:1])[0])
    return curve.t_of_s(s)


def _launch(curve, t0, theta):
    """conj of the directions of the rays leaving z(t0) at angles theta."""
    dz = curve._dzf(_wrap(t0))
    return np.conj(dz / np.abs(dz) * np.exp(1j * theta))


def _landing(curve, t, t0, cd):
    """(s2, theta2, length) of chords from t0 landing at parameters t."""
    q = curve.tangent_t(t) * cd
    s2 = np.mod(curve.arclen_t(_wrap(t)), curve.perimeter)
    return (s2, np.arctan2(np.abs(q.imag), q.real),
            np.abs(curve._zdiff(t, t0)))


def chord(curve, s, theta):
    """First boundary intersection of the ray leaving gamma(s) at angle theta.

    Returns (s2, theta2, length) with theta2 the reflected outgoing
    angle at the landing point, equal to the incidence angle there; bit
    for bit the one-row :func:`chord_batch`, on every table.
    """
    return tuple(float(x[0]) for x in chord_batch(curve, [float(s)],
                                                  [float(theta)]))


def chord_batch(curve, s, theta):
    """Vectorized chord: (s2, theta2, length) arrays of the shape s and
    theta broadcast to, at least 1-d, all rows in one array pass."""
    if isinstance(curve, PolygonBoundary):
        return _polygon_chords(curve, s, theta)
    return _chords(curve, _launch_t(curve, s), theta)[:3]


def _chords(curve, t0, theta):
    """Chords of a smooth table from launch parameters t0 at angles theta:
    (s2, theta2, length, t2) arrays of their broadcast shape, t2 the landing
    parameter in (t0, t0 + 2 pi). A table with a closed form lands by its
    hook ``_land_t`` (the disk and the ellipse exactly, a convex Neumann
    oval by its cubic and one polish); every other table at the ray's first
    crossing (:func:`_ray_hit`)."""
    theta = _check_angle(theta)
    cd = _launch(curve, t0, theta)
    t = (curve._land_t(curve, t0, theta, cd) if curve._land_t is not None
         else _ray_hit(curve, curve.zpoint_t(t0), np.conj(cd),
                       _window(curve, t0, theta), t0))
    return (*_landing(curve, t, t0, cd), t)


def _ray_hit(curve, z, dhat, window=(0.0, TWO_PI), t0=None):
    """Parameters in the windows (lo, hi) where the rays z + u dhat, u > 0,
    first meet the curve, for z, dhat, lo and hi broadcast (by default from
    interior points over the whole table): each row's first crossing cell
    (:func:`_hit_cells`) polished by :func:`_polish`. Chords pass their launch
    parameters t0, and their residual uses ``_zdiff``."""
    z, cd, lo, hi = np.broadcast_arrays(z, np.conj(dhat), *window)
    shape = cd.shape
    z, cd, lo, hi = (x.ravel() for x in (z, cd, lo, hi))
    rows = max(1, _HIT_PAIRS // (curve._M + 1))
    ta, tb, fa, fb = (np.concatenate(x) for x in zip((np.empty(0),) * 4, *(
        _hit_cells(curve, *(x[i:i + rows] for x in (z, cd, lo, hi)),
                   t0 is not None) for i in range(0, cd.size, rows))))
    # falling cells are polished on the negated residual
    sign = np.where(fb > 0.0, 1.0, -1.0)
    a, offset = ((z, lambda t, z: curve.zpoint_t(t) - z) if t0 is None else
                 (np.broadcast_to(t0, shape).ravel(), curve._zdiff))
    return _polish(curve, ta, (ta, tb, sign * fa, sign * fb), a, sign * cd,
                   offset).reshape(shape)


def _hit_cells(curve, z, cd, lo, hi, chords):
    """Each ray's first crossing cell (ta, tb), with residuals fa, fb =
    Im(cd (z(t) - z)) of opposite signs, on the polyline through the table
    nodes inside the window and its ends; a cell where the curve turns
    parallel to the ray is cut at the tangency, so no pair of crossings
    hides in it. The first row with no crossing ahead, or a chord whose
    window ends are not resolved (:func:`_require_resolved`), raises."""
    h, m, n = curve._h, curve._M, len(cd)
    k0 = np.floor(lo / h).astype(int) + 1
    k1 = np.ceil(hi / h).astype(int) - 1
    # cd (z(t) - z) and Im(cd z') at the closed table and the window ends
    v = cd[:, None] * (np.append(curve._z_nodes, curve._z_nodes[0])
                       - z[:, None])
    g = np.imag(cd[:, None] * np.append(curve._dz_nodes, curve._dz_nodes[0]))
    ends = np.stack([lo, hi])
    ve, ge = cd * (curve.zpoint_t(ends) - z), np.imag(cd * curve._dzf(ends))
    # the crossed or cut cells between nodes of the window, then its ends
    sv, sg = v.imag <= 0.0, g <= 0.0
    r, j = np.nonzero((sv[:, 1:] != sv[:, :-1]) | (sg[:, 1:] != sg[:, :-1]))
    q = (j - k0[r]) % m
    inside = q < (k1 - k0)[r]
    r, j, k = r[inside], j[inside], (k0[r] + q)[inside]
    e = np.arange(n)
    rows = np.concatenate([r, e, e])
    ta = np.concatenate([k * h, lo, k1 * h])
    tb = np.concatenate([(k + 1) * h, k0 * h, hi])
    va, ga, vb, gb = (np.concatenate([x[r, j + d], *y]) for x, y, d in (
        (v, (ve[0], v[e, k1 % m]), 0), (g, (ge[0], g[e, k1 % m]), 0),
        (v, (v[e, k0 % m], ve[1]), 1), (g, (g[e, k0 % m], ge[1]), 1)))
    # a cut cell is crossed up to its tangency point or from it
    c = np.flatnonzero((ga <= 0.0) != (gb <= 0.0))
    tc, vc = tb.copy(), vb.copy()
    tc[c] = ta[c] + (tb[c] - ta[c]) * ga[c] / (ga[c] - gb[c])
    vc[c] = cd[rows[c]] * (curve.zpoint_t(tc[c]) - z[rows[c]])
    rows, ta, tb, va, vb = (np.concatenate(x) for x in (
        (rows, rows[c]), (ta, tc[c]), (tc, tb[c]), (va, vc[c]), (vc, vb[c])))
    fa, fb = va.imag, vb.imag
    x = np.flatnonzero((fa <= 0.0) != (fb <= 0.0))
    w = fa[x] / (fa[x] - fb[x])
    u = va.real[x] * (1.0 - w) + vb.real[x] * w
    # each row's nearest crossing ahead
    x = x[u > 0.0][np.lexsort((u[u > 0.0], rows[x[u > 0.0]]))]
    first = x[np.flatnonzero(np.diff(rows[x], prepend=-1))]
    best = np.full(n, -1)
    best[rows[first]] = first
    miss = np.flatnonzero(best < 0)
    if chords:
        # the rows up to the first that misses: an unresolved one fails first
        _require_resolved(curve, ve[:, :miss[0] + 1 if miss.size else n].imag)
    if miss.size:
        raise InvalidAngle("ray does not meet the boundary")
    return ta[best], tb[best], fa[best], fb[best]


def _polish(curve, t, bracket, a, cd, offset):
    """Landing parameters t polished in their brackets (lo, hi, flo, fhi) by
    :func:`_newton_rows` on z(t)'s signed offset Im(cd (z(t) - z0)) from the
    ray along conj(cd), z(t) - z0 = offset(t, a); slope Im(cd z'(t))."""
    def step(t, a, cd):
        f = np.imag(cd * offset(t, a))
        return f, -f / np.imag(cd * curve._dzf(t))

    return _newton_rows(step, t, *bracket, (a, cd), 1e-13)


def _newton_rows(step, x, lo, hi, flo, fhi, args, tol):
    """Safeguarded Newton for one bracketed root per row, all rows at once:
    row i has the bracket [lo[i], hi[i]], residuals flo[i] < 0 < fhi[i]
    there and its own data args[k][i], and step(x, *args) gives the signed
    residuals at x and the Newton increments. A row starts at x if that is
    strictly inside its bracket, else at the regula falsi point. A step
    that is not finite or leaves the bracket bisects it; an exact zero
    closes it. A row stops after a step of at most tol and leaves the live
    arrays, so no row sees the others; none takes over 64 steps."""
    x = np.where((x > lo) & (x < hi), x, lo - flo * (hi - lo) / (fhi - flo))
    rows, xl = np.arange(len(x)), x
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            if not rows.size:
                break
            f, dx = step(xl, *args)
            lo, hi = np.where(f <= 0.0, xl, lo), np.where(f >= 0.0, xl, hi)
            xn = xl + dx
            xn = np.where((xn >= lo) & (xn <= hi), xn, 0.5 * (lo + hi))
            live = np.abs(xn - xl) > tol
            x[rows] = xl = xn
            if not live.all():
                rows, xl, lo, hi = (v[live] for v in (rows, xn, lo, hi))
                args = tuple(a[live] for a in args)
    return x


def _newton_one(step, x, lo, hi, flo, fhi, args, tol):
    """:func:`_newton_rows` for one row in Python floats: the same start,
    bisection, exact-zero close, stop after a step of at most tol, 64-step
    cap and errstate, without the one-element arrays' overhead."""
    if not lo < x < hi:
        x = lo - flo * (hi - lo) / (fhi - flo)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            f, dx = step(x, *args)
            if f <= 0.0:
                lo = x
            if f >= 0.0:
                hi = x
            xn = x + dx
            if not lo <= xn <= hi:
                xn = 0.5 * (lo + hi)
            live = abs(xn - x) > tol
            x = xn
            if not live:
                break
    return x


def _root_in(step, a, b, fa, fb, tol):
    """The root in [a, b] of a residual that reads fa at a and fb at b, of
    opposite signs or 0; step(x) gives the residual at x and its Newton
    increment. An end where the residual is exactly 0 is the root, as
    brentq returns it; else :func:`_newton_one` polishes from the regula
    falsi point, on the residual negated where it falls, to a step of at
    most tol."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    sign = 1.0 if fa < 0.0 else -1.0

    def rising(x):
        f, dx = step(x)
        return sign * f, dx

    return _newton_one(rising, a, a, b, sign * fa, sign * fb, (), tol)


def _difference_step(g, width):
    """The step of :func:`_newton_one` for a residual with no analytic
    slope: g on the array [x, x + h], h 2**-26 of the bracket width, gives
    the residual at x and the Newton increment over the forward
    difference."""
    h = width * 2.0 ** -26

    def step(x):
        xh = np.array([x, x + h])
        f, fh = np.asarray(g(xh), dtype=float)
        return f, -f * (xh[1] - xh[0]) / (fh - f)

    return step


def _polygon_chords(poly, s, theta):
    """:func:`chord_batch` on a polygon: each row's ray p0 + u d against every
    edge line v_k + w e_k by Cramer's rule. The first failing row raises its
    first error: a non-finite arc, the angle, a launch on a vertex, no edge
    ahead, a landing within CORNER_TOL of a vertex."""
    s, theta = np.atleast_1d(np.asarray(s, dtype=float),
                             np.asarray(theta, dtype=float))
    if s.shape != theta.shape:
        s, theta = np.broadcast_arrays(s, theta)
    shape, s, theta = s.shape, s.ravel(), theta.ravel()
    # written so that nan fails it; a failing row computes to nan quietly
    finite = np.isfinite(s)
    angle = (theta >= ANGLE_TOL) & (theta <= np.pi - ANGLE_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        i, along = poly.edge_of(s)
        tau, (e0, e1) = poly.edge_tan[i], poly.edge_tan.T
        ct, st = _libm(math.cos, theta), _libm(math.sin, theta)
        d = np.empty((s.size, 1, 2))
        d[:, 0, 0] = ct * tau[:, 0] - st * tau[:, 1]
        d[:, 0, 1] = ct * tau[:, 1] + st * tau[:, 0]
        rel = poly.vertices - (poly.vertices[i]
                               + along[:, None] * tau)[:, None]
        den = e0 * d[..., 1] - e1 * d[..., 0]
        u = (e0 * rel[..., 1] - e1 * rel[..., 0]) / den
        w = (d[..., 0] * rel[..., 1] - d[..., 1] * rel[..., 0]) / den
        gap = poly.nearest_vertex_gap(s)[1]
    okay = (np.abs(den) > 1e-300) & (u > 1e-12 * max(1.0, poly.perimeter)) \
        & (w >= -1e-12) & (w <= poly.edge_len + 1e-12)
    # a ray into the table never meets its launch edge again
    rows = np.arange(s.size)
    okay[rows, i] = False
    k = np.where(okay, u, np.inf).argmin(axis=1)
    # a row whose candidates all lie infinitely far takes the first
    k = np.where(okay[rows, k], k, okay.argmax(axis=1))
    wk = np.minimum(np.maximum(w[rows, k], 0.0), poly.edge_len[k])
    start, end = wk < CORNER_TOL, poly.edge_len[k] - wk < CORNER_TOL
    fail = ~finite | ~angle | ~okay.any(axis=1) | start | end | (
        gap < 1e-12 * max(1.0, poly.perimeter))
    if fail.any():
        r = np.argmax(fail)
        if not finite[r]:
            raise InvalidParameter("arc length must be finite")
        _check_angle(theta[r])
        poly.tangent(s[r])
        if not okay[r].any():
            raise InvalidAngle("ray does not meet the polygon again")
        raise CornerHit("chord lands on vertex %d"
                        % ((k[r] + 1 - start[r]) % len(poly.vertices)))
    # matmul keeps the one-row solve's np.dot
    c2 = np.matmul(d, poly.edge_tan[k][..., None])[:, 0, 0]
    return tuple(x.reshape(shape) for x in (
        np.mod(poly.cum_s[k] + wk, poly.perimeter),
        _libm(math.acos, np.minimum(np.maximum(c2, -1.0), 1.0)), u[rows, k]))


def _libm(f, x):
    """The math function f on each entry of the array x: libm's rounding,
    as the one-row polygon solve had it, where numpy's cos, sin and arccos
    may round otherwise (arccos differs on 9% of 200 000 inputs on one
    x86-64 build)."""
    return np.frompyfunc(f, 1, 1)(x).astype(float)


# -- configuration ------------------------------------------------------


def curve_from_config(cfg):
    """Build a curve from a flat mapping (CLI section contents)."""
    kind = str(cfg.get("kind", "")).strip().lower()
    if kind == "disk":
        return disk(cfg.get("radius", 1.0))
    if kind == "ellipse":
        return ellipse(cfg["a"], cfg["b"])
    if kind == "neumann_oval":
        return neumann_oval(finite_float(cfg["lam"], "lam"))
    if kind == "csv":
        pts = np.loadtxt(cfg["path"], delimiter=",", ndmin=2)
        return curve_from_points(pts)
    if kind == "polygon":
        if "vertices" in cfg:
            rows = [r for r in str(cfg["vertices"]).split(";") if r.strip()]
            pts = np.array([[finite_float(x, "vertices") for x in r.split(",")]
                            for r in rows])
        else:
            pts = np.loadtxt(cfg["path"], delimiter=",", ndmin=2)
        return PolygonBoundary(pts)
    if kind == "regular_polygon":
        return regular_polygon(cfg["sides"],
                               finite_float(cfg.get("circumradius", 1.0),
                                            "circumradius"))
    raise InvalidParameter("unknown curve kind %r" % kind)
