"""Classical and slid (pensive) billiard maps.

One step: shoot the chord from (s, theta), reflect at the impact point,
then slide the bounce point by l~(Theta) of arc length before the next
chord. With the zero slide law this is the classical billiard. On
polygons the slide may carry the point across vertices; the outgoing
angle keeps its value and is re-measured against the landing edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import delay as delay_mod
from . import geometry as geo
from .errors import (CornerHit, InvalidParameter, PensiveError, Unsupported,
                     finite_float, whole_count)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhasePoint:
    s: float
    theta: float
    p: float = field(init=False)

    def __post_init__(self):
        geo._check_angle(self.theta)
        object.__setattr__(self, "s", finite_float(self.s, "s"))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "p", math.cos(self.theta))


@dataclass
class StepRecord:
    s_launch: float
    theta_in: float
    s_impact: float
    theta_out: float
    s_out: float
    chord_length: float
    slide: float


class Trajectory:
    """Iterated map states plus the chord geometry of each step.

    Per step it stores the impact arc length, the slide and the chord
    length. ``impacts`` (chord landings gamma(S_cl)) and ``reflects``
    (post-slide launches gamma(S_cl + slide)) are read-only (n_steps, 2)
    arrays, computed on demand in one ``curve.point`` call and cached
    until the next ``append``.
    """

    def __init__(self, curve, law, x0):
        self.curve = curve
        self.law = law
        self.points = [x0]
        self.s_impacts = []
        self.slides = []
        self.chord_lengths = []
        self._xy = None

    def append(self, rec):
        self.points.append(PhasePoint(rec.s_out, rec.theta_out))
        self.s_impacts.append(rec.s_impact)
        self.slides.append(rec.slide)
        self.chord_lengths.append(rec.chord_length)
        self._xy = None

    def _impacts_reflects(self):
        if self._xy is None:
            s = np.array(self.s_impacts + [x.s for x in self.points[1:]],
                         dtype=float)
            xy = point_xy(self.curve, s)
            xy.flags.writeable = False
            self._xy = (xy[:self.n_steps], xy[self.n_steps:])
        return self._xy

    @property
    def impacts(self):
        return self._impacts_reflects()[0]

    @property
    def reflects(self):
        return self._impacts_reflects()[1]

    def __len__(self):
        return len(self.points)

    @property
    def n_steps(self):
        return len(self.points) - 1

    def as_arrays(self):
        s = np.array([x.s for x in self.points])
        theta = np.array([x.theta for x in self.points])
        return {
            "s": s,
            "theta": theta,
            "p": np.cos(theta),
            "impact": self.impacts,
            "reflect": self.reflects,
            "chord_length": np.array(self.chord_lengths),
        }


def point_xy(curve, s):
    """Boundary points as an (..., 2) array for smooth or polygon tables."""
    return np.asarray(curve.point(s), dtype=float)


def _slide(curve, s_cl, slide):
    """Arc lengths after sliding from s_cl; on a polygon, a landing within
    CORNER_TOL of any vertex raises CornerHit."""
    s_out = np.mod(s_cl + slide, curve.perimeter)
    if isinstance(curve, geo.PolygonBoundary):
        gap = geo.wrap_to_half(np.asarray(s_out)[..., None] - curve.cum_s[:-1],
                               curve.perimeter)
        if np.any(np.abs(gap) < geo.CORNER_TOL):
            raise CornerHit("slide landed on a vertex")
    return s_out


def _pensive_raw(curve, law, s, theta):
    s_cl, theta_out, length = geo.chord(curve, s, theta)
    slide = float(law.ell_theta(theta_out))
    s_out = float(_slide(curve, s_cl, slide))
    return StepRecord(s, theta, s_cl, theta_out, s_out, length, slide)


def classical_step(curve, x):
    s2, th2, _ = geo.chord(curve, x.s, x.theta)
    return PhasePoint(s2, th2)


def pensive_step(curve, law, x):
    rec = _pensive_raw(curve, law, x.s, x.theta)
    return PhasePoint(rec.s_out, rec.theta_out)


def pensive_step_record(curve, law, x):
    return _pensive_raw(curve, law, x.s, x.theta)


def iterate(curve, law, x0, n):
    """n slid-billiard steps; a failed step re-raises with .partial set.
    InvalidParameter unless n is a whole number of steps, 0 or more."""
    steps = whole_count(n, "step count n")
    traj = Trajectory(curve, law, x0)
    for _ in range(steps):
        x = traj.points[-1]
        try:
            rec = _pensive_raw(curve, law, x.s, x.theta)
        except PensiveError as e:
            e.partial = traj
            raise
        traj.append(rec)
    return traj


def pensive_batch(curve, law, s, theta):
    """Vectorized step for arrays of phase points.

    On a polygon, a row whose slide lands on a vertex raises CornerHit,
    as the scalar step does.
    """
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s_cl, theta_out, _ = geo.chord_batch(curve, s, theta)
    return _slide(curve, s_cl, law.ell_theta(theta_out)), theta_out


def measure_jacobian_det(curve, law, s, p):
    """Central-difference Jacobian determinant of the step in (s, p).

    Invariance of sin(theta) dtheta ^ ds means the determinant is 1 in
    these coordinates for convex tables.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    P = curve.perimeter
    h = 1e-6

    def push(sv, pv):
        S, Th = pensive_batch(curve, law, sv, np.arccos(np.clip(pv, -1, 1)))
        return S, np.cos(Th)

    S_sp, P_sp = push(s + h, p)
    S_sm, P_sm = push(s - h, p)
    S_pp, P_pp = push(s, p + h)
    S_pm, P_pm = push(s, p - h)
    dS_ds = geo.wrap_to_half(S_sp - S_sm, P) / (2 * h)
    dP_ds = (P_sp - P_sm) / (2 * h)
    dS_dp = geo.wrap_to_half(S_pp - S_pm, P) / (2 * h)
    dP_dp = (P_pp - P_pm) / (2 * h)
    return dS_ds * dP_dp - dS_dp * dP_ds


def disk_rotation_angle(law, theta):
    """Boundary rotation per step on the unit disk: 2*theta + l~(theta).

    theta must lie in [ANGLE_TOL, pi - ANGLE_TOL], as in PhasePoint;
    InvalidAngle otherwise."""
    geo._check_angle(theta)
    return 2.0 * np.asarray(theta, dtype=float) + law.ell_theta(theta)


def caustic_radius(radius, theta):
    """Distance from the disk center to every chord of a constant-theta
    orbit; the radius must be finite and theta lie in [ANGLE_TOL,
    pi - ANGLE_TOL], as in PhasePoint."""
    return finite_float(radius, "radius") * np.abs(np.cos(
        geo._check_angle(theta)))


# -- polygon slices as interval exchanges ---------------------------------


@dataclass
class IETPiece:
    angle_index: int
    lo: float
    hi: float
    image_index: int
    raw_slope: float
    image_at_lo: float
    chart_slope: float
    roof_lo: float
    roof_hi: float

    def map_s(self, s, perimeter):
        return (self.image_at_lo + self.raw_slope * (s - self.lo)) % perimeter


@dataclass
class IETRealization:
    """Slid billiard on a rational polygon, one chart per accessible angle.

    The step restricted to the slice theta = theta_k is piecewise affine
    in arc length with slope -sin(theta)/sin(Theta); in the chart that
    weights each slice by sin(theta_k) (the measure the map preserves)
    every piece has slope of magnitude one, which is the interval
    exchange structure. Roof values are the chord flight lengths.
    """

    polygon: object
    law_tag: str
    theta0: float
    angles: np.ndarray
    label: float
    perimeter: float
    pieces: list          # list of lists, aligned with angles
    chart_offsets: np.ndarray
    reached: np.ndarray   # slices dynamically reachable from theta0

    def angle_index(self, theta, tol=1e-8):
        k = int(np.argmin(np.abs(self.angles - theta)))
        if abs(self.angles[k] - theta) > tol:
            raise InvalidParameter("angle %r is not in the accessible set"
                                   % theta)
        return k

    def chart(self, s, k):
        return self.chart_offsets[k] + math.sin(self.angles[k]) * (s % self.perimeter)

    def piece_of(self, s, k):
        s = s % self.perimeter
        for cand in (s, s + self.perimeter):
            for pc in self.pieces[k]:
                if pc.lo - 1e-12 <= cand <= pc.hi + 1e-12:
                    return pc, cand
        raise InvalidParameter("no piece contains s=%r on slice %d" % (s, k))

    def step(self, s, k):
        pc, s_adj = self.piece_of(s, k)
        return pc.map_s(s_adj, self.perimeter), pc.image_index


def _slice_probe(polygon, law, theta, angles):
    def probe(s):
        rec = _pensive_raw(polygon, law, s % polygon.perimeter, theta)
        k = int(np.argmin(np.abs(angles - rec.theta_out)))
        if abs(angles[k] - rec.theta_out) > 1e-8:
            raise InvalidParameter(
                "step angle %.15g escaped the accessible lattice"
                % rec.theta_out)
        return rec.s_out, k, rec.chord_length
    return probe


def _vertex_shadows(polygon, theta):
    """Launch arc lengths whose chord at angle theta runs into a vertex.

    From v_i + w*e_i on edge i the ray d_i (e_i turned by theta) meets
    vertex j where v_i + w*e_i + u*d_i = v_j; the denominator
    cross(e_i, d_i) is sin(theta). Kept: 0 < w < l_i and u > 0.
    """
    e = polygon.edge_tan
    c, sn = math.cos(theta), math.sin(theta)
    d = np.stack([c * e[:, 0] - sn * e[:, 1], c * e[:, 1] + sn * e[:, 0]], axis=1)
    r = polygon.vertices[None, :, :] - polygon.vertices[:, None, :]
    w = (r[..., 0] * d[:, None, 1] - r[..., 1] * d[:, None, 0]) / sn
    u = (e[:, None, 0] * r[..., 1] - e[:, None, 1] * r[..., 0]) / sn
    keep = (w > 0) & (w < polygon.edge_len[:, None]) & (u > 0)
    return (polygon.cum_s[:-1, None] + w)[keep]


def iet_realize(polygon, theta0, law=None):
    """Accessible-angle slices of a rational polygon as interval exchanges.

    With interior angles 2*pi*m/n the step lattice is 2*pi/N for N the
    lcm of the n, doubled when an exterior angle pi*(n - 2m)/n is not a
    multiple of 2*pi/N (edges then turn by odd multiples of pi/N, as on
    the hexagon). A slice breaks only where the launch point crosses a
    vertex or the chord runs into one, so its cuts are the vertices plus
    their shadows; each piece between cuts is affine and is read off two
    probes at its quarter points, then checked at its midpoint.
    """
    if not isinstance(polygon, geo.PolygonBoundary):
        raise Unsupported("interval-exchange slices need a polygon table")
    if polygon.rational_angles is None:
        raise Unsupported("polygon must declare rational angles")
    geo._check_angle(theta0)
    law = law if law is not None else delay_mod.zero()
    N = polygon.angle_lcm
    if any(N * (n - 2 * m) % (2 * n) for m, n in polygon.rational_angles):
        N *= 2
    base = TWO_PI / N
    P = polygon.perimeter

    # A chord maps theta to (edge-angle difference) - theta, a reflection,
    # so both cosets of the step lattice can occur: <= 2N angles in all.
    lattice = []
    for k in range(N):
        for t in ((theta0 + k * base) % TWO_PI, (-theta0 + k * base) % TWO_PI):
            if geo.ANGLE_TOL < t < math.pi - geo.ANGLE_TOL:
                lattice.append(t)
    lattice.sort()
    merged = [lattice[0]]
    for t in lattice[1:]:
        if t - merged[-1] > 1e-10:
            merged.append(t)
    angles = np.array(merged)

    pieces = []
    start = int(np.argmin(np.abs(angles - theta0)))

    for k, theta in enumerate(angles.tolist()):
        probe = _slice_probe(polygon, law, theta, angles)
        cuts = np.unique(np.r_[polygon.cum_s[:-1],
                               _vertex_shadows(polygon, theta)])
        slice_pieces = []
        for lo, hi in zip(cuts, np.r_[cuts[1:], cuts[0] + P]):
            if hi - lo < 1e-9 * P:
                continue
            a, c = lo + (hi - lo) / 4, hi - (hi - lo) / 4
            va, vc = probe(a), probe(c)
            if va[1] != vc[1]:
                raise InvalidParameter("piece (%g, %g) is not coherent" % (lo, hi))
            slope = geo.wrap_to_half(vc[0] - va[0], P) / (c - a)
            vm = probe(0.5 * (a + c))
            resid = geo.wrap_to_half(vm[0] - va[0], P) - slope * (0.5 * (a + c) - a)
            if abs(resid) > 1e-6 * P:
                raise InvalidParameter("piece (%g, %g) is not affine" % (lo, hi))
            th_img = float(angles[va[1]])
            chart_slope = slope * math.sin(th_img) / math.sin(theta)
            roof_slope = (vc[2] - va[2]) / (c - a)
            slice_pieces.append(IETPiece(
                angle_index=k, lo=float(lo % P), hi=float(lo % P + (hi - lo)),
                image_index=va[1], raw_slope=float(slope),
                image_at_lo=float((va[0] - slope * (a - lo)) % P),
                chart_slope=float(chart_slope),
                roof_lo=float(va[2] - roof_slope * (a - lo)),
                roof_hi=float(vc[2] + roof_slope * (hi - c))))
        total = sum(pc.hi - pc.lo for pc in slice_pieces)
        if abs(total - P) > 1e-6 * P:
            raise InvalidParameter("slice %d pieces cover %g of %g" % (k, total, P))
        pieces.append(slice_pieces)

    reached = np.zeros(len(angles), dtype=bool)
    stack = [start]
    while stack:
        k = stack.pop()
        if reached[k]:
            continue
        reached[k] = True
        for pc in pieces[k]:
            if not reached[pc.image_index]:
                stack.append(pc.image_index)
    sines = np.sin(angles)
    offsets = np.concatenate([[0.0], np.cumsum(sines * P)[:-1]])
    r = theta0 % base
    label = min(r, base - r)
    return IETRealization(
        polygon=polygon, law_tag=law.tag, theta0=float(theta0),
        angles=angles, label=float(label), perimeter=P,
        pieces=pieces, chart_offsets=offsets, reached=reached)
