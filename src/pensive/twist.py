"""Twist analysis of the slid billiard map.

The classical chord map has an explicit Jacobian in (s, theta) built
from the chord length and the endpoint curvatures. The slide adds
l~'(Theta) times the second-row entries, which can destroy or reverse
the classical right-twist property; curvature-pinched tables give
one-sided certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import HypothesisFailed


@dataclass
class CBJacobian:
    s: float
    theta: float
    s_land: float
    theta_land: float
    d: float
    kappa_s: float
    kappa_land: float
    dS_ds: float
    dS_dtheta: float
    dTheta_ds: float
    dTheta_dtheta: float

    @property
    def matrix(self):
        return np.array([[self.dS_ds, self.dS_dtheta],
                         [self.dTheta_ds, self.dTheta_dtheta]])

    @property
    def det(self):
        return self.dS_ds * self.dTheta_dtheta - self.dS_dtheta * self.dTheta_ds


def _chord_partials(d, st, sT, k1, k2, slope):
    """Derivatives of one chord's landing, from the chord's data.

    d is the chord length, st and sT the sines of the launch and landing
    angles, k1 and k2 the curvatures at the launch and landing points,
    slope the slide's l~'(Theta) at the landing angle; all broadcast.
    Returns dS/ds, dS/dtheta, dTheta/ds, dTheta/dtheta of the classical
    chord-and-reflect map, then dS/dtheta of the slid map.
    """
    return ((k1 * d - st) / sT,
            d / sT,
            (k2 * k1 * d - k2 * st - k1 * sT) / sT,
            (k2 * d - sT) / sT,
            (d + slope * (k2 * d - sT)) / sT)


def cb_jacobian(curve, s, theta):
    """Analytic Jacobian of the classical chord-and-reflect map."""
    geo._require_smooth(curve, "twist analysis")
    t0 = geo._launch_t(curve, s)
    S, Th, d, t2 = (float(x[0]) for x in geo._chords(curve, t0, theta))
    k1, k2 = curve.curvature_t([t0[0], t2]).tolist()
    dS_ds, dS_dth, dTh_ds, dTh_dth, _ = _chord_partials(
        d, math.sin(theta), math.sin(Th), k1, k2, 0.0)
    return CBJacobian(
        s=s, theta=theta, s_land=S, theta_land=Th, d=d,
        kappa_s=k1, kappa_land=k2, dS_ds=dS_ds, dS_dtheta=dS_dth,
        dTheta_ds=dTh_ds, dTheta_dtheta=dTh_dth)


def pensive_dS_dtheta(curve, law, s, theta):
    """d(arc image)/d(theta) of the slid map; its sign is the twist."""
    geo._require_smooth(curve, "twist analysis")
    t0 = geo._launch_t(curve, s)
    _, Th, d, t2 = geo._chords(curve, t0, theta)
    out = _chord_partials(d, np.sin(theta), np.sin(Th), curve.curvature_t(t0),
                          curve.curvature_t(t2), law.dtheta(Th))[4]
    return float(out[0]) if np.ndim(s) == np.ndim(theta) == 0 else out


@dataclass
class TwistCertificate:
    verdict: str                  # "Right" | "Left" | "Inconclusive"
    r: float
    R: float
    inf_slope: float
    sup_slope: float
    right_bound: float
    left_bound: float
    curve_kind: str
    law_tag: str

    def __str__(self):
        return ("twist certificate: curve=%s delay=%s r=%.6g R=%.6g "
                "inf l~'=%.6g sup l~'=%.6g right if > %.6g, left if < %.6g "
                "-> %s" % (self.curve_kind, self.law_tag, self.r, self.R,
                           self.inf_slope, self.sup_slope,
                           self.right_bound, self.left_bound, self.verdict))


def twist_certificate(curve, law):
    """One-sided twist test from curvature pinching.

    With osculating radii r = 1/kappa_max and R = 1/kappa_min and
    r > R/2, every chord satisfies 2r sin(T) <= d <= 2R sin(T) at both
    endpoints, so inf l~' > -2r/(2R/r - 1) forces a right twist and
    sup l~' < -2R/(2r/R - 1) a left twist. Sufficient only: anything
    else is Inconclusive, not a refutation.
    """
    kmin, kmax = geo.curvature_bounds(curve)
    if kmin <= 0:
        raise HypothesisFailed("curve is not strictly convex")
    R = 1.0 / kmin
    r = 1.0 / kmax
    if r <= R / 2:
        raise HypothesisFailed(
            "curvature ratio too large: r=%.6g <= R/2=%.6g" % (r, R / 2))
    lo, hi = law.dtheta_range()
    right_bound = -2.0 * r / (2.0 * (R / r) - 1.0)
    left_bound = -2.0 * R / (2.0 * (r / R) - 1.0)
    if lo > right_bound:
        verdict = "Right"
    elif hi < left_bound:
        verdict = "Left"
    else:
        verdict = "Inconclusive"
    return TwistCertificate(verdict=verdict, r=r, R=R, inf_slope=lo,
                            sup_slope=hi, right_bound=right_bound,
                            left_bound=left_bound,
                            curve_kind=getattr(curve, "kind", "?"),
                            law_tag=law.tag)


def twist_interval(law, half_perimeter):
    """Rotation-number range spanned as theta runs over (0, pi).

    Endpoints come from the boundary limits of the slide: l~(0+)/(2L)
    and 1 + l~(pi-)/(2L); infinite slides give an infinite range.
    """
    l0, lpi = law.theta_limits()
    a = l0 / (2.0 * half_perimeter)
    b = 1.0 + lpi / (2.0 * half_perimeter)
    return (min(a, b), max(a, b))


def thin_ellipse_counterexample(eps=0.05, theta0=math.pi / 3, height=1.0):
    """Two phase points on the (1/eps, eps) ellipse with a puck slide
    where the twist derivative takes opposite signs.

    The first launches from the flat-side tip at theta0; the second is
    the time-reversed partner whose chord lands on that tip, where the
    huge curvature flips the sign. Returns ((s1, th1, val1),
    (s2, th2, val2)).
    """
    from . import delay as delay_mod
    curve = geo.ellipse(1.0 / eps, eps)
    law = delay_mod.puck(height)
    s_tip = 0.0
    v1 = pensive_dS_dtheta(curve, law, s_tip, theta0)
    s_back, th_back, _ = geo.chord(curve, s_tip, math.pi - theta0)
    s2, th2 = s_back, math.pi - th_back
    v2 = pensive_dS_dtheta(curve, law, s2, th2)
    return (s_tip, theta0, v1), (s2, th2, v2)
