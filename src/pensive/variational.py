"""Variational principle for billiards with a boundary slide.

The one-step generating function is evaluated by solving the transit
equation for the launch direction, and periodic orbits are located as
critical points of the cyclic action sum.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import geometry as geo
from .errors import (Ambiguous, InvalidParameter, InvalidPoint, NotFound,
                     NotTransitive)

GRAD_TOL = 1e-9


def _as_complex(point):
    z = np.asarray(point, dtype=float).ravel()
    if z.size != 2:
        raise InvalidPoint("interior points are planar (x, y) pairs")
    return complex(z[0], z[1])


def point_inside(curve, point):
    """Winding-number test against the sampled boundary polyline."""
    z = _as_complex(point)
    if isinstance(curve, geo.PolygonBoundary):
        nodes = curve.vertices[:, 0] + 1j * curve.vertices[:, 1]
    else:
        t = np.linspace(0.0, 2 * math.pi, 2048, endpoint=False)
        nodes = curve.zpoint_t(t)
    v = nodes - z
    if np.min(np.abs(v)) < 1e-12 * np.max(np.abs(nodes)):
        return False
    vn = np.roll(v, -1)
    turns = np.arctan2(np.imag(np.conj(v) * vn), np.real(np.conj(v) * vn))
    return abs(turns.sum()) > math.pi


def _cos_to_point(curve, s, target):
    """p(s) = d/ds |gamma(s) - target| and the distance itself."""
    t = curve.t_of_s(s)
    z = curve.zpoint_t(t)
    tau = curve.tangent_t(t)
    rel = z - target
    rho = np.abs(rel)
    return np.real(np.conj(tau) * rel) / rho, rho, tau, rel


def single_bounce_objective(curve, law, A, B, s):
    """Broken pensive path length A -> gamma(s) -> slide -> B.

    Returns (value, derivative); both broadcast over s. Critical points
    of the value are the parameters of genuine one-bounce trajectories.
    """
    geo._require_smooth(curve, "variational evaluation")
    za = _as_complex(A)
    zb = _as_complex(B)
    for z, name in ((za, "A"), (zb, "B")):
        if not point_inside(curve, (z.real, z.imag)):
            raise InvalidPoint("%s must lie strictly inside the table" % name)
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    sv = np.atleast_1d(s) % curve.perimeter

    p_a, rho_a, tau, rel = _cos_to_point(curve, sv, za)
    slide = law.ell(p_a)
    u = (sv + slide) % curve.perimeter
    p_b, rho_b, _, _ = _cos_to_point(curve, u, zb)
    value = rho_a + law.potential(p_a) + rho_b

    kap = curve.curvature(sv)
    dp_a = (1.0 + kap * np.imag(np.conj(tau) * rel) - p_a * p_a) / rho_a
    deriv = (p_a + p_b) * (1.0 + law.dell_dp(p_a) * dp_a)
    if scalar:
        return float(value[0]), float(deriv[0])
    return value, deriv


def single_bounce_critical_points(curve, law, A, B, n_scan=720):
    """Roots of the objective's derivative, one per bracketed sign change."""
    P = curve.perimeter
    grid = np.linspace(0.0, P, n_scan, endpoint=False)
    _, d = single_bounce_objective(curve, law, A, B, grid)

    def dfun(x):
        return single_bounce_objective(curve, law, A, B, x)[1]

    roots = geo._periodic_zeros(dfun, grid, d, P)
    return np.array(sorted(r % P for r in roots))


@dataclass(frozen=True)
class TransitSolve:
    """All launch directions reaching arc S from arc s in one step."""

    roots: np.ndarray
    advances: np.ndarray
    ambiguous: bool
    p: float
    advance: float


def _transit_parts(curve, law, s, p):
    th = math.acos(max(-1.0, min(1.0, p)))
    S_cl, Th, d = geo.chord(curve, s, th)
    P_land = math.cos(Th)
    adv = (S_cl - s) % curve.perimeter + law.ell(P_land)
    return S_cl, P_land, d, adv


def p_star(curve, law, s, S, hint=None, advance_hint=None, n_grid=256):
    """Solve the transit equation S_cl(s, p) + l(P_cl(s, p)) = S (mod P).

    Scans a momentum grid, brackets sign changes of the wrapped
    residual, and polishes each with brentq. Root selection: nearest
    `advance_hint` in total arc advance, else nearest `hint` in p, else
    smallest |p|.
    """
    geo._require_smooth(curve, "variational evaluation")
    P = curve.perimeter
    s = float(s) % P
    S = float(S) % P
    pg = np.linspace(-1.0, 1.0, n_grid + 2)[1:-1]
    # geometric tails so near-grazing transits still get bracketed
    tail = 1.0 - np.geomspace(1e-5, 1.0 - pg[-1], 8)[:-1]
    pg = np.concatenate([-tail[::-1], pg, tail])
    pg.sort()
    n_grid = len(pg)
    th = np.arccos(pg)
    S_cl, Th, _ = geo.chord_batch(curve, np.full(n_grid, s), th)
    adv = (S_cl - s) % P + law.ell(np.cos(Th))
    res = geo.wrap_to_half(adv + s - S, P)

    def rfun(p):
        _, _, _, a = _transit_parts(curve, law, s, p)
        return geo.wrap_to_half(a + s - S, P)

    roots = []
    for k in range(n_grid - 1):
        ra, rb = res[k], res[k + 1]
        if ra == 0.0:
            roots.append(pg[k])
            continue
        if ra * rb >= 0:
            continue
        if abs(ra) + abs(rb) > 0.5 * P:
            continue  # wrap jump, not a root
        roots.append(brentq(rfun, pg[k], pg[k + 1], xtol=1e-15))
    good = []
    for r in roots:
        if abs(rfun(r)) < 1e-10 and all(abs(r - g[0]) > 1e-9 for g in good):
            good.append((r, _transit_parts(curve, law, s, r)[3]))
    if not good:
        raise NotTransitive(
            "no transit direction from s=%.6g to S=%.6g" % (s, S))
    arr = np.array(good)
    order = np.argsort(arr[:, 0])
    rootv, advv = arr[order, 0], arr[order, 1]
    if advance_hint is not None:
        j = int(np.argmin(np.abs(advv - advance_hint)))
    elif hint is not None:
        j = int(np.argmin(np.abs(rootv - hint)))
    else:
        j = int(np.argmin(np.abs(rootv)))
    return TransitSolve(roots=rootv, advances=advv,
                        ambiguous=len(rootv) > 1,
                        p=float(rootv[j]), advance=float(advv[j]))


@dataclass(frozen=True)
class GeneratingFunctionEval:
    """One-step action H(s, S) together with its exact partials."""

    s: float
    S: float
    p_star: float
    H: float
    dH_ds: float
    dH_dS: float


def generating_function(curve, law, s, S, hint=None, advance_hint=None):
    """H(s, S) = chord length to the pre-slide point plus the potential.

    The partials are exact: dH/ds = -p*, dH/dS = P at the pre-slide
    landing point (the slide contributes no work).
    """
    sol = p_star(curve, law, s, S, hint=hint, advance_hint=advance_hint)
    _, P_land, d, _ = _transit_parts(curve, law, float(s) % curve.perimeter,
                                     sol.p)
    H = d + law.potential(P_land)
    return GeneratingFunctionEval(s=float(s), S=float(S), p_star=sol.p,
                                  H=H, dH_ds=-sol.p, dH_dS=P_land)


@dataclass(frozen=True)
class PeriodicOrbit:
    """A critical cycle of the action sum."""

    s: np.ndarray
    theta: np.ndarray
    rotation: tuple
    action: float
    residual: float

    @property
    def period(self):
        return len(self.s)


def _orbit_eval(curve, law, sv, winding, hints):
    """Gradient of the cyclic action and the per-segment directions."""
    q = len(sv)
    P = curve.perimeter
    target = winding * P / q
    p_launch = np.empty(q)
    P_land = np.empty(q)
    action = 0.0
    new_hints = []
    for i in range(q):
        hint = hints[i] if hints is not None else None
        gf = generating_function(
            curve, law, sv[i] % P, sv[(i + 1) % q] % P,
            hint=hint, advance_hint=None if hint is not None else target)
        p_launch[i] = gf.p_star
        P_land[i] = gf.dH_dS
        action += gf.H
        new_hints.append(gf.p_star)
    grad = np.roll(P_land, 1) - p_launch
    return grad, p_launch, P_land, action, new_hints


def periodic_orbit_search(curve, law, rotation, seeds=None,
                          grad_tol=GRAD_TOL, max_iter=40):
    """Find a (p, q) periodic orbit as a critical point of the action.

    Newton iteration on the gradient with a symmetric-difference
    Hessian; a Gauss-Newton style damped step on |grad|^2 is the
    fallback. Seeds are rotation-number configurations started at the
    given base arcs (quarter-cell offsets by default).
    """
    geo._require_smooth(curve, "variational evaluation")
    winding, q = rotation
    if q < 2 or winding < 1 or math.gcd(winding, q) != 1:
        raise InvalidParameter("rotation type needs coprime p >= 1, q >= 2")
    P = curve.perimeter
    if seeds is None:
        seeds = np.linspace(0.0, P / q, 4, endpoint=False)
    last_err = None
    for s0 in np.atleast_1d(seeds):
        sv = float(s0) + np.arange(q) * (winding * P / q)
        try:
            orbit = _newton_orbit(curve, law, sv, winding, q,
                                  grad_tol, max_iter)
        except (NotTransitive, geo.InvalidAngle, Ambiguous) as err:
            last_err = err
            continue
        if orbit is not None:
            return orbit
    raise NotFound("no (%d, %d) orbit from the given seeds%s"
                   % (winding, q,
                      "; last error: %s" % last_err if last_err else ""))


def _newton_orbit(curve, law, sv, winding, q, grad_tol, max_iter):
    P = curve.perimeter
    hints = None
    h = 1e-6 * max(1.0, P)
    g, p_l, P_l, action, hints = _orbit_eval(curve, law, sv, winding, hints)
    for _ in range(max_iter):
        gn = float(np.max(np.abs(g)))
        if gn < grad_tol:
            theta = np.arccos(np.clip(p_l, -1.0, 1.0))
            return PeriodicOrbit(s=sv % P, theta=theta,
                                 rotation=(winding, q),
                                 action=action, residual=gn)
        hess = np.empty((q, q))
        for k in range(q):
            e = np.zeros(q)
            e[k] = h
            gp = _orbit_eval(curve, law, sv + e, winding, hints)[0]
            gm = _orbit_eval(curve, law, sv - e, winding, hints)[0]
            hess[:, k] = (gp - gm) / (2 * h)
        hess = 0.5 * (hess + hess.T)
        step = np.linalg.lstsq(hess, -g, rcond=None)[0]
        cap = 0.15 * P / q
        peak = np.max(np.abs(step))
        if peak > cap:
            step *= cap / peak
        improved = False
        for lam in 2.0 ** -np.arange(7):
            cand = sv + lam * step
            try:
                g2, p2, P2, a2, h2 = _orbit_eval(curve, law, cand,
                                                 winding, hints)
            except NotTransitive:
                continue
            if np.max(np.abs(g2)) < gn:
                sv, g, p_l, P_l, action, hints = cand, g2, p2, P2, a2, h2
                improved = True
                break
        if not improved:
            # descend on |grad|^2 instead; its gradient is hess @ g
            direction = hess @ g
            nd = np.linalg.norm(direction)
            if nd < 1e-15:
                return None
            for lam in 2.0 ** -np.arange(10):
                cand = sv - lam * (0.1 * P / q) * direction / nd
                try:
                    g2, p2, P2, a2, h2 = _orbit_eval(curve, law, cand,
                                                     winding, hints)
                except NotTransitive:
                    continue
                if np.max(np.abs(g2)) < gn:
                    sv, g, p_l, P_l, action, hints = cand, g2, p2, P2, a2, h2
                    improved = True
                    break
            if not improved:
                return None
    return None
