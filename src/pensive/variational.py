"""Variational principle for billiards with a boundary slide.

The one-step generating function is evaluated by solving the transit
equation for the launch direction, and periodic orbits are located as
critical points of the cyclic action sum.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import twist
from .errors import InvalidParameter, InvalidPoint, NotFound, NotTransitive

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
    """p(s) = d/ds |gamma(s) - target| and the distance itself, with the
    unit tangent, gamma(s) - target and the parameter t at s."""
    t = curve.t_of_s(s)
    z = curve.zpoint_t(t)
    tau = curve.tangent_t(t)
    rel = z - target
    rho = np.abs(rel)
    return np.real(np.conj(tau) * rel) / rho, rho, tau, rel, t


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

    p_a, rho_a, tau, rel, t = _cos_to_point(curve, sv, za)
    slide = law.ell(p_a)
    u = (sv + slide) % curve.perimeter
    p_b, rho_b = _cos_to_point(curve, u, zb)[:2]
    value = rho_a + law.potential(p_a) + rho_b

    kap = curve.curvature_t(t)
    dp_a = (1.0 + kap * np.imag(np.conj(tau) * rel) - p_a * p_a) / rho_a
    deriv = (p_a + p_b) * (1.0 + law.dell_dp(p_a) * dp_a)
    if scalar:
        return float(value[0]), float(deriv[0])
    return value, deriv


def single_bounce_critical_points(curve, law, A, B):
    """Roots of the objective's derivative, one per bracketed sign change."""
    P = curve.perimeter
    grid = np.linspace(0.0, P, 720, endpoint=False)
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
    chord: tuple        # (S_cl, Theta, d) of the chosen launch p
    curvatures: tuple   # (k1, k2) at its launch and landing points


def p_star(curve, law, s, S, hint=None, advance_hint=None):
    """Solve the transit equation S_cl(s, p) + l(P_cl(s, p)) = S (mod P).

    Scans a momentum grid, brackets sign changes of the wrapped
    residual, and polishes all bracketed cells together by safeguarded
    Newton steps in p over one batch of chords per pass. Each launch arc
    is inverted to its parameter once, and the curvatures at both ends
    of a chord are read at its parameters. Root selection:
    nearest `advance_hint` in total arc advance, else nearest `hint` in
    p, else smallest |p|.

    s and S may also be equal-length 1-d arrays, one entry per segment,
    with hint and advance_hint each None or an array of that length.
    Then the scan, every polish pass and the validation are one batch
    of chords each over the rows of all segments, and a list with
    one TransitSolve per segment comes back. No row sees the others, so
    each entry is bit for bit the scalar call on its segment; the first
    segment, in order, without a root raises NotTransitive.
    """
    geo._require_smooth(curve, "variational evaluation")
    P = curve.perimeter
    if np.ndim(s) > 1 or any(np.shape(x) != np.shape(s) for x in
                             (S, hint, advance_hint) if x is not None):
        raise InvalidParameter("s, S and hints need one entry per segment")
    scalar = np.ndim(s) == 0
    s, S = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (s, S))
    if not (np.isfinite(s).all() and np.isfinite(S).all()):
        raise InvalidParameter("arc lengths s and S must be finite")
    s, S = s % P, S % P
    n = len(s)
    hint, advance_hint = ([None] * n if x is None else np.atleast_1d(x)
                          for x in (hint, advance_hint))
    t0 = geo._launch_t(curve, s)
    k1 = curve.curvature_t(t0)
    res = _transit_residual(curve, law, s[:, None], t0[:, None], S[:, None],
                            _P_GRID[None, :])[0]
    ra, rb = res[:, :-1], res[:, 1:]
    on_node = ra == 0.0
    # a sign change bigger than half a perimeter is a wrap jump, not a root
    cell = (ra * rb < 0.0) & (np.abs(ra) + np.abs(rb) <= 0.5 * P)
    roots = np.tile(_P_GRID[:-1], (n, 1))
    seg, col = np.nonzero(cell)
    roots[cell] = _polish(curve, law, s[seg], t0[seg], S[seg], k1[seg],
                          _P_GRID[col], _P_GRID[col + 1], ra[cell], rb[cell])
    owner, col = np.nonzero(on_node | cell)
    roots = roots[owner, col]
    res, *cols = _transit_residual(curve, law, s[owner], t0[owner],
                                   S[owner], roots)
    table = np.column_stack([roots, *cols])   # p, advance, S_cl, Theta, d, t2
    picks = []
    for i in range(n):
        good = []
        mine = owner == i
        for r, rr, row in zip(roots[mine], res[mine], table[mine]):
            if abs(rr) < 1e-10 and all(abs(r - g[0]) > 1e-9 for g in good):
                good.append(row)
        if not good:
            raise NotTransitive(
                "no transit direction from s=%.6g to S=%.6g" % (s[i], S[i]))
        arr = np.array(good)
        arr = arr[np.argsort(arr[:, 0])]
        rootv, advv = arr[:, 0], arr[:, 1]
        if advance_hint[i] is not None:
            j = int(np.argmin(np.abs(advv - advance_hint[i])))
        elif hint[i] is not None:
            j = int(np.argmin(np.abs(rootv - hint[i])))
        else:
            j = int(np.argmin(np.abs(rootv)))
        picks.append((rootv, advv, arr[j]))
    # the landing curvature of each chosen launch only
    k2 = curve.curvature_t([row[5] for _, _, row in picks])
    sols = [TransitSolve(roots=rootv, advances=advv, ambiguous=len(rootv) > 1,
                         p=float(row[0]), advance=float(row[1]),
                         chord=tuple(row[2:5].tolist()),
                         curvatures=(float(k1[i]), float(k2[i])))
            for i, (rootv, advv, row) in enumerate(picks)]
    return sols[0] if scalar else sols


def _momentum_grid():
    pg = np.linspace(-1.0, 1.0, 258)[1:-1]   # 256 interior momenta
    # geometric tails so near-grazing transits still get bracketed
    tail = 1.0 - np.geomspace(1e-5, 1.0 - pg[-1], 8)[:-1]
    return np.sort(np.concatenate([-tail[::-1], pg, tail]))


_P_GRID = _momentum_grid()


def _transit_residual(curve, law, s, t0, S, p):
    """Wrapped transit residual and total arc advance of the launches
    p from the arcs s, at the parameters t0, to the arcs S (one of each
    per row), by one batch of chords, with the chords (S_cl, Theta, d)
    and their landing parameters."""
    P = curve.perimeter
    S_cl, Th, d, t2 = geo._chords(curve, t0, np.arccos(p))
    adv = (S_cl - s) % P + law.ell(np.cos(Th))
    return geo.wrap_to_half(adv + s - S, P), adv, S_cl, Th, d, t2


def _polish(curve, law, s, t0, S, k1, a, b, ra, rb):
    """Transit roots in the cells [a, b] of p whose ends have residuals
    ra, rb of opposite signs, all cells together; each row has its own
    launch arc s, launch parameter t0, target S and launch curvature k1.

    Newton in p from the regula falsi point, with dr/dp = -F_theta /
    sin(theta) where F_theta is the slid dS/dtheta, by
    :func:`geometry._newton_rows` on the residual signed negative at a.
    """
    def step(p, s, t0, S, k1, sign):
        r, _, _, Th, d, t2 = _transit_residual(curve, law, s, t0, S, p)
        st = np.sqrt((1.0 - p) * (1.0 + p))
        return -sign * r, r * st / twist._chord_partials(
            d, st, np.sin(Th), k1, curve.curvature_t(t2), law.dtheta(Th))[4]

    return geo._newton_rows(step, a, a, b, -np.abs(ra), np.abs(rb),
                            (s, t0, S, k1, np.sign(ra)), 1e-15)


@dataclass(frozen=True)
class GeneratingFunctionEval:
    """One-step action H(s, S) together with its exact first and second
    partials."""

    s: float
    S: float
    p_star: float
    H: float
    dH_ds: float
    dH_dS: float
    d2H_ds2: float
    d2H_dsdS: float
    d2H_dS2: float


def generating_function(curve, law, s, S, hint=None, advance_hint=None):
    """H(s, S) = chord length to the pre-slide point plus the potential.

    The partials are exact: dH/ds = -p*, dH/dS = P at the pre-slide
    landing point (the slide contributes no work). The second partials
    follow from the transit equation F(s, theta) = S_cl + l(P) - S = 0:
    theta_S = 1 / F_theta and theta_s = -F_s / F_theta, with F_theta the
    slid dS/dtheta and F_s = dS/ds + l~'(Theta) dTheta/ds.
    """
    return _action_partials(law, s, S, p_star(
        curve, law, s, S, hint=hint, advance_hint=advance_hint))


def _action_partials(law, s, S, sol):
    """H(s, S) and its partials for the transit s -> S that the TransitSolve
    sol of `p_star` selected, from the chord of its launch and the
    curvatures at its ends."""
    th = math.acos(sol.p)
    _, Th, d = sol.chord
    P_land = math.cos(Th)
    st, sT = math.sin(th), math.sin(Th)
    slope = float(law.dtheta(Th))
    dS_ds, _, dTh_ds, dTh_dth, F_th = twist._chord_partials(
        d, st, sT, *sol.curvatures, slope)
    th_S = 1.0 / F_th
    th_s = -(dS_ds + slope * dTh_ds) * th_S
    return GeneratingFunctionEval(
        s=float(s), S=float(S), p_star=sol.p, H=d + law.potential(P_land),
        dH_ds=-sol.p, dH_dS=P_land, d2H_ds2=st * th_s, d2H_dsdS=st * th_S,
        d2H_dS2=-sT * dTh_dth * th_S)


@dataclass(frozen=True)
class PeriodicOrbit:
    """A critical cycle of the action sum.

    residue is Greene's residue (2 - tr M) / 4 of the orbit's monodromy
    M: 0 < residue < 1 for an elliptic orbit, below 0 or above 1 for a
    hyperbolic one.
    """

    s: np.ndarray
    theta: np.ndarray
    rotation: tuple
    action: float
    residual: float
    residue: float

    @property
    def period(self):
        return len(self.s)


@dataclass(frozen=True)
class _ActionEval:
    """The cyclic action at one configuration, with its gradient and its
    periodic Jacobi Hessian; b holds the couplings H12 of the segments,
    p_launch their launch momenta (the hints of nearby evaluations)."""

    grad: np.ndarray
    hess: np.ndarray
    b: np.ndarray
    p_launch: np.ndarray
    action: float


def _orbit_eval(curve, law, sv, winding, hints):
    """Action, gradient and analytic Hessian of the cyclic action sum.

    dW/ds_i = P_land(i-1) - p(i). The Hessian has diagonal
    H22(i-1) + H11(i) and off-diagonals H12(i) between i and i+1, summed
    where they meet (q = 2).
    """
    q = len(sv)
    P = curve.perimeter
    s, S = sv % P, np.roll(sv, -1) % P
    sols = p_star(curve, law, s, S, hint=hints, advance_hint=None
                  if hints is not None else np.full(q, winding * P / q))
    gfs = [_action_partials(law, a, b, sol)
           for a, b, sol in zip(s, S, sols)]
    p_launch, P_land, H11, b, H22 = np.array(
        [(gf.p_star, gf.dH_dS, gf.d2H_ds2, gf.d2H_dsdS, gf.d2H_dS2)
         for gf in gfs]).T
    hess = np.diag(H11 + np.roll(H22, 1))
    i = np.arange(q)
    hess[i, (i + 1) % q] += b
    hess[(i + 1) % q, i] += b
    return _ActionEval(grad=np.roll(P_land, 1) - p_launch, hess=hess, b=b,
                       p_launch=p_launch, action=sum(gf.H for gf in gfs))


def periodic_orbit_search(curve, law, rotation, seeds=None):
    """Find a (p, q) periodic orbit as a critical point of the action.

    Newton iteration on the gradient with the analytic cyclic
    tridiagonal Hessian; a damped descent on |grad|^2 is the fallback.
    Seeds are rotation-number configurations started at the given base
    arcs (quarter-cell offsets by default). The orbit's residue comes
    from the Hessian at the solution, R = -det(hess) / (4 prod(-H12)).
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
            orbit = _newton_orbit(curve, law, sv, winding, q)
        except (NotTransitive, geo.InvalidAngle) as err:
            last_err = err
            continue
        if orbit is not None:
            return orbit
    raise NotFound("no (%d, %d) orbit from the given seeds%s"
                   % (winding, q,
                      "; last error: %s" % last_err if last_err else ""))


def _newton_orbit(curve, law, sv, winding, q):
    P = curve.perimeter
    ev = _orbit_eval(curve, law, sv, winding, None)
    for _ in range(40):
        gn = float(np.max(np.abs(ev.grad)))
        if gn < GRAD_TOL:
            theta = np.arccos(np.clip(ev.p_launch, -1.0, 1.0))
            residue = -np.linalg.det(ev.hess) / (4.0 * np.prod(-ev.b))
            return PeriodicOrbit(s=sv % P, theta=theta,
                                 rotation=(winding, q), action=ev.action,
                                 residual=gn, residue=float(residue))
        step = np.linalg.lstsq(ev.hess, -ev.grad, rcond=None)[0]
        cap = 0.15 * P / q
        peak = np.max(np.abs(step))
        if peak > cap:
            step *= cap / peak
        for cand in _candidates(sv, ev, step, 0.1 * P / q):
            try:
                ev2 = _orbit_eval(curve, law, cand, winding, ev.p_launch)
            except NotTransitive:
                continue
            if np.max(np.abs(ev2.grad)) < gn:
                sv, ev = cand, ev2
                break
        else:
            return None
    return None


def _candidates(sv, ev, step, reach):
    """The line search of one Newton iteration: the step halved 7 times,
    then 10 halvings of a descent on |grad|^2 (its gradient is
    hess @ grad) out to reach, unless that direction vanishes."""
    for lam in 2.0 ** -np.arange(7):
        yield sv + lam * step
    direction = ev.hess @ ev.grad
    nd = np.linalg.norm(direction)
    if not nd < 1e-15:
        for lam in 2.0 ** -np.arange(10):
            yield sv - lam * reach * direction / nd
