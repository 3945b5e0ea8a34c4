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
# the largest period q periodic_orbit_search takes: each action evaluation
# scans q transits, about 270 landing nodes each, and solves a dense
# q x q Hessian
MAX_PERIOD = 256


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


def _check_finite_arcs(*arcs):
    """Raise InvalidParameter unless every arc length given is finite,
    before any reduction mod P."""
    if not all(np.isfinite(a).all() for a in arcs):
        raise InvalidParameter("arc lengths must be finite")


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
    _check_finite_arcs(s)
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

    Scans landing parameters for the total arc advance
    adv = (S_cl - s) mod P + l(cos Theta): from each launch parameter t0,
    one row of nodes t2 in (t0, t0 + 2 pi), where the chord
    z(t0) -> z(t2) gives its launch momentum p, its landing angle Theta
    and the advance explicitly, so the scan solves no chord
    (:func:`_scan_nodes`). Its interior nodes sit near the momenta of a
    grid of 270, and a guard node at each end lies beyond the grid's
    range |p| <= 1 - 1e-5, so the ends of that range stay bracketed.
    With D = (S - s) mod P, a node cell brackets one root for each
    integer k with D + kP strictly between the advances at its ends; a
    node in range whose wrapped residual is within rounding of 0 is a
    root there.

    All (cell, k) rows are polished together in two stages by
    :func:`geometry._newton_rows`. First in t2 on the node cell, where
    the chord, its launch momentum and the advance are explicit, so these
    passes solve no chord either. Their step tolerance is 4e-15, a few
    ulps of t2: t2 reaches t0 + 2 pi, above 8, where a tolerance of
    1e-15 is under one ulp and no step can meet it. Roots past the
    grid's range are dropped there. Then in p, from the momentum of the
    t2 root, on the momenta of the cell's two nodes cut to that range,
    with dr/dp = -F_theta / sin(theta) (F_theta the slid dS/dtheta) over
    one batch of chords per pass, usually one: p is the root the caller
    gets, and the chord re-solved from the converted p can miss the
    validation bound (residuals up to 2e-10 on ellipse(20, 0.05)) where
    the finished p meets it.
    Validation re-solves the chord of every root from p and keeps those
    with wrapped residual under 1e-10, 1e-9 apart; on a non-convex table,
    where the chord z(t0) -> z(t2) may leave the table, it drops the
    false roots of those nodes. Each launch arc is inverted to its
    parameter once, and the curvatures at both ends of a chord are read
    at its parameters.
    Root selection: nearest `advance_hint` in total arc advance, else
    nearest `hint` in p, else smallest |p|.

    s and S may also be equal-length 1-d arrays, one entry per segment,
    with hint and advance_hint each None or an array of that length.
    Then the scan, every polish pass and the validation are one batch
    each over the rows of all segments, and a list with one TransitSolve
    per segment comes back. No row sees the others, so each entry is bit
    for bit the scalar call on its segment; the first segment, in order,
    without a root raises NotTransitive.
    """
    geo._require_smooth(curve, "variational evaluation")
    P = curve.perimeter
    if np.ndim(s) > 1 or any(np.shape(x) != np.shape(s) for x in
                             (S, hint, advance_hint) if x is not None):
        raise InvalidParameter("s, S and hints need one entry per segment")
    scalar = np.ndim(s) == 0
    s, S = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (s, S))
    _check_finite_arcs(s, S)
    s, S = s % P, S % P
    n = len(s)
    hint, advance_hint = ([None] * n if x is None else np.atleast_1d(x)
                          for x in (hint, advance_hint))
    t0 = geo._launch_t(curve, s)
    k1 = curve.curvature_t(t0)
    t0c = t0[:, None]
    t2, chord, pn = _scan_nodes(curve, t0c)
    adv = _advance_t2(curve, law, s[:, None], chord, t2)[0]
    D = (S - s) % P
    seg, col, target = _advance_cells(adv, D, P)
    fa, fb = adv[seg, col] - target, adv[seg, col + 1] - target
    p = _polish_t2(curve, law, s[seg], t0[seg], target,
                   t2[seg, col], t2[seg, col + 1], fa, fb)
    # roots beyond the momentum grid's range by more than rounding are
    # dropped; the finish in p, its brackets cut to the range, keeps the
    # rest in it
    keep = _in_range(p)
    seg, col, target, fa, fb, p = (x[keep] for x in
                                   (seg, col, target, fa, fb, p))
    p = _polish_p(curve, law, s[seg], t0[seg], S[seg], k1[seg], target, p,
                  pn[seg, col], pn[seg, col + 1], fa, fb)
    # a node in range whose wrapped residual is within rounding of 0: the
    # cells beside it need not bracket its root
    node_seg, node_col = np.nonzero(
        (np.abs(geo.wrap_to_half(adv + s[:, None] - S[:, None], P))
         <= 8.0 * np.spacing(P)) & _in_range(pn))
    owner = np.concatenate([node_seg, seg])
    roots = np.concatenate(
        [np.clip(pn[node_seg, node_col], -_P_END, _P_END), p])
    order = np.lexsort((roots, owner))
    owner, roots = owner[order], roots[order]
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
# the momentum range of the roots p_star returns, |p| <= 1 - 1e-5
_P_END = _P_GRID[-1]


def _in_range(p):
    """Whether the momenta p lie in the grid's range |p| <= _P_END, to
    within rounding."""
    return np.abs(p) <= _P_END + 1e-14


def _node_turns():
    """The tangent turning from the launch at each scan node: 2 theta for
    each angle theta = arccos(p) of the momentum grid, where a chord of
    the disk at angle theta lands, and a guard node at each end, at half
    the turning of the grid's end. A convex oval's chord makes an angle
    under the turning it spans, so the guards' momenta lie beyond the
    grid's ends, which stay bracketed."""
    th = np.arccos(_P_GRID)
    return np.concatenate([[2.0 * np.pi - th[-1]], 2.0 * th, [th[-1]]])


_NODE_TURNS = _node_turns()
# the grid's angles, rising: where refinement puts the interior nodes
_THETA_UP = np.arccos(_P_GRID)[::-1]
# the widest scan cell in momentum between interior nodes that needs no
# refinement, and the refinement passes a row may take
_WIDE = 2.0 * np.diff(_P_GRID)
_REFINE_PASSES = 4
# the most periods of advance one scan cell is searched over
_MAX_SPAN = 1000.0


def _scan_nodes(curve, t0):
    """The scan's landing parameters t2 in (t0, t0 + 2 pi) from the launch
    parameters t0 (an (n, 1) array), one row per launch, falling along
    the row, with the chord vectors z(t2) - z(t0) and the launch momenta
    there, which rise along the row on a convex oval.

    The nodes start where the tangent has turned by _NODE_TURNS, read off
    the curve's absolute turning table: on the disk, the grid itself. On
    a convex oval, where two neighbouring interior nodes of a row lie
    more than twice the momentum grid's cell apart (a thin table seen
    from its flat side), up to _REFINE_PASSES passes move the interior
    nodes, the guards kept, to where the row's chord angles, which rise
    with t2, interpolate the grid's angles arccos(p). A non-convex
    table, where a chord's angle need not rise with t2, keeps the
    turning's nodes.
    """
    tc, turn = curve._t_closed, curve._turning_nodes
    u = np.interp(geo._wrap(t0), tc, turn) + _NODE_TURNS
    lap = u >= geo.TWO_PI
    t2 = np.interp(np.where(lap, u - geo.TWO_PI, u), turn, tc) + np.where(
        lap, geo.TWO_PI, 0.0)
    c, dz0 = curve._zdiff(t2, t0), curve._dzf(geo._wrap(t0))
    p = _launch_momentum(c, dz0)
    for i in np.flatnonzero(_coarse(p) & curve.is_convex):
        for _ in range(_REFINE_PASSES):
            # the chord angles from the launch tangent with t2 rising, kept
            # from falling by rounding, and the nodes they put at the grid
            phi = np.maximum.accumulate(np.angle(c[i, ::-1]
                                                 * np.conj(dz0[i])))
            t2[i, -2:0:-1] = np.interp(_THETA_UP, phi, t2[i, ::-1])
            c[i] = curve._zdiff(t2[i], t0[i])
            p[i] = _launch_momentum(c[i], dz0[i])
            if not _coarse(p[i:i + 1])[0]:
                break
    return t2, c, p


def _coarse(p):
    """Whether each row of scan momenta p has two neighbouring interior
    nodes more than twice the momentum grid's cell apart."""
    return (np.abs(np.diff(p[:, 1:-1], axis=1)) > _WIDE).any(axis=1)


def _advance_t2(curve, law, s, c, t2):
    """The transit advance adv = (S_cl - s) mod P + l~(Theta) of the chords
    c = z(t2) - z(t0) launched from the arcs s, with no chord solve: S_cl
    is the arc at t2 and Theta the landing angle. Also t2 wrapped to
    [0, 2 pi), z'(t2), q = z'(t2) conj(c) and Theta."""
    P = curve.perimeter
    tw = geo._wrap(t2)
    dz = curve._dzf(tw)
    q = dz * np.conj(c)
    Th = np.arctan2(np.abs(q.imag), q.real)
    adv = (np.mod(curve.arclen_t(tw), P) - s) % P + law.ell(np.cos(Th))
    return adv, tw, dz, q, Th


def _launch_momentum(c, dz0):
    """The launch momenta cos(theta) of the chord vectors c from launch
    points where the curve's derivative is dz0."""
    return np.real(c * np.conj(dz0)) / (np.abs(c) * np.abs(dz0))


def _transit_residual(curve, law, s, t0, S, p):
    """Wrapped transit residual and total arc advance of the launches
    p from the arcs s, at the parameters t0, to the arcs S (one of each
    per row), by one batch of chords, with the chords (S_cl, Theta, d)
    and their landing parameters."""
    P = curve.perimeter
    S_cl, Th, d, t2 = geo._chords(curve, t0, np.arccos(p))
    adv = (S_cl - s) % P + law.ell(np.cos(Th))
    return geo.wrap_to_half(adv + s - S, P), adv, S_cl, Th, d, t2


def _advance_cells(adv, D, P):
    """The (cell, k) rows of a scan of advances adv, one row of node
    values per segment: a row for each segment i, node cell j and
    integer k with D[i] + kP strictly between adv[i, j] and adv[i, j + 1].
    Returns their segments, cells and targets D + kP, ordered by segment,
    cell and k. Cells with a non-finite end give none, and so do cells
    whose advance spans more than _MAX_SPAN periods: beside a landing
    near grazing under an unbounded slide, where a non-convex table's
    chord z(t0) -> z(t2) can meet its boundary, a cell may span any
    number, and this bounds the rows one call takes."""
    a, b = adv[:, :-1], adv[:, 1:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    seg, col = np.nonzero(np.isfinite(lo) & (hi - lo <= _MAX_SPAN * P))
    lo, hi, D = lo[seg, col], hi[seg, col], D[seg]
    # every k the strict test below can pass, with a margin for rounding
    k0 = np.floor((lo - D) / P)
    reps = (np.floor((hi - D) / P) - k0 + 2).astype(int)
    first = np.repeat(np.cumsum(reps) - reps, reps)
    seg, col, lo, hi, D = (np.repeat(x, reps) for x in (seg, col, lo, hi, D))
    target = D + (np.repeat(k0, reps) + np.arange(len(first)) - first) * P
    keep = (lo < target) & (target < hi)
    return seg[keep], col[keep], target[keep]


def _ordered(a, b, fa, fb):
    """Brackets as :func:`geometry._newton_rows` takes them, from ends a
    and b in either order with residuals fa and fb of opposite signs:
    (lo, hi, flo, fhi, sign), the residuals times sign so flo < 0 < fhi."""
    swap = a > b
    lo, hi = np.where(swap, b, a), np.where(swap, a, b)
    flo, fhi = np.where(swap, fb, fa), np.where(swap, fa, fb)
    sign = -np.sign(flo)
    return lo, hi, sign * flo, sign * fhi, sign


def _polish_t2(curve, law, s, t0, target, ta, tb, fa, fb):
    """Launch momenta of the transit roots bracketed in the landing
    parameter, all rows together: row i has launch arc s[i] at parameter
    t0[i], and its advance minus target[i] is fa[i] at ta[i] and fb[i],
    of the other sign, at tb[i].

    The chord from z(t0) to z(t2) gives the advance
    (:func:`_advance_t2`), and d adv / d t2 = |z'(t2)| (1 + l~'(Theta)
    (kappa(t2) - sin(Theta) / d)), d the chord length: Newton in t2 by
    :func:`geometry._newton_rows` solves no chord. The momentum of the
    root is the cosine of the launch angle of its chord.
    """
    last = np.full(len(s), np.nan)     # each row's point of the pass before

    def step(t, s, t0, target, sign, row):
        c = curve._zdiff(t, t0)
        adv, tw, dz, q, Th = _advance_t2(curve, law, s, c, t)
        r = adv - target
        sp = np.abs(dz)
        kap = np.imag(np.conj(dz) * curve._d2zf(tw)) / sp ** 3
        sin_d = np.abs(q.imag) / (sp * np.abs(c) ** 2)    # sin(Theta) / d
        dt = -r / (sp * (1.0 + law.dtheta(Th) * (kap - sin_d)))
        # a step back to the point before is a 2-cycle on the residual's
        # rounding (a steep slide law near grazing): the row stops here
        dt[t + dt == last[row]] = 0.0
        last[row] = t
        return sign * r, dt

    # t2 falls as p rises on a convex oval; a shadow jump may reverse it
    lo, hi, flo, fhi, sign = _ordered(ta, tb, fa, fb)
    t = geo._newton_rows(step, lo, lo, hi, flo, fhi,
                         (s, t0, target, sign, np.arange(len(s))), 4e-15)
    return _launch_momentum(curve._zdiff(t, t0), curve._dzf(geo._wrap(t0)))


def _polish_p(curve, law, s, t0, S, k1, target, p, a, b, fa, fb):
    """Transit roots between the momenta a and b, each row from its start
    p: the advance minus target[i] is fa[i] at a[i] and fb[i], of the
    other sign, at b[i]; each row has its own launch arc s, launch
    parameter t0, end arc S and launch curvature k1. The brackets are cut
    to the momentum grid's range, so no chord is solved beyond it.

    Newton in p with dr/dp = -F_theta / sin(theta), F_theta the slid
    dS/dtheta, by :func:`geometry._newton_rows` over one batch of chords
    per pass.
    """
    def step(p, s, t0, S, k1, target, sign):
        _, adv, _, Th, d, t2 = _transit_residual(curve, law, s, t0, S, p)
        r = adv - target
        st = np.sqrt((1.0 - p) * (1.0 + p))
        return sign * r, r * st / twist._chord_partials(
            d, st, np.sin(Th), k1, curve.curvature_t(t2), law.dtheta(Th))[4]

    lo, hi, flo, fhi, sign = _ordered(a, b, fa, fb)
    lo, hi = (np.clip(x, -_P_END, _P_END) for x in (lo, hi))
    return geo._newton_rows(step, p, lo, hi, flo, fhi,
                            (s, t0, S, k1, target, sign), 1e-15)


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
    The period q is at most MAX_PERIOD, checked before any work.
    """
    geo._require_smooth(curve, "variational evaluation")
    winding, q = _check_rotation(rotation)
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


def _check_rotation(rotation):
    """(p, q) of a rotation type: coprime p >= 1 and 2 <= q <= MAX_PERIOD,
    else InvalidParameter."""
    winding, q = rotation
    if q < 2 or winding < 1 or math.gcd(winding, q) != 1:
        raise InvalidParameter("rotation type needs coprime p >= 1, q >= 2")
    if q > MAX_PERIOD:
        raise InvalidParameter("period q = %d is over the cap MAX_PERIOD = %d"
                               % (q, MAX_PERIOD))
    return winding, q


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
