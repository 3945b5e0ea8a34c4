"""30-digit references for the convex test tables, in mpmath: chords
(the landing arc, angle and length, and the curvature at the landing),
the launch momenta of the slid map's transits from one arc to another,
and the outer map's right tangencies and bearing slides.

Each table is rebuilt from its closed form: the disk's chords in closed
form, the ellipse's arc length from the incomplete elliptic integral
``mp.ellipe`` and the Neumann oval's from the cosine series of
|F'(e^{it})|, integrated term by term.
The launch parameter t0 solves arc length = s by safeguarded Newton.
The landing is the root of Im(conj(d) (z(t) - z(t0))) strictly inside
(t0, t0 + 2 pi), d the ray direction: on a convex table it is the only
one there. A scan whose nodes crowd both ends of that window brackets
it, with one sign change certified, and ``mp.findroot`` polishes it.
The curvature there is Im(conj(z') z'') / |z'|^3.

A transit solves adv(theta) = D + kP for some integer k, adv the
chord's arc advance plus the slide in closed form and D = (S - s) mod P:
a scan in theta brackets each k between neighbouring advances, and
``mp.findroot`` polishes it on the chord above.

The right tangency of an exterior point X is the zero of
Im(conj z'(t) (X - z(t))) where it falls, and the slide by a turn is
the parameter where the unit tangent reaches the launch tangent turned
by that angle, on the period the whole turns give: each is bracketed
by a 64-node scan with one sign change certified, then polished by
``mp.findroot``.

The generalized puck's slide l(p), its derivative l'(p) and potential
V(p) = T(p) - 1 (T the crossing time) are ``mp.quad`` integrals over the
strip of the cylinder metric's profile f = 1 + g, with f - p^2 written
g + (1 - p)(1 + p): the profiles are the package's named ones, written
anew here, and the cubic spline through a table of f - 1.

Nothing here reads the package under test, so the reference stays
independent of the float code it checks.
"""

import bisect

import mpmath as mp
import numpy as np
from scipy.interpolate import CubicSpline

DPS = 30
# working precision: ten guard digits over the reported 30
_WORK = DPS + 10


class Table:
    """One convex table in mpmath: z(t), z'(t), z''(t), the arc length
    from t = 0 for t in [0, 2 pi], and the perimeter. The factories round
    their constants at the working precision, not at mpmath's default 15
    digits."""

    def __init__(self, z, dz, d2z, arclen):
        self.z, self.dz, self.d2z, self.arclen = z, dz, d2z, arclen
        with mp.workdps(_WORK):
            self.perimeter = arclen(2 * mp.pi)


def disk(radius=1.0):
    r = mp.mpf(radius)
    tab = Table(lambda t: r * mp.expj(t), lambda t: 1j * r * mp.expj(t),
                lambda t: -r * mp.expj(t), lambda t: r * t)
    tab.radius = r
    return tab


def ellipse(a, b):
    a, b = mp.mpf(a), mp.mpf(b)
    with mp.workdps(_WORK):
        m = 1 - (a / b) ** 2
    return Table(lambda t: mp.mpc(a * mp.cos(t), b * mp.sin(t)),
                 lambda t: mp.mpc(-a * mp.sin(t), b * mp.cos(t)),
                 lambda t: mp.mpc(-a * mp.cos(t), -b * mp.sin(t)),
                 lambda t: b * mp.ellipe(t, m))


def neumann_oval(lam):
    """z = F(e^{it}) with F(Z) = a Z / (1 - lam^2 Z^2), area pi."""
    with mp.workdps(_WORK):
        l2 = mp.mpf(lam) ** 2
        a = (1 - l2 * l2) / mp.sqrt(1 + l2 * l2)

    def speed(t):
        Z = mp.expj(t)
        return abs(a * (1 + l2 * Z * Z) / (1 - l2 * Z * Z) ** 2)

    # the speed is even, of period pi and analytic in w = e^{2it} for
    # l2 < |w| < 1 / l2, so its cosine coefficients fall like l2^m: M
    # terms reach the working precision, and the trapezoid rule on 2M
    # nodes of the period gives each to about l2^M
    with mp.workdps(_WORK):
        M = int(_WORK / -mp.log10(l2)) + 4 if l2 > 0 else 0
        N = 2 * M + 1
        vals = [speed(mp.pi * j / N) for j in range(N)]
        # cos(2 pi m j / N) takes N values, read by m j mod N
        cosines = [mp.cos(2 * mp.pi * j / N) for j in range(N)]
        coef = [mp.fsum(v * cosines[m * j % N] for j, v in enumerate(vals))
                / N for m in range(M + 1)]

    def arclen(t):
        # the speed's cosine series integrated term by term
        return coef[0] * t + mp.fsum(coef[m] * mp.sin(2 * m * t) / m
                                     for m in range(1, M + 1))

    def z(t):
        Z = mp.expj(t)
        return a * Z / (1 - l2 * Z * Z)

    def dz(t):
        Z = mp.expj(t)
        return a * (1 + l2 * Z * Z) / (1 - l2 * Z * Z) ** 2 * 1j * Z

    def d2z(t):
        # -(F''(Z) Z^2 + F'(Z) Z)
        Z = mp.expj(t)
        w = 1 - l2 * Z * Z
        return -(2 * a * l2 * Z * (3 + l2 * Z * Z) / w ** 3 * Z * Z
                 + a * (1 + l2 * Z * Z) / w ** 2 * Z)

    return Table(z, dz, d2z, arclen)


def arclen(tab, t):
    """The table's arc length from 0 to t in [0, 2 pi], t taken as the
    exact binary value of the float given; mpf at 30 digits."""
    with mp.workdps(_WORK):
        return _at_dps((tab.arclen(mp.mpf(t)),))[0]


def _t_of_s(tab, s):
    """The parameter in [0, 2 pi) where the arc length is s: Newton at 18
    digits from the equal-speed guess, then at full precision."""
    with mp.workdps(18):
        t = _arc_newton(tab, s, 2 * mp.pi * s / tab.perimeter, 1e-12)
    return _arc_newton(tab, s, t, 1e-20)


def _arc_newton(tab, s, t, tol):
    """Newton steps on arclen(t) = s, bisecting the bracket [0, 2 pi]
    whenever a step leaves it. Returns after a step under tol: the
    convergence is quadratic, so the error left is about its square."""
    lo, hi = mp.mpf(0), 2 * mp.pi
    for _ in range(200):
        f = tab.arclen(t) - s
        if f == 0:
            return t
        if f < 0:
            lo = t
        else:
            hi = t
        tn = t - f / abs(tab.dz(t))
        if not lo < tn < hi:
            tn = (lo + hi) / 2
        elif abs(tn - t) < tol:
            return tn
        t = tn
    raise ArithmeticError("arc length did not invert at s=%s" % s)


def _scan_fractions():
    """Fractions of the window, crowded geometrically at both ends."""
    with mp.workdps(_WORK):
        head = [mp.mpf(10) ** (-16 + k / mp.mpf(4)) for k in range(62)]
        head = [x for x in head if x < mp.mpf(1) / 2]
        return head + [mp.mpf(1) / 2] + [1 - x for x in reversed(head)]


_FRACTIONS = _scan_fractions()
# a launch at least 1e-5 in momentum off grazing lands over 1e-4 of the
# window from either end on the transit tables
_TRANSIT_FRACTIONS = [x for x in _FRACTIONS if 1e-6 <= x <= 1 - 1e-6]


def chord(tab, s, theta):
    """(s2, Theta, length, kappa2) of the chord leaving arc s at angle
    theta, kappa2 the curvature at the landing, as mpf at 30 digits. s and
    theta are taken as the exact binary values of the floats given."""
    with mp.workdps(_WORK):
        s, theta = mp.mpf(s), mp.mpf(theta)
        P = tab.perimeter
        s = s % P
        if hasattr(tab, "radius"):      # the disk, in closed form
            r = tab.radius
            out = ((s + 2 * r * theta) % P, theta, 2 * r * mp.sin(theta),
                   1 / r)
            return _at_dps(out)
        return _at_dps(_chord_from(tab, _t_of_s(tab, s), theta))


def _chord_from(tab, t0, theta, fractions=_FRACTIONS):
    """chord's (s2, Theta, length, kappa2) from the launch parameter t0,
    at the working precision, the landing scanned at the fractions of
    the window given."""
    z0 = tab.z(t0)
    tau0 = tab.dz(t0) / abs(tab.dz(t0))
    cd = mp.conj(tau0 * mp.expj(theta))

    def g(t):
        return mp.im(cd * (tab.z(t) - z0))

    nodes = [t0 + 2 * mp.pi * x for x in fractions]
    vals = [g(t) for t in nodes]
    flips = [k for k in range(len(vals) - 1)
             if (vals[k] < 0) != (vals[k + 1] < 0)]
    if len(flips) != 1 or vals[0] >= 0 or vals[-1] <= 0:
        raise ArithmeticError("landing not isolated at t0=%s theta=%s"
                              % (t0, theta))
    k = flips[0]
    ts = mp.findroot(g, (nodes[k], nodes[k + 1]), solver="anderson")
    if not nodes[k] <= ts <= nodes[k + 1]:
        raise ArithmeticError("landing left its bracket")
    dz = tab.dz(ts)
    q = dz / abs(dz) * cd
    return (tab.arclen(ts % (2 * mp.pi)) % tab.perimeter,
            mp.atan2(abs(mp.im(q)), mp.re(q)), abs(tab.z(ts) - z0),
            mp.im(mp.conj(dz) * tab.d2z(ts)) / abs(dz) ** 3)


def _at_dps(values):
    with mp.workdps(DPS):
        return tuple(+x for x in values)


def wrapped_error(value, ref, period):
    """|value - ref| as a float, reduced modulo period into [0, period/2]."""
    with mp.workdps(_WORK):
        e = (mp.mpf(value) - ref + period / 2) % period - period / 2
        return float(abs(e))


def error(value, ref):
    with mp.workdps(_WORK):
        return float(abs(mp.mpf(value) - ref))


def relative_error(value, ref):
    with mp.workdps(_WORK):
        return float(abs(mp.mpf(value) - ref) / abs(ref))


def launches(perimeter, seed, n=8):
    """A seeded sample of launches (s, theta): n at each grazing end,
    gaps log-uniform in [1e-5, 1], arcs uniform on [0, perimeter)."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, perimeter, 2 * n)
    gap = 10.0 ** rng.uniform(-5.0, 0.0, 2 * n)
    return s, np.concatenate([gap[:n], np.pi - gap[n:]])


def chord_errors(chord_fn, curve, tab, seed, n=8):
    """The errors of chord_fn(curve, s, theta) in (s2 mod P, Theta,
    length) against the table tab, one row per launch of
    launches(curve.perimeter, seed, n), the values returned, and the
    references' landing curvatures."""
    s, theta = launches(curve.perimeter, seed, n)
    errs, vals, kappa = [], [], []
    for si, ti in zip(s.tolist(), theta.tolist()):
        got = chord_fn(curve, si, ti)
        want = chord(tab, si, ti)
        errs.append((wrapped_error(got[0], want[0], tab.perimeter),
                     error(got[1], want[1]), error(got[2], want[2])))
        vals.append(got)
        kappa.append(want[3])
    return np.array(errs), np.array(vals), kappa


def _slide(law, theta):
    """l~(theta) of the slide law law = (tag, parameter) in closed form:
    vortex(L), constant(c), linear(slope) or puck(h)."""
    tag, x = law
    x = mp.mpf(x)
    if tag == "vortex":
        p = mp.cos(theta)
        return x * (1 - p / mp.sqrt(1 + p * p))
    if tag == "constant":
        return x
    if tag == "linear":
        return x * theta
    if tag == "puck":
        return x * mp.cot(theta)
    raise ValueError("no closed form for the slide law %r" % (tag,))


def _theta_nodes(n):
    """n + 1 launch angles over the momenta |p| <= 1 - 1e-5 of the float
    scan, crowded at both grazing ends as 1 - cos does."""
    with mp.workdps(_WORK):
        lo = mp.acos(mp.mpf(1.0 - 1e-5))
        return [lo + (mp.pi - 2 * lo) * (1 - mp.cos(mp.pi * k / n)) / 2
                for k in range(n + 1)]


def transit(tab, law, s, S, n=32):
    """The launch momenta p = cos(theta), |p| <= 1 - 1e-5, of every transit
    from arc s to arc S (mod P) in one step of the slid map: the roots of
    adv(theta) - D - kP, adv = (s2 - s) mod P + l~(Theta) the total arc
    advance of the chord and D = (S - s) mod P. law is (tag, parameter)
    as :func:`_slide` takes it; s and S are the exact binary values of
    the floats given.

    A scan of n + 1 angles brackets one root for each integer k with
    D + kP strictly between the advances at neighbouring angles, and
    ``mp.findroot`` polishes it on this module's chord. Returns the
    momenta ascending, as mpf at 30 digits."""
    with mp.workdps(_WORK):
        P = tab.perimeter
        s, S = mp.mpf(s) % P, mp.mpf(S) % P
        D = (S - s) % P
        t0 = None if hasattr(tab, "radius") else _t_of_s(tab, s)

        def advance(theta):
            if t0 is None:      # the disk: s2 = s + 2 r theta, Theta = theta
                return 2 * tab.radius * theta + _slide(law, theta)
            s2, Th = _chord_from(tab, t0, theta, _TRANSIT_FRACTIONS)[:2]
            return (s2 - s) % P + _slide(law, Th)

        nodes = _theta_nodes(n)
        vals = [advance(th) for th in nodes]
        roots = []
        for a, b, fa, fb in zip(nodes, nodes[1:], vals, vals[1:]):
            lo, hi = min(fa, fb), max(fa, fb)
            for k in range(int(mp.floor((lo - D) / P)),
                           int(mp.floor((hi - D) / P)) + 1):
                target = D + k * P
                if not lo < target < hi:
                    continue
                th = mp.findroot(lambda x: advance(x) - target, (a, b),
                                 solver="anderson")
                if not a <= th <= b:
                    raise ArithmeticError("transit root left its bracket")
                roots.append(mp.cos(th))
        return _at_dps(sorted(roots))


def segments(perimeter, seed, n=4):
    """A seeded sample of n segments (s, S), both uniform on
    [0, perimeter)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, perimeter, (n, 2)).tolist()


def transit_errors(p_star_fn, curve, law, tab, seed, n=4, scan=32):
    """The errors of the roots of p_star_fn(curve, law, s, S) against
    :func:`transit` on tab with a scan of scan + 1 angles, over
    segments(curve.perimeter, seed, n): the distance of each root
    returned to the nearest reference, in one array over all segments,
    and per segment the (returned, reference) root counts. law is the
    package's slide law; its tag and parameter name the closed form. A
    segment on which p_star_fn raises NotTransitive returned no root."""
    spec = (law.tag, *law.params.values())
    errs, counts = [], []
    for s, S in segments(curve.perimeter, seed, n):
        try:
            got = p_star_fn(curve, law, s, S).roots
        except Exception as err:
            if type(err).__name__ != "NotTransitive":
                raise
            got = np.array([])
        want = transit(tab, spec, s, S, scan)
        errs += [min(error(r, ref) for ref in want) for r in got.tolist()]
        counts.append((len(got), len(want)))
    return np.array(errs), counts


def _scan_root(g, nodes, rising, admit=lambda t: True):
    """The one admitted root of g among the cells of the ascending nodes
    where it changes sign in the given sense, each polished by
    mp.findroot; a root is admitted where it lies, not by its cell's
    nodes."""
    vals = [g(t) for t in nodes]
    roots = []
    for k in range(len(nodes) - 1):
        if vals[k] < 0 < vals[k + 1] if rising else vals[k] > 0 > vals[k + 1]:
            t = mp.findroot(g, (nodes[k], nodes[k + 1]), solver="anderson")
            if not nodes[k] <= t <= nodes[k + 1]:
                raise ArithmeticError("root left its bracket")
            if admit(t):
                roots.append(t)
    if len(roots) != 1:
        raise ArithmeticError("root not isolated by the scan")
    return roots[0]


def tangency(tab, x, y):
    """(t, r) of the right tangency of the exterior point (x, y): t in
    [0, 2 pi) with (x, y) = z(t) + r T(t), r > 0, as mpf at 30 digits."""
    with mp.workdps(_WORK):
        X = mp.mpc(x, y)

        def f(t):
            return mp.im(mp.conj(tab.dz(t)) * (X - tab.z(t)))

        t = _scan_root(f, [2 * mp.pi * k / 64 for k in range(65)], False)
        dz = tab.dz(t)
        r = mp.re(mp.conj(dz) * (X - tab.z(t))) / abs(dz)
        if r <= 0:
            raise ArithmeticError("no right tangency at (%s, %s)" % (x, y))
        return _at_dps((t % (2 * mp.pi), r))


def slide(tab, t0, turn):
    """The parameter, unwrapped, at which the tangent bearing has turned
    by `turn` from t0, as an mpf at 30 digits. t0 and turn are taken as
    the exact binary values of the floats given."""
    with mp.workdps(_WORK):
        t0, turn = mp.mpf(t0), mp.mpf(turn)
        p = mp.floor(turn / (2 * mp.pi))
        # the unit tangent the slide reaches: it passes through it with
        # Im(conj w z') rising through zero, once in the period from t0
        w = tab.dz(t0) / abs(tab.dz(t0)) * mp.expj(turn - 2 * mp.pi * p)

        def g(t):
            return mp.im(mp.conj(w) * tab.dz(t))

        u = _scan_root(g, [t0 + 2 * mp.pi * k / 64 for k in range(65)],
                       True, lambda t: mp.re(mp.conj(w) * tab.dz(t)) > 0)
        return _at_dps((u + 2 * mp.pi * p,))[0]


def puck_profile(name, amp):
    """(g, zeros): the excess g = f - 1 of the named cylinder profile
    ("bump", "double_bump" or "skew" at amplitude amp) as an mp callable,
    and the points of [0, 1] where it vanishes."""
    A = mp.mpf(amp)
    if name == "bump":
        return (lambda y: A * mp.sin(mp.pi * y) ** 2), [0, 1]
    if name == "double_bump":
        return (lambda y: A * mp.sin(2 * mp.pi * y) ** 2), [0, 0.5, 1]
    if name == "skew":
        return (lambda y: A * (mp.sin(mp.pi * y) ** 2 + mp.sin(mp.pi * y) ** 4
                               * mp.cos(mp.pi * y) / 2)), [0, 1]
    raise ValueError("no profile %r" % (name,))


def puck_table(y, fvals):
    """(g, points): the excess of the profile tabulated as (y, f): scipy's
    not-a-knot cubic spline through (y, f - 1), clamped at 0, evaluated
    exactly from its float coefficients; the knots and the spline's
    interior zeros, where the clamp leaves a kink."""
    spl = CubicSpline(np.asarray(y, dtype=float),
                      np.asarray(fvals, dtype=float) - 1.0)
    x = [mp.mpf(v) for v in spl.x.tolist()]
    zeros = [mp.mpf(r) for r in spl.roots(extrapolate=False).tolist()
             if x[0] < r < x[-1]]
    c = [[mp.mpf(v) for v in col] for col in spl.c.T.tolist()]

    def g(t):
        i = min(max(bisect.bisect_right(x, t) - 1, 0), len(c) - 1)
        u = t - x[i]
        return max(((c[i][0] * u + c[i][1]) * u + c[i][2]) * u + c[i][3], 0)

    return g, sorted(x + zeros)


def crossing(profile, p):
    """(l, l', V) at the momentum p, |p| < 1, of the cylinder metric whose
    profile is (g, points) as :func:`puck_profile` or :func:`puck_table`
    give it: l = p I(f^-1/2 d^-1/2), l' = I(f^1/2 d^-3/2) and
    V = p^2 I(d^-1/2 (f^1/2 + d^1/2)^-1), d = f - p^2 and I the integral
    over [0, 1]. The quadrature intervals end at the points given and
    shrink geometrically toward each zero of g, where the integrands
    peak on the scale (1 - p^2)^(1/2). p is taken as the exact binary
    value of the float given; mpf at 30 digits."""
    g, points = profile
    with mp.workdps(_WORK):
        p = mp.mpf(p)
        s2 = (1 - p) * (1 + p)
        pts = set(mp.mpf(x) for x in points)
        for z in (mp.mpf(x) for x in points if g(mp.mpf(x)) == 0):
            u = mp.sqrt(s2)
            while u < 0.25:
                pts.update(x for x in (z - u, z + u) if 0 < x < 1)
                u *= 8
        pts = sorted(pts)
        memo = {}

        def fd(y):
            if y not in memo:
                gy = g(y)
                memo[y] = (mp.sqrt(1 + gy), mp.sqrt(gy + s2))
            return memo[y]

        def integral(h):
            return mp.quad(lambda y: h(*fd(y)), pts)

        return _at_dps((p * integral(lambda rf, r: 1 / (rf * r)),
                        integral(lambda rf, r: rf / r ** 3),
                        p * p * integral(lambda rf, r: 1 / (r * (rf + r)))))
