"""A 30-digit chord reference for the convex test tables, in mpmath:
the landing arc, angle and length, and the curvature at the landing.

Each table is rebuilt from its closed form: the disk's chords in closed
form, the ellipse's arc length from the incomplete elliptic integral
``mp.ellipe`` and the Neumann oval's from ``mp.quad`` of |F'(e^{it})|.
The launch parameter t0 solves arc length = s by safeguarded Newton.
The landing is the root of Im(conj(d) (z(t) - z(t0))) strictly inside
(t0, t0 + 2 pi), d the ray direction: on a convex table it is the only
one there. A scan whose nodes crowd both ends of that window brackets
it, with one sign change certified, and ``mp.findroot`` polishes it.
The curvature there is Im(conj(z') z'') / |z'|^3.

Nothing here reads the package under test, so the reference stays
independent of the float code it checks.
"""

import mpmath as mp
import numpy as np

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

    def arclen(t):
        # split at the quarter turns, where the speed peaks and dips
        ends = [mp.mpf(0)] + [k * mp.pi / 2 for k in range(1, 4)
                              if k * mp.pi / 2 < t] + [t]
        return mp.quad(speed, ends)

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
        t0 = _t_of_s(tab, s)
        z0 = tab.z(t0)
        tau0 = tab.dz(t0) / abs(tab.dz(t0))
        cd = mp.conj(tau0 * mp.expj(theta))

        def g(t):
            return mp.im(cd * (tab.z(t) - z0))

        nodes = [t0 + 2 * mp.pi * x for x in _FRACTIONS]
        vals = [g(t) for t in nodes]
        flips = [k for k in range(len(vals) - 1)
                 if (vals[k] < 0) != (vals[k + 1] < 0)]
        if len(flips) != 1 or vals[0] >= 0 or vals[-1] <= 0:
            raise ArithmeticError("landing not isolated at s=%s theta=%s"
                                  % (s, theta))
        k = flips[0]
        ts = mp.findroot(g, (nodes[k], nodes[k + 1]), solver="anderson")
        if not nodes[k] <= ts <= nodes[k + 1]:
            raise ArithmeticError("landing left its bracket")
        dz = tab.dz(ts)
        q = dz / abs(dz) * cd
        out = (tab.arclen(ts % (2 * mp.pi)) % P,
               mp.atan2(abs(mp.im(q)), mp.re(q)), abs(tab.z(ts) - z0),
               mp.im(mp.conj(dz) * tab.d2z(ts)) / abs(dz) ** 3)
        return _at_dps(out)


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
