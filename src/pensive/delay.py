"""Boundary slide laws and their effective potentials.

A delay function assigns to each reflection the signed arc length the
bounce point slides along the boundary. It is stored both as l(p) of
the tangential momentum p = cos(theta) and as l~(theta) = l(cos theta)
of the incidence angle. The effective potential

    V(p) = integral_0^p q l'(q) dq,   V(0) = 0,

is what the generating function adds on top of the chord length.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, OutOfRange, finite_float

_SQRT2 = math.sqrt(2.0)


def quad(func, a, b, epsabs, epsrel, limit):
    """scipy.integrate.quad, imported on the first call, so importing
    pensive does not import scipy.integrate. Call sites look this name
    up when they call it, so a wrapper set in its place sees every call."""
    from scipy.integrate import quad
    return quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)


class DelayFunction:
    """Slide law with momentum/angle forms, derivative, and potential."""

    def __init__(self, ell_p, dell_dp, *, tag="custom", params=None,
                 potential_p=None, dtheta_fn=None, theta_limits=None,
                 dtheta_range=None):
        if dell_dp is None:
            raise InvalidParameter("custom delays must supply dl/dp")
        self._ell_p = ell_p
        self._dell_dp = dell_dp
        self._potential_p = potential_p
        self._dtheta_fn = dtheta_fn
        self._theta_limits = theta_limits
        self._dtheta_range = dtheta_range
        self.tag = tag
        self.params = dict(params or {})

    # -- momentum form --------------------------------------------------

    def _checked_p(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(np.abs(p) > 1.0 + 1e-12):
            raise OutOfRange("momentum must satisfy |p| <= 1")
        return np.clip(p, -1.0, 1.0)

    def ell(self, p):
        """Slide length as a function of p = cos(theta)."""
        return self._ell_p(self._checked_p(p))

    def dell_dp(self, p):
        return self._dell_dp(self._checked_p(p))

    # -- angle form -----------------------------------------------------

    def ell_theta(self, theta):
        return self.ell(np.cos(np.asarray(theta, dtype=float)))

    def dtheta(self, theta):
        """d l~/d theta; closed form for built-ins, chain rule otherwise."""
        theta = np.asarray(theta, dtype=float)
        if self._dtheta_fn is not None:
            return self._dtheta_fn(theta)
        return -np.sin(theta) * self.dell_dp(np.cos(theta))

    def theta_limits(self):
        """(limit of l~ at theta -> 0+, at theta -> pi-); may be infinite.
        A law without limits of its own (a custom law, a tabulated puck
        profile) reads l at p = +-(1 - 1e-9), which misses a divergence."""
        if self._theta_limits is not None:
            return self._theta_limits
        eps = 1e-9
        return (float(self.ell(1.0 - eps)), float(self.ell(-1.0 + eps)))

    def dtheta_range(self):
        """(inf, sup) of d l~/d theta over (0, pi).

        Closed-form for built-in tags; otherwise a sample at 1024
        interior points, so the bound is only as good as the grid.
        """
        if self._dtheta_range is not None:
            return self._dtheta_range
        th = np.linspace(0.0, math.pi, 1026)[1:-1]
        v = self.dtheta(th)
        return float(np.min(v)), float(np.max(v))

    # -- potential -------------------------------------------------------

    def potential(self, p):
        """Effective potential V(p) with V(0) = 0."""
        p = self._checked_p(p)
        if self._potential_p is not None:
            return self._potential_p(p)
        return _per_momentum(
            lambda pi: quad(lambda q: q * self._dell_dp(q), 0.0, pi,
                            epsabs=1e-10, epsrel=1e-10, limit=200)[0], p)

    def __repr__(self):
        inner = ", ".join("%s=%g" % kv for kv in self.params.items())
        return "DelayFunction(%s(%s))" % (self.tag, inner)


# -- built-in slide laws -------------------------------------------------


def zero():
    z = np.zeros_like
    return DelayFunction(
        lambda p: z(np.asarray(p, dtype=float)),
        lambda p: z(np.asarray(p, dtype=float)),
        tag="zero",
        potential_p=lambda p: z(np.asarray(p, dtype=float)),
        dtheta_fn=lambda th: z(np.asarray(th, dtype=float)),
        theta_limits=(0.0, 0.0),
        dtheta_range=(0.0, 0.0),
    )


def constant(c):
    c = finite_float(c, "c")
    return DelayFunction(
        lambda p: np.full_like(np.asarray(p, dtype=float), c),
        lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        tag="constant", params={"c": c},
        potential_p=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        dtheta_fn=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        theta_limits=(c, c),
        dtheta_range=(0.0, 0.0),
    )


def linear(slope):
    """l~(theta) = slope * theta."""
    c = finite_float(slope, "slope")
    return DelayFunction(
        lambda p: c * np.arccos(np.clip(p, -1, 1)),
        lambda p: -c / np.sqrt(np.maximum(1.0 - p * p, 1e-300)),
        tag="linear", params={"slope": c},
        potential_p=lambda p: c * (np.sqrt(1.0 - np.minimum(p * p, 1.0)) - 1.0),
        dtheta_fn=lambda th: np.full_like(np.asarray(th, dtype=float), c),
        theta_limits=(0.0, c * math.pi),
        dtheta_range=(c, c),
    )


def puck(h):
    """Slide of a finite puck of height h on a cylinder: l~ = h*cot(theta)."""
    h = finite_float(h, "h")
    if h <= 0:
        raise InvalidParameter("puck height must be positive")
    return DelayFunction(
        lambda p: h * p / np.sqrt(np.maximum(1.0 - p * p, 1e-300)),
        lambda p: h / np.maximum(1.0 - p * p, 1e-300) ** 1.5,
        tag="puck", params={"h": h},
        potential_p=lambda p: h / np.sqrt(np.maximum(1.0 - p * p, 1e-300)) - h,
        dtheta_fn=lambda th: -h / np.sin(np.asarray(th, dtype=float)) ** 2,
        theta_limits=(math.inf, -math.inf),
        dtheta_range=(-math.inf, -h),
    )


def vortex(length):
    """Slide of the dipole split-and-rejoin cycle, L = half perimeter."""
    L = finite_float(length, "length")
    if L <= 0:
        raise InvalidParameter("half-perimeter must be positive")

    def dth(theta):
        c = np.cos(np.asarray(theta, dtype=float))
        return L * np.sin(theta) / (1.0 + c * c) ** 1.5

    return DelayFunction(
        lambda p: L * (1.0 - p / np.sqrt(1.0 + p * p)),
        lambda p: -L / (1.0 + p * p) ** 1.5,
        tag="vortex", params={"L": L},
        potential_p=lambda p: L / np.sqrt(1.0 + p * p) - L,
        dtheta_fn=dth,
        theta_limits=(L * (1.0 - 1.0 / _SQRT2), L * (1.0 + 1.0 / _SQRT2)),
        dtheta_range=(0.0, L),
    )


def vortex_for(curve):
    return vortex(curve.perimeter / 2.0)


# -- generalized puck ------------------------------------------------------


# the tanh-sinh rule on (0, 1) (Takahasi & Mori, Publ. RIMS 9, 1974): step
# 1/32, |k| <= 160; the nodes past the float rounding at 1 fall on 1
_TS_K = np.arange(-160, 161) / 32.0
_TS_U = 0.5 * np.pi * np.sinh(_TS_K)
_TS_X = 1.0 / (1.0 + np.exp(-2.0 * _TS_U))
_TS_W = np.pi / 128.0 * np.cosh(_TS_K) / np.cosh(_TS_U) ** 2

# an excess f - 1 up to this counts as f = 1 where the rule's panels end
_FLAT = 1e-12


class PuckMetric:
    """Cylinder metric f(y) ds^2 + dy^2 on y in [0, 1], f >= 1, f(0)=f(1)=1.

    excess, when given, is y -> f(y) - 1 evaluated without the rounding
    of 1 + (f - 1); near grazing that rounding would set the accuracy of
    the slide. The crossing integrals run on one fixed tanh-sinh rule,
    one panel between neighbouring points where f = 1 (the ends, and the
    interior ones found on a grid of 4097 points), where the integrands
    peak, and knots, the points where f is not smooth; f - 1 and f are
    evaluated at its nodes once, here.
    """

    # the slide's limits at theta -> 0+ and pi-, where the profile fixes
    # them; None has them probed near grazing
    _theta_limits = None

    def __init__(self, f, name="profile", *, excess=None, knots=()):
        self.f = f
        self.name = name
        y = np.linspace(0.0, 1.0, 4097)
        fy = np.asarray(f(y), dtype=float)
        if fy.shape != y.shape:
            raise InvalidParameter("profile must evaluate elementwise")
        if fy.min() < 1.0 - 1e-12:
            raise InvalidParameter("profile must satisfy f >= 1")
        if abs(fy[0] - 1.0) > 1e-9 or abs(fy[-1] - 1.0) > 1e-9:
            raise InvalidParameter("profile must have f(0) = f(1) = 1")
        if excess is None:
            def excess(t):
                return np.asarray(f(t), dtype=float) - 1.0
        # the grid points where f = 1 next to one where it is not: the
        # interior minima, and the ends of stretches where f stays at 1,
        # each end moved by bisection to where f leaves 1
        g = fy - 1.0
        rises = np.maximum(g[:-2], g[2:]) > _FLAT
        cuts = []
        for i in np.flatnonzero((g[1:-1] <= _FLAT) & rises) + 1:
            if g[i - 1] <= _FLAT:
                cuts.append(_stretch_end(excess, y[i], y[i + 1]))
            elif g[i + 1] <= _FLAT:
                cuts.append(_stretch_end(excess, y[i], y[i - 1]))
            else:
                cuts.append(y[i])
        knots = np.asarray(knots, dtype=float)
        ends = np.unique(np.concatenate([[0.0], cuts, [1.0], knots[
            (knots > 0.0) & (knots < 1.0)]]))
        lo, width = ends[:-1, None], np.diff(ends)[:, None]
        nodes, at = np.unique(lo + width * _TS_X, return_inverse=True)
        weights = np.bincount(at.ravel(), (width * _TS_W).ravel())
        gq = np.maximum(np.asarray(excess(nodes), dtype=float), 0.0)
        root_f = np.sqrt(1.0 + gq)
        # per node: f - 1, sqrt(f), and the weight over and times sqrt(f)
        self._rule = (gq, root_f, weights, weights / root_f,
                      weights * root_f)

    @classmethod
    def from_table(cls, y, fvals, name="table"):
        """The not-a-knot cubic spline through the samples of f - 1."""
        from scipy.interpolate import CubicSpline

        y = np.asarray(y, dtype=float)
        spl = CubicSpline(y, np.asarray(fvals, dtype=float) - 1.0)

        def excess(t):
            return np.maximum(spl(np.clip(t, 0, 1)), 0.0)

        return cls(lambda t: 1.0 + excess(t), name=name, excess=excess,
                   knots=y)

    @classmethod
    def named(cls, name, amp=0.5):
        amp = finite_float(amp, "amp")
        if name == "flat":
            excess = np.zeros_like
        elif name == "bump":
            def excess(y):
                return amp * np.sin(np.pi * y) ** 2
        elif name == "double_bump":
            def excess(y):
                return amp * np.sin(2 * np.pi * y) ** 2
        elif name == "skew":
            def excess(y):
                return amp * (np.sin(np.pi * y) ** 2
                              + 0.5 * np.sin(np.pi * y) ** 4
                              * np.cos(np.pi * y))
        else:
            raise InvalidParameter("unknown profile %r" % name)
        metric = cls(lambda y: 1.0 + excess(np.asarray(y, dtype=float)),
                     name=name, excess=excess)
        # f - 1 vanishes at least quadratically at both walls (identically
        # on flat), so l(p) grows like ln(1 / (1 - |p|)) or faster
        metric._theta_limits = (math.inf, -math.inf)
        return metric


def _stretch_end(excess, a, b):
    """The point between a, where f - 1 <= _FLAT, and b, where it is
    above, at which f leaves 1, by bisection to the last float."""
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return a
        if excess(np.array([m]))[0] <= _FLAT:
            a = m
        else:
            b = m


def _per_momentum(fn, p):
    """fn of each momentum in p: a float for a scalar p, else p's shape."""
    out = np.array([fn(float(pi)) for pi in np.ravel(p)]).reshape(np.shape(p))
    return float(out) if np.ndim(p) == 0 else out


def _gp_rule(metric, p, kind):
    """The crossing integral of the geodesic with momentum p over the
    metric's tanh-sinh rule, with f - p^2 written (f - 1) + (1 - p)(1 + p):
    "ell" l(p) = p int dy / sqrt(f (f - p^2)), "dell" l'(p) =
    int sqrt(f) (f - p^2)^(-3/2) dy, or "potential" V(p) = T(p) - 1 =
    p^2 int dy / (sqrt(f - p^2) (sqrt(f) + sqrt(f - p^2))), T the
    crossing time. Any shape of p; each entry is its own row's sum, a
    float for a scalar p."""
    g, root_f, w, w_over, w_times = metric._rule
    p = np.asarray(p, dtype=float)
    d = g + ((1.0 - p) * (1.0 + p))[..., None]
    r = np.sqrt(d)
    if kind == "ell":
        out = p * (w_over / r).sum(axis=-1)
    elif kind == "dell":
        out = (w_times / (d * r)).sum(axis=-1)
    else:
        out = p * p * (w / (r * (root_f + r))).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _crossing(p):
    p = np.asarray(p, dtype=float)
    if np.any(np.abs(p) >= 1.0):
        raise OutOfRange("need |p| < 1 for a crossing geodesic")
    return p


def generalized_puck_delay(metric, p):
    """l(p) for the geodesic crossing of the cylinder with metric f."""
    return _gp_rule(metric, _crossing(p), "ell")


def generalized_puck_potential(metric, p):
    """Crossing time (unnormalized potential) of the same geodesic."""
    return 1.0 + _gp_rule(metric, _crossing(p), "potential")


def generalized_puck(metric):
    """DelayFunction backed by the metric's crossing integrals."""

    def clip(p):
        return np.clip(np.asarray(p, dtype=float), -1 + 1e-12, 1 - 1e-12)

    return DelayFunction(
        lambda p: _gp_rule(metric, clip(p), "ell"),
        lambda p: _gp_rule(metric, clip(p), "dell"),
        tag="generalized_puck", params={"profile": metric.name},
        theta_limits=metric._theta_limits,
        # V = T - 1: the p = 0 geodesic crosses the unit-width strip
        # straight, in time 1
        potential_p=lambda p: _gp_rule(metric, clip(p), "potential"))


def delay_from_config(cfg, curve=None):
    kind = str(cfg.get("kind", "zero")).strip().lower()
    if kind == "zero":
        return zero()
    if kind == "constant":
        return constant(cfg["c"])
    if kind == "linear":
        return linear(cfg["slope"])
    if kind == "puck":
        return puck(cfg["h"])
    if kind == "vortex":
        if "l" in cfg:
            return vortex(finite_float(cfg["l"], "l"))
        if curve is None:
            raise InvalidParameter("vortex delay needs L or a curve")
        return vortex_for(curve)
    if kind == "generalized_puck":
        if "path" in cfg:
            tab = np.loadtxt(cfg["path"], delimiter=",", ndmin=2)
            metric = PuckMetric.from_table(tab[:, 0], tab[:, 1])
        else:
            metric = PuckMetric.named(str(cfg.get("profile", "bump")),
                                      amp=cfg.get("amp", 0.5))
        return generalized_puck(metric)
    raise InvalidParameter("unknown delay kind %r" % kind)
