"""Desk-scale acceptance gate: one test per advertised property.

Every check runs the library against an independent route: central
differences for the symplectic and variational identities, direct ODE
integration for the vortex asymptotics, quadrature and closed forms
for the outer-billiard identities, and a geodesic shooter for the
generalized puck laws. Tolerances are stated inline at each assertion.
"""

import math
import time
from math import gcd, pi, sqrt

import numpy as np
import pytest
from scipy.integrate import dblquad, solve_ivp
from scipy.optimize import brentq

from pensive import billiard as bil
from pensive import delay
from pensive import geometry as geo
from pensive import outer
from pensive import twist
from pensive import variational as var
from pensive import vortex as vx
from pensive.errors import NotTransitive

RNG = np.random.default_rng(20240824)
TWO_PI = 2.0 * math.pi
CHI2 = (1.0 + sqrt(2.0)) ** 2


# -- 1. symplectic invariance of the step ----------------------------------


def test_symplectic_determinant():
    # dp ^ ds is preserved: |det - 1| < 1e-5 at 200 points per table/law
    curves = [geo.disk(1.0), geo.ellipse(1.2, 1.0), geo.neumann_oval(0.2)]
    laws = [delay.constant(0.3), delay.puck(1.0), delay.vortex(0.8),
            delay.linear(1.0), delay.linear(-1.0)]
    t0 = time.perf_counter()
    worst = 0.0
    for curve in curves:
        s = RNG.uniform(0.0, curve.perimeter, 200)
        theta = RNG.uniform(0.25, math.pi - 0.25, 200)
        for law in laws:
            det = bil.measure_jacobian_det(curve, law, s, np.cos(theta))
            worst = max(worst, float(np.max(np.abs(det - 1.0))))
    assert worst < 1e-5
    assert time.perf_counter() - t0 < 10.0


# -- 2. generating-function partials ---------------------------------------


def test_generating_function_partials_match_fd():
    # dH/ds = -p and dH/dS = P against central differences, 1e-6,
    # at 100 transitive samples
    configs = [(geo.disk(1.0), delay.vortex(1.0)),
               (geo.ellipse(1.3, 1.0), delay.puck(0.7))]
    h = 1e-6
    checked = 0
    for curve, law in configs:
        P = curve.perimeter
        done, attempts = 0, 0
        while done < 50 and attempts < 140:
            attempts += 1
            s = RNG.uniform(0.0, P)
            S = (s + RNG.uniform(0.25 * P, 0.75 * P)) % P
            try:
                gf = var.generating_function(curve, law, s, S)
            except NotTransitive:
                continue
            hint = gf.p_star
            Hp = var.generating_function(curve, law, s + h, S, hint=hint).H
            Hm = var.generating_function(curve, law, s - h, S, hint=hint).H
            assert gf.dH_ds == pytest.approx((Hp - Hm) / (2 * h), abs=1e-6)
            Hp = var.generating_function(curve, law, s, S + h, hint=hint).H
            Hm = var.generating_function(curve, law, s, S - h, hint=hint).H
            assert gf.dH_dS == pytest.approx((Hp - Hm) / (2 * h), abs=1e-6)
            done += 1
        checked += done
    assert checked >= 100


# -- 3. the delay that undoes the disk -------------------------------------


def test_disk_linear_delay_identity():
    # slide -2 theta cancels the chord advance 2 theta: identity to 1e-10
    curve = geo.disk(1.0)
    law = delay.linear(-2.0)
    s = RNG.uniform(0.0, curve.perimeter, 100)
    theta = RNG.uniform(0.05, math.pi - 0.05, 100)
    S, Th = bil.pensive_batch(curve, law, s, theta)
    ds = geo.wrap_to_half(np.asarray(S) - s, curve.perimeter)
    assert np.max(np.abs(ds)) < 1e-10
    assert np.max(np.abs(np.asarray(Th) - theta)) < 1e-10


# -- 4. twist certificates --------------------------------------------------


def test_vortex_delay_certified_right():
    # monotone-increasing slide: Right twist whenever r > R/2
    curves = [geo.disk(1.0), geo.ellipse(1.05, 1.0),
              geo.ellipse(1.12, 1.0), geo.ellipse(1.2, 1.0)]
    for curve in curves:
        for L in (0.5, 1.5, 3.0):
            cert = twist.twist_certificate(curve, delay.vortex(L))
            assert cert.R / 2.0 < cert.r < cert.R + 1e-12
            assert cert.verdict == "Right"


def test_puck_left_threshold_on_oval_family():
    # Left verdict appears exactly above h* = 2R / (2 r/R - 1)
    for a in (1.05, 1.1, 1.2):
        curve = geo.ellipse(a, 1.0)
        base = twist.twist_certificate(curve, delay.constant(0.0))
        h_star = 2.0 * base.R / (2.0 * base.r / base.R - 1.0)
        for h in np.linspace(0.5 * h_star, 1.5 * h_star, 11):
            cert = twist.twist_certificate(curve, delay.puck(float(h)))
            assert (cert.verdict == "Left") == (h > h_star)


def test_disk_puck_threshold_grid():
    # both bounds collapse to -2R on the disk; the verdict flips at h = 2R
    curve = geo.disk(1.0)
    cert = twist.twist_certificate(curve, delay.puck(1.0))
    assert cert.right_bound == pytest.approx(-2.0, abs=1e-9)
    assert cert.left_bound == pytest.approx(-2.0, abs=1e-9)
    grid = np.arange(1.6, 2.4001, 0.05)
    lefts = [h for h in grid
             if twist.twist_certificate(curve, delay.puck(float(h))).verdict
             == "Left"]
    assert min(lefts) - 2.0 <= 0.05 + 1e-12
    assert all(h > 2.0 for h in lefts)


# -- 5. loss of twist on a thin ellipse -------------------------------------


def test_thin_ellipse_sign_change():
    # dS/dtheta takes both signs for puck(1) on the eps = 0.05 ellipse
    (s1, t1, v1), (s2, t2, v2) = twist.thin_ellipse_counterexample(0.05)
    assert v1 * v2 < 0.0
    curve = geo.ellipse(1.0 / 0.05, 0.05)
    law = delay.puck(1.0)
    assert twist.pensive_dS_dtheta(curve, law, s1, t1) == pytest.approx(v1)
    assert twist.pensive_dS_dtheta(curve, law, s2, t2) == pytest.approx(v2)


# -- 6. periodic orbit census on the disk ------------------------------------


def test_disk_vortex_periodic_orbit_census():
    # slide strength pi opens the rotation window
    # (0.5 (1 - 1/sqrt 2), 1 + 0.5 (1 + 1/sqrt 2)); every coprime p/q
    # inside it with q <= 8 must be realized
    curve = geo.disk(1.0)
    L = math.pi
    law = delay.vortex(L)
    rho_lo = 0.5 * (1.0 - 1.0 / sqrt(2.0))
    rho_hi = 1.0 + 0.5 * (1.0 + 1.0 / sqrt(2.0))
    pairs = [(p, q) for q in range(2, 9) for p in range(1, 2 * q)
             if gcd(p, q) == 1 and rho_lo < p / q < rho_hi]
    assert len(pairs) == 38
    P = curve.perimeter
    for p, q in pairs:
        orbit = var.periodic_orbit_search(curve, law, (p, q))
        x = bil.PhasePoint(float(orbit.s[0]), float(orbit.theta[0]))
        for _ in range(q):
            x = bil.pensive_step(curve, law, x)
        assert abs(geo.wrap_to_half(x.s - orbit.s[0], P)) < 1e-7
        assert abs(x.theta - orbit.theta[0]) < 1e-7
        root = brentq(lambda t: 2.0 * t + float(law.ell_theta(t))
                      - TWO_PI * p / q, 1e-9, math.pi - 1e-9, xtol=1e-14)
        assert np.max(np.abs(orbit.theta - root)) < 1e-8


# -- 7. caustics of constant-angle orbits ------------------------------------


def test_disk_caustic_chord_distance():
    # every chord of a constant-theta orbit stays at distance R |cos theta|
    curve = geo.disk(1.0)
    for law, theta in ((delay.vortex(1.1), 1.0), (delay.puck(0.8), 2.2)):
        traj = bil.iterate(curve, law, bil.PhasePoint(0.0, theta), 100)
        want = bil.caustic_radius(1.0, theta)
        assert want == pytest.approx(abs(math.cos(theta)), abs=1e-15)
        p1 = np.asarray(bil.point_xy(curve, 0.0))
        for k in range(traj.n_steps):
            p2 = np.asarray(traj.impacts[k])
            chord = p2 - p1
            d = abs(p1[0] * chord[1] - p1[1] * chord[0]) / np.hypot(*chord)
            assert d == pytest.approx(want, abs=1e-9)
            p1 = np.asarray(traj.reflects[k])


# -- 8. fission speeds from the wall ODE -------------------------------------


def _split_speeds(theta, eps=0.005, y0=0.08, T=2.0, n_eval=2000):
    hp = vx.HalfPlane()
    d = complex(math.cos(theta), -math.sin(theta))
    z, g = vx.make_dipole(complex(0.0, y0), d / abs(d), eps)
    cfg = vx.VortexConfiguration(z, g, hp)
    traj = vx.integrate(cfg, T, tol=1e-6, n_eval=n_eval)
    sep = np.abs(traj.z[:, 0] - traj.z[:, 1])
    k = np.nonzero(sep > 40 * eps)[0]
    assert len(k) > 2
    ks = k[-1]
    dt = traj.t[ks] - traj.t[ks - 1]
    v_p = abs(traj.z[ks, 0] - traj.z[ks - 1, 0]) / dt
    v_m = abs(traj.z[ks, 1] - traj.z[ks - 1, 1]) / dt
    return v_p, v_m


def test_halfplane_fission_speeds_and_silver_ratio():
    t0 = time.perf_counter()
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
        v_p, v_m = _split_speeds(theta)
        fo = vx.fission_outcome(1.0, theta)
        assert v_p == pytest.approx(fo.v_plus, rel=0.02)
        assert v_m == pytest.approx(fo.v_minus, rel=0.02)
    # grazing limit: the speed ratio approaches the squared silver ratio
    v_p, v_m = _split_speeds(math.pi / 32, T=4.0)
    assert v_m / v_p == pytest.approx(CHI2, rel=0.02)
    assert time.perf_counter() - t0 < 60.0


# -- 9. fusion threshold by bisection ----------------------------------------


def _monopoles_merge(rho, eps=0.005, sep=1.0, T=4.0):
    # opposite monopoles at heights eps*rho and eps approach along the
    # wall; inside the window they leave as a dipole (never swap x
    # order), outside they pass through each other. The launch
    # separation is large so the initial heights are asymptotic data.
    hp = vx.HalfPlane()
    gam = 4.0 * math.pi * eps
    z = np.array([complex(-sep / 2, eps * rho), complex(sep / 2, eps)])
    cfg = vx.VortexConfiguration(z, np.array([gam, -gam]), hp)
    try:
        traj = vx.integrate(cfg, T, tol=1e-6, n_eval=2000)
    except vx.EventStop as stop:
        traj = stop.trajectory
    x = np.real(traj.z)
    return not bool(np.any(x[:, 0] > x[:, 1]))


def test_fusion_threshold_bisection():
    lo, hi = 4.5, 7.5
    assert _monopoles_merge(lo) and not _monopoles_merge(hi)
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        if _monopoles_merge(mid):
            lo = mid
        else:
            hi = mid
    found = 0.5 * (lo + hi)
    assert found == pytest.approx(CHI2, rel=0.02)


# -- 10. the zero-separation limit is the vortex billiard ---------------------


def test_dipole_limit_shrinks_with_eps():
    dom = vx.DiskDomain(1.0)
    reports = [vx.dipole_billiard_limit_check(dom, 0.3, math.pi / 3, e)
               for e in (0.02, 0.01, 0.005)]
    ds = [r.delta_s for r in reports]
    assert ds[0] > ds[1] > ds[2] > 0.0
    assert ds[2] < 0.05 * TWO_PI


# -- 11. same-sign pairs never merge ------------------------------------------


def test_same_sign_pairs_always_pass():
    hp = vx.HalfPlane()
    for _ in range(20):
        g1 = RNG.uniform(0.8, 1.2)
        g2 = g1 * RNG.uniform(1.4, 2.5)
        y1 = RNG.uniform(0.008, 0.012)
        y2 = RNG.uniform(0.008, 0.012)
        z = np.array([complex(-0.15, y1), complex(0.15, y2)])
        cfg = vx.VortexConfiguration(z, np.array([g2, g1]), hp)
        traj = vx.integrate(cfg, 2.0, tol=1e-6)
        x_rel = np.real(traj.z[:, 0] - traj.z[:, 1])
        assert x_rel[-1] > 0.3
        tail = x_rel[int(np.argmin(np.abs(x_rel))):]
        assert np.all(np.diff(tail) > -1e-9)


# -- 12. generalized puck laws vs geodesic shooting ---------------------------


def _shoot_geodesic(f, p, rtol=1e-11):
    # unit-speed geodesic of f(y) ds^2 + dy^2 from y = 0 to y = 1 by the
    # second-order equations; independent of the quadrature route
    h = 1e-6

    def fprime(y):
        return (float(f(np.asarray(y + h)))
                - float(f(np.asarray(y - h)))) / (2 * h)

    def rhs(t, u):
        s, y, sd, yd = u
        fy = float(f(np.asarray(y)))
        fp = fprime(y)
        return [sd, yd, -(fp / fy) * yd * sd, 0.5 * fp * sd * sd]

    def top(t, u):
        return u[1] - 1.0

    top.terminal = True
    top.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 50.0), [0.0, 0.0, p, math.sqrt(1 - p * p)],
                    events=top, rtol=rtol, atol=1e-13, max_step=0.05)
    assert sol.t_events[0].size == 1
    return sol.y_events[0][0][0], sol.t_events[0][0]


def test_generalized_puck_quadrature_and_potential():
    profiles = [("bump", 0.5), ("double_bump", 0.8), ("skew", 0.6)]
    for name, amp in profiles:
        metric = delay.PuckMetric.named(name, amp=amp)
        for p in (-0.9, -0.45, 0.3, 0.7, 0.95):
            s_exit, t_exit = _shoot_geodesic(metric.f, p)
            assert delay.generalized_puck_delay(metric, p) == pytest.approx(
                s_exit, abs=1e-6)
        # dV/dp = p dl/dp by central differences of both quadratures
        h = 1e-5
        for p in RNG.uniform(-0.9, 0.9, 8):
            dv = (delay.generalized_puck_potential(metric, p + h)
                  - delay.generalized_puck_potential(metric, p - h)) / (2 * h)
            dl = (delay.generalized_puck_delay(metric, p + h)
                  - delay.generalized_puck_delay(metric, p - h)) / (2 * h)
            assert dv == pytest.approx(p * dl, abs=1e-6)


# -- 13. outer billiard identities --------------------------------------------


def test_outer_plane_area_preservation():
    # r dr ^ dalpha is preserved: |det - 1| < 1e-5 at 200 points
    ell = geo.ellipse(2.0, 1.0)
    od = outer.OuterDelay.from_area(lambda r: r ** 3)
    ang = RNG.uniform(0.0, TWO_PI, 200)
    rad = RNG.uniform(2.6, 4.5, 200)
    pts = np.c_[rad * np.cos(ang), rad * np.sin(ang)]
    assert outer.area_preservation_check(ell, od, pts) < 1e-5


def test_outer_swept_area_identity():
    # the tangency slide sweeps exactly a(r); both the turning form
    # r^2 theta / 2 and a direct 2-D integral of the swept region agree
    ell = geo.ellipse(2.0, 1.0)
    od = outer.OuterDelay.from_area(lambda r: r ** 3)
    X = np.array([3.0, 1.0])
    op = outer.tangent_coordinates(ell, X)
    tq = outer._advance_tangency(ell, op.t, od.shift(op.r))
    turn = outer._turn_integral(ell, op.t, tq)
    assert 0.5 * op.r ** 2 * turn == pytest.approx(od.area(op.r), abs=1e-10)

    h = 1e-6

    def jac(rho, t):
        tau = ell.tangent_t(t)
        gp = (ell.zpoint_t(t + h) - ell.zpoint_t(t - h)) / (2 * h)
        taup = (ell.tangent_t(t + h) - ell.tangent_t(t - h)) / (2 * h)
        rt = gp + rho * taup
        return abs(rt.real * tau.imag - rt.imag * tau.real)

    area, _ = dblquad(jac, op.t, tq, 0.0, op.r, epsabs=1e-10, epsrel=1e-10)
    assert area == pytest.approx(od.area(op.r), rel=1e-8)


def test_sphere_archimedes_zones():
    # swept zone between parallels has area 2 pi (h1 - h2), within 1e-8
    for _ in range(12):
        h1 = RNG.uniform(0.2, 0.95)
        h2 = RNG.uniform(-h1 + 0.05, h1 - 0.05)
        cap = outer.spherical_cap(math.acos(h1))
        theta = math.acos(h2 / h1)
        area = outer.sphere_swept_area(cap, 0.0, TWO_PI, theta)
        assert area == pytest.approx(TWO_PI * (h1 - h2), abs=1e-8)


def test_sphere_duality_caps():
    # pole of the outgoing ray = pensive outer image on the dual curve
    # under a(r) = l~(r) (1 - cos r); error < 1e-6 on spherical caps
    for psi in (0.55, 0.8):
        cap = outer.spherical_cap(psi)
        smax = cap.length
        for law in (delay.zero(), delay.constant(0.35)):
            samples = [(RNG.uniform(0.0, smax), RNG.uniform(0.4, 2.2))
                       for _ in range(20)]
            rep = outer.sphere_duality_check(cap, law, samples)
            assert rep["max_error"] < 1e-6


# -- 14. the triangle runs on an interval exchange ----------------------------


def test_triangle_angle_set_and_unit_slopes():
    tri = geo.regular_polygon(3)
    law = delay.constant(0.2)
    theta0 = 0.4
    n = 10_000
    traj = bil.iterate(tri, law, bil.PhasePoint(0.31, theta0), n)
    arr = traj.as_arrays()
    P = tri.perimeter
    N = tri.angle_lcm
    assert N == 6
    angles = np.unique(np.round(arr["theta"], 9))
    assert len(angles) <= 2 * N

    # raw route: group steps by (angle in, angle out); on each group the
    # combination sin(th_out) S + sin(th_in) s is piecewise constant,
    # which is unit slope in the straightened chart
    s = arr["s"] % P
    ki = np.searchsorted(angles, np.round(arr["theta"], 9))
    groups = {}
    for i in range(n):
        c = (math.sin(arr["theta"][i + 1]) * s[i + 1]
             + math.sin(arr["theta"][i]) * s[i])
        groups.setdefault((ki[i], ki[i + 1]), []).append(c)
    n_pieces = 0
    for vals in groups.values():
        vals = np.sort(np.asarray(vals))
        cuts = np.nonzero(np.diff(vals) > 1e-4)[0]
        n_pieces += len(cuts) + 1
        lo = 0
        for cut in list(cuts) + [len(vals) - 1]:
            assert vals[cut] - vals[lo] < 1e-7
            lo = cut + 1
    assert n_pieces <= 12 * N

    # charted route: the realized interval exchange reproduces the
    # trajectory step by step with isometric pieces
    iet = bil.iet_realize(tri, theta0, law)
    for row in iet.pieces:
        for pc in row:
            assert abs(pc.chart_slope) == pytest.approx(1.0, abs=1e-6)
    for i in range(n):
        k = iet.angle_index(arr["theta"][i])
        S_pred, k2 = iet.step(s[i], k)
        assert abs(geo.wrap_to_half(S_pred - s[i + 1], P)) < 1e-8
        assert k2 == iet.angle_index(arr["theta"][i + 1])
