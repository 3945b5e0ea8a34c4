"""Generating function, transit solves, and periodic-orbit search."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oracle
from pensive import billiard as bil
from pensive import delay
from pensive import geometry as geo
from pensive import twist
from pensive import variational as var
from pensive.errors import (InvalidParameter, InvalidPoint, NotFound,
                            NotTransitive, PensiveError, Unsupported)

RNG = np.random.default_rng(20240821)


def test_point_inside():
    c = geo.ellipse(2.0, 1.0)
    assert var.point_inside(c, (0.0, 0.0))
    assert var.point_inside(c, (1.9, 0.1))
    assert not var.point_inside(c, (2.1, 0.0))
    assert not var.point_inside(c, (0.0, 1.5))
    sq = geo.regular_polygon(4)
    assert var.point_inside(sq, (0.0, 0.0))
    assert not var.point_inside(sq, (1.0, 1.0))


def test_objective_requires_interior_points():
    c = geo.disk(1.0)
    with pytest.raises(InvalidPoint):
        var.single_bounce_objective(c, delay.zero(), (2.0, 0.0), (0, 0), 0.1)
    with pytest.raises(InvalidPoint):
        var.single_bounce_objective(c, delay.zero(), (0, 0), (0.0, -3.0), 0.1)
    with pytest.raises(Unsupported):
        var.single_bounce_objective(geo.regular_polygon(4), delay.zero(),
                                    (0, 0), (0, 0), 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, [0.3, math.nan]])
def test_objective_rejects_non_finite_arcs(bad):
    # p_star's finiteness check, before the reduction mod P warns
    c, law = geo.ellipse(1.2, 1.0), delay.vortex(0.5)
    with pytest.raises(InvalidParameter, match="finite"):
        var.single_bounce_objective(c, law, (0.1, 0.0), (0.0, 0.2), bad)


def test_objective_center_is_constant():
    c = geo.disk(1.4)
    s = np.linspace(0, c.perimeter, 17)
    v, d = var.single_bounce_objective(c, delay.zero(), (0, 0), (0, 0), s)
    assert np.allclose(v, 2 * 1.4, atol=1e-12)
    assert np.allclose(d, 0.0, atol=1e-10)


def test_objective_zero_delay_is_broken_length():
    c = geo.ellipse(1.5, 1.0)
    A, B = (0.3, 0.2), (-0.4, -0.1)
    for s in RNG.uniform(0, c.perimeter, 8):
        v, _ = var.single_bounce_objective(c, delay.zero(), A, B, s)
        g = c.point(s)
        expect = math.hypot(g[0] - A[0], g[1] - A[1]) + math.hypot(
            g[0] - B[0], g[1] - B[1])
        assert v == pytest.approx(expect, abs=1e-12)


def test_objective_derivative_matches_fd():
    c = geo.ellipse(1.5, 1.0)
    law = delay.vortex(0.7)
    A, B = (0.3, 0.2), (-0.4, -0.1)
    h = 1e-6
    for s in RNG.uniform(0, c.perimeter, 10):
        vp, _ = var.single_bounce_objective(c, law, A, B, s + h)
        vm, _ = var.single_bounce_objective(c, law, A, B, s - h)
        _, d = var.single_bounce_objective(c, law, A, B, s)
        assert d == pytest.approx((vp - vm) / (2 * h), abs=2e-6)


def test_objective_reads_the_launch_curvature_at_its_parameter(monkeypatch):
    # one t_of_s per arc of the broken path, and the derivative of the
    # curvature read through a second inversion, bit for bit
    c = geo.ellipse(1.5, 1.0)
    law = delay.vortex(0.7)
    A, B = (0.3, 0.2), (-0.4, -0.1)
    sv = np.random.default_rng(5).uniform(0, c.perimeter, 9)
    p_a, rho_a, tau, rel, _ = var._cos_to_point(c, sv, complex(*A))
    u = (sv + law.ell(p_a)) % c.perimeter
    p_b = var._cos_to_point(c, u, complex(*B))[0]
    dp_a = (1.0 + c.curvature(sv) * np.imag(np.conj(tau) * rel)
            - p_a * p_a) / rho_a
    want = (p_a + p_b) * (1.0 + law.dell_dp(p_a) * dp_a)
    calls, t_of_s = [], c.t_of_s
    monkeypatch.setattr(c, "t_of_s", lambda s: calls.append(s) or t_of_s(s))
    _, got = var.single_bounce_objective(c, law, A, B, sv)
    assert len(calls) == 2
    assert np.array_equal(got, want)


def _disk_pensive_shot(law, A, phi):
    """Launch from interior point A of the unit disk at bearing phi,
    apply one pensive bounce, return (impact arc, exit point, exit dir)."""
    a = complex(*A)
    u = complex(math.cos(phi), math.sin(phi))
    b = (a.conjugate() * u).real
    t_hit = -b + math.sqrt(b * b - abs(a) ** 2 + 1.0)
    z1 = a + t_hit * u
    s1 = math.atan2(z1.imag, z1.real) % (2 * math.pi)
    tau1 = 1j * z1
    ctheta = (tau1.conjugate() * u).real
    theta = math.acos(max(-1.0, min(1.0, ctheta)))
    s_out = (s1 + law.ell_theta(theta)) % (2 * math.pi)
    z2 = complex(math.cos(s_out), math.sin(s_out))
    d_out = 1j * z2 * complex(math.cos(theta), math.sin(theta))
    return s1, z2, d_out


def test_critical_point_is_a_pensive_bounce():
    c = geo.disk(1.0)
    law = delay.vortex(1.0)
    A, B = (0.3, 0.0), (-0.2, 0.1)
    zb = complex(*B)

    def miss(phi):
        _, z2, d_out = _disk_pensive_shot(law, A, phi)
        return (d_out.conjugate() * (zb - z2)).imag

    grid = np.linspace(0, 2 * math.pi, 400, endpoint=False)
    vals = np.array([miss(g) for g in grid])
    oracle_s = []
    for k in range(len(grid)):
        a, b = grid[k], grid[(k + 1) % len(grid)] + (
            2 * math.pi if k == len(grid) - 1 else 0)
        if vals[k] * vals[(k + 1) % len(grid)] < 0:
            phi = brentq(miss, a, b, xtol=1e-14)
            s1, z2, d_out = _disk_pensive_shot(law, A, phi)
            # keep roots where B is ahead of the exit point
            if (d_out.conjugate() * (zb - z2)).real > 0:
                oracle_s.append(s1)
    assert oracle_s

    crit = var.single_bounce_critical_points(c, law, A, B)
    assert len(crit) >= 1
    for so in oracle_s:
        gap = np.abs(geo.wrap_to_half(crit - so, c.perimeter))
        assert gap.min() < 1e-8
    # each critical point satisfies the equal-angle condition
    for sc in crit:
        p_a = var._cos_to_point(c, np.atleast_1d(sc), complex(*A))[0]
        u = (sc + law.ell(p_a[0])) % c.perimeter
        p_b = var._cos_to_point(c, np.atleast_1d(u), complex(*B))[0]
        assert abs(p_a[0] + p_b[0]) < 1e-9


def test_p_star_disk_closed_form():
    c = geo.disk(1.0)
    for S in (0.8, 2.0, 4.5):
        sol = var.p_star(c, delay.zero(), 0.0, S)
        assert sol.p == pytest.approx(math.cos(S / 2), abs=1e-10)
        assert not sol.ambiguous


def test_p_star_degenerate_law():
    c = geo.disk(1.0)
    law = delay.linear(-2.0)
    with pytest.raises(NotTransitive):
        var.p_star(c, law, 0.0, 2.0)


def test_p_star_residual_and_consistency():
    c = geo.disk(1.0)
    law = delay.vortex(1.0)
    sol = var.p_star(c, law, 0.0, 2.0)
    th = math.acos(sol.p)
    out = bil.pensive_step(c, law, bil.PhasePoint(0.0, th))
    assert out.s == pytest.approx(2.0, abs=1e-10)


def test_p_star_ambiguous_branches():
    # long slides alias the landing arc mod perimeter
    c = geo.disk(1.0)
    law = delay.vortex(2 * math.pi)
    sol = var.p_star(c, law, 0.0, 3.0)
    assert sol.ambiguous and len(sol.roots) >= 2
    for r, a in zip(sol.roots, sol.advances):
        th = math.acos(r)
        out = bil.pensive_step(c, law, bil.PhasePoint(0.0, th))
        assert out.s == pytest.approx(3.0, abs=1e-9)
        assert a == pytest.approx(2 * th + law.ell_theta(th), abs=1e-9)
    pick = var.p_star(c, law, 0.0, 3.0, advance_hint=sol.advances[-1])
    assert pick.p == pytest.approx(sol.roots[-1], abs=1e-12)


def test_generating_function_classical():
    c = geo.ellipse(1.5, 1.0)
    for _ in range(6):
        s = RNG.uniform(0, c.perimeter)
        S = (s + RNG.uniform(0.3 * c.perimeter, 0.7 * c.perimeter)) % (
            c.perimeter)
        gf = var.generating_function(c, delay.zero(), s, S)
        ga, gb = c.point(s), c.point(S)
        assert gf.H == pytest.approx(math.hypot(*(ga - gb)), abs=1e-9)


def test_generating_function_partials():
    c = geo.disk(1.0)
    law = delay.vortex(1.0)
    s, S = 0.0, 2.5
    gf = var.generating_function(c, law, s, S)
    h = 1e-6
    hint = gf.p_star
    Hp = var.generating_function(c, law, s + h, S, hint=hint).H
    Hm = var.generating_function(c, law, s - h, S, hint=hint).H
    assert gf.dH_ds == pytest.approx((Hp - Hm) / (2 * h), abs=1e-6)
    Hp = var.generating_function(c, law, s, S + h, hint=hint).H
    Hm = var.generating_function(c, law, s, S - h, hint=hint).H
    assert gf.dH_dS == pytest.approx((Hp - Hm) / (2 * h), abs=1e-6)


def test_gradient_identity_random():
    c = geo.ellipse(1.3, 1.0)
    law = delay.vortex(0.8)
    P = c.perimeter
    h = 1e-6
    checked = 0
    for _ in range(100):
        s = RNG.uniform(0, P)
        S = (s + RNG.uniform(0.25 * P, 0.75 * P)) % P
        try:
            gf = var.generating_function(c, law, s, S)
        except NotTransitive:
            continue
        hint = gf.p_star
        Hp = var.generating_function(c, law, s + h, S, hint=hint).H
        Hm = var.generating_function(c, law, s - h, S, hint=hint).H
        assert gf.dH_ds == pytest.approx((Hp - Hm) / (2 * h), abs=1e-6)
        Hp = var.generating_function(c, law, s, S + h, hint=hint).H
        Hm = var.generating_function(c, law, s, S - h, hint=hint).H
        assert gf.dH_dS == pytest.approx((Hp - Hm) / (2 * h), abs=1e-6)
        checked += 1
    assert checked >= 90


def test_generating_function_center_symmetry():
    c = geo.ellipse(2.0, 1.0)
    law = delay.vortex(1.1)
    P = c.perimeter
    for _ in range(5):
        s = RNG.uniform(0, P)
        S = (s + RNG.uniform(0.3 * P, 0.6 * P)) % P
        try:
            a = var.generating_function(c, law, s, S)
            b = var.generating_function(c, law, (s + P / 2) % P,
                                        (S + P / 2) % P)
        except NotTransitive:
            continue
        assert a.H == pytest.approx(b.H, abs=1e-10)


def test_ellipse_axes_orbits():
    c = geo.ellipse(1.5, 1.0)
    P = c.perimeter
    law = delay.zero()
    major = var.periodic_orbit_search(c, law, (1, 2), seeds=[0.02 * P])
    assert major.residual < 1e-9
    assert np.abs(geo.wrap_to_half(major.s - np.array([0.0, P / 2]),
                                   P)).max() < 1e-6
    assert np.allclose(major.theta, math.pi / 2, atol=1e-7)
    assert major.action == pytest.approx(2 * 2 * 1.5, abs=1e-7)
    minor = var.periodic_orbit_search(c, law, (1, 2), seeds=[0.27 * P])
    assert np.abs(geo.wrap_to_half(minor.s - np.array([P / 4, 3 * P / 4]),
                                   P)).max() < 1e-6
    assert minor.action == pytest.approx(2 * 2 * 1.0, abs=1e-7)


def test_disk_vortex_orbit_matches_rotation_root():
    c = geo.disk(1.0)
    law = delay.vortex(1.0)
    for (pw, q) in ((1, 3), (2, 7), (3, 4)):
        orb = var.periodic_orbit_search(c, law, (pw, q))
        target = 2 * math.pi * pw / q

        def f(th):
            return 2 * th + law.ell_theta(th) - target

        root = brentq(f, 1e-9, math.pi - 1e-9, xtol=1e-14)
        assert np.allclose(orb.theta, root, atol=1e-8)
        x = bil.PhasePoint(float(orb.s[0]), float(orb.theta[0]))
        for i in range(q):
            x = bil.pensive_step(c, law, x)
            assert abs(geo.wrap_to_half(
                x.s - orb.s[(i + 1) % q], c.perimeter)) < 1e-7
            assert abs(x.theta - orb.theta[(i + 1) % q]) < 1e-7


def test_orbit_search_rejects_bad_type():
    c = geo.disk(1.0)
    with pytest.raises(Exception):
        var.periodic_orbit_search(c, delay.zero(), (1, 1))


def test_orbit_search_caps_the_period(monkeypatch):
    # one over the cap raises before any transit is solved; uncapped,
    # this search runs (0.3 s) and q = 10**9 exhausts memory
    monkeypatch.setattr(var, "p_star", None)
    with pytest.raises(InvalidParameter, match="MAX_PERIOD"):
        var.periodic_orbit_search(geo.disk(1.0), delay.constant(0.3),
                                  (1, var.MAX_PERIOD + 1))


def test_ellipse_vortex_orbit_closes():
    c = geo.ellipse(1.2, 1.0)
    law = delay.vortex(0.5)
    orb = var.periodic_orbit_search(c, law, (1, 3))
    assert orb.residual < 1e-9
    x = bil.PhasePoint(float(orb.s[0]), float(orb.theta[0]))
    for _ in range(3):
        x = bil.pensive_step(c, law, x)
    assert abs(geo.wrap_to_half(x.s - orb.s[0], c.perimeter)) < 1e-7
    assert abs(x.theta - orb.theta[0]) < 1e-7


# -- exact derivatives of the action ---------------------------------------

HESSIAN_CASES = {
    "ellipse-vortex-1/3": (lambda: geo.ellipse(1.2, 1.0),
                           lambda: delay.vortex(0.5), (1, 3)),
    "oval-vortex-1/2": (lambda: geo.neumann_oval(0.3),
                        lambda: delay.vortex(0.5), (1, 2)),
    "disk-vortex-2/5": (lambda: geo.disk(1.0),
                        lambda: delay.vortex(math.pi), (2, 5)),
    "ellipse-puck-1/3": (lambda: geo.ellipse(1.2, 1.0),
                         lambda: delay.puck(0.7), (1, 3)),
    "ellipse-zero-1/4": (lambda: geo.ellipse(1.2, 1.0),
                         delay.zero, (1, 4)),
}


@pytest.mark.parametrize("name", HESSIAN_CASES)
def test_analytic_hessian_matches_gradient_differences(name):
    make_curve, make_law, (winding, q) = HESSIAN_CASES[name]
    c, law = make_curve(), make_law()
    P = c.perimeter
    rng = np.random.default_rng(len(name))
    # a rotation-type configuration off its critical point
    sv = (0.3 + np.arange(q) * winding * P / q
          + rng.uniform(-0.05, 0.05, q) * P / q)
    ev = var._orbit_eval(c, law, sv, winding, None)
    assert np.array_equal(ev.hess, ev.hess.T)
    h = 1e-6 * P
    fd = np.empty((q, q))
    for k in range(q):
        e = np.zeros(q)
        e[k] = h
        gp = var._orbit_eval(c, law, sv + e, winding, ev.p_launch).grad
        gm = var._orbit_eval(c, law, sv - e, winding, ev.p_launch).grad
        fd[:, k] = (gp - gm) / (2 * h)
    assert np.max(np.abs(ev.hess - fd)) < 1e-8


def _monodromy_residue(c, law, orbit, h=1e-6):
    """(2 - tr M) / 4 with M the central-difference Jacobian in (s, p) of
    q map steps from the orbit's first point."""
    P = c.perimeter
    x0 = np.array([orbit.s[0], math.cos(orbit.theta[0])])

    def steps(x):
        s, th = np.array([x[0]]), np.array([math.acos(x[1])])
        for _ in range(orbit.period):
            s, th = bil.pensive_batch(c, law, s, th)
        return np.array([s[0], math.cos(th[0])])

    M = np.empty((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        d = steps(x0 + e) - steps(x0 - e)
        d[0] = geo.wrap_to_half(d[0], P)
        M[:, k] = d / (2 * h)
    return (2.0 - np.trace(M)) / 4.0


@pytest.mark.parametrize("c, law, rotation, expect", [
    (geo.ellipse(1.2, 1.0), delay.vortex(0.5), (1, 3), -0.0296085),
    (geo.ellipse(1.2, 1.0), delay.vortex(0.5), (1, 2), -3.21865),
    (geo.neumann_oval(0.3), delay.vortex(0.5), (1, 2), -2.13877),
], ids=["ellipse-1/3", "ellipse-1/2", "oval-1/2"])
def test_residue_matches_monodromy(c, law, rotation, expect):
    orbit = var.periodic_orbit_search(c, law, rotation)
    assert orbit.residue == pytest.approx(expect, abs=1e-5)
    assert abs(orbit.residue - _monodromy_residue(c, law, orbit)) < 1e-6


def test_residue_vanishes_on_the_disk():
    # each incidence angle is invariant on the disk: tr M = 2
    orbit = var.periodic_orbit_search(geo.disk(1.0), delay.vortex(math.pi),
                                      (2, 5))
    assert abs(orbit.residue) < 1e-8


def test_orbit_of_another_rotation_is_refused():
    # 1/7 lies below the vortex law's rotation window on the disk: the
    # critical point the search meets (theta = 1.7476 at every point)
    # advances 8 periods over its seven transits, an (8, 7) orbit
    with pytest.raises(NotFound):
        var.periodic_orbit_search(geo.disk(1.0), delay.vortex(math.pi),
                                  (1, 7))


@pytest.mark.parametrize("c, rotation", [
    (geo.disk(1.0), (2, 5)),
    (geo.ellipse(1.2, 1.0), (1, 3)),
    (geo.ellipse(1.2, 1.0), (2, 3)),
], ids=["disk-2/5", "ellipse-1/3", "ellipse-2/3"])
def test_puck_orbits_keep_their_rotation(c, rotation):
    # puck(0.7) is no twist law: these searches used to return fixed
    # points labelled (p, q)
    law = delay.puck(0.7)
    try:
        orbit = var.periodic_orbit_search(c, law, rotation)
    except NotFound:
        return
    P = c.perimeter
    sols = var.p_star(c, law, orbit.s, np.roll(orbit.s, -1),
                      hint=np.cos(orbit.theta))
    assert abs(sum(sol.advance for sol in sols) - rotation[0] * P) \
        <= 1e-9 * P


def test_orbit_search_p_star_budget(monkeypatch):
    calls = {"p_star": [], "_orbit_eval": [], "_chords": []}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(var, "p_star")
    counted(var, "_orbit_eval")
    counted(geo, "_chords")
    orbit = var.periodic_orbit_search(geo.ellipse(1.2, 1.0),
                                      delay.vortex(0.5), (1, 3))
    assert orbit.residual < 1e-9
    # transits solved, one per segment of each action evaluation
    assert sum(np.size(args[2]) for args in calls["p_star"]) <= 75
    # the segments of one evaluation share the scan, polish and validation
    assert len(calls["_chords"]) <= 6 * len(calls["_orbit_eval"])


def test_orbit_search_makes_no_scalar_chord(monkeypatch):
    # the action reads the chord that p_star's validation solved at the
    # chosen root
    c, law = geo.ellipse(1.2, 1.0), delay.vortex(0.5)
    chords, chord = [], geo.chord
    monkeypatch.setattr(geo, "chord",
                        lambda *args: chords.append(args) or chord(*args))
    gf = var.generating_function(c, law, 0.4, 2.9)
    orbit = var.periodic_orbit_search(c, law, (1, 3))
    assert chords == []
    assert orbit.residual < 1e-9
    sol = var.p_star(c, law, 0.4, 2.9)
    assert gf.p_star == sol.p
    assert sol.chord == tuple(float(x[0]) for x in geo.chord_batch(
        c, [0.4], [math.acos(sol.p)]))


def test_p_star_inverts_its_launch_arcs_once(monkeypatch):
    # one array of the q launch arcs goes to t_of_s; the scan, the polish
    # passes and the validation all read those parameters
    c = geo.ellipse(1.2, 1.0)
    sizes, t_of_s = [], c.t_of_s
    monkeypatch.setattr(c, "t_of_s",
                        lambda s: sizes.append(np.size(s)) or t_of_s(s))
    q = 3
    s = np.arange(q) * c.perimeter / q
    var.p_star(c, delay.vortex(0.5), s, np.roll(s, -1))
    assert sizes == [q]


@pytest.mark.parametrize("c, law", [
    (geo.ellipse(1.2, 1.0), delay.vortex(0.5)),
    (geo.neumann_oval(0.3), delay.puck(0.7)),
], ids=["ellipse-vortex", "oval-puck"])
def test_p_star_chord_solves(monkeypatch, c, law):
    """No chord batch for the scan or inside the polish in t2, one per
    pass of the finish in p, one for the validation."""
    log, chords = [], geo._chords
    monkeypatch.setattr(geo, "_chords",
                        lambda *args: log.append("chords") or chords(*args))
    for name in ("_polish_t2", "_polish_p"):
        def traced(*args, fn=getattr(var, name), name=name):
            log.append(name)
            out = fn(*args)
            log.append("end")
            return out

        monkeypatch.setattr(var, name, traced)
    q = 3
    s = np.arange(q) * c.perimeter / q
    sols = var.p_star(c, law, s, np.roll(s, -1))
    assert sum(len(sol.roots) for sol in sols) >= q
    finish = log[3:-2]
    assert log[:3] == ["_polish_t2", "end", "_polish_p"]
    assert 1 <= len(finish) <= 3 and set(finish) == {"chords"}
    assert log[-2:] == ["end", "chords"]


def test_orbit_search_reads_no_arc_length_curvature(monkeypatch):
    # both end curvatures of every chord are read at its parameters
    calls, curvature = [], geo.BoundaryCurve.curvature
    monkeypatch.setattr(geo.BoundaryCurve, "curvature",
                        lambda self, s: calls.append(s) or curvature(self, s))
    for c in (geo.ellipse(1.2, 1.0), geo.neumann_oval(0.3)):
        var.generating_function(c, delay.vortex(0.5), 0.4, 2.9)
        orbit = var.periodic_orbit_search(c, delay.vortex(0.5), (1, 3))
        assert orbit.residual < 1e-9
    assert calls == []


def test_transit_solve_curvatures_are_the_chord_ends():
    # the launch curvature keeps the bits of the arc-length read, the
    # landing one agrees with it to rounding
    c, law = geo.neumann_oval(0.3), delay.vortex(0.5)
    s = np.array([0.4, 1.7])
    for sol, k1 in zip(var.p_star(c, law, s, [2.9, 0.2]), c.curvature(s)):
        assert sol.curvatures[0] == k1
        assert sol.curvatures[1] == pytest.approx(
            c.curvature([sol.chord[0]])[0], rel=1e-13)


# -- transit roots against brentq --------------------------------------------


def _transit_residual(c, law, s, S, p):
    """The wrapped transit residual through one scalar chord."""
    P = c.perimeter
    S_cl, Th, _ = geo.chord(c, s, math.acos(p))
    return float(geo.wrap_to_half((S_cl - s) % P + law.ell(math.cos(Th))
                                  + s - S, P))


def _momentum_grid(n_grid=256):
    """n_grid interior momenta and 14 geometric tail momenta down to
    1 - |p| = 1e-5, ascending."""
    pg = np.linspace(-1.0, 1.0, n_grid + 2)[1:-1]
    tail = 1.0 - np.geomspace(1e-5, 1.0 - pg[-1], 8)[:-1]
    return np.sort(np.concatenate([-tail[::-1], pg, tail]))


def _scan_cells(c, law, s, S, n_grid=256):
    """The cells (a, b) where a scan of the wrapped residual over the
    momentum grid changes sign, in order, a == b for a zero on a node,
    each with whether 65 samples show it to hold one root and no wrap
    jump."""
    P = c.perimeter
    pg = _momentum_grid(n_grid)

    def scan(p):
        S_cl, Th, _ = geo.chord_batch(c, np.full(len(p), s), np.arccos(p))
        return geo.wrap_to_half((S_cl - s) % P + law.ell(np.cos(Th))
                                + s - S, P)

    res = scan(pg)
    cells = []
    for a, b, ra, rb in zip(pg[:-1], pg[1:], res[:-1], res[1:]):
        if ra == 0.0:
            cells.append((a, a, False))
        elif ra * rb < 0.0 and abs(ra) + abs(rb) <= 0.5 * P:
            r = scan(np.linspace(a, b, 65))
            cells.append((a, b, np.count_nonzero(r[:-1] * r[1:] <= 0.0) == 1
                          and np.abs(np.diff(r)).max() < 0.25 * P))
    return cells


def _brentq_root(c, law, s, S, a, b):
    """brentq (xtol 1e-15) on the scalar residual over [a, b]; None where
    the scalar residual does not change sign there."""
    if a == b:
        return a

    def f(p):
        return _transit_residual(c, law, s, S, p)

    if f(a) * f(b) > 0.0:
        return None
    return brentq(f, a, b, xtol=1e-15)


def _brentq_roots(c, law, s, S):
    """p_star's roots as polished one by one: brentq, |residual| < 1e-10,
    1e-9 apart."""
    good = []
    for a, b, _ in _scan_cells(c, law, s, S):
        r = _brentq_root(c, law, s, S, a, b)
        if abs(_transit_residual(c, law, s, S, r)) < 1e-10 and all(
                abs(r - g) > 1e-9 for g in good):
            good.append(r)
    return np.sort(good)


@pytest.mark.parametrize("c, law, s, S", [
    (geo.ellipse(1.2, 1.0), delay.vortex(0.5), 0.4, 2.9),
    (geo.ellipse(1.2, 1.0), delay.vortex(0.5), 5.0, 1.2),
    (geo.neumann_oval(0.3), delay.vortex(0.5), 1.1, 4.0),
    (geo.disk(1.0), delay.vortex(2 * math.pi), 0.0, 3.0),
    (geo.ellipse(20.0, 0.05), delay.vortex(0.5), 69.59165557964762,
     10.718892745013205),
], ids=["ellipse", "ellipse-wrapped", "oval", "disk-ambiguous",
        "thin-flat-side"])
def test_p_star_polishes_without_scalar_chords(monkeypatch, c, law, s, S):
    chords = []
    chord = geo.chord

    def counted(*args):
        chords.append(args)
        return chord(*args)

    monkeypatch.setattr(geo, "chord", counted)
    sol = var.p_star(c, law, s, S)
    assert chords == []
    monkeypatch.undo()
    ref = _brentq_roots(c, law, s, S)
    assert len(sol.roots) == len(ref)
    assert np.max(np.abs(sol.roots - ref)) < 1e-13


@pytest.mark.parametrize("c", [geo.disk(1.0), geo.ellipse(1.2, 1.0),
                               geo.neumann_oval(0.3), geo.ellipse(20.0, 0.05)],
                         ids=["disk", "ellipse", "oval", "thin"])
def test_scan_nodes_cover_the_momentum_grid(c):
    """From every launch the scan's momenta rise along the row, its guards
    lie beyond the grid's ends, and neighbouring interior nodes lie at
    most two grid cells apart; on the disk the nodes are the grid."""
    t0 = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)[:, None]
    t2, chord, p = var._scan_nodes(c, t0)
    assert np.all((t2 > t0) & (t2 < t0 + 2 * math.pi))
    assert np.all(np.diff(p, axis=1) > 0.0)
    end = var._P_GRID[-1]
    assert np.all(p[:, 0] < -end) and np.all(p[:, -1] > end)
    assert np.all(np.diff(p[:, 1:-1], axis=1) <= 2.0 * np.diff(var._P_GRID))
    if c.kind == "disk":
        np.testing.assert_allclose(p[:, 1:-1], np.broadcast_to(
            var._P_GRID, (64, len(var._P_GRID))), rtol=0, atol=1e-14)


@pytest.mark.parametrize("law", [delay.vortex(0.5), delay.constant(0.3)],
                         ids=["vortex", "constant"])
def test_p_star_keeps_a_root_at_the_grids_end(law):
    """A transit launched at the momentum grid's end, |p| = 1 - 1e-5, is a
    root p_star returns: the scan's guard nodes bracket it. No root lies
    beyond that end."""
    c, end = geo.disk(1.0), var._P_GRID[-1]
    for s in np.linspace(0.0, c.perimeter, 40, endpoint=False):
        for sign in (-1.0, 1.0):
            S = bil.pensive_batch(c, law, [s], [math.acos(sign * end)])
            roots = var.p_star(c, law, s, float(S[0][0])).roots
            assert np.min(np.abs(roots - sign * end)) < 1e-12
            assert np.all(np.abs(roots) <= end)


@pytest.mark.parametrize("lam, s, S, root", [
    (0.5, 4.352784260600373, 0.08427847228847346, 0.981207322477591),
    (0.6, 5.4513607354738935, 4.147397619848615, -0.9982528206222745)],
    ids=["oval-0.5", "oval-0.6"])
def test_p_star_finds_the_roots_beside_shadow_jumps(lam, s, S, root):
    """Two puck roots of non-convex ovals whose momentum cells also hold a
    jump of the advance at a shadow boundary, with both cell ends on one
    side: the landing-parameter scan, where the advance has no such jump,
    brackets them."""
    roots = var.p_star(geo.neumann_oval(lam), delay.puck(0.7), s, S).roots
    assert np.min(np.abs(roots - root)) < 1e-12


EDGE_TABLES = (geo.ellipse(1.2, 1.0), geo.neumann_oval(0.3),
               geo.ellipse(20.0, 0.05))
EDGE_LAWS = (delay.vortex(0.5), delay.puck(0.7))


@settings(max_examples=60)
@given(table=st.integers(0, 2), law=st.integers(0, 1),
       s_frac=st.floats(0.0, 1.0, exclude_max=True),
       target=st.one_of(
           st.floats(0.0, 1.0, exclude_max=True),
           st.tuples(st.sampled_from([-1.0, 1.0]),
                     st.floats(-5.0, -1.0).map(lambda e: 10.0 ** e))))
def test_p_star_property_at_the_edges(table, law, s_frac, target):
    """Every root p_star returns solves the transit equation, and matches
    brentq wherever the scan cell holds one well-conditioned root."""
    c, law = EDGE_TABLES[table], EDGE_LAWS[law]
    P = c.perimeter
    s = s_frac * P
    eps = np.finfo(float).eps
    if isinstance(target, tuple):
        # the landing arc of a launch in the geometric tail, |p| -> 1
        sign, gap = target
        try:
            S = float(bil.pensive_batch(c, law, [s],
                                        [math.acos(sign * (1.0 - gap))])[0][0])
        except PensiveError:
            return
    else:
        S = target * P
    try:
        roots = var.p_star(c, law, s, S).roots
    except PensiveError:
        return

    def slope(p):
        # |d residual / dp|: the residual's error at the float nearest a
        # root, and the root's error from a residual known to 8 ulps of P
        th = math.acos(p)
        return abs(twist.pensive_dS_dtheta(c, law, s, th)) / math.sin(th)

    for r in roots:
        assert abs(_transit_residual(c, law, s, S, r)) < (
            1e-10 + 4 * eps * slope(r))
    for a, b, single in _scan_cells(c, law, s, S):
        ref = _brentq_root(c, law, s, S, a, b) if single else None
        if ref is not None and 4 * eps * slope(ref) < 1e-11:
            assert np.min(np.abs(roots - ref)) < (
                1e-13 + 8 * np.spacing(P) / slope(ref))


RULE_TABLES = (geo.disk(1.0),) + EDGE_TABLES + (geo.neumann_oval(0.6),)
RULE_LAWS = (delay.vortex(0.5), delay.constant(0.3), delay.linear(0.3),
             delay.linear(-0.3), delay.puck(0.7))


@settings(max_examples=25)
@given(table=st.integers(0, 4), law=st.integers(0, 4),
       s_frac=st.floats(0.0, 1.0, exclude_max=True),
       target=st.one_of(
           st.floats(0.0, 1.0, exclude_max=True),
           st.tuples(st.sampled_from([-1.0, 1.0]),
                     st.floats(-5.0, -1.0).map(lambda e: 10.0 ** e))))
def test_p_star_cells_on_the_unwrapped_advance(table, law, s_frac, target):
    """The roots bracketed on the unwrapped advance, one per cell and
    crossing, hold every root that a cell of the wrapped residual holds
    alone (the last non-convex table included), and each meets the
    validation bound."""
    c, law = RULE_TABLES[table], RULE_LAWS[law]
    P = c.perimeter
    s = s_frac * P
    eps = np.finfo(float).eps
    if isinstance(target, tuple):
        sign, gap = target
        try:
            S = float(bil.pensive_batch(c, law, [s],
                                        [math.acos(sign * (1.0 - gap))])[0][0])
        except PensiveError:
            return
    else:
        S = target * P
    try:
        roots = var.p_star(c, law, s, S).roots
    except NotTransitive:
        roots = np.array([])

    def slope(p):
        th = math.acos(p)
        return abs(twist.pensive_dS_dtheta(c, law, s, th)) / math.sin(th)

    for r in roots:
        assert abs(_transit_residual(c, law, s, S, r)) < (
            1e-10 + 4 * eps * slope(r))
    for a, b, single in _scan_cells(c, law, s, S):
        ref = _brentq_root(c, law, s, S, a, b) if single else None
        if ref is not None and 4 * eps * slope(ref) < 1e-11:
            assert roots.size and np.min(np.abs(roots - ref)) < max(
                1e-12, 8 * np.spacing(P) / slope(ref))


# -- transit roots against the 30-digit reference ---------------------------

# (table, reference, law, segments, scan): about 1.5 s of tier-1
TRANSIT_CASES = {
    "disk-vortex": (geo.disk(1.0), oracle.disk(1.0), delay.vortex(0.5), 4, 32),
    "disk-linear": (geo.disk(1.0), oracle.disk(1.0), delay.linear(-0.3), 4,
                    32),
    "disk-puck": (geo.disk(1.0), oracle.disk(1.0), delay.puck(0.7), 2, 32),
    "ellipse-vortex": (geo.ellipse(1.2, 1.0), oracle.ellipse(1.2, 1.0),
                       delay.vortex(0.5), 2, 16),
    "ellipse-constant": (geo.ellipse(1.2, 1.0), oracle.ellipse(1.2, 1.0),
                         delay.constant(0.3), 1, 16),
    "oval-vortex": (geo.neumann_oval(0.3), oracle.neumann_oval(0.3),
                    delay.vortex(0.5), 2, 16),
}
# the largest distance of a root to the nearest reference, measured on
# the earlier polish (Newton in p on the cells of the wrapped residual)
TRANSIT_EARLIER_ERRORS = {
    "disk-vortex": 1.2933887537999366e-16,
    "disk-linear": 2.722285947867474e-16,
    "disk-puck": 1.4873986571416401e-16,
    "ellipse-vortex": 6.232613262859954e-16,
    "ellipse-constant": 2.2566309597935133e-16,
    "oval-vortex": 3.9083449118570415e-16,
}


@pytest.mark.parametrize("name", TRANSIT_CASES)
def test_p_star_against_the_30_digit_transit_reference(name):
    """Every root p_star returns lies within the earlier polish's error,
    plus 2 ulps of 1, of a root of tests/oracle.py's transit; under a
    bounded law it returns every reference root. Under the puck it may
    drop a root in the grazing tails, where one ulp of p moves the
    residual by more than the validation bound 1e-10."""
    c, tab, law, n, scan = TRANSIT_CASES[name]
    err, counts = oracle.transit_errors(var.p_star, c, law, tab, 20240823,
                                        n, scan)
    assert err.max() <= TRANSIT_EARLIER_ERRORS[name] + 2 * np.spacing(1.0)
    if law.tag == "puck":
        assert all(0 < got <= want for got, want in counts)
    else:
        assert all(got == want for got, want in counts)


# -- p_star on arrays of segments -------------------------------------------

ARRAY_TABLES = (geo.disk(1.0),) + EDGE_TABLES


def _same_solve(a, b):
    return (a.roots.tobytes() == b.roots.tobytes()
            and a.advances.tobytes() == b.advances.tobytes()
            and a.ambiguous == b.ambiguous and a.p.hex() == b.p.hex()
            and a.advance.hex() == b.advance.hex())


@settings(max_examples=40, deadline=None)
@given(table=st.integers(0, 3), law=st.integers(0, 1),
       hints=st.sampled_from([None, "hint", "advance_hint"]),
       ends=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                               st.floats(0.0, 1.0, exclude_max=True),
                               st.floats(-1.0, 1.0)), min_size=1, max_size=8))
def test_p_star_array_matches_scalar_calls(table, law, hints, ends):
    """p_star on an array of segments returns each segment's scalar solve
    bit for bit, and raises what the first failing scalar call raises."""
    c, law = ARRAY_TABLES[table], EDGE_LAWS[law]
    P = c.perimeter
    s, S, h = (np.array(col) for col in zip(*ends))
    s, S = s * P, S * P
    kw = {}
    if hints == "hint":
        kw = {"hint": h}
    elif hints == "advance_hint":
        kw = {"advance_hint": (h + 1.0) * P}
    ref, err = [], None
    try:
        for i in range(len(s)):
            ref.append(var.p_star(c, law, s[i], S[i],
                                  **{k: v[i] for k, v in kw.items()}))
    except NotTransitive as e:
        err = str(e)
    if err is not None:
        with pytest.raises(NotTransitive) as got:
            var.p_star(c, law, s, S, **kw)
        assert str(got.value) == err
        return
    got = var.p_star(c, law, s, S, **kw)
    assert len(got) == len(ref)
    assert all(_same_solve(a, b) for a, b in zip(got, ref))


def test_p_star_array_shapes():
    c, law = geo.ellipse(1.2, 1.0), delay.vortex(0.5)
    for table in ARRAY_TABLES + (geo.neumann_oval(0.6),):
        assert var.p_star(table, law, [], []) == []
    for s, S, kw in (([0.1, 0.2], [1.0], {}), ([0.1], 1.0, {}),
                     (0.1, [1.0], {}), ([[0.1]], [[1.0]], {}),
                     ([0.1, 0.2], [1.0, 2.0], {"hint": [0.3]}),
                     ([0.1, 0.2], [1.0, 2.0], {"advance_hint": [1, 2, 3]})):
        with pytest.raises(InvalidParameter):
            var.p_star(c, law, s, S, **kw)
    # the first rootless segment, behind a solvable one, names its ends
    thin = geo.ellipse(20.0, 0.05)
    P = thin.perimeter
    s, S = np.array([0.0, 0.1, 0.0]) * P, np.array([0.05, 0.3, 0.5]) * P
    with pytest.raises(NotTransitive) as got:
        var.p_star(thin, law, s, S)
    var.p_star(thin, law, s[0], S[0])
    with pytest.raises(NotTransitive) as ref:
        var.p_star(thin, law, s[1], S[1])
    assert str(got.value) == str(ref.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("which", ["s", "S"])
@pytest.mark.parametrize("batch", [False, True])
def test_p_star_rejects_non_finite_arcs(bad, which, batch):
    """A non-finite s or S is an InvalidParameter before any reduction
    mod P: no RuntimeWarning, and no NotTransitive naming S=nan."""
    c, law = geo.ellipse(1.2, 1.0), delay.vortex(0.5)
    ends = {"s": 0.4, "S": 2.9}
    ends[which] = bad
    if batch:
        ends = {k: np.array([1.0, v]) for k, v in ends.items()}
    with pytest.raises(InvalidParameter, match="finite"):
        var.p_star(c, law, ends["s"], ends["S"])
    if not batch:
        with pytest.raises(InvalidParameter, match="finite"):
            var.generating_function(c, law, ends["s"], ends["S"])


def test_p_star_root_bytes_are_pinned():
    """sha256 of every root p_star finds on six segments of two tables
    under the puck, linear and constant laws; a rewrite of the transit
    polish keeps every bit or says so here."""
    h = hashlib.sha256()
    for c in (geo.ellipse(1.2, 1.0), geo.neumann_oval(0.3)):
        P = c.perimeter
        s = np.linspace(0.0, P, 6, endpoint=False)
        for law in (delay.puck(0.5), delay.linear(0.4), delay.constant(0.3)):
            for sol in var.p_star(c, law, s, (s + 0.37 * P) % P):
                h.update(sol.roots.tobytes())
    assert h.hexdigest() == ("ea396ef05386d6db00778be1c1d6e27d"
                             "0a1203310b24cb20c7db974f8f61e14d")


def test_momentum_grid_scan_bytes_are_pinned():
    """sha256 of chord_batch's (s2, theta2, length) over a momentum grid
    of 256 interior and 14 tail momenta from 8 arcs on four tables, all the
    rows of each launch in one batch; the grazing-chord pin covers the
    grazing rows."""
    h = hashlib.sha256()
    th = np.arccos(_momentum_grid())
    for c in (geo.disk(1.0), geo.ellipse(1.2, 1.0), geo.neumann_oval(0.3),
              geo.ellipse(20.0, 0.05)):
        s = (np.arange(8) + 0.25) / 8 * c.perimeter
        for x in geo.chord_batch(c, s[:, None], th[None, :]):
            h.update(x.tobytes())
    assert h.hexdigest() == ("d9c8dbdf75bd63e7f195dfac520d4fe1"
                             "c16d1813001edc3dfe52178de4c7b26e")
