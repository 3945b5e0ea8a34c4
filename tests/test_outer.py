"""Outer billiard tests: tangent coordinates, the pensive step, area
preservation, and the spherical swept-area duality."""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.optimize import brentq, minimize_scalar

import oracle
from pensive import delay, geometry as geo, outer
from pensive.errors import (InvalidParameter, InvalidPoint, NotExterior,
                            Unsupported)

RNG = np.random.default_rng(20240823)
TWO_PI = 2.0 * math.pi


def square_points(nodes=256):
    phi = np.linspace(0, TWO_PI, nodes, endpoint=False)
    r = (0.75 + 0.22 * np.cos(4 * phi)) ** (-0.25)
    return np.c_[r * np.cos(phi), r * np.sin(phi)]


def square_oval(nodes=256):
    """Square-like smooth oval: rounded 4-norm ball, strictly convex."""
    return geo.curve_from_points(square_points(nodes))


def square_knots(nodes=256):
    """Spline knots of square_oval in its parameter: the cumulative chord
    lengths through the sample points, scaled to one period."""
    p = square_points(nodes)
    seg = np.hypot(*np.diff(np.vstack([p, p[:1]]), axis=0).T)
    return TWO_PI * np.cumsum(np.r_[0.0, seg[:-1]]) / seg.sum()


def quad_turn(curve, t0, t1, breaks):
    """Tangent turning by adaptive quad of kappa |gamma'|, split where the
    integrand is not smooth: at breaks, one period of them, repeated."""
    lo, hi = sorted((t0, t1))
    k = np.arange(math.floor(lo / TWO_PI), math.ceil(hi / TWO_PI))
    e = (breaks[None, :] + TWO_PI * k[:, None]).ravel()
    e = np.r_[lo, e[(e > lo) & (e < hi)], hi]

    def w(t):
        return float(curve.curvature_t(t) * curve.speed_t(t))

    total = sum(quad(w, a, b, epsabs=1e-13, epsrel=1e-13)[0]
                for a, b in zip(e[:-1], e[1:]))
    return total if t1 >= t0 else -total


def wobble_point(u):
    """Convex spherical curve with varying geodesic curvature: the
    colatitude psi = 0.8 + 0.1 sin 2u at longitude u."""
    psi = 0.8 + 0.1 * math.sin(2 * u)
    return np.array([math.sin(psi) * math.cos(u),
                     math.sin(psi) * math.sin(u),
                     math.cos(psi)])


def wobble_deriv(u):
    """Analytic derivative of wobble_point."""
    psi = 0.8 + 0.1 * math.sin(2 * u)
    dpsi = 0.2 * math.cos(2 * u)
    return np.array([math.cos(psi) * dpsi * math.cos(u)
                     - math.sin(psi) * math.sin(u),
                     math.cos(psi) * dpsi * math.sin(u)
                     + math.sin(psi) * math.cos(u),
                     -math.sin(psi) * dpsi])


def wobble_curve():
    return outer.SphericalCurve(wobble_point)


def wobble_speed(u):
    """Analytic speed of wobble_curve: |(psi', sin psi)|."""
    psi = 0.8 + 0.1 * math.sin(2 * u)
    return math.hypot(0.2 * math.cos(2 * u), math.sin(psi))


def wobble_arc(u1, u2):
    return quad(wobble_speed, u1, u2, epsabs=1e-13, epsrel=1e-13,
                limit=200)[0]


def equator():
    return outer.SphericalCurve(
        lambda u: np.array([math.cos(u), math.sin(u), 0.0]))


class TestTangentCoordinates:
    def test_circle_example(self):
        c = geo.disk(1.0)
        op = outer.tangent_coordinates(c, (2.0, 0.0))
        assert op.r == pytest.approx(math.sqrt(3.0), abs=1e-12)
        p = c.zpoint_t(op.t)
        assert p.real == pytest.approx(0.5, abs=1e-12)
        assert p.imag == pytest.approx(-math.sqrt(3.0) / 2, abs=1e-12)

    def test_one_polish_per_side(self, monkeypatch):
        # the scan's sign direction picks the side: one Newton solve per
        # call, and no brentq
        calls = []
        solve = geo._newton_one

        def counted(*args, **kw):
            calls.append(1)
            return solve(*args, **kw)

        monkeypatch.setattr(geo, "_newton_one", counted)
        monkeypatch.setattr(geo, "brentq", None)
        ell = geo.ellipse(2.0, 1.0)
        for side in ("right", "left"):
            outer.tangent_coordinates(ell, (1.7, 1.9), side=side)
        assert len(calls) == 2

    def test_circle_tangent_lengths(self):
        c = geo.disk(1.0)
        for d in (1.2, 2.0, 3.7, 10.0):
            op = outer.tangent_coordinates(c, (d, 0.0))
            assert op.r == pytest.approx(math.sqrt(d * d - 1), abs=1e-10)

    def test_reconstruction(self):
        ell = geo.ellipse(2.0, 1.0)
        for _ in range(20):
            ang = RNG.uniform(0, TWO_PI)
            rad = RNG.uniform(2.4, 5.0)
            X = np.array([rad * math.cos(ang), rad * math.sin(ang)])
            for side, sgn in (("right", 1.0), ("left", -1.0)):
                op = outer.tangent_coordinates(ell, X, side=side)
                assert op.r > 0
                tau = np.array([math.cos(op.alpha), math.sin(op.alpha)])
                rebuilt = ell.point(ell.arclen_t(op.t)) + sgn * op.r * tau
                assert np.linalg.norm(rebuilt - X) < 1e-10

    def test_ellipse_support_oracle(self):
        # the right tangency maximizes the signed bearing seen from X
        ell = geo.ellipse(2.0, 1.0)
        X = np.array([3.0, 1.0])
        op = outer.tangent_coordinates(ell, X)

        def neg_bearing(t):
            g = ell.zpoint_t(t)
            rel = complex(g.real - X[0], g.imag - X[1])
            toward = complex(-X[0], -X[1])
            return -math.atan2((toward.real * rel.imag
                                - toward.imag * rel.real),
                               (toward.real * rel.real
                                + toward.imag * rel.imag))

        ts = np.linspace(0, TWO_PI, 2048, endpoint=False)
        seed = ts[int(np.argmin([neg_bearing(t) for t in ts]))]
        res = minimize_scalar(neg_bearing, bounds=(seed - 0.01, seed + 0.01),
                              method="bounded",
                              options={"xatol": 1e-12})
        p_oracle = ell.zpoint_t(res.x)
        p_found = ell.zpoint_t(op.t)
        assert abs(p_oracle - p_found) < 1e-8

    def test_not_exterior(self):
        c = geo.disk(1.0)
        with pytest.raises(NotExterior):
            outer.tangent_coordinates(c, (0.3, 0.2))
        with pytest.raises(NotExterior):
            outer.tangent_coordinates(c, (1.0, 0.0))
        # one point inside, in a batch of exterior ones, and one whose
        # displaced points straddle the circle
        for pts in ([(2.0, 0.0), (0.3, 0.2), (0.0, -3.0)], [(1.0, 0.0)]):
            with pytest.raises(NotExterior):
                outer.area_preservation_check(c, outer.OuterDelay.zero(),
                                              pts)

    # the 512 scan nodes, where the scan sees the point's own tangency,
    # and 64 parameters between them
    EDGE_T = np.r_[np.linspace(0.0, TWO_PI, 512, endpoint=False),
                   np.random.default_rng(5).uniform(0.0, TWO_PI, 64)]

    @pytest.mark.parametrize("make", [lambda: geo.ellipse(2.0, 1.0),
                                      lambda: geo.neumann_oval(0.3)],
                             ids=["ellipse", "oval"])
    def test_not_exterior_at_the_oval(self, make):
        # on the oval, and 1e-12 inside it along the inward normal, no
        # tangent ray reaches the point; 1e-9 outside, a returned r must
        # rebuild the point
        curve = make()
        answered = 0
        # a point on the oval from an array evaluation, as the scan's, has
        # f = 0 exactly at its node
        for t, z_arr in zip(self.EDGE_T, curve.zpoint_t(self.EDGE_T)):
            z = complex(curve.zpoint_t(t))
            inward = 1j * complex(curve.tangent_t(t))
            for side, sgn in (("right", 1.0), ("left", -1.0)):
                for X in (z, complex(z_arr), z + 1e-12 * inward):
                    with pytest.raises(NotExterior):
                        outer.tangent_coordinates(curve, (X.real, X.imag),
                                                  side=side)
                X = z - 1e-9 * inward
                try:
                    op = outer.tangent_coordinates(curve, (X.real, X.imag),
                                                   side=side)
                except NotExterior:
                    continue
                answered += 1
                tau = complex(math.cos(op.alpha), math.sin(op.alpha))
                rebuilt = complex(curve.zpoint_t(op.t)) + sgn * op.r * tau
                assert abs(rebuilt - X) < 1e-10
        # the scan catches the tangencies of points just off its nodes
        assert answered >= 2 * 512

    def test_polygon_unsupported(self):
        with pytest.raises(Unsupported):
            outer.tangent_coordinates(geo.regular_polygon(4), (3.0, 0.0))
        with pytest.raises(Unsupported):
            outer.area_preservation_check(geo.regular_polygon(4),
                                          outer.OuterDelay.zero(),
                                          [(3.0, 0.0)])


class TestOuterStep:
    def test_circle_reflection(self):
        c = geo.disk(1.0)
        X = np.array([2.0, 0.0])
        Y = outer.outer_step(c, X)
        op = outer.tangent_coordinates(c, X)
        p = np.array([c.zpoint_t(op.t).real, c.zpoint_t(op.t).imag])
        assert np.linalg.norm(Y - (2 * p - X)) < 1e-12
        assert np.linalg.norm(Y - p) == pytest.approx(np.linalg.norm(X - p),
                                                      abs=1e-12)

    def test_left_round_trip(self):
        ell = geo.ellipse(2.0, 1.0)
        for _ in range(10):
            ang = RNG.uniform(0, TWO_PI)
            rad = RNG.uniform(2.4, 4.0)
            X = np.array([rad * math.cos(ang), rad * math.sin(ang)])
            Y = outer.outer_step(ell, X)
            back = outer.outer_step(ell, Y, side="left")
            assert np.linalg.norm(back - X) < 1e-9

    def test_coordinate_transport(self):
        # the image carries the source coordinates in the left chart
        ell = geo.ellipse(2.0, 1.0)
        X = np.array([2.8, -1.4])
        op = outer.tangent_coordinates(ell, X)
        Y = outer.outer_step(ell, X)
        opl = outer.tangent_coordinates(ell, Y, side="left")
        assert opl.r == pytest.approx(op.r, abs=1e-10)
        assert opl.alpha == pytest.approx(op.alpha, abs=1e-10)

    def test_far_field(self):
        crv = square_oval()
        X = np.array([500.0, 137.0])
        Y = outer.outer_step(crv, X)
        assert abs(np.linalg.norm(Y) / np.linalg.norm(X) - 1.0) < 0.01


class TestOuterDelay:
    def test_angle_area_consistency(self):
        od = outer.OuterDelay.from_area(lambda r: r ** 3)
        for r in (0.5, 1.0, 2.7):
            assert od.shift(r) == pytest.approx(2.0 * r, abs=1e-12)
            assert od.area(r) == pytest.approx(r ** 3, abs=1e-12)
        od2 = outer.OuterDelay.from_angle(lambda r: 0.4)
        assert od2.area(2.0) == pytest.approx(0.8, abs=1e-12)

    def test_zero(self):
        od = outer.OuterDelay.zero()
        assert od.shift(1.7) == 0.0
        assert od.area(1.7) == 0.0

    @pytest.mark.parametrize("theta", [
        lambda r: math.nan, lambda r: math.inf, lambda r: -math.inf,
        lambda r: 10.0 ** 400.0], ids=["nan", "inf", "-inf", "overflow"])
    def test_non_finite_shift_is_typed(self, theta):
        # checked before any arithmetic: no divmod warning, no scipy
        # ValueError from a NaN bracket; 10.0 ** 400.0 overflows a float
        od = outer.OuterDelay.from_angle(theta)
        with pytest.raises(InvalidParameter, match="bearing shift"):
            od.shift(1.5)
        with pytest.raises(InvalidParameter, match="bearing shift"):
            od.area(1.5)
        with pytest.raises(InvalidParameter, match="bearing shift"):
            outer.pensive_outer_step(geo.ellipse(2.0, 1.0), od, (3.0, 0.5))
        with pytest.raises(InvalidParameter, match="bearing shift"):
            outer.area_preservation_check(geo.ellipse(2.0, 1.0), od,
                                          [(3.0, 0.5), (0.0, 2.0)])


class TestPensiveOuterStep:
    def test_zero_delay_is_classical(self):
        ell = geo.ellipse(2.0, 1.0)
        od = outer.OuterDelay.zero()
        for _ in range(8):
            ang = RNG.uniform(0, TWO_PI)
            rad = RNG.uniform(2.4, 4.0)
            X = np.array([rad * math.cos(ang), rad * math.sin(ang)])
            assert np.linalg.norm(outer.pensive_outer_step(ell, od, X)
                                  - outer.outer_step(ell, X)) < 1e-12

    def test_circle_half_turn(self):
        # a(r) = pi r^2 / 2 shifts the bearing by pi: the image is the
        # antipode of the classical one, and each step rotates the orbit
        # by the classical angle plus pi at fixed radius.
        c = geo.disk(1.0)
        od = outer.OuterDelay.from_area(lambda r: 0.5 * math.pi * r * r)
        X = np.array([2.0, 0.0])
        Y = outer.pensive_outer_step(c, od, X)
        assert np.linalg.norm(Y + outer.outer_step(c, X)) < 1e-12
        d = 2.0
        step = math.pi - 2.0 * math.acos(1.0 / d)
        z = X.copy()
        ang = 0.0
        for _ in range(5):
            z = outer.pensive_outer_step(c, od, z)
            ang += step
            assert np.linalg.norm(z) == pytest.approx(d, abs=1e-10)
            got = math.atan2(z[1], z[0]) % TWO_PI
            assert got == pytest.approx(ang % TWO_PI, abs=1e-9)

    def test_r_preserved_and_bearing_shift(self):
        ell = geo.ellipse(2.0, 1.0)
        od = outer.OuterDelay.from_area(lambda r: r ** 3)
        X = np.array([1.7, 0.9])
        op = outer.tangent_coordinates(ell, X)
        Y = outer.pensive_outer_step(ell, od, X)
        opl = outer.tangent_coordinates(ell, Y, side="left")
        assert opl.r == pytest.approx(op.r, abs=1e-12)
        want = (op.alpha + od.shift(op.r)) % TWO_PI
        assert opl.alpha == pytest.approx(want, abs=1e-10)

    def test_swept_area_quadrature(self):
        # independent dual route: integrate the actual swept region with
        # finite-difference partials, no curvature formula involved
        ell = geo.ellipse(2.0, 1.0)
        od = outer.OuterDelay.from_area(lambda r: r ** 3)
        X = np.array([3.0, 1.0])
        op = outer.tangent_coordinates(ell, X)
        tq = outer._advance_tangency(ell, op.t, od.shift(op.r))

        h = 1e-6

        def jac(rho, t):
            tau = ell.tangent_t(t)
            gp = (ell.zpoint_t(t + h) - ell.zpoint_t(t - h)) / (2 * h)
            taup = (ell.tangent_t(t + h) - ell.tangent_t(t - h)) / (2 * h)
            rt = gp + rho * taup
            return abs(rt.real * tau.imag - rt.imag * tau.real)

        area, _ = dblquad(jac, op.t, tq, 0.0, op.r,
                          epsabs=1e-10, epsrel=1e-10)
        assert area == pytest.approx(od.area(op.r), rel=1e-8)

        # bearing advance quadrature matches r^2 theta / 2 exactly
        turn = outer._turn_integral(ell, op.t, tq)
        assert 0.5 * op.r ** 2 * turn == pytest.approx(od.area(op.r),
                                                       abs=1e-10)


EIGHTHS = np.linspace(0.0, TWO_PI, 8, endpoint=False)
# each table with the breaks of its turning rate for the quadrature
TURN_TABLES = {"ellipse": (lambda: geo.ellipse(2.0, 1.0), EIGHTHS),
               "oval": (lambda: geo.neumann_oval(0.3), EIGHTHS),
               "square": (square_oval, square_knots())}


class TestBearing:
    @pytest.mark.parametrize("name", TURN_TABLES)
    def test_turn_matches_quadrature(self, name):
        make, breaks = TURN_TABLES[name]
        curve = make()
        for t0, t1 in ((0.3, 1.9), (5.9, 6.5), (1.0, 8.5), (4.0, -3.3),
                       (-2.0, 11.0)):
            want = quad_turn(curve, t0, t1, breaks)
            assert outer._turn_integral(curve, t0, t1) == pytest.approx(
                want, abs=1e-11)

    @pytest.mark.parametrize("name", TURN_TABLES)
    def test_advance_round_trip(self, name):
        curve = TURN_TABLES[name][0]()
        h = curve._h
        for t0 in (0.0, 0.7, 3.0 * h, 5.5):
            for turn in (-7.5, -0.4, 0.0, 0.9, TWO_PI, 8.3, 15.0):
                t1 = outer._advance_tangency(curve, t0, turn)
                assert outer._turn_integral(curve, t0, t1) == pytest.approx(
                    turn, abs=1e-12)
            # and back, from node and off-node targets, whole periods too
            for t1 in (t0 + 37 * h, t0 - 1000 * h, TWO_PI, -TWO_PI,
                       2.0 * TWO_PI + 5 * h):
                turn = outer._turn_integral(curve, t0, t1)
                assert outer._advance_tangency(curve, t0, turn) == \
                    pytest.approx(t1, abs=1e-12)

    def test_whole_periods_leave_the_landing_bits(self):
        # a turn and its remainder modulo the bearing period land on the
        # same u, bit for bit, in whole periods apart: the periods come off
        # the turn before the target is formed, not after
        curve = geo.ellipse(20.0, 0.05)
        full = float(curve._bearing_nodes[-1] - curve._bearing_nodes[0])
        rng = np.random.default_rng(2028)
        t0, turn = rng.uniform(0.0, TWO_PI, 40), rng.uniform(-60, 60, 40)
        rem = np.fmod(turn, full)
        n = np.round((turn - rem) / full)
        u, p = outer._advance_tangencies(curve, t0, turn)
        ur, pr = outer._advance_tangencies(curve, t0, rem)
        assert np.array_equal(u, ur) and np.array_equal(p, pr + n)
        for i in range(t0.size):
            assert outer._advance_one(curve, t0[i], turn[i]) == (
                ur[i], pr[i] + n[i])

    def test_nonconvex_unsupported(self):
        oval = geo.neumann_oval(0.7)
        assert not oval.is_convex
        with pytest.raises(Unsupported):
            outer.tangent_coordinates(oval, (3.0, 0.5))
        with pytest.raises(Unsupported):
            outer.pensive_outer_step(oval, outer.OuterDelay.zero(),
                                     (3.0, 0.5))
        with pytest.raises(Unsupported):
            outer.area_preservation_check(oval, outer.OuterDelay.zero(),
                                          [(3.0, 0.5)])


class TestAreaPreservation:
    def test_classical_circle(self):
        c = geo.disk(1.0)
        ang = RNG.uniform(0, TWO_PI, 12)
        rad = RNG.uniform(1.5, 3.0, 12)
        pts = np.c_[rad * np.cos(ang), rad * np.sin(ang)]
        assert outer.area_preservation_check(
            c, outer.OuterDelay.zero(), pts) < 1e-6

    def test_pensive_ellipse_200_points(self):
        ell = geo.ellipse(2.0, 1.0)
        od = outer.OuterDelay.from_area(lambda r: r ** 3)
        ang = RNG.uniform(0, TWO_PI, 200)
        rad = RNG.uniform(2.6, 4.5, 200)
        pts = np.c_[rad * np.cos(ang), rad * np.sin(ang)]
        assert outer.area_preservation_check(ell, od, pts) < 1e-5

    def test_degenerate_delay_reported(self):
        # kinked a(r): determinant deviation is reported, not asserted
        ell = geo.ellipse(2.0, 1.0)
        od = outer.OuterDelay.from_area(lambda r: 0.3 * abs(r - 3.0) * r * r)
        pts = np.array([[3.0, 1.0], [0.0, 3.2], [-2.9, -0.7]])
        dev = outer.area_preservation_check(ell, od, pts)
        assert np.isfinite(dev)

    @pytest.mark.parametrize("points", [
        [], np.zeros((0, 2)), [[3.0, 0.0, 1.0]], [3.0, 0.0, 1.0],
        [[[3.0, 0.0]]], [[3.0, 0.0], [math.nan, 2.0]], [[math.inf, 0.0]]],
        ids=["empty", "no-rows", "triples", "one-triple", "nested", "nan",
             "inf"])
    def test_points_are_xy_pairs(self, points):
        with pytest.raises(InvalidPoint):
            outer.area_preservation_check(
                geo.ellipse(2.0, 1.0), outer.OuterDelay.zero(), points)


def angle_delay():
    return outer.OuterDelay.from_angle(lambda r: 0.3 / (1.0 + r))


def hex_orbit(curve, X, steps):
    """Float hex of the pensive outer orbit of X under angle_delay."""
    xs = [np.array(X)]
    for _ in range(steps):
        xs.append(outer.pensive_outer_step(curve, angle_delay(), xs[-1]))
    return [float(v).hex() for x in xs for v in x]


class TestOuterBitPins:
    """Float hex per table: two exterior points, their (alpha, r, t) on
    the right and left sides; the last point and the sha256 of the hex of
    a 20-step orbit from the first point, recorded when one-point steps
    came to polish by safeguarded Newton; the area check over both
    points, recorded when it came to step its displaced points as one
    batch."""

    CURVES = {
        "ellipse": (lambda: geo.ellipse(2.0, 1.0), [(3.0, 0.5), (-1.0, 2.2)]),
        "oval": (lambda: geo.neumann_oval(0.3), [(1.8, 0.4), (-0.9, -1.6)]),
        "thin": (lambda: geo.ellipse(20.0, 0.05),
                 [(3.0, 0.4), (-20.5, 0.1)]),
        "sampled": (square_oval, [(1.5, 0.8), (-0.3, -1.6)]),
    }
    PINS = {
        'ellipse': (
            [
                ('0x1.564c47fa9105ap-1', '0x1.ab653dabb3726p+0',
                 '0x1.6e01c8144e5dap+2'),
                ('0x1.7a1a5a285ebc8p+1', '0x1.2a5853f4f8e85p+1',
                 '0x1.353431d906c68p+0'),
                ('0x1.4b8e344f8e0c9p+1', '0x1.7f6fba7e595eep+1',
                 '0x1.5d89687f4e184p-1'),
                ('0x1.10ee3da3c8a97p+2', '0x1.173e407db25e4p+1',
                 '0x1.73f31e59c147bp+1'),
            ],
            ('-0x1.af7a7c8c6101ep-1', '-0x1.9794c45b8a562p+0'),
            '2ad293476cde3ef2c85fe915baee803da3dcc1640439fbf69e6313f8ca4fd714',
            '0x1.e47a480000000p-32'),
        'oval': (
            [
                ('0x1.9b3a57ee8c8d1p-1', '0x1.607d2d573fe2ep+0',
                 '0x1.7045926e8fd4dp+2'),
                ('0x1.6a1c100fc0260p+1', '0x1.704dc987d42c7p+0',
                 '0x1.055f10b781b97p+0'),
                ('0x1.353819fa951e9p+2', '0x1.82fa06410168dp+0',
                 '0x1.9be98906d914bp+1'),
                ('0x1.022c3001ef99bp-1', '0x1.bc7c5ec93118cp+0',
                 '0x1.5f149fd007bf0p+2'),
            ],
            ('-0x1.9207f2f8b6a42p+0', '-0x1.7b8b19886f9ecp-1'),
            '8ff1002f6cb69025be68a933c1a52714661355b194e5f40f538bd648e30a39e2',
            '0x1.5abd860000000p-30'),
        'thin': (
            [
                ('0x1.8f21f9b549e97p+1', '0x1.0e423eef795fcp+4',
                 '0x1.b4760b1ded3a0p-4'),
                ('0x1.94546406ce2cep+1', '0x1.6cbd5aeec95e1p+4',
                 '0x1.7faf5cf9b83aap+1'),
                ('0x1.91e3371136f09p+1', '0x1.030baa0072becp+5',
                 '0x1.de9585f8f1689p-1'),
                ('0x1.8573c3e441f36p+2', '0x1.05e9731932375p-1',
                 '0x1.93b803d23cba5p+1'),
            ],
            ('0x1.14e71bec547f2p+4', '0x1.5c6b7eabf3de2p-1'),
            'e227903ec6f0c37aa7181cf272f84d3bb8d42e53bde6b385a58a5400dade58c6',
            '0x1.079d520000000p-29'),
        'sampled': (
            [
                ('0x1.33e1a94a0db82p+0', '0x1.8f0f3d8b5a19ep+0',
                 '0x1.6be023f5e56d4p+2'),
                ('0x1.7b47351347c39p+1', '0x1.02d6e1835c61dp+0',
                 '0x1.1cfdb26f49e57p+0'),
                ('0x1.5487b3b334448p+2', '0x1.03a5396501d32p+0',
                 '0x1.ed73eb31e404bp+1'),
                ('0x1.2fd74aadcd5a6p-1', '0x1.47ed2d3a67b07p+0',
                 '0x1.5ad9c69995edep+2'),
            ],
            ('0x1.20a21f1024836p+1', '0x1.3c09e22801220p-2'),
            '2cbb6613d6b30b4f50fcc722558ea7a572ce95e505974b9a34972c338f8ea735',
            '0x1.40d5f00000000p-31'),
    }

    @pytest.mark.parametrize("name", PINS)
    def test_outer_bits_are_pinned(self, name):
        make, pts = self.CURVES[name]
        coords, last, digest, area = self.PINS[name]
        curve = make()
        got = [tuple(float(v).hex() for v in (op.alpha, op.r, op.t))
               for op in (outer.tangent_coordinates(curve, X, side=side)
                          for X in pts for side in ("right", "left"))]
        assert got == coords
        orbit = hex_orbit(curve, pts[0], 20)
        assert tuple(orbit[-2:]) == last
        assert hashlib.sha256(" ".join(orbit).encode()).hexdigest() == digest
        assert float(outer.area_preservation_check(
            curve, angle_delay(), np.array(pts))).hex() == area


def corpus(name, n, seed):
    """The table `name` of OUTER_TABLES, and n seeded exterior points
    drawn as the outer benchmark draws them: uniform polar angles, radii
    uniform over the table's range."""
    make, (lo, hi) = OUTER_TABLES[name]
    rng = np.random.default_rng(seed)
    ang, rad = rng.uniform(0.0, TWO_PI, n), rng.uniform(lo, hi, n)
    return make(), np.c_[rad * np.cos(ang), rad * np.sin(ang)]


# each table with the radii of its exterior points
OUTER_TABLES = {"ellipse": (lambda: geo.ellipse(2.0, 1.0), (2.6, 4.5)),
                "oval": (lambda: geo.neumann_oval(0.3), (1.5, 3.0)),
                "thin": (lambda: geo.ellipse(20.0, 0.05), (20.5, 30.0)),
                "sampled": (square_oval, (1.5, 3.0))}
DELAYS = {"r^3": lambda: outer.OuterDelay.from_area(lambda r: r ** 3),
          "angle": angle_delay, "zero": outer.OuterDelay.zero}


def scalar_image(curve, odelay, X):
    """pensive_outer_step's image Y of X, and the scale its digits are
    read at: |Y| plus the image's first-order change under an error of
    one unit in the last place of each quantity the step solves. The
    tangency t0 is read to 2 pi, the bearing to 2 pi + |theta(r)| and the
    landing tq to 2 pi, its whole periods kept apart. A bearing error moves the
    landing by itself over kappa |z'| there, and so the image by
    sqrt(rho^2 + r^2) per radian, rho the radius of curvature at tq; an
    error in t0 moves the bearing by kappa |z'| at t0, one in tq the
    image by |dY/dt| = kappa |z'| sqrt(rho^2 + r^2) at tq."""
    op = outer.tangent_coordinates(curve, X)
    theta = odelay.shift(op.r)
    tq = outer._advance_tangency(curve, op.t, theta)
    turn_t0 = float(curve.curvature_t(op.t) * curve.speed_t(op.t))
    kappa = float(curve.curvature_t(tq))
    turn_tq = kappa * float(curve.speed_t(tq))
    Y = outer.pensive_outer_step(curve, odelay, X)
    return Y, math.hypot(*Y) + math.hypot(1.0 / kappa, op.r) * (
        turn_tq * TWO_PI + TWO_PI * (turn_t0 + 1.0)
        + abs(theta))


class TestOuterBatch:
    """The area check's batched step against pensive_outer_step."""

    @pytest.mark.parametrize("name", OUTER_TABLES)
    def test_images_match_the_scalar_step(self, name):
        curve, X = corpus(name, 16, 20261019)
        eps = np.finfo(float).eps
        for label, make in DELAYS.items():
            got = outer._outer_images(curve, make(), X)
            for x, y in zip(X, got):
                want, scale = scalar_image(curve, make(), x)
                assert np.hypot(*(y - want)) <= 4.0 * eps * scale, label

    def test_thin_tips_several_turns_out(self):
        # tangencies on the flat sides of ellipse(20, 0.05) whose landings
        # lie 10 to 14 turns out within 2e-3 of a tip, where the tangent
        # turns at up to 400 per unit t: an unwrapped landing there, near
        # 94, would carry up to 8 ulps of 2 pi into the image
        curve, od = OUTER_TABLES["thin"][0](), DELAYS["r^3"]()
        rng = np.random.default_rng(20261020)
        n = 16
        t0 = np.pi / 2 + rng.uniform(0.5, 1.0, n) * np.where(
            np.arange(n) % 2, 1.0, -1.0)
        t1 = np.where(np.arange(n) % 3, np.pi, 0.0) + rng.uniform(
            -2e-3, 2e-3, n)
        # theta(r) = 2 r under a(r) = r^3: the tangent length whose bearing
        # shift takes t0's tangent to t1's, whole turns added
        dz0, dz1 = curve._dzf(t0), curve._dzf(t1)
        r = 0.5 * (np.angle(dz1 / dz0) % TWO_PI
                   + TWO_PI * rng.integers(10, 15, n))
        z = curve._zf(t0) + r * dz0 / np.abs(dz0)
        X = np.c_[z.real, z.imag]
        eps = np.finfo(float).eps
        for x, y in zip(X, outer._outer_images(curve, od, X)):
            want, scale = scalar_image(curve, od, x)
            assert np.hypot(*(y - want)) <= 4.0 * eps * scale

    def test_one_point_and_its_batch(self):
        # a batch of one point is the same solve, and area checks of a
        # point set and of its rows one by one agree to the last bits
        curve, X = corpus("oval", 6, 7)
        od = angle_delay()
        rows = [outer._outer_images(curve, od, x[None, :])[0] for x in X]
        assert np.array_equal(np.array(rows), outer._outer_images(curve, od,
                                                                  X))
        assert outer.area_preservation_check(curve, od, X) == max(
            outer.area_preservation_check(curve, od, [x]) for x in X)


ORACLE_TABLES = {"ellipse": (lambda: geo.ellipse(2.0, 1.0),
                             lambda: oracle.ellipse(2, 1)),
                 "oval": (lambda: geo.neumann_oval(0.3),
                          lambda: oracle.neumann_oval(0.3))}
# a few ulps of 2 pi
ULP_2PI = np.spacing(TWO_PI)


class TestOuterOracle:
    """Tangencies and slides, scalar and batched, against the 30-digit
    references of tests/oracle.py."""

    @pytest.mark.parametrize("name", ORACLE_TABLES)
    def test_tangencies(self, name):
        curve, X = corpus(name, 12, 2026)
        tab = ORACLE_TABLES[name][1]()
        tb, rb = outer._right_tangencies(curve, X[:, 0] + 1j * X[:, 1])
        for x, t_batch, r_batch in zip(X, tb, rb):
            t_ref, r_ref = oracle.tangency(tab, *x.tolist())
            op = outer.tangent_coordinates(curve, x)
            for t, r in ((op.t, op.r), (t_batch, r_batch)):
                assert oracle.wrapped_error(t, t_ref, TWO_PI) <= 4 * ULP_2PI
                assert oracle.error(r, r_ref) <= 4 * np.spacing(
                    math.hypot(*x))

    @pytest.mark.parametrize("name", [*ORACLE_TABLES, "thin"])
    def test_slides(self, name):
        # turns up to a full period either way: the landing lies within
        # [-2 pi, 4 pi), and a bearing error of a unit there moves it by
        # the unit over kappa |z'|, at least 0.48 on both tables. On the
        # thin ellipse turns reach 60 either way, and kappa |z'| falls to
        # 1/400 on the flat sides: there the double bearing itself fixes
        # the landing only to its ulp over kappa |z'|, so a landing is
        # checked in the parameter or, where kappa |z'| < 1, in the bearing
        thin = name == "thin"
        curve, tab = ((geo.ellipse(20.0, 0.05), oracle.ellipse(20, 0.05))
                      if thin else (make() for make in ORACLE_TABLES[name]))
        span = 60.0 if thin else TWO_PI
        rng = np.random.default_rng(2027)
        t0, turn = rng.uniform(0.0, TWO_PI, 12), rng.uniform(-span, span, 12)
        u, p = outer._advance_tangencies(curve, t0, turn)
        for i in range(t0.size):
            ref = oracle.slide(tab, t0[i], turn[i])
            rate = min(1.0, float(curve.curvature_t(float(ref)) *
                                  curve.speed_t(float(ref)))) if thin else 1.0
            for got in (outer._advance_tangency(curve, t0[i], turn[i]),
                        u[i] + TWO_PI * p[i]):
                assert rate * oracle.error(got, ref) <= 8 * ULP_2PI


class TestTangentScanTable:
    def test_fresh_curve_matches_warm_curve(self):
        warm = geo.neumann_oval(0.3)
        outer.tangent_coordinates(warm, (-2.0, 0.7))
        for X in ((1.8, 0.4), (0.2, -1.9)):
            for side in ("right", "left"):
                a = outer.tangent_coordinates(geo.neumann_oval(0.3), X,
                                              side=side)
                b = outer.tangent_coordinates(warm, X, side=side)
                assert [float(v).hex() for v in (a.alpha, a.r, a.t)] == \
                    [float(v).hex() for v in (b.alpha, b.r, b.t)]
            assert hex_orbit(geo.neumann_oval(0.3), X, 3) == \
                hex_orbit(warm, X, 3)

    def test_one_scan_evaluation_per_curve(self, monkeypatch):
        # the 512-node scan is built once per curve, on first use; the
        # tangency polish still evaluates the tangent at single points
        scans = []
        curves = [geo.ellipse(2.0, 1.0), square_oval()]
        for curve in curves:
            tangent = curve.tangent_t

            def counted(t, tangent=tangent, curve=curve):
                if np.size(t) == 512:
                    scans.append(curve)
                return tangent(t)

            monkeypatch.setattr(curve, "tangent_t", counted)
        for curve in curves:
            for X in ((3.0, 0.5), (-1.0, 2.2), (0.5, -2.5)):
                for side in ("right", "left"):
                    outer.tangent_coordinates(curve, X, side=side)
            outer.pensive_outer_step(curve, angle_delay(), (3.0, 0.5))
            outer.area_preservation_check(curve, angle_delay(),
                                          [(3.0, 0.5)])
        assert scans == curves


class TestTangentChart:
    def test_jacobian_det_is_one_over_r(self):
        for curve in (geo.disk(1.0), geo.ellipse(2.0, 1.0)):
            for _ in range(6):
                ang = RNG.uniform(0, TWO_PI)
                rad = RNG.uniform(2.4, 4.0)
                X = np.array([rad * math.cos(ang), rad * math.sin(ang)])
                op = outer.tangent_coordinates(curve, X)
                h = 1e-6
                cols = []
                for d in (np.array([h, 0.0]), np.array([0.0, h])):
                    a = outer.tangent_coordinates(curve, X + d)
                    b = outer.tangent_coordinates(curve, X - d)
                    dal = (a.alpha - b.alpha + math.pi) % TWO_PI - math.pi
                    cols.append([dal / (2 * h), (a.r - b.r) / (2 * h)])
                det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
                assert abs(det) == pytest.approx(1.0 / op.r, rel=1e-6)


class TestSphericalCurve:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            outer.SphericalCurve(lambda u: np.array([2 * math.cos(u),
                                                     2 * math.sin(u), 0.0]))

    def test_cap_dual_closed_form(self):
        psi = 0.8
        dual = outer.spherical_cap(psi).dual()
        for u in (0.0, 1.1, 3.9):
            want = np.array([-math.cos(psi) * math.cos(u),
                             -math.cos(psi) * math.sin(u),
                             math.sin(psi)])
            assert np.linalg.norm(dual.point(u) - want) < 1e-12

    def test_dual_identity_arclength_cap(self):
        # |g*'' . (g* x g*')| / |g*'|^2 = 1 for arc-length g
        psi = 0.75
        sp = math.sin(psi)

        def gam(s):
            return np.array([sp * math.cos(s / sp), sp * math.sin(s / sp),
                             math.cos(psi)])

        def dual_pt(s):
            h = 1e-4
            dg = (gam(s - 2 * h) - 8 * gam(s - h) + 8 * gam(s + h)
                  - gam(s + 2 * h)) / (12 * h)
            v = np.cross(gam(s), dg)
            return v / np.linalg.norm(v)

        for s in (0.1, 0.9, 2.2):
            h = 1e-3
            d1 = (dual_pt(s - 2 * h) - 8 * dual_pt(s - h)
                  + 8 * dual_pt(s + h) - dual_pt(s + 2 * h)) / (12 * h)
            d2 = (-dual_pt(s - 2 * h) + 16 * dual_pt(s - h)
                  - 30 * dual_pt(s) + 16 * dual_pt(s + h)
                  - dual_pt(s + 2 * h)) / (12 * h * h)
            val = abs(d2 @ np.cross(dual_pt(s), d1)) / (d1 @ d1)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_cross_matches_numpy(self):
        a, b = np.random.default_rng(3).normal(size=(2, 3))
        assert np.array_equal(outer._cross(a, b), np.cross(a, b))

    def test_dual_built_once(self):
        cap = outer.spherical_cap(0.8)
        assert cap.dual() is cap.dual()

    def test_dual_identity_generic_parametrization(self):
        # parameter-free form: the dual's turning rate, which is the speed
        # of its own dual, equals the speed
        crv = wobble_curve()
        ddual = crv.dual().dual()
        for u in (0.3, 1.7, 4.4):
            speed = np.linalg.norm(crv.deriv(u))
            assert np.linalg.norm(ddual.deriv(u)) == pytest.approx(
                speed, rel=1e-6)

    def test_series_between_nodes(self):
        # midway between nodes the series gives the wobble's points, and
        # the dual's dual its analytic derivative
        crv = wobble_curve()
        ddual = crv.dual().dual()
        for u in TWO_PI * (170 * np.arange(12) + 0.5) / 2048:
            assert np.linalg.norm(crv.point(u) - wobble_point(u)) < 1e-13
            assert np.linalg.norm(ddual.deriv(u) - wobble_deriv(u)) < 1e-9

    def test_arc_length_table_matches_quadrature(self):
        # the node table between nodes, in both directions, against
        # adaptive quad of the analytic speed
        crv = wobble_curve()
        for u in np.linspace(0.0, TWO_PI, 39)[1:-1]:
            s = wobble_arc(0.0, u)
            assert abs(crv.s_of_u(u) - s) < 1e-10
            assert abs(crv.u_of_s(s) - u) < 1e-10

    def test_arc_length_unwrapped(self):
        cap = outer.spherical_cap(0.9)
        assert cap.s_of_u(TWO_PI) == cap.length
        assert cap.u_of_s(cap.length) == TWO_PI
        assert cap.s_of_u(-1.0) == pytest.approx(-math.sin(0.9), abs=1e-12)
        assert cap.u_of_s(-1.0) == pytest.approx(-1.0 / math.sin(0.9),
                                                 abs=1e-12)

    def test_zero_speed_does_not_invert(self):
        # the equator's dual is a pole: it has length 0 and no inverse
        dual = equator().dual()
        assert dual.length == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(InvalidParameter):
            dual.u_of_s(0.1)


class TestSphereSweptArea:
    def test_equator_degenerate(self):
        eq = equator()
        assert abs(outer.sphere_swept_area(eq, 0.0, TWO_PI, 0.9)) < 1e-12

    def test_wobble_dual_swept_area(self):
        # the wobble is the dual of its dual: the area its dual's tangent
        # sweeps is (1 - cos theta) times the wobble's arc length
        crv = wobble_curve()
        area = outer.sphere_swept_area(crv.dual(), 0.4, 2.9, 0.9)
        want = (1.0 - math.cos(0.9)) * wobble_arc(0.4, 2.9)
        assert abs(area - want) < 1e-10

    def test_archimedes_zones(self):
        for _ in range(20):
            h1 = RNG.uniform(0.2, 0.95)
            h2 = RNG.uniform(-h1 + 0.05, h1 - 0.05)
            cap = outer.spherical_cap(math.acos(h1))
            theta = math.acos(h2 / h1)
            area = outer.sphere_swept_area(cap, 0.0, TWO_PI, theta)
            assert area == pytest.approx(TWO_PI * (h1 - h2), abs=1e-8)

    def test_partial_arc_monte_carlo(self):
        psi, theta = 0.7, 0.9
        u1, u2 = 0.4, 2.9
        cap = outer.spherical_cap(psi)
        area = outer.sphere_swept_area(cap, u1, u2, theta)

        sp, cp = math.sin(psi), math.cos(psi)
        zmin, zmax = cp * math.cos(theta), cp
        n = 6_000_000
        z = RNG.uniform(zmin, zmax, n)
        phi = RNG.uniform(0.0, TWO_PI, n)
        beta = np.arccos(np.clip(z / cp, -1.0, 1.0))
        delta = np.arctan2(np.sin(beta), sp * np.cos(beta))
        uu = (phi - delta) % TWO_PI
        hits = np.count_nonzero((uu >= u1) & (uu <= u2))
        mc = hits / n * TWO_PI * (zmax - zmin)
        assert mc == pytest.approx(area, rel=1e-3)

    def test_rotation_invariance(self):
        psi = 0.7
        cap = outer.spherical_cap(psi)
        ax = np.array([0.3, -0.5, 0.81])
        ax /= np.linalg.norm(ax)
        k = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]],
                      [-ax[1], ax[0], 0]])
        rot = (np.eye(3) + math.sin(0.83) * k
               + (1 - math.cos(0.83)) * (k @ k))
        tilted = outer.SphericalCurve(lambda u: rot @ cap.point(u))
        a0 = outer.sphere_swept_area(cap, 0.4, 2.9, 0.9)
        a1 = outer.sphere_swept_area(tilted, 0.4, 2.9, 0.9)
        assert a1 == pytest.approx(a0, abs=1e-9)


class TestSphereDuality:
    def test_pole_geometry(self):
        cap = outer.spherical_cap(0.9)
        law = delay.zero()
        s, theta = 1.3, 0.7
        X, Y = outer.spherical_pensive_poles(cap, law, s, theta)
        p = cap.point(cap.u_of_s(s))
        assert abs(np.linalg.norm(X) - 1) < 1e-12
        assert abs(X @ p) < 1e-12
        assert abs(Y @ p) < 1e-12
        assert X @ Y == pytest.approx(math.cos(2 * theta), abs=1e-12)

    def test_classical_duality_cap(self):
        cap = outer.spherical_cap(0.9)
        samples = [(s, th) for s in np.linspace(0.1, 6.0, 10)
                   for th in np.linspace(0.15, 1.5, 5)]
        rep = outer.sphere_duality_check(cap, delay.zero(), samples)
        assert len(rep["samples"]) == 50
        assert rep["max_error"] < 1e-6

    def test_constant_delay_duality_cap(self):
        cap = outer.spherical_cap(0.9)
        samples = [(s, th) for s in np.linspace(0.1, 6.0, 10)
                   for th in np.linspace(0.15, 1.5, 5)]
        rep = outer.sphere_duality_check(cap, delay.constant(0.35), samples)
        assert rep["max_error"] < 1e-6

    def test_constant_delay_duality_on_the_seam(self):
        # the arc-length tables reach the period end: samples that launch
        # just before s = L, or slide onto it, interpolate on the last panel
        cap = outer.spherical_cap(0.9)
        L = cap.length
        assert cap.u_of_s(L - 1e-4) == pytest.approx(
            TWO_PI - 1e-4 / math.sin(0.9), abs=1e-12)
        law = delay.constant(0.35)
        th = 0.6
        samples = [(0.0, th), (L - 5e-5, th),
                   ((L - law.ell_theta(th) - 5e-5) % L, th)]
        rep = outer.sphere_duality_check(cap, law, samples)
        assert rep["max_error"] < 1e-6

    def test_negative_slide_duality_cap(self):
        cap = outer.spherical_cap(0.9)
        rep = outer.sphere_duality_check(cap, delay.constant(-0.35),
                                         [(1.0, 0.7)])
        assert rep["max_error"] < 1e-6

    def test_equator_step_zero_length_dual(self):
        # a great circle's dual is a point: no slide reaches the target
        with pytest.raises(InvalidParameter):
            outer.spherical_outer_step(equator(), lambda r: 0.1,
                                       (math.cos(1.0), math.sin(1.0), 0.0))

    def test_quarter_turn_area_relation(self):
        law = delay.constant(0.35)
        a = law.ell_theta(math.pi / 2) * (1 - math.cos(math.pi / 2))
        assert a == pytest.approx(law.ell_theta(math.pi / 2), abs=1e-15)

    def test_generic_curve_duality(self):
        crv = wobble_curve()
        samples = [(s, th) for s in (0.5, 2.7, 4.9) for th in (0.4, 1.0)]
        rep = outer.sphere_duality_check(crv, delay.constant(0.3), samples)
        assert rep["max_error"] < 1e-6
        rep2 = outer.sphere_duality_check(crv, delay.vortex(0.5),
                                          [(1.3, 0.8), (3.9, 1.2)])
        assert rep2["max_error"] < 1e-6

    def test_one_polish_per_step(self, monkeypatch):
        # the scan's rising sign change is the trailing tangency: one
        # brentq per step
        calls = []

        def counted(*args, **kw):
            calls.append(1)
            return brentq(*args, **kw)

        monkeypatch.setattr(geo, "brentq", counted)
        samples = [(1.1, 0.5), (3.3, 0.9), (5.2, 1.3)]
        for crv in (outer.spherical_cap(0.9), wobble_curve()):
            rep = outer.sphere_duality_check(crv, delay.constant(0.35),
                                             samples)
            assert rep["max_error"] < 1e-6
        assert len(calls) == 6

    @pytest.mark.parametrize("area", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_non_finite_swept_area_is_typed(self, area):
        # a NaN area used to give the classical image, an infinite one a
        # NaN point
        cap = outer.spherical_cap(0.9)
        X, _ = outer.spherical_pensive_poles(cap, delay.constant(0.35),
                                             1.0, 1.0)
        with pytest.raises(InvalidParameter, match="swept area"):
            outer.spherical_outer_step(cap.dual(), lambda r: area, X)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("X", [(0.0, 0.0, 0.0), (1e-200, 0.0, 0.0),
                                   (math.nan, 0.1, 0.9),
                                   (math.inf, 0.0, 1.0), (0.1, 0.9)],
                             ids=["zero", "underflow", "nan", "inf", "2d"])
    def test_bad_point_is_typed(self, X):
        # a zero or infinite X used to warn in the normalisation and then
        # raise NotExterior, a NaN one NotExterior
        with pytest.raises(InvalidPoint):
            outer.spherical_outer_step(outer.spherical_cap(0.9).dual(),
                                       lambda r: 0.1, X)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_arc_parameter_is_typed(self, v):
        # both used to return NaN
        dual = outer.spherical_cap(0.9).dual()
        with pytest.raises(InvalidParameter, match="arc length s"):
            dual.u_of_s(v)
        with pytest.raises(InvalidParameter, match="parameter u"):
            dual.s_of_u(v)

    def test_non_hemispherical_unsupported(self):
        eq = outer.SphericalCurve(
            lambda u: np.array([math.cos(u), math.sin(u), 0.0]))
        with pytest.raises(Unsupported):
            outer.sphere_duality_check(eq, delay.zero(), [(0.3, 0.7)])
