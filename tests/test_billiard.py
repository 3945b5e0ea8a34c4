"""Billiard map tests: disk closed forms, measure preservation,
reversibility, trajectory bookkeeping, and polygon interval exchanges."""

import math

import numpy as np
import pytest

from pensive import billiard as bil
from pensive import errors
from pensive import delay
from pensive import geometry as geo
from pensive.errors import (CornerHit, InvalidAngle, InvalidParameter,
                            Unsupported)

RNG = np.random.default_rng(20240819)


def dist_point_to_line(p, a, b):
    d = b - a
    return abs(d[0] * (p[1] - a[1]) - d[1] * (p[0] - a[0])) / math.hypot(*d)


def test_phase_point():
    x = bil.PhasePoint(1.2, 0.7)
    assert x.p == pytest.approx(math.cos(0.7), abs=1e-15)
    with pytest.raises(InvalidAngle):
        bil.PhasePoint(0.0, -0.1)
    with pytest.raises(InvalidAngle):
        bil.PhasePoint(0.0, math.pi)


def test_phase_point_rejects_nan_angle():
    with pytest.raises(InvalidAngle):
        bil.PhasePoint(0.0, math.nan)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_phase_point_rejects_a_non_finite_arc(s):
    with pytest.raises(InvalidParameter, match="finite"):
        bil.PhasePoint(s, 1.0)


def test_classical_disk_rotation():
    c = geo.disk(1.0)
    x = bil.PhasePoint(0.3, math.pi / 2)
    y = bil.classical_step(c, x)
    assert y.s == pytest.approx(0.3 + math.pi, abs=1e-10)
    assert y.theta == pytest.approx(math.pi / 2, abs=1e-10)
    for theta in (0.4, 1.1, 2.2):
        y = bil.classical_step(c, bil.PhasePoint(1.0, theta))
        assert y.s == pytest.approx((1.0 + 2 * theta) % (2 * math.pi), abs=1e-9)
        assert y.theta == pytest.approx(theta, abs=1e-10)


def test_zero_delay_is_classical():
    c = geo.ellipse(2.0, 1.0)
    law = delay.zero()
    for _ in range(10):
        x = bil.PhasePoint(RNG.uniform(0, c.perimeter), RNG.uniform(0.2, 2.9))
        a = bil.classical_step(c, x)
        b = bil.pensive_step(c, law, x)
        assert b.s == pytest.approx(a.s, abs=1e-12)
        assert b.theta == pytest.approx(a.theta, abs=1e-12)


def test_linear_minus_two_is_identity_on_disk():
    c = geo.disk(1.0)
    law = delay.linear(-2.0)
    for _ in range(12):
        x = bil.PhasePoint(RNG.uniform(0, 2 * math.pi), RNG.uniform(0.1, 3.0))
        y = bil.pensive_step(c, law, x)
        assert geo.wrap_to_half(y.s - x.s, c.perimeter) == pytest.approx(0, abs=1e-10)
        assert y.theta == pytest.approx(x.theta, abs=1e-10)


def test_vortex_period_wrap_on_disk():
    c = geo.disk(1.0)
    law = delay.vortex(math.pi)
    y = bil.pensive_step(c, law, bil.PhasePoint(0.0, math.pi / 2))
    # chord pi plus slide l(0) = L = pi wraps to the start
    assert y.s % (2 * math.pi) == pytest.approx(0.0, abs=1e-10)
    assert y.theta == pytest.approx(math.pi / 2, abs=1e-10)


def test_disk_invariant_circles_and_advance():
    c = geo.disk(1.7)
    for law in (delay.constant(0.4), delay.puck(0.6), delay.vortex(2.0)):
        theta0 = 1.05
        traj = bil.iterate(c, law, bil.PhasePoint(0.2, theta0), 40)
        arr = traj.as_arrays()
        assert np.max(np.abs(arr["theta"] - theta0)) < 1e-12
        adv = 2 * 1.7 * theta0 + float(law.ell_theta(theta0))
        steps = np.diff(arr["s"])
        steps = np.array([geo.wrap_to_half(d - adv, c.perimeter) for d in steps])
        assert np.max(np.abs(steps)) < 1e-9


def test_disk_rotation_angle_examples():
    assert bil.disk_rotation_angle(delay.zero(), 0.8) == pytest.approx(1.6)
    assert bil.disk_rotation_angle(delay.linear(-2.0), 0.8) == pytest.approx(0.0)
    assert bil.disk_rotation_angle(delay.vortex(2.5), math.pi / 2) == (
        pytest.approx(math.pi + 2.5))


@pytest.mark.parametrize("theta", [0.0, -0.5, math.pi, 4.0, math.nan,
                                   np.array([1.0, math.pi])])
def test_disk_rotation_angle_rejects_angles_outside_the_chord_range(theta):
    # theta = 0 used to give 5e149 from the puck's clamp
    with pytest.raises(InvalidAngle, match="incidence angle must lie in"):
        bil.disk_rotation_angle(delay.puck(0.5), theta)
    # the ends of the accepted range are inclusive
    assert np.isfinite(bil.disk_rotation_angle(delay.puck(0.5),
                                               [geo.ANGLE_TOL,
                                                math.pi - geo.ANGLE_TOL])).all()


def test_rotation_number_orbit_closure():
    # rational rotation: orbit closes after q steps
    law = delay.vortex(1.0)
    c = geo.disk(1.0)
    p, q = 2, 7
    from scipy.optimize import brentq
    theta = brentq(lambda t: bil.disk_rotation_angle(law, t) - 2 * math.pi * p / q,
                   1e-6, math.pi - 1e-6)
    traj = bil.iterate(c, law, bil.PhasePoint(0.5, theta), q)
    arr = traj.as_arrays()
    assert geo.wrap_to_half(arr["s"][-1] - 0.5, c.perimeter) == pytest.approx(
        0.0, abs=1e-8)


def test_caustic_radius():
    assert bil.caustic_radius(2.0, math.pi / 2) == pytest.approx(0.0)
    assert bil.caustic_radius(2.0, 1e-6) == pytest.approx(2.0, abs=1e-5)
    c = geo.disk(1.0)
    law = delay.vortex(0.8)
    traj = bil.iterate(c, law, bil.PhasePoint(0.1, math.pi / 3), 100)
    arr = traj.as_arrays()
    launches = np.array([bil.point_xy(c, s) for s in arr["s"][:-1]])
    gaps = [dist_point_to_line(np.zeros(2), a, b)
            for a, b in zip(launches, arr["impact"])]
    assert np.max(np.abs(np.array(gaps) - 0.5)) < 1e-9


def test_reversibility():
    c = geo.ellipse(1.6, 0.9)
    law = delay.puck(0.5)
    for _ in range(15):
        x = bil.PhasePoint(RNG.uniform(0, c.perimeter), RNG.uniform(0.3, 2.8))
        rec = bil.pensive_step_record(c, law, x)
        s_back = geo.arc_advance(c, rec.s_out, -rec.slide)
        assert geo.wrap_to_half(s_back - rec.s_impact, c.perimeter) == (
            pytest.approx(0.0, abs=1e-10))
        back = bil.classical_step(c, bil.PhasePoint(s_back, math.pi - rec.theta_out))
        assert geo.wrap_to_half(back.s - x.s, c.perimeter) == pytest.approx(
            0.0, abs=1e-8)
        assert back.theta == pytest.approx(math.pi - x.theta, abs=1e-8)


def test_trajectory_bookkeeping():
    c = geo.neumann_oval(0.25)
    law = delay.linear(0.6)
    x0 = bil.PhasePoint(0.7, 1.2)
    traj = bil.iterate(c, law, x0, 25)
    assert traj.n_steps == 25
    arr = traj.as_arrays()
    for i in range(25):
        x = traj.points[i]
        y = bil.pensive_step(c, law, x)
        assert geo.wrap_to_half(y.s - traj.points[i + 1].s, c.perimeter) == (
            pytest.approx(0.0, abs=1e-9))
        launch = bil.point_xy(c, x.s)
        assert np.hypot(*(arr["impact"][i] - launch)) == pytest.approx(
            arr["chord_length"][i], abs=1e-9)
        assert np.allclose(arr["reflect"][i], bil.point_xy(c, traj.points[i + 1].s),
                           atol=1e-9)


@pytest.mark.parametrize("curve, law", [
    (geo.ellipse(1.2, 1.0), delay.vortex(1.1)),
    (geo.neumann_oval(0.3), delay.puck(0.4)),
    (geo.regular_polygon(5), delay.constant(0.3))])
def test_trajectory_points_match_point_xy(curve, law):
    traj = bil.iterate(curve, law, bil.PhasePoint(0.4, 1.3), 12)
    recs = [bil.pensive_step_record(curve, law, x) for x in traj.points[:-1]]
    assert traj.impacts.shape == traj.reflects.shape == (12, 2)
    for k, rec in enumerate(recs):
        assert np.allclose(traj.impacts[k], bil.point_xy(curve, rec.s_impact),
                           rtol=0, atol=1e-15)
        assert np.allclose(traj.reflects[k], bil.point_xy(curve, rec.s_out),
                           rtol=0, atol=1e-15)
    # the cached points follow a later append
    traj.append(bil.pensive_step_record(curve, law, traj.points[-1]))
    assert traj.impacts.shape == (13, 2)
    assert np.allclose(traj.reflects[-1],
                       bil.point_xy(curve, traj.points[-1].s),
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("radius, theta", [
    (1.0, math.nan), (1.0, 0.0), (1.0, [1.0, math.inf]), (math.nan, 1.0),
    (math.inf, 1.0)], ids=["nan-theta", "zero-theta", "inf-in-array",
                           "nan-radius", "inf-radius"])
def test_caustic_radius_is_typed(radius, theta):
    # a nan angle used to come back as a nan radius
    with pytest.raises((InvalidAngle, InvalidParameter)):
        bil.caustic_radius(radius, theta)


@pytest.mark.parametrize("n", [-1, math.nan, math.inf, 2.5],
                         ids=["negative", "nan", "inf", "fraction"])
def test_iterate_step_count_is_typed(n):
    # n = -1 used to return the start point alone, n = nan to raise a raw
    # TypeError
    with pytest.raises(InvalidParameter, match="step count"):
        bil.iterate(geo.disk(1.0), delay.zero(), bil.PhasePoint(0.1, 1.0), n)


@pytest.mark.parametrize("n", ["abc", None, [1, 2]],
                         ids=["text", "none", "list"])
def test_iterate_step_count_that_is_no_number_is_typed(n):
    # each used to raise float()'s raw ValueError or TypeError
    with pytest.raises(InvalidParameter, match="step count n"):
        bil.iterate(geo.disk(1.0), delay.zero(), bil.PhasePoint(0.1, 1.0), n)


@pytest.mark.parametrize("value", ["abc", None, [1.0, 2.0], 1j],
                         ids=["text", "none", "list", "complex"])
def test_finite_float_names_the_key_of_a_non_number(value):
    with pytest.raises(InvalidParameter, match="key x"):
        errors.finite_float(value, "key x")


def test_iterate_step_count_is_capped():
    # refused before the first step: the count is checked, not run
    x0 = bil.PhasePoint(0.1, 1.0)
    with pytest.raises(InvalidParameter, match="MAX_COUNT"):
        bil.iterate(geo.disk(1.0), delay.zero(), x0, errors.MAX_COUNT + 1)
    assert errors.whole_count(errors.MAX_COUNT, "n") == errors.MAX_COUNT


def test_iterate_zero_and_partial():
    c = geo.disk(1.0)
    traj = bil.iterate(c, delay.zero(), bil.PhasePoint(0.1, 1.0), 0)
    assert len(traj) == 1

    sq = geo.regular_polygon(4, circumradius=math.sqrt(0.5))
    # left edge midpoint shooting right: impact mid right edge; sliding
    # half an edge lands exactly on a vertex
    s_mid = 0.5
    law = delay.constant(0.5)
    with pytest.raises(CornerHit) as exc:
        bil.iterate(sq, law, bil.PhasePoint(s_mid, math.pi / 2), 3)
    assert len(exc.value.partial) >= 1


def test_pensive_batch_stops_on_a_vertex():
    # the batch twin of the square above: the row sliding onto a vertex
    # raises as the scalar step does, even beside a row that does not
    sq = geo.regular_polygon(4, circumradius=math.sqrt(0.5))
    law = delay.constant(0.5)
    with pytest.raises(CornerHit):
        bil.pensive_batch(sq, law, [0.5], [math.pi / 2])
    with pytest.raises(CornerHit):
        bil.pensive_batch(sq, law, [0.3, 0.5], [1.0, math.pi / 2])
    S, _ = bil.pensive_batch(sq, law, [0.3], [1.0])
    assert S[0] == bil._pensive_raw(sq, law, 0.3, 1.0).s_out


def test_pensive_batch_matches_scalar():
    c = geo.ellipse(2.0, 1.0)
    law = delay.vortex(1.5)
    s = RNG.uniform(0, c.perimeter, 30)
    th = RNG.uniform(0.2, math.pi - 0.2, 30)
    S, Th = bil.pensive_batch(c, law, s, th)
    for i in range(30):
        rec = bil._pensive_raw(c, law, s[i], th[i])
        assert geo.wrap_to_half(S[i] - rec.s_out, c.perimeter) == (
            pytest.approx(0.0, abs=1e-9))
        assert Th[i] == pytest.approx(rec.theta_out, abs=1e-9)


@pytest.mark.parametrize("curve", [geo.regular_polygon(5),
                                   geo.neumann_oval(0.7)],
                         ids=["polygon", "nonconvex-oval"])
def test_pensive_batch_broadcasts_one_launch_arc(curve):
    # one arc and two angles are two steps, each the scalar step
    law = delay.constant(0.2)
    S, Th = bil.pensive_batch(curve, law, 0.5, [1.0, 2.0])
    steps = [bil._pensive_raw(curve, law, 0.5, th) for th in (1.0, 2.0)]
    assert S.tolist() == [rec.s_out for rec in steps]
    assert Th.tolist() == [rec.theta_out for rec in steps]


@pytest.mark.parametrize("curve", [
    geo.disk(1.0), geo.ellipse(2.0, 1.0), geo.neumann_oval(0.3),
    geo.regular_polygon(5), geo.neumann_oval(0.7)],
    ids=["disk", "ellipse", "oval", "polygon", "nonconvex-oval"])
def test_empty_batches(curve):
    empty = np.empty(0)
    s2, th2, length = geo.chord_batch(curve, empty, empty)
    S, Th = bil.pensive_batch(curve, delay.constant(0.2), empty, empty)
    for a in (s2, th2, length, S, Th):
        assert isinstance(a, np.ndarray) and a.shape == (0,)


def test_measure_jacobian_det():
    c = geo.ellipse(1.8, 1.0)
    for law in (delay.puck(0.7), delay.linear(1.0), delay.vortex(1.2)):
        s = RNG.uniform(0, c.perimeter, 40)
        p = RNG.uniform(-0.95, 0.95, 40)
        det = bil.measure_jacobian_det(c, law, s, p)
        assert np.max(np.abs(det - 1.0)) < 1e-5, law.tag


def test_monte_carlo_measure_preservation():
    c = geo.ellipse(2.0, 1.0)
    law = delay.puck(0.5)
    n = 100_000
    s = RNG.uniform(0, c.perimeter, n)
    p = RNG.uniform(-0.9995, 0.9995, n)
    S = np.empty(n)
    P = np.empty(n)
    for i in range(0, n, 10_000):
        sl = slice(i, i + 10_000)
        Si, Thi = bil.pensive_batch(c, law, s[sl], np.arccos(p[sl]))
        S[sl], P[sl] = Si, np.cos(Thi)
    counts, _, _ = np.histogram2d(S, P, bins=20,
                                  range=[[0, c.perimeter], [-1, 1]])
    expect = n / 400.0
    sigma = math.sqrt(expect)
    assert np.max(np.abs(counts - expect)) < 4.3 * sigma


# -- interval exchange slices ---------------------------------------------


def test_iet_requires_rational_polygon():
    with pytest.raises(Unsupported):
        bil.iet_realize(geo.disk(1.0), 0.5)
    tri = geo.PolygonBoundary(np.array([[0, 0], [1, 0], [0.4, 0.9]]))
    with pytest.raises(Unsupported):
        bil.iet_realize(tri, 0.5)


def test_iet_square_classical():
    sq = geo.regular_polygon(4, circumradius=math.sqrt(0.5))
    iet = bil.iet_realize(sq, math.pi / 4, delay.zero())
    assert np.allclose(iet.angles, [math.pi / 4, 3 * math.pi / 4], atol=1e-12)
    # classical 45-degree orbits keep their angle; the partner slice is
    # part of the invariant set but not visited from pi/4
    assert iet.reached[iet.angle_index(math.pi / 4)]
    for row in iet.pieces:
        for pc in row:
            assert pc.chart_slope == pytest.approx(-1.0, abs=1e-6)
            assert pc.raw_slope == pytest.approx(-1.0, abs=1e-6)
    x = bil.PhasePoint(0.13, math.pi / 4)
    traj = bil.iterate(sq, delay.zero(), x, 300)
    arr = traj.as_arrays()
    for i in range(300):
        k = iet.angle_index(arr["theta"][i])
        S, k2 = iet.step(arr["s"][i] % sq.perimeter, k)
        assert geo.wrap_to_half(S - arr["s"][i + 1], sq.perimeter) == (
            pytest.approx(0.0, abs=1e-8))
        assert k2 == iet.angle_index(arr["theta"][i + 1])


def test_iet_triangle_constant_delay():
    tri = geo.regular_polygon(3)
    theta0 = 0.4
    law = delay.constant(0.2)
    iet = bil.iet_realize(tri, theta0, law)
    N = tri.angle_lcm
    assert N == 6
    assert len(iet.angles) <= 2 * N
    base = 2 * math.pi / N
    for t in iet.angles:
        r1 = (t - theta0) % base
        r2 = (t + theta0) % base
        assert min(r1, base - r1, r2, base - r2) < 1e-9
    assert iet.label == pytest.approx(min(theta0 % base, base - theta0 % base))
    for row in iet.pieces:
        assert abs(sum(pc.hi - pc.lo for pc in row) - tri.perimeter) < 1e-8
        for pc in row:
            assert abs(pc.chart_slope) == pytest.approx(1.0, abs=1e-6)
            th_in = iet.angles[pc.angle_index]
            th_out = iet.angles[pc.image_index]
            assert pc.raw_slope == pytest.approx(
                -math.sin(th_in) / math.sin(th_out), abs=1e-6)
    traj = bil.iterate(tri, law, bil.PhasePoint(0.31, theta0), 400)
    arr = traj.as_arrays()
    for i in range(400):
        k = iet.angle_index(arr["theta"][i])
        S, k2 = iet.step(arr["s"][i] % tri.perimeter, k)
        assert geo.wrap_to_half(S - arr["s"][i + 1], tri.perimeter) == (
            pytest.approx(0.0, abs=1e-8))
        assert k2 == iet.angle_index(arr["theta"][i + 1])


def test_iet_angle_orbit_finite():
    tri = geo.regular_polygon(3)
    law = delay.constant(0.15)
    traj = bil.iterate(tri, law, bil.PhasePoint(0.2, math.pi / 5), 2000)
    thetas = np.sort(traj.as_arrays()["theta"])
    distinct = [thetas[0]]
    for t in thetas[1:]:
        if t - distinct[-1] > 1e-9:
            distinct.append(t)
    assert len(distinct) <= 2 * tri.angle_lcm
    base = 2 * math.pi / tri.angle_lcm
    for t in distinct:
        r1 = (t - math.pi / 5) % base
        r2 = (t + math.pi / 5) % base
        assert min(r1, base - r1, r2, base - r2) < 1e-9


def l_shape():
    v = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2.0]])
    return geo.PolygonBoundary(v, rational_angles=[(1, 4)] * 3 + [(3, 4)]
                               + [(1, 4)] * 2)


# regular tables under each slide kind; slices with shadows a hair from
# a vertex; a non-convex table, whose blocked shadows add harmless cuts
IET_CASES = [(k, th, law) for k, th in ((3, 0.4), (4, 0.3), (5, 0.5), (6, 0.2))
             for law in (delay.constant(0.2), delay.zero(), delay.vortex(2.0))]
IET_CASES += [(4, math.pi / 4 + 1e-4, delay.zero()),
              (5, 0.8 * math.pi - 1e-3, delay.zero()),
              (5, 0.8 * math.pi - 1e-5, delay.zero()),
              ("L", 0.4, delay.constant(0.2)), ("L", 0.9, delay.zero())]


@pytest.mark.parametrize("k_sides,theta0,law", IET_CASES,
                         ids=lambda v: getattr(v, "tag", None))
def test_iet_reproduces_the_map_step(k_sides, theta0, law):
    poly = l_shape() if k_sides == "L" else geo.regular_polygon(k_sides)
    iet = bil.iet_realize(poly, theta0, law)
    rng = np.random.default_rng(20240820)
    done = 0
    for _ in range(300):
        k = int(rng.integers(len(iet.angles)))
        s = rng.uniform(0.0, poly.perimeter)
        try:
            rec = bil.pensive_step_record(
                poly, law, bil.PhasePoint(s, iet.angles[k]))
        except CornerHit:
            continue
        S, k2 = iet.step(s, k)
        assert abs(geo.wrap_to_half(S - rec.s_out, poly.perimeter)) < 1e-8
        assert k2 == iet.angle_index(rec.theta_out)
        pc, s_adj = iet.piece_of(s, k)
        roof = pc.roof_lo + (pc.roof_hi - pc.roof_lo) * (s_adj - pc.lo) / (
            pc.hi - pc.lo)
        assert roof == pytest.approx(rec.chord_length, abs=1e-8)
        done += 1
    assert done > 250


def test_iet_chart_is_isometry():
    tri = geo.regular_polygon(3)
    iet = bil.iet_realize(tri, 0.4, delay.constant(0.2))
    for row in iet.pieces:
        for pc in row:
            k, k2 = pc.angle_index, pc.image_index
            for da in (0.0, 0.3 * (pc.hi - pc.lo)):
                a = pc.lo + 1e-6 + da
                b = min(a + 1e-3, pc.hi - 1e-6)
                xa = iet.chart(a % iet.perimeter, k)
                xb = iet.chart(b % iet.perimeter, k)
                ya = iet.chart(pc.map_s(a, iet.perimeter), k2)
                yb = iet.chart(pc.map_s(b, iet.perimeter), k2)
                dx = abs(xb - xa)
                dy = abs(yb - ya)
                w = math.sin(iet.angles[k2]) * iet.perimeter
                dy = min(dy, w - dy)  # image may straddle the arc origin
                assert abs(dy - dx) < 1e-8
