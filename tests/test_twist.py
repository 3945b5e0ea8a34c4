"""Jacobian closed forms vs finite differences, twist certificates, and
the flat-table sign-change example."""

import math

import numpy as np
import pytest

from pensive import billiard as bil
from pensive import delay
from pensive import geometry as geo
from pensive import twist
from pensive.errors import HypothesisFailed, InvalidParameter, Unsupported

RNG = np.random.default_rng(20240820)


def fd_classical(curve, s, theta, h=1e-6):
    P = curve.perimeter

    def step(sv, tv):
        S, Th, _ = geo.chord(curve, sv, tv)
        return S, Th

    Sp, Tp = step(s + h, theta)
    Sm, Tm = step(s - h, theta)
    St, Tt = step(s, theta + h)
    Sb, Tb = step(s, theta - h)
    return np.array([
        [geo.wrap_to_half(Sp - Sm, P) / (2 * h), geo.wrap_to_half(St - Sb, P) / (2 * h)],
        [(Tp - Tm) / (2 * h), (Tt - Tb) / (2 * h)],
    ])


def test_disk_jacobian_closed_form():
    for R in (1.0, 2.0):
        c = geo.disk(R)
        J = twist.cb_jacobian(c, 0.7, 1.1)
        assert J.dS_ds == pytest.approx(1.0, abs=1e-9)
        assert J.dS_dtheta == pytest.approx(2 * R, abs=1e-8)
        assert J.dTheta_ds == pytest.approx(0.0, abs=1e-9)
        assert J.dTheta_dtheta == pytest.approx(1.0, abs=1e-9)
        assert J.d == pytest.approx(2 * R * math.sin(1.1), abs=1e-9)


def test_jacobian_matches_finite_differences():
    curves = [geo.disk(1.3), geo.ellipse(2.0, 1.0), geo.neumann_oval(0.25)]
    for c in curves:
        for _ in range(12):
            s = RNG.uniform(0, c.perimeter)
            th = RNG.uniform(0.3, math.pi - 0.3)
            J = twist.cb_jacobian(c, s, th)
            F = fd_classical(c, s, th)
            assert np.max(np.abs(J.matrix - F)) < 1e-5


def test_jacobian_determinant_identity():
    c = geo.ellipse(1.7, 0.9)
    for _ in range(20):
        s = RNG.uniform(0, c.perimeter)
        th = RNG.uniform(0.2, math.pi - 0.2)
        J = twist.cb_jacobian(c, s, th)
        assert J.det * math.sin(J.theta_land) / math.sin(J.theta) == (
            pytest.approx(1.0, abs=1e-8))


def test_polygon_rejected():
    sq = geo.regular_polygon(4)
    with pytest.raises(Unsupported):
        twist.cb_jacobian(sq, 0.2, 1.0)
    with pytest.raises(Unsupported):
        twist.pensive_dS_dtheta(sq, delay.zero(), 0.2, 1.0)


def test_pensive_twist_disk_threshold():
    c = geo.disk(1.5)
    for C, sign in ((-2 * 1.5 + 0.05, 1.0), (-2 * 1.5 - 0.05, -1.0)):
        law = delay.linear(C)
        v = twist.pensive_dS_dtheta(c, law, 0.3, 0.9)
        assert v == pytest.approx(2 * 1.5 + C, abs=1e-8)
        assert math.copysign(1, v) == sign


def test_pensive_twist_matches_finite_difference():
    c = geo.ellipse(1.4, 1.0)
    law = delay.vortex(2.0)
    h = 1e-6
    for _ in range(10):
        s = RNG.uniform(0, c.perimeter)
        th = RNG.uniform(0.3, math.pi - 0.3)
        Sp, _ = bil.pensive_batch(c, law, np.array([s]), np.array([th + h]))
        Sm, _ = bil.pensive_batch(c, law, np.array([s]), np.array([th - h]))
        fd = geo.wrap_to_half(Sp[0] - Sm[0], c.perimeter) / (2 * h)
        assert twist.pensive_dS_dtheta(c, law, s, th) == pytest.approx(
            fd, rel=1e-4, abs=1e-5)


def test_scalar_twist_is_the_array_element():
    # one code path: a scalar call reads its row of the array call, bit
    # for bit, on convex and non-convex ovals
    rng = np.random.default_rng(20261019)
    law = delay.puck(0.6)
    for c in (geo.disk(1.0), geo.ellipse(1.2, 1.0), geo.neumann_oval(0.3),
              geo.ellipse(20.0, 0.05), geo.neumann_oval(0.7)):
        s = rng.uniform(0, c.perimeter, 8)
        th = rng.uniform(0.05, math.pi - 0.05, 8)
        rows = twist.pensive_dS_dtheta(c, law, s, th)
        one = [twist.pensive_dS_dtheta(c, law, float(a), float(b))
               for a, b in zip(s, th)]
        assert all(type(v) is float for v in one)
        assert np.array_equal(rows, one), c.kind


def test_classical_twist_positive():
    c = geo.neumann_oval(0.2)
    s = RNG.uniform(0, c.perimeter, 50)
    th = RNG.uniform(0.05, math.pi - 0.05, 50)
    v = twist.pensive_dS_dtheta(c, delay.zero(), s, th)
    assert np.all(v > 0)


def test_certificates():
    c = geo.ellipse(1.2, 1.0)
    kmin, kmax = geo.curvature_bounds(c)
    R, r = 1 / kmin, 1 / kmax
    assert r > R / 2
    assert twist.twist_certificate(c, delay.zero()).verdict == "Right"
    assert twist.twist_certificate(c, delay.vortex(1.0)).verdict == "Right"
    left_thr = 2 * R / (2 * (r / R) - 1)
    assert twist.twist_certificate(c, delay.puck(left_thr * 1.1)).verdict == "Left"
    assert twist.twist_certificate(c, delay.puck(left_thr * 0.9)).verdict == (
        "Inconclusive")
    d = geo.disk(1.0)
    assert twist.twist_certificate(d, delay.linear(-1.9)).verdict == "Right"
    assert twist.twist_certificate(d, delay.linear(-2.1)).verdict == "Left"
    txt = str(twist.twist_certificate(d, delay.zero()))
    assert "Right" in txt and "disk" in txt


def test_certificate_soundness_by_sampling():
    c = geo.ellipse(1.2, 1.0)
    s = RNG.uniform(0, c.perimeter, 3000)
    th = RNG.uniform(1e-3, math.pi - 1e-3, 3000)
    cert = twist.twist_certificate(c, delay.vortex(1.0))
    assert cert.verdict == "Right"
    assert np.all(twist.pensive_dS_dtheta(c, delay.vortex(1.0), s, th) > 0)
    kmin, kmax = geo.curvature_bounds(c)
    h = 2.2 * 2 / kmin / (2 * kmin / kmax - 1)
    cert = twist.twist_certificate(c, delay.puck(h))
    assert cert.verdict == "Left"
    assert np.all(twist.pensive_dS_dtheta(c, delay.puck(h), s, th) < 0)


def test_hypothesis_failure():
    c = geo.ellipse(2.0, 0.5)
    with pytest.raises(HypothesisFailed):
        twist.twist_certificate(c, delay.zero())


def test_twist_intervals():
    assert twist.twist_interval(delay.zero(), math.pi) == (0.0, 1.0)
    lo, hi = twist.twist_interval(delay.puck(1.0), math.pi)
    assert lo == -math.inf and hi == math.inf
    L = 2.7
    lo, hi = twist.twist_interval(delay.vortex(L), L)
    assert lo == pytest.approx(0.5 * (1 - 1 / math.sqrt(2)))
    assert hi == pytest.approx(1 + 0.5 * (1 + 1 / math.sqrt(2)))
    lo, hi = twist.twist_interval(delay.linear(-2.0), math.pi)
    assert (lo, hi) == (pytest.approx(0.0), pytest.approx(0.0))


@pytest.mark.parametrize("half", [math.nan, math.inf, 0.0, -1.0])
def test_twist_interval_half_perimeter_is_typed(half):
    # a nan half perimeter used to give the interval (nan, nan)
    with pytest.raises(InvalidParameter, match="half perimeter"):
        twist.twist_interval(delay.puck(0.5), half)


# An oval arc whose launch parameter, inverted as one of 2048 equal arcs,
# came out in other bits than inverted alone (found by a seeded search)
ODD_ARC = float.fromhex("0x1.b89b92f5164b2p-7")


@pytest.mark.parametrize("make, s0", [
    (lambda: geo.neumann_oval(0.3), ODD_ARC),
    (lambda: geo.neumann_oval(0.3), 2.5),
    (lambda: geo.ellipse(1.2, 1.0), 0.7)], ids=["oval-odd", "oval", "ellipse"])
def test_sweep_rows_equal_the_scalar_call(make, s0):
    # a sweep of one arc inverts it once, so every row is the scalar call
    c, law = make(), delay.puck(0.7)
    th = np.linspace(0.05, math.pi - 0.05, 2048)
    sweep = twist.pensive_dS_dtheta(c, law, np.full(th.size, s0), th)
    for k in range(0, th.size, 128):
        assert sweep[k] == twist.pensive_dS_dtheta(c, law, s0, float(th[k]))


def test_flat_table_sign_change():
    (s1, th1, v1), (s2, th2, v2) = twist.thin_ellipse_counterexample(
        eps=0.05, theta0=math.pi / 3)
    assert v1 > 0 and v2 < 0
    # limiting magnitudes for eps -> 0: the landing-side curvature makes
    # the second value -(1/sin^2)(2/cos^2 - 1)
    t0 = math.pi / 3
    pred2 = -(1 / math.sin(t0) ** 2) * (2 / math.cos(t0) ** 2 - 1)
    assert v2 == pytest.approx(pred2, rel=0.1)
    tan2 = math.tan(t0) ** 2
    cT = (1 + math.sin(t0) ** 2) / (math.cos(t0) * math.sqrt(1 + 4 * tan2))
    sT = math.sqrt(1 - cT * cT)
    kd = 2 * math.sin(t0) / (math.cos(t0) ** 2 * (1 + 4 * tan2) ** 1.5)
    pred1 = (sT - kd) / sT ** 3
    assert v1 == pytest.approx(pred1, rel=0.1)
