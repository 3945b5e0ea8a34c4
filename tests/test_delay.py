"""Slide laws: closed forms, derivative/potential identities, and the
geodesic-shooting oracle for the cylinder metric quadratures."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from pensive import delay
from pensive import geometry as geo
from pensive import vortex as vx
from pensive.errors import InvalidParameter, OutOfRange

RNG = np.random.default_rng(20240818)

LAWS = {
    "zero": delay.zero(),
    "constant": delay.constant(0.7),
    "linear": delay.linear(1.3),
    "linear_neg": delay.linear(-2.0),
    "puck": delay.puck(0.8),
    "vortex": delay.vortex(3.1),
}


def shoot_geodesic(f, p, rtol=1e-11):
    """Integrate the unit-speed geodesic of f(y) ds^2 + dy^2 from y=0 to y=1.

    Returns (horizontal advance, crossing time = path length). Independent
    of the quadrature route: no Clairaut reduction, just the second-order
    equations s'' = -(f'/f) y' s', y'' = f'(y) s'^2 / 2.
    """
    h = 1e-6

    def fprime(y):
        return (float(f(np.asarray(y + h))) - float(f(np.asarray(y - h)))) / (2 * h)

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
    t_exit = sol.t_events[0][0]
    s_exit = sol.y_events[0][0][0]
    return s_exit, t_exit


def test_closed_forms_angle():
    th = RNG.uniform(0.05, math.pi - 0.05, 40)
    assert np.allclose(LAWS["linear"].ell_theta(th), 1.3 * th, atol=1e-12)
    assert np.allclose(LAWS["puck"].ell_theta(th), 0.8 / np.tan(th), atol=1e-12)
    v = 3.1 * (1.0 - np.cos(th) / np.sqrt(1.0 + np.cos(th) ** 2))
    assert np.allclose(LAWS["vortex"].ell_theta(th), v, atol=1e-12)
    assert LAWS["vortex"].ell_theta(math.pi / 2) == pytest.approx(3.1)
    assert np.all(LAWS["constant"].ell_theta(th) == 0.7)


def test_angle_momentum_consistency():
    th = RNG.uniform(0.05, math.pi - 0.05, 25)
    for law in LAWS.values():
        assert np.allclose(law.ell_theta(th), law.ell(np.cos(th)), atol=1e-13)


def test_momentum_derivative_fd():
    p = RNG.uniform(-0.9, 0.9, 30)
    h = 1e-6
    for name, law in LAWS.items():
        fd = (law.ell(p + h) - law.ell(p - h)) / (2 * h)
        err = np.max(np.abs(fd - law.dell_dp(p)) / (1 + np.abs(fd)))
        assert err < 2e-6, name


def test_angle_derivative_fd():
    th = RNG.uniform(0.2, math.pi - 0.2, 30)
    h = 1e-6
    for name, law in LAWS.items():
        fd = (law.ell_theta(th + h) - law.ell_theta(th - h)) / (2 * h)
        err = np.max(np.abs(fd - law.dtheta(th)) / (1 + np.abs(fd)))
        assert err < 2e-6, name


def test_potential_normalization_and_identity():
    # V(p) = p l(p) - integral_0^p l, by parts from the defining integral
    for name, law in LAWS.items():
        assert abs(float(law.potential(0.0))) < 1e-14, name
        for p in (-0.85, -0.3, 0.45, 0.9):
            tail = quad(lambda q: float(law.ell(q)), 0.0, p,
                        epsabs=1e-11, limit=200)[0]
            expect = p * float(law.ell(p)) - tail
            assert float(law.potential(p)) == pytest.approx(expect, abs=1e-8), name


def test_potential_closed_forms():
    p = RNG.uniform(-0.95, 0.95, 20)
    assert np.allclose(LAWS["linear"].potential(p),
                       1.3 * (np.sqrt(1 - p * p) - 1), atol=1e-12)
    assert np.allclose(LAWS["puck"].potential(p),
                       0.8 / np.sqrt(1 - p * p) - 0.8, atol=1e-12)
    assert np.allclose(LAWS["vortex"].potential(p),
                       3.1 / np.sqrt(1 + p * p) - 3.1, atol=1e-12)
    assert np.all(LAWS["constant"].potential(p) == 0.0)


def test_potential_gradient_fd():
    h = 1e-5
    for name, law in LAWS.items():
        for p in (-0.7, 0.2, 0.8):
            fd = (float(law.potential(p + h)) - float(law.potential(p - h))) / (2 * h)
            assert fd == pytest.approx(p * float(law.dell_dp(p)),
                                       rel=1e-5, abs=1e-7), name


def test_derivative_ranges():
    assert LAWS["zero"].dtheta_range() == (0.0, 0.0)
    assert LAWS["constant"].dtheta_range() == (0.0, 0.0)
    assert LAWS["linear"].dtheta_range() == (1.3, 1.3)
    lo, hi = LAWS["puck"].dtheta_range()
    assert lo == -math.inf and hi == pytest.approx(-0.8)
    lo, hi = LAWS["vortex"].dtheta_range()
    assert lo == 0.0 and hi == pytest.approx(3.1)


def test_theta_limits():
    lo, hi = LAWS["linear"].theta_limits()
    assert lo == 0.0 and hi == pytest.approx(1.3 * math.pi)
    assert LAWS["puck"].theta_limits() == (math.inf, -math.inf)
    lo, hi = LAWS["vortex"].theta_limits()
    assert lo == pytest.approx(3.1 * (1 - 1 / math.sqrt(2)))
    assert hi == pytest.approx(3.1 * (1 + 1 / math.sqrt(2)))


def test_momentum_domain_guard():
    with pytest.raises(OutOfRange):
        LAWS["puck"].ell(1.5)
    with pytest.raises(InvalidParameter):
        delay.DelayFunction(lambda p: p, None)


def test_metric_validation():
    with pytest.raises(InvalidParameter):
        delay.PuckMetric(lambda y: 1.0 - 0.5 * np.sin(np.pi * y) ** 2)
    with pytest.raises(InvalidParameter):
        delay.PuckMetric(lambda y: 1.0 + np.asarray(y))
    with pytest.raises(InvalidParameter):
        delay.PuckMetric.named("no_such_profile")
    m = delay.PuckMetric.named("bump", amp=0.4)
    assert float(m.f(np.asarray(0.5))) == pytest.approx(1.4)


NAN, INF = float("nan"), float("inf")
NON_FINITE = {
    "disk": geo.disk,
    "ellipse_a": lambda x: geo.ellipse(x, 1.0),
    "ellipse_b": lambda x: geo.ellipse(1.0, x),
    "puck": delay.puck,
    "constant": delay.constant,
    "linear": delay.linear,
    "vortex": delay.vortex,
    "bump_amp": lambda x: delay.PuckMetric.named("bump", amp=x),
    "polygon": lambda x: geo.regular_polygon(5, x),
    "disk_domain": vx.DiskDomain,
}


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", NON_FINITE)
def test_constructors_reject_non_finite_parameters(name, value):
    with pytest.raises(InvalidParameter, match="finite"):
        NON_FINITE[name](value)


def test_metric_from_table_matches_formula():
    y = np.linspace(0, 1, 201)
    m = delay.PuckMetric.from_table(y, 1.0 + 0.5 * np.sin(np.pi * y) ** 2)
    ref = delay.PuckMetric.named("bump", amp=0.5)
    pv = np.array([-0.8, -0.2, 0.4, 0.9])
    a = delay.generalized_puck_delay(m, pv)
    b = delay.generalized_puck_delay(ref, pv)
    assert np.allclose(a, b, atol=5e-8)


def test_flat_profile_reduces_to_unit_puck():
    flat = delay.generalized_puck(delay.PuckMetric.named("flat"))
    ref = delay.puck(1.0)
    p = np.array([-0.9, -0.4, 0.0, 0.3, 0.85])
    assert np.allclose(flat.ell(p), ref.ell(p), atol=1e-9)
    assert np.allclose(flat.dell_dp(p), ref.dell_dp(p), atol=1e-8)
    assert np.allclose(flat.potential(p), ref.potential(p), atol=1e-9)


@pytest.mark.parametrize("profile,amp", [("bump", 0.5),
                                         ("double_bump", 0.8),
                                         ("skew", 0.6)])
def test_quadrature_vs_geodesic_shooting(profile, amp):
    metric = delay.PuckMetric.named(profile, amp=amp)
    for p in (-0.9, -0.45, 0.0, 0.3, 0.7, 0.95):
        s_exit, t_exit = shoot_geodesic(metric.f, p)
        assert delay.generalized_puck_delay(metric, p) == pytest.approx(
            s_exit, abs=1e-6)
        assert delay.generalized_puck_potential(metric, p) == pytest.approx(
            t_exit, abs=1e-6)


def test_generalized_puck_potential_one_quad_per_momentum(monkeypatch):
    # T(0) = 1 needs no quadrature of its own
    law = delay.generalized_puck(delay.PuckMetric.named("bump", amp=0.5))
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return quad(*args, **kw)

    monkeypatch.setattr(delay, "quad", counted)
    law.potential(np.array([-0.6, 0.2, 0.7]))
    assert len(calls) == 3


def test_generalized_puck_keeps_the_shape_of_p():
    # p_star's scan hands the law a (segments, momenta) array
    law = delay.generalized_puck(delay.PuckMetric.named("bump", amp=0.5))
    p = np.array([[-0.6, 0.2], [0.7, 0.1]])
    for fn in (law.ell, law.dell_dp, law.potential):
        assert np.array_equal(fn(p), fn(p.ravel()).reshape(p.shape))
    assert isinstance(law.ell(0.2), float)


def test_generalized_puck_law_consistency():
    metric = delay.PuckMetric.named("bump", amp=0.5)
    law = delay.generalized_puck(metric)
    # odd in p, potential even, crossing-time derivative relation
    p = 0.6
    assert float(law.ell(-p)) == pytest.approx(-float(law.ell(p)), abs=1e-10)
    assert float(law.potential(-p)) == pytest.approx(float(law.potential(p)),
                                                     abs=1e-9)
    h = 1e-5
    fd = (delay.generalized_puck_potential(metric, p + h)
          - delay.generalized_puck_potential(metric, p - h)) / (2 * h)
    assert fd == pytest.approx(p * float(law.dell_dp(p)), rel=1e-5)
    lo, hi = law.theta_limits()
    assert lo > 0 and hi < 0  # slide diverges toward grazing, odd law


def test_config_factory(tmp_path):
    assert delay.delay_from_config({"kind": "zero"}).tag == "zero"
    assert delay.delay_from_config({"kind": "constant", "c": "2"}).ell(0.0) == 2
    assert delay.delay_from_config({"kind": "linear", "slope": "0.5"}).tag == "linear"
    assert delay.delay_from_config({"kind": "puck", "h": "1.0"}).tag == "puck"
    d = delay.delay_from_config({"kind": "vortex", "l": "2.5"})
    assert d.params["L"] == 2.5

    class FakeCurve:
        perimeter = 6.0

    d = delay.delay_from_config({"kind": "vortex"}, curve=FakeCurve())
    assert d.params["L"] == 3.0
    with pytest.raises(InvalidParameter):
        delay.delay_from_config({"kind": "vortex"})

    y = np.linspace(0, 1, 101)
    path = tmp_path / "prof.csv"
    np.savetxt(path, np.column_stack([y, 1 + 0.3 * np.sin(np.pi * y) ** 2]),
               delimiter=",")
    d = delay.delay_from_config({"kind": "generalized_puck", "path": str(path)})
    assert d.tag == "generalized_puck"
    d = delay.delay_from_config({"kind": "generalized_puck",
                                 "profile": "double_bump", "amp": "0.4"})
    assert d.params["profile"] == "double_bump"
    with pytest.raises(InvalidParameter):
        delay.delay_from_config({"kind": "warp"})
