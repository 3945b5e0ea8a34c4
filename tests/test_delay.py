"""Slide laws: closed forms, derivative/potential identities, and the
geodesic-shooting oracle for the cylinder metric quadratures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

import oracle
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


@pytest.mark.parametrize("c", [0.6, -1.7])
def test_custom_law_fallbacks_match_closed_forms(c):
    """A law given only as l(p) = c p and dl/dp = c takes the generic
    routes: the chain rule for dl~/dtheta, the sampled dtheta_range, the
    1e-9 probe for theta_limits and the quadrature for V."""
    law = delay.DelayFunction(lambda p: c * p, lambda p: c + 0 * p)
    th = np.linspace(0.0, math.pi, 1026)[1:-1]
    assert np.allclose(law.dtheta(th), -c * np.sin(th), rtol=0, atol=1e-15)
    # the sample's extremes sit at the grid nodes nearest 0, pi and pi/2
    ends = sorted((-c * math.sin(math.pi / 1025),
                   -c * math.cos(math.pi / 2050)))
    assert law.dtheta_range() == pytest.approx(ends, rel=1e-14)
    assert law.theta_limits() == pytest.approx((c, -c), rel=1e-8)
    p = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(law.potential(p), 0.5 * c * p * p, rtol=1e-10,
                       atol=1e-14)
    assert law.potential(0.3) == pytest.approx(0.045 * c, rel=1e-10)


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


def test_generalized_puck_calls_no_quad(monkeypatch):
    # every crossing integral runs on the metric's fixed rule; T(0) = 1,
    # the straight crossing of the unit-width strip, exactly
    def refused(*args, **kw):
        raise AssertionError("quad called")

    monkeypatch.setattr(delay, "quad", refused)
    metric = delay.PuckMetric.named("bump", amp=0.5)
    law = delay.generalized_puck(metric)
    p = np.array([-0.6, 0.0, 0.2, 0.7])
    for fn in (law.ell, law.dell_dp, law.potential):
        fn(p)
    law.dtheta(np.array([1e-3, 1.0]))
    assert delay.generalized_puck_potential(metric, 0.0) == 1.0
    assert law.potential(0.0) == 0.0


# the profiles of the oracle test, as (the package's metric, the oracle's
# profile)
_TABLE_Y = np.linspace(0.0, 1.0, 7)
_TABLE_F = 1.0 + 0.5 * np.sin(np.pi * _TABLE_Y) ** 2
GP_PROFILES = {
    "bump-0.3": (lambda: delay.PuckMetric.named("bump", amp=0.3),
                 lambda: oracle.puck_profile("bump", 0.3)),
    "bump-0.7": (lambda: delay.PuckMetric.named("bump", amp=0.7),
                 lambda: oracle.puck_profile("bump", 0.7)),
    "skew-0.6": (lambda: delay.PuckMetric.named("skew", amp=0.6),
                 lambda: oracle.puck_profile("skew", 0.6)),
    # a bump sampled at 7 points: the spline dips below f = 1 near each
    # end and is clamped there, so f stays at 1 up to a kink off the grid
    "table": (lambda: delay.PuckMetric.from_table(_TABLE_Y, _TABLE_F),
              lambda: oracle.puck_table(_TABLE_Y, _TABLE_F)),
}
GP_THETAS = (1e-3, 1e-2, 0.1, 0.6, 1.3)
# the largest relative errors in (l, l', V) over GP_THETAS and their
# mirrors, measured on the earlier per-momentum scipy quad (asked for
# 1e-10)
GP_EARLIER_ERRORS = {
    "bump-0.3": (3.387760887553289e-13, 9.59683397301154e-12,
                 3.6747087177244293e-13),
    "bump-0.7": (1.939494154265084e-12, 9.737037428818427e-12,
                 2.1390523656340864e-12),
    "skew-0.6": (2.0446268015464467e-13, 1.5685592810159033e-11,
                 2.2470819647881846e-13),
    "table": (1.7011412410709187e-11, 4.41294635691784e-11,
              2.795512284478167e-11),
}


@pytest.mark.parametrize("name", GP_PROFILES)
def test_generalized_puck_against_the_30_digit_reference(name):
    # l, l' and V at p = cos(theta) and at -p (theta's mirror), against
    # mp.quad at 40 digits: within 1e-11 relative, and no farther than
    # the earlier quad (measured: at most 6.5e-15 on the named profiles,
    # 4.0e-16 on the table)
    make, ref = GP_PROFILES[name]
    law, profile = delay.generalized_puck(make()), ref()
    worst = np.zeros(3)
    for theta in GP_THETAS:
        p = math.cos(theta)
        ell, dell, pot = oracle.crossing(profile, p)
        for q, parity in ((p, 1), (-p, -1)):
            worst = np.maximum(worst, [
                oracle.relative_error(law.ell(q), parity * ell),
                oracle.relative_error(law.dell_dp(q), dell),
                oracle.relative_error(law.potential(q), pot)])
    bound = np.minimum(1e-11, GP_EARLIER_ERRORS[name])
    assert np.all(worst <= bound), (worst, bound)


def test_generalized_puck_near_grazing_raises_no_warning():
    # the earlier quad warned of roundoff at these angles; any warning
    # fails a test here
    law = delay.generalized_puck(delay.PuckMetric.named("bump", amp=0.7))
    theta = 10.0 ** -np.arange(1.0, 6.0)
    for th in np.concatenate([theta, math.pi - theta]).tolist():
        for value in (law.ell_theta(th), law.dtheta(th),
                      law.potential(math.cos(th))):
            assert np.isfinite(value)


_BUMP = delay.generalized_puck(delay.PuckMetric.named("bump", amp=0.5))


@settings(max_examples=30)
@given(st.sampled_from([(1,), (1, 1), (5,), (2, 3), (1, 270), (2, 270)]),
       st.integers(0, 2 ** 32 - 1))
def test_generalized_puck_rows_are_their_scalar_calls(shape, seed):
    # each entry of l, l' and V on an array has the bits of its scalar
    # call, whatever the array's shape
    p = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    for fn in (_BUMP.ell, _BUMP.dell_dp, _BUMP.potential):
        got = fn(p)
        assert got.shape == shape
        for i in np.ndindex(shape):
            assert fn(p[i]) == got[i]



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
