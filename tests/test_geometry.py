"""Geometry: curve construction, arc length, chords.

Chord results are checked against an independent dense-polyline ray
caster, curvature against finite differences of the tangent, and areas
against the shoelace value of a fine polygonization.
"""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oracle
from pensive import geometry as geo
from pensive.errors import (
    MAX_COUNT,
    CornerHit,
    CornerUndefined,
    InvalidAngle,
    InvalidParameter,
    PensiveError,
)

RNG_SEED = 20240817


def polyline_ray_oracle(curve, z0, dhat, skip=0.0, n=200_000):
    """Nearest hit of the ray z0 + u * dhat on a dense polygonization of
    the curve, ignoring hits with u up to skip times the curve's size."""
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    z = curve.zpoint_t(t)
    a, b = z - z0, np.roll(z, -1) - z0
    fa = np.imag(np.conj(dhat) * a)
    fb = np.imag(np.conj(dhat) * b)
    cross = (fa <= 0) != (fb <= 0)
    w = fa[cross] / (fa[cross] - fb[cross])
    hit = a[cross] * (1 - w) + b[cross] * w
    u = np.real(np.conj(dhat) * hit)
    scale = np.abs(z).max()
    u = u[u > skip * scale]
    k = np.argmin(u)
    return z0 + u[k] * dhat, float(u[k])


def polyline_chord_oracle(curve, s, theta, n=200_000):
    """First ray-polyline hit on a dense polygonization of the curve."""
    t0 = float(curve.t_of_s(s))
    z0 = complex(curve.zpoint_t(t0))
    dhat = complex(curve.tangent_t(t0)) * np.exp(1j * theta)
    return polyline_ray_oracle(curve, z0, dhat, 1e-6, n)


def shoelace_area(curve, n=400_000):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    z = curve.zpoint_t(t)
    x, y = z.real, z.imag
    return 0.5 * float(np.sum(x * np.roll(y, -1) - y * np.roll(x, -1)))


@pytest.fixture(scope="module")
def curves():
    return {
        "disk": geo.disk(1.0),
        "disk2": geo.disk(2.0),
        "ellipse": geo.ellipse(2.0, 0.5),
        "oval": geo.neumann_oval(0.3),
    }


def test_constructor_validation():
    with pytest.raises(InvalidParameter):
        geo.disk(-1.0)
    with pytest.raises(InvalidParameter):
        geo.ellipse(0.0, 1.0)
    with pytest.raises(InvalidParameter):
        geo.neumann_oval(1.0)


def test_unit_speed_parametrization(curves):
    # |d gamma / d s| = 1 checked by central differences of point(s)
    for name, c in curves.items():
        s = np.linspace(0.1, c.perimeter, 40, endpoint=False)
        h = 1e-6
        sp = (c.point(s + h) - c.point(s - h)) / (2 * h)
        speed = np.hypot(sp[:, 0], sp[:, 1])
        assert np.max(np.abs(speed - 1)) < 1e-8, name


def test_perimeter_against_polyline(curves):
    for name, c in curves.items():
        t = np.linspace(0, 2 * np.pi, 400_000)
        z = c.zpoint_t(t)
        per = np.sum(np.abs(np.diff(z)))
        assert abs(per - c.perimeter) < 1e-7 * c.perimeter, name


def test_disk_basics():
    c = geo.disk(2.0)
    assert c.perimeter == pytest.approx(4 * math.pi, abs=1e-12)
    p, tau, kap = geo.point_tangent_curvature(c, 0.0)
    assert np.allclose(p, [2, 0], atol=1e-12)
    assert np.allclose(tau, [0, 1], atol=1e-12)
    assert kap == pytest.approx(0.5, abs=1e-12)
    # inward normal points at the center
    n = c.normal(1.3)
    pt = c.point(1.3)
    assert np.dot(n, -pt) > 0


def test_curvature_matches_finite_differences(curves):
    rng = np.random.default_rng(RNG_SEED)
    for name, c in curves.items():
        for s in rng.uniform(0, c.perimeter, 12):
            h = 1e-5
            tp = c.tangent(s + h)
            tm = c.tangent(s - h)
            dtau = (tp - tm) / (2 * h)
            n = c.normal(s)
            kap_fd = float(np.dot(dtau, n))
            assert c.curvature(s) == pytest.approx(kap_fd, abs=5e-6), name


def test_ellipse_curvature_extremes():
    a, b = 2.0, 0.5
    c = geo.ellipse(a, b)
    kmin, kmax = geo.curvature_bounds(c)
    assert kmin == pytest.approx(b / a ** 2, rel=1e-6)
    assert kmax == pytest.approx(a / b ** 2, rel=1e-6)


def test_neumann_oval_area_is_pi():
    for lam in (0.0, 0.2, 0.3, 0.5, 0.7):
        c = geo.neumann_oval(lam)
        assert c.area == pytest.approx(math.pi, abs=1e-6), lam
        assert shoelace_area(c) == pytest.approx(math.pi, abs=1e-6), lam


def test_neumann_oval_convexity_transition():
    assert geo.neumann_oval(0.2).is_convex
    assert geo.neumann_oval(0.3).is_convex
    assert not geo.neumann_oval(0.7).is_convex


def test_disk_chord_closed_form():
    rng = np.random.default_rng(RNG_SEED)
    for radius in (1.0, 2.0):
        c = geo.disk(radius)
        for _ in range(25):
            s = rng.uniform(0, c.perimeter)
            th = rng.uniform(1e-3, math.pi - 1e-3)
            s2, th2, d = geo.chord(c, s, th)
            adv = (s2 - s) % c.perimeter
            assert adv == pytest.approx(2 * radius * th, abs=1e-10)
            assert th2 == pytest.approx(th, abs=1e-11)
            assert d == pytest.approx(2 * radius * math.sin(th), abs=1e-11)


def test_disk_diameter_chord():
    c = geo.disk(1.0)
    s2, th2, d = geo.chord(c, 0.25, math.pi / 2)
    assert d == pytest.approx(2.0, abs=1e-12)
    assert s2 == pytest.approx(0.25 + math.pi, abs=1e-11)
    assert th2 == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize("name", ["ellipse", "oval"])
def test_chord_against_polyline_oracle(curves, name):
    c = curves[name]
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        s = rng.uniform(0, c.perimeter)
        th = rng.uniform(0.05, math.pi - 0.05)
        s2, th2, d = geo.chord(c, s, th)
        z_hit, u = polyline_chord_oracle(c, s, th)
        z2 = complex(c.zpoint_t(c.t_of_s(s2)))
        assert abs(z2 - z_hit) < 1e-8
        assert d == pytest.approx(u, abs=1e-8)


def test_chord_on_nonconvex_oval_first_hit():
    c = geo.neumann_oval(0.7)
    assert not c.is_convex
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(15):
        s = rng.uniform(0, c.perimeter)
        th = rng.uniform(0.1, math.pi - 0.1)
        s2, th2, d = geo.chord(c, s, th)
        z_hit, u = polyline_chord_oracle(c, s, th)
        assert d == pytest.approx(u, abs=1e-7)


@pytest.mark.parametrize("s, th", [(1.70139, math.pi - 1e-4),
                                   (5.34525, 1e-4), (5.34525, math.pi - 1e-4),
                                   (1.86653, 1e-4), (1.86653, math.pi - 1e-4)])
def test_nonconvex_reversal_through_grazing_landing(s, th):
    # grazing launches from concave points land steeply far away; the
    # reversed chord passes the launch point at grazing incidence, where
    # the line meets the boundary twice within one node cell
    c = geo.neumann_oval(0.7)
    assert c.curvature(s) < 0.0
    s2, th2, d = geo.chord(c, s, th)
    assert d == pytest.approx(polyline_chord_oracle(c, s, th)[1], abs=1e-7)
    s3, _, _ = geo.chord(c, s2, math.pi - th2)
    assert abs(geo.wrap_to_half(s3 - s, c.perimeter)) <= 1e-9


def test_chord_reversibility(curves):
    # shooting back from the landing point retraces the chord
    rng = np.random.default_rng(RNG_SEED + 3)
    for name, c in curves.items():
        for _ in range(25):
            s = rng.uniform(0, c.perimeter)
            th = rng.uniform(0.02, math.pi - 0.02)
            s2, th2, _ = geo.chord(c, s, th)
            s3, th3, _ = geo.chord(c, s2, math.pi - th2)
            assert geo.wrap_to_half(s3 - s, c.perimeter) == pytest.approx(
                0.0, abs=1e-9), name
            assert th3 == pytest.approx(math.pi - th, abs=1e-9)


def test_chord_batch_matches_scalar(curves):
    # every table here is convex, where the scalar chord is the batch's
    # one-row case
    rng = np.random.default_rng(RNG_SEED + 4)
    for name, c in curves.items():
        s = rng.uniform(0, c.perimeter, 60)
        th = rng.uniform(0.02, math.pi - 0.02, 60)
        rows = np.array(geo.chord_batch(c, s, th))
        one = np.array([geo.chord(c, float(a), float(b))
                        for a, b in zip(s, th)]).T
        assert np.array_equal(rows, one), name


def sampled_thin_ellipse(n=512):
    """The 20 x 0.05 ellipse through n samples: a convex generic table,
    whose chords bracket and polish their landings."""
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return geo.curve_from_points(np.c_[20.0 * np.cos(t), 0.05 * np.sin(t)])


def test_chord_batch_rows_do_not_depend_on_each_other(curves):
    # grazing and interior rows side by side, against one-row batches
    rng = np.random.default_rng(RNG_SEED + 7)
    th = np.concatenate([[1e-5, 1e-3, math.pi - 1e-3, math.pi - 1e-5],
                         rng.uniform(0.02, math.pi - 0.02, 12)])
    for name, c in curves.items():
        s = rng.uniform(0, c.perimeter, len(th))
        rows = np.array(geo.chord_batch(c, s, th))
        one = np.array([geo.chord_batch(c, s[i:i + 1], th[i:i + 1])
                        for i in range(len(th))])[:, :, 0].T
        assert np.array_equal(rows, one), name
    # broadcast launches, and a sweep of one arc given as a repeated-value
    # array: the grazing rows scan their own windows, the others share one
    # table of their launch's window
    for name, c in CONVEX_TABLES.items():
        s = rng.uniform(0, c.perimeter, 4)
        grid = np.array(geo.chord_batch(c, s[:, None], th[None, :]))
        one = np.array([[geo.chord_batch(c, s[i:i + 1], th[j:j + 1])
                         for j in range(len(th))] for i in range(len(s))])
        assert np.array_equal(grid, np.moveaxis(one[..., 0], 2, 0)), name
        sweep = np.array(geo.chord_batch(c, np.full(len(th), s[0]), th))
        assert np.array_equal(sweep, grid[:, 0]), name
        empty = geo.chord_batch(c, np.empty((0, 1)), th[None, :])
        assert [x.shape for x in empty] == [(0, len(th))] * 3, name
    # a batch holding an unresolvable row raises as that row alone does, on
    # a table that brackets its landings: the thin ellipse through samples
    c = sampled_thin_ellipse()
    with pytest.raises(InvalidAngle) as alone:
        geo.chord(c, 0.0, geo.ANGLE_TOL)
    with pytest.raises(InvalidAngle) as batch:
        geo.chord_batch(c, np.array([1.0, 0.0])[:, None],
                        np.array([geo.ANGLE_TOL, 1.0, 2.0])[None, :])
    assert str(batch.value) == str(alone.value)
    for s in (1.0, 0.5 * c.perimeter):
        with pytest.raises(InvalidAngle, match=re.escape(str(alone.value))):
            geo.chord(c, s, geo.ANGLE_TOL)


def test_thin_ellipse_tip_chord_at_the_angle_floor():
    # the closed-form landing resolves the chord that a bracket scan
    # refuses: at the tip it is 2 rho sin(theta), rho = b^2 / a the
    # radius of curvature there
    a, b = 20.0, 0.05
    _, th2, d = geo.chord(geo.ellipse(a, b), 0.0, geo.ANGLE_TOL)
    assert d == pytest.approx(2.0 * b * b / a * math.sin(geo.ANGLE_TOL),
                              rel=1e-6)
    assert th2 == pytest.approx(geo.ANGLE_TOL, rel=1e-6)


def ray_hit_chords(c, t0, theta):
    """_chords' outputs with the landing at the ray's first crossing."""
    cd = geo._launch(c, t0, theta)
    t = geo._ray_hit(c, c.zpoint_t(t0), np.conj(cd),
                     geo._window(c, t0, theta), t0)
    return (*geo._landing(c, t, t0, cd), t)


@pytest.mark.parametrize("name, gap_floor", [
    ("disk", 1e-6), ("ellipse", 1e-6), ("thin_ellipse", 1e-4),
    ("oval", 1e-6), ("oval_0.4", 1e-6)])
def test_conic_landings_match_the_generic_solver(monkeypatch, name,
                                                 gap_floor):
    """The disk and the ellipse land in closed form, with no polish, and a
    convex oval by its cubic and one polish, with no ray scan, where the
    ray's first crossing lands: t2 in (0, 4 pi) within 2 ulps of 4 pi,
    over grazing and interior rows. The generic solver refuses the thin
    ellipse's tip rows closer to grazing than gap_floor, and there the
    landing angle turns 400 times faster than t."""
    c = (geo.neumann_oval(0.4) if name == "oval_0.4"
         else CONVEX_TABLES[name])
    log = []
    for fn in ("_ray_hit", "_newton_rows"):
        def traced(*args, fn=fn, call=getattr(geo, fn)):
            log.append(fn)
            return call(*args)

        monkeypatch.setattr(geo, fn, traced)
    rng = np.random.default_rng(RNG_SEED + 13)
    gap = 10.0 ** rng.uniform(math.log10(gap_floor), -2.0, 400)
    theta = np.concatenate([gap, rng.uniform(0.01, math.pi - 0.01, 400),
                            math.pi - gap])
    t0 = rng.uniform(0.0, 2.0 * math.pi, theta.size)
    got = geo._chords(c, t0, theta)
    oval = c.kind == "neumann_oval"
    assert log == (["_newton_rows"] if oval else [])
    want = ray_hit_chords(c, t0, theta)
    assert log[-2:] == ["_ray_hit", "_newton_rows"]
    s2 = np.abs(geo.wrap_to_half(got[0] - want[0], c.perimeter))
    th2, length, t2 = (np.abs(x - y) for x, y in zip(got[1:], want[1:]))
    # at lam = 0.4 each solver errs by up to 3.0e-15 in t2 (1.7 ulps of
    # 4 pi) against a 40-digit root, so the two may part by 3 ulps: the
    # bracket polish the cubic replaced parted from the ray hit here by
    # 5.3e-15 in t2 and s2 and 6.7e-15 in Theta
    wide = name == "oval_0.4"
    assert t2.max() <= (3.0 if wide else 2.0) * np.spacing(4.0 * math.pi), \
        t2.max()
    thin = name == "thin_ellipse"
    near = 8e-15 if wide else 5e-15
    assert s2.max() <= (1e-13 if thin else near), s2.max()
    assert length.max() <= (1e-13 if thin else near), length.max()
    assert th2.max() <= (1e-12 if thin else near), th2.max()


@pytest.mark.filterwarnings("error")
def test_oval_cubic_degenerate_rows_do_not_warn():
    """In x = e^{i(t2 - t0)} the oval's cubic loses its lead coefficient at
    lam = 0 and on rows with Re C = 0, such as t0 = 0, theta = pi/2; the
    real cubic the hook solves keeps it. neumann_oval(0) is the unit disk,
    and its chords lie within 5e-15 of the disk's closed form (measured:
    3.6e-15 in each of s2, Theta and length, as for the bracket polish the
    cubic replaced)."""
    disk, oval = geo.disk(1.0), geo.neumann_oval(0.0)
    rng = np.random.default_rng(RNG_SEED + 31)
    gap = 10.0 ** rng.uniform(-6.0, -2.0, 100)
    theta = np.concatenate([gap, rng.uniform(0.01, math.pi - 0.01, 100),
                            math.pi - gap])
    s = rng.uniform(0.0, disk.perimeter, theta.size)
    got, want = geo.chord_batch(oval, s, theta), geo.chord_batch(disk, s,
                                                                 theta)
    err = [np.abs(geo.wrap_to_half(got[0] - want[0], disk.perimeter)),
           *(np.abs(x - y) for x, y in zip(got[1:], want[1:]))]
    assert max(e.max() for e in err) <= 5e-15
    c = geo.neumann_oval(0.3)
    t0, theta = np.array([0.0]), np.array([0.5 * math.pi])
    got, want = geo._chords(c, t0, theta), ray_hit_chords(c, t0, theta)
    assert got[3][0] == pytest.approx(math.pi, abs=1e-15)
    assert np.abs(np.subtract(got, want)).max() <= 2.0 * np.spacing(math.pi)


def test_chord_rejects_tangential_angles(curves):
    c = curves["disk"]
    for bad in (0.0, 1e-9, math.pi - 1e-9, math.pi):
        with pytest.raises(InvalidAngle):
            geo.chord(c, 0.0, bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s,theta,error,match", [
    (math.nan, 1.0, InvalidParameter, "arc length must be finite"),
    (0.3, math.nan, InvalidAngle, "incidence angle must lie in"),
    (math.inf, 1.0, InvalidParameter, "arc length must be finite")],
    ids=["nan_s", "nan_theta", "inf_s"])
@pytest.mark.parametrize("batch", [False, True], ids=["chord", "chord_batch"])
@pytest.mark.parametrize("make", [lambda: geo.disk(1.0),
                                  lambda: geo.neumann_oval(0.7),
                                  lambda: geo.regular_polygon(5)],
                         ids=["disk", "nonconvex_oval", "polygon"])
def test_non_finite_chord_inputs_raise_typed_errors(make, batch, s, theta,
                                                    error, match):
    # no numpy warning first, no untyped error from the ray hit, and no
    # error that blames the landing
    c = make()
    with pytest.raises(error, match=match):
        if batch:
            geo.chord_batch(c, [0.5, s], [1.0, theta])
        else:
            geo.chord(c, s, theta)


@pytest.mark.parametrize("name", ["disk", "ellipse", "oval"])
@pytest.mark.parametrize("method", ["t_of_s", "point", "tangent", "normal",
                                    "curvature"])
def test_non_finite_arcs_raise(curves, name, method):
    # a nan or infinite arc is refused, not carried into a nan point
    c = curves[name]
    for bad in (math.nan, math.inf, [0.5, math.nan]):
        with pytest.raises(InvalidParameter, match="arc length must be"):
            getattr(c, method)(bad)
    for s, delta in ((math.nan, 1.0), (0.3, math.inf)):
        with pytest.raises(InvalidParameter, match="arc length must be"):
            geo.arc_advance(c, s, delta)


def test_backward_grazing_repro_has_its_length():
    # the launch point itself once came back: a length of 2e-16
    s2, th2, d = geo.chord(geo.ellipse(1.2, 1.0), 0.24284207837756880,
                           3.1404232239339818)
    assert d == pytest.approx(0.00202, rel=0.01)
    assert th2 == pytest.approx(3.1404232239339818, abs=1e-4)


@pytest.mark.parametrize("gap", [1e-2, 1e-4])
def test_chord_batch_near_backward_grazing(gap):
    c = geo.neumann_oval(0.3)
    s = np.linspace(0.0, c.perimeter, 200, endpoint=False)
    s2, th2, d = geo.chord_batch(c, s, np.full(len(s), math.pi - gap))
    assert np.all(d > 0.0)
    osc = 2.0 * math.sin(gap) / c.curvature(s)
    assert np.allclose(d, osc, rtol=0.1)


# tables of the chord property test: convex, thin, and non-convex
PROPERTY_TABLES = {
    "disk": geo.disk(1.0),
    "ellipse": geo.ellipse(1.2, 1.0),
    "thin_ellipse": geo.ellipse(20.0, 0.05),
    "oval": geo.neumann_oval(0.3),
    "nonconvex_oval": geo.neumann_oval(0.7),
}

# interior angles, and gaps of 1e-6 to 1e-2 from 0 and from pi
LAUNCH_ANGLES = st.one_of(
    st.floats(1e-2, math.pi - 1e-2),
    st.floats(-6.0, -2.0).map(lambda e: 10.0 ** e),
    st.floats(-6.0, -2.0).map(lambda e: math.pi - 10.0 ** e))


@pytest.mark.parametrize("name", PROPERTY_TABLES)
@given(frac=st.floats(0.0, 1.0, exclude_max=True), theta=LAUNCH_ANGLES)
def test_chord_property(name, frac, theta):
    c = PROPERTY_TABLES[name]
    s = frac * c.perimeter
    try:
        s2, th2, d = geo.chord(c, s, theta)
    except PensiveError as e:
        with pytest.raises(type(e), match=re.escape(str(e))):
            geo.chord_batch(c, [s], [theta])
        return
    assert d > 0.0
    # the scalar chord is the one-row batch, bit for bit: one routine on
    # convex ovals, and chord_batch runs chord row by row elsewhere
    assert float_hex(np.transpose(geo.chord_batch(c, [s], [theta]))) == \
        float_hex([(s2, th2, d)])
    gap = min(theta, math.pi - theta)
    # the osculating circle misses by up to 13x on the thin ellipse
    if name in ("disk", "ellipse", "oval") and gap <= 1e-3:
        assert d == pytest.approx(2.0 * math.sin(theta) / c.curvature(s),
                                  rel=0.1)
    # the reversed chord lands at the launch angle, so both landings stay
    # clear of tangency. Its landing point moves by d / sin(gap) per
    # radian of launch direction, and rounding s2 (or its parameter) to
    # a float turns that direction by kappa(s2) per unit of arc: near the
    # thin ellipse's tips this alone can exceed 1e-9
    if min(th2, math.pi - th2) >= 1e-5 and gap >= 1e-5:
        s3, th3, _ = geo.chord(c, s2, math.pi - th2)
        ds2 = (np.spacing(c.perimeter) +
               c.speed_t(c.t_of_s(s2)) * np.spacing(geo.TWO_PI))
        slack = 4 * ds2 * abs(c.curvature(s2)) * d / math.sin(gap)
        assert abs(geo.wrap_to_half(s3 - s, c.perimeter)) <= max(1e-9, slack)


# convex tables of the landing and broadcast tests
CONVEX_TABLES = {name: PROPERTY_TABLES[name]
                 for name in ("disk", "ellipse", "oval", "thin_ellipse")}


def float_hex(arrays):
    return [[float(x).hex() for x in a] for a in arrays]


@pytest.mark.parametrize("name", CONVEX_TABLES)
def test_chord_batch_broadcasts_like_the_repeated_rows(name):
    c = CONVEX_TABLES[name]
    rng = np.random.default_rng(RNG_SEED + 11)
    s = rng.uniform(0.0, c.perimeter, 5)
    th = np.concatenate([[1e-3, 1e-2, math.pi - 1e-2, math.pi - 1e-3],
                         rng.uniform(0.05, math.pi - 0.05, 8)])
    grid = geo.chord_batch(c, s[:, None], th[None, :])
    flat = geo.chord_batch(c, np.repeat(s, len(th)), np.tile(th, len(s)))
    for g, f in zip(grid, flat):
        assert g.shape == (len(s), len(th))
        assert np.array_equal(g.ravel(), f)


def test_convex_chords_run_no_brentq(monkeypatch):
    # brentq is left to the periodic zero scan: the first hits of
    # non-convex tables polish by the convex chords' Newton
    calls = []
    monkeypatch.setattr(geo, "brentq",
                        lambda *args, **kw: calls.append(args) or
                        brentq(*args, **kw))
    for c in CONVEX_TABLES.values():
        geo.chord(c, 0.3, 1.0)
        geo.chord_batch(c, [0.3, 1.1], [1e-4, math.pi - 1e-4])
    geo.chord(PROPERTY_TABLES["nonconvex_oval"], 0.3, 1.0)
    assert calls == []


# -- the shared safeguarded Newton -------------------------------------------


def _cubic_rows(kind):
    """A step for the roots of x**3 = c per row, whose increment is the
    Newton one, nan, inf or a jump far out of any bracket by row kind;
    it counts the evaluations of each row id."""
    calls = np.zeros(len(kind), dtype=int)

    def step(x, c, kind, ids):
        np.add.at(calls, ids, 1)
        f = x ** 3 - c
        dx = np.select([kind == 0, kind == 1, kind == 2],
                       [-f / (3.0 * x * x), np.nan, np.inf], 1e6)
        return f, dx
    return step, calls


def _newton_corpus():
    rng = np.random.default_rng(RNG_SEED + 19)
    n = 40
    c = rng.uniform(0.1, 8.0, n)
    root = np.cbrt(c)
    lo, hi = root - rng.uniform(0.01, 0.5, n), root + rng.uniform(0.01, 0.5, n)
    # half the rows start inside their bracket, half outside it
    x = np.where(np.arange(n) % 2 == 0, root + 0.003, hi + 1.0)
    kind = np.arange(n) % 4
    return x, lo, hi, lo ** 3 - c, hi ** 3 - c, c, kind


def _newton_each(step, x, lo, hi, flo, fhi, args, tol):
    """The one-row driver over rows: _newton_one on each row's floats."""
    return np.array([
        geo._newton_one(step, *(float(v[i]) for v in (x, lo, hi, flo, fhi)),
                        tuple(a[i] for a in args), tol)
        for i in range(len(x))])


# the batch, and one row at a time in floats: the same rules
DRIVERS = (geo._newton_rows, _newton_each)


def test_newton_rows_alone_as_in_a_mixed_batch():
    x, lo, hi, flo, fhi, c, kind = _newton_corpus()
    step, calls = _cubic_rows(kind)
    ids = np.arange(len(x))
    got = geo._newton_rows(step, x.copy(), lo, hi, flo, fhi,
                           (c, kind, ids), 1e-13)
    batch_calls = calls.copy()
    for i in range(len(x)):
        one = slice(i, i + 1)
        alone = geo._newton_rows(step, x[one].copy(), lo[one], hi[one],
                                 flo[one], fhi[one],
                                 (c[one], kind[one], ids[one]), 1e-13)
        assert alone.tobytes() == got[one].tobytes()
    # each row took as many passes alone as in the batch
    assert np.array_equal(calls - batch_calls, batch_calls)
    # and as many in floats, to the same bits
    one_calls = calls.copy()
    each = _newton_each(step, x, lo, hi, flo, fhi, (c, kind, ids), 1e-13)
    assert each.tobytes() == got.tobytes()
    assert np.array_equal(calls - one_calls, batch_calls)
    assert np.all(np.abs(got ** 3 - c) < 1e-12 * c)
    # Newton rows converge in a few passes; bisecting rows take ~45
    assert batch_calls[kind == 0].max() <= 8
    assert batch_calls[kind > 0].min() >= 30


def _bisection(x, lo, hi, flo, fhi, root, tol):
    """The scalar bisection that the routine runs when no step is taken."""
    x = x if lo < x < hi else lo - flo * (hi - lo) / (fhi - flo)
    for _ in range(64):
        f = x - root
        lo, hi = (x if f <= 0.0 else lo), (x if f >= 0.0 else hi)
        x, dx = 0.5 * (lo + hi), 0.5 * (lo + hi) - x
        if abs(dx) <= tol:
            break
    return x


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e6])
def test_newton_rows_bisect_on_a_step_not_taken(bad):
    """An increment that is not finite, or leaves the bracket, bisects it."""
    rng = np.random.default_rng(RNG_SEED + 20)
    root = rng.uniform(-1.0, 1.0, 16)
    lo, hi = root - rng.uniform(0.1, 1.0, 16), root + rng.uniform(0.1, 1.0, 16)
    x = np.where(np.arange(16) < 8, root + 0.01, lo)
    flo, fhi = lo - root, hi - root

    def step(x, root):
        return x - root, np.full_like(x, bad)

    want = [_bisection(*row, 1e-15) for row in zip(x, lo, hi, flo, fhi, root)]
    for solve in DRIVERS:
        got = solve(step, x.copy(), lo, hi, flo, fhi, (root,), 1e-15)
        assert got.tobytes() == np.array(want).tobytes(), solve


def test_newton_rows_exact_zero_stops_in_place():
    # a zero residual with an increment that is not finite keeps its x
    for solve in DRIVERS:
        got = solve(lambda x: (x - 0.25, np.full_like(x, np.nan)),
                    np.array([0.25]), np.array([0.0]), np.array([1.0]),
                    np.array([-0.25]), np.array([0.75]), (), 1e-13)
        assert got.tolist() == [0.25], solve


def test_newton_rows_empty_batch_calls_no_step():
    def step(x):
        raise AssertionError("an empty batch evaluated its residual")

    empty = np.empty(0)
    got = geo._newton_rows(step, empty, empty, empty, empty, empty, (), 1e-13)
    assert got.shape == (0,)


def test_newton_rows_cap_passes_at_64():
    # a negative tolerance never stops a row: every row takes the cap
    x, lo, hi, flo, fhi, c, kind = _newton_corpus()
    for solve in DRIVERS:
        step, calls = _cubic_rows(kind)
        solve(step, x.copy(), lo, hi, flo, fhi,
              (c, kind, np.arange(len(x))), -1.0)
        assert calls.tolist() == [64] * len(x), solve


def test_grazing_chord_bytes_are_pinned():
    """sha256 of chord_batch's (s2, theta2, length) on grazing launches,
    gaps 1e-6 to 1e-2 at both ends, on the four tables of the oracle test.
    The oracle bounds leave ulps of room; this pin leaves none, so a
    rewrite of the landing polish keeps every bit or says so here."""
    gaps = np.geomspace(1e-6, 1e-2, 9)
    th = np.concatenate([gaps, math.pi - gaps])
    h = hashlib.sha256()
    for c in (geo.disk(1.0), geo.ellipse(1.2, 1.0), geo.neumann_oval(0.3),
              geo.ellipse(20.0, 0.05)):
        s = (np.arange(16) + 0.5) / 16 * c.perimeter
        for x in geo.chord_batch(c, s[:, None], th[None, :]):
            h.update(x.tobytes())
    assert h.hexdigest() == ("db220b6135ee92bfd8ad99fa095e9c8f"
                             "274aa8f28b87c23697f73fd6b012f662")


# the largest errors in (s2 mod P, Theta, length) over the oracle sample
# of each table, measured on the two polishes of the earlier code: brentq
# in the scalar chord, then safeguarded Newton in chord_batch; on the
# oval, once it wrote z(t) - z(t0) without cancellation (the polish
# before erred by 7.7e-12, 5.3e-12 and 7.7e-12)
ORACLE_EARLIER_ERRORS = {
    "disk": ((2.9094646189298464e-15, 3.1086244689504383e-15,
              2.6645439790646498e-15),
             (1.133107779529596e-15, 1.3322676295501878e-15,
              8.882297599549964e-16)),
    "ellipse": ((1.426729948683727e-15, 9.887349595525448e-16,
                 1.4258290298079247e-15),
                (1.0932135784574914e-15, 9.80964297756312e-16,
                 1.146391710889486e-15)),
    "oval": ((7.90661497279714e-16, 1.4155334687018924e-15,
              1.3121990005776792e-15),
             (7.90661497279714e-16, 1.4155334687018924e-15,
              1.3121990005776792e-15)),
    "thin_ellipse": ((3.215923251332941e-14, 2.3047496772030555e-16,
                      2.8035335056864717e-14),
                     (3.12241187383364e-14, 2.2209286684201536e-16,
                      2.8035335056864717e-14)),
}

ORACLE_TABLES = {"disk": lambda: oracle.disk(1.0),
                 "ellipse": lambda: oracle.ellipse(1.2, 1.0),
                 "oval": lambda: oracle.neumann_oval(0.3),
                 "thin_ellipse": lambda: oracle.ellipse(20.0, 0.05)}


@pytest.mark.parametrize("name", CONVEX_TABLES)
def test_chord_against_the_30_digit_reference(name):
    # 8 launches at each grazing end, gaps from 1e-5 to 1, against
    # tests/oracle.py. The bound is the better earlier polish plus 2 ulps
    c = CONVEX_TABLES[name]
    err, got, kappa = oracle.chord_errors(geo.chord, c, ORACLE_TABLES[name](),
                                          RNG_SEED + 12)
    bound = np.min(ORACLE_EARLIER_ERRORS[name], axis=0)
    ulp2 = 2.0 * np.spacing(np.abs(got).max(axis=0))
    assert np.all(err.max(axis=0) <= bound + ulp2), (err.max(axis=0), bound)
    # the landing curvature read at the landing parameter is no farther
    # from the reference than the one read back through the landing arc
    s, theta = oracle.launches(c.perimeter, RNG_SEED + 12)
    t2 = geo._chords(c, c.t_of_s(s), theta)[3]
    at_t2, round_trip = ([oracle.relative_error(k, ref)
                          for k, ref in zip(ks, kappa)]
                         for ks in (c.curvature_t(t2), c.curvature(got[:, 0])))
    assert max(at_t2) <= 1.5 * max(round_trip), (max(at_t2), max(round_trip))
    if name == "thin_ellipse":
        thin_ellipse_flank_rows(c, ORACLE_TABLES[name]())


def thin_ellipse_flank_rows(c, tab):
    """The thin ellipse's flanks, where |z'| is near 20: the row whose arc
    the oracle once failed to invert (s = 52.3) and 7 seeded rows, within 4
    of the chord property test's conditioning units, ds2 = ulp(P) + |z'(t2)|
    ulp(2 pi) in s2, ulp(pi) + |kappa2| ds2 in Theta and (|z'(t0)| +
    |z'(t2)|) ulp(2 pi) in length (measured: at most 1.0, 0.16 and 0.55)."""
    rng = np.random.default_rng(RNG_SEED + 40)
    s = np.concatenate([[52.3], rng.uniform(0.0, c.perimeter, 7)])
    theta = np.concatenate([[1.0], rng.uniform(0.05, math.pi - 0.05, 7)])
    err, got, _ = oracle.chord_errors(geo.chord, c, tab, None,
                                      rows=(s, theta))
    sp0, sp2 = c.speed_t(c.t_of_s(s)), c.speed_t(c.t_of_s(got[:, 0]))
    ds2 = np.spacing(c.perimeter) + sp2 * np.spacing(geo.TWO_PI)
    units = np.stack([ds2, np.spacing(math.pi) + np.abs(
        c.curvature(got[:, 0])) * ds2, (sp0 + sp2) * np.spacing(geo.TWO_PI)],
        axis=1)
    assert np.all(err <= 4.0 * units), (err / units).max(axis=0)


@pytest.mark.parametrize("curve", [geo.regular_polygon(5),
                                   geo.neumann_oval(0.7)],
                         ids=["polygon", "nonconvex_oval"])
def test_chord_batch_broadcasts_one_launch_arc(curve):
    # one arc and two angles give two rows, each the scalar chord
    rows = geo.chord_batch(curve, 0.5, [1.0, 2.0])
    assert np.array_equal(np.transpose(rows), [geo.chord(curve, 0.5, 1.0),
                                               geo.chord(curve, 0.5, 2.0)])


@pytest.mark.parametrize("curve", [geo.regular_polygon(5),
                                   geo.neumann_oval(0.7)],
                         ids=["polygon", "nonconvex_oval"])
def test_chord_batch_solves_its_rows_at_once(monkeypatch, curve):
    # no scalar chord and no brentq under the batch; each row is still the
    # one-row batch, bit for bit
    rng = np.random.default_rng(RNG_SEED + 30)
    s = rng.uniform(0.0, curve.perimeter, 24)
    th = np.concatenate([rng.uniform(0.05, math.pi - 0.05, 20),
                         [1e-4, 1e-2, math.pi - 1e-2, math.pi - 1e-4]])
    one = np.array([geo.chord(curve, a, b) for a, b in zip(s, th)]).T
    monkeypatch.setattr(geo, "chord", None)
    monkeypatch.setattr(geo, "brentq", None)
    assert np.array_equal(geo.chord_batch(curve, s, th), one)


def test_ray_hit_from_interior_point_runs_no_brentq(monkeypatch):
    monkeypatch.setattr(geo, "brentq", None)
    c = geo.neumann_oval(0.3)
    z0, dhat = 0.1 + 0.05j, complex(np.exp(0.7j))
    hit = complex(c.zpoint_t(geo._ray_hit(c, z0, dhat)))
    assert abs(hit - polyline_ray_oracle(c, z0, dhat)[0]) < 1e-8


def test_polygon_chord_bytes_are_pinned():
    """sha256 of chord_batch's (s2, theta2, length) on 1200 seeded rows
    over the 3- to 6-gons and an L-shape, grazing launches included: the
    one (rows x edges) solve keeps the bits of the row-by-row solve that
    came before it."""
    rng = np.random.default_rng(RNG_SEED + 29)
    h = hashlib.sha256()
    ell = geo.PolygonBoundary(np.array([[0, 0], [2, 0], [2, 1], [1, 1],
                                        [1, 2], [0, 2.0]]))
    for poly in [geo.regular_polygon(k) for k in (3, 4, 5, 6)] + [ell]:
        s = rng.uniform(0.0, poly.perimeter, 240)
        gap = 10.0 ** rng.uniform(-6.0, -2.0, 80)
        theta = np.concatenate([rng.uniform(0.01, math.pi - 0.01, 160),
                                gap[:40], math.pi - gap[40:]])
        for x in geo.chord_batch(poly, s, theta):
            h.update(x.tobytes())
    assert h.hexdigest() == ("bdbc9981aee373166085d21b692115070"
                             "deccd85cff73e131612922f868daa6c")


@pytest.mark.parametrize("name", ["disk2", "ellipse", "oval"])
def test_ray_hit_from_interior_point(curves, name):
    c = curves[name]
    rng = np.random.default_rng(RNG_SEED + 8)
    for _ in range(10):
        z0 = complex(*rng.uniform(-0.3, 0.3, 2))
        dhat = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        hit = complex(c.zpoint_t(geo._ray_hit(c, z0, dhat)))
        assert abs(hit - polyline_ray_oracle(c, z0, dhat)[0]) < 1e-8


def test_thin_ellipse_chords_are_sane():
    eps = 0.05
    c = geo.ellipse(1 / eps, eps)
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(10):
        s = rng.uniform(0, c.perimeter)
        th = rng.uniform(0.1, math.pi - 0.1)
        s2, th2, d = geo.chord(c, s, th)
        s3, th3, _ = geo.chord(c, s2, math.pi - th2)
        assert geo.wrap_to_half(s3 - s, c.perimeter) == pytest.approx(
            0.0, abs=1e-7)


def test_curve_from_points_rejects_a_non_finite_row():
    t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    for bad in (math.nan, math.inf):
        pts[5, 1] = bad
        with pytest.raises(InvalidParameter, match="finite"):
            geo.curve_from_points(pts)


def test_generic_curve_roundtrip():
    t = np.linspace(0, 2 * np.pi, 600, endpoint=False)
    pts = np.stack([2 * np.cos(t), 0.8 * np.sin(t)], axis=1)
    c = geo.curve_from_points(pts)
    ref = geo.ellipse(2.0, 0.8)
    assert c.perimeter == pytest.approx(ref.perimeter, rel=1e-6)
    s2, th2, d = geo.chord(c, 0.7, 1.1)
    s2r, th2r, dr = geo.chord(ref, 0.7, 1.1)
    assert d == pytest.approx(dr, abs=5e-6)
    assert th2 == pytest.approx(th2r, abs=5e-6)


def t_of_s_eight_passes(curve, s):
    """Arc-length inversion by all 8 Newton passes, none skipped."""
    s = np.mod(np.asarray(s, dtype=float), curve.perimeter)
    t = np.interp(s, curve._s_nodes, np.append(curve._t_nodes, geo.TWO_PI))
    for _ in range(8):
        f = curve.arclen_t(np.clip(t, 0.0, geo.TWO_PI)) - s
        t = t - f / np.abs(curve._dzf(geo._wrap(t)))
        t = np.clip(t, 0.0, geo.TWO_PI)
    return t


def _sampled_oval():
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    r = 1.0 + 0.1 * np.cos(3 * t)
    return geo.curve_from_points(np.stack([1.3 * r * np.cos(t),
                                           r * np.sin(t)], axis=1))


@pytest.mark.parametrize("make", [lambda: geo.ellipse(1.2, 1.0),
                                  lambda: geo.ellipse(20.0, 0.05),
                                  lambda: geo.neumann_oval(0.3),
                                  _sampled_oval],
                         ids=["ellipse", "thin_ellipse", "oval", "table"])
def test_t_of_s_is_the_eight_pass_inversion(make):
    # the early stop keeps every bit, for each entry alone and in arrays
    c = make()
    rng = np.random.default_rng(RNG_SEED + 9)
    P = c.perimeter
    s = np.concatenate([[0.0, np.spacing(P), P - np.spacing(P), P, -0.3,
                         P + 0.4], rng.uniform(0.0, P, 40), c._s_nodes[:5]])
    assert np.array_equal(c.t_of_s(s), t_of_s_eight_passes(c, s))
    for x in s[::5]:
        assert np.array_equal(c.t_of_s(x), t_of_s_eight_passes(c, x))


def test_t_of_s_two_cycle_exit_keeps_every_bit(monkeypatch):
    # passes that alternate between two neighbouring floats stop at the
    # repeat; pass 8's value is read off by parity
    rng = np.random.default_rng(RNG_SEED + 10)
    early_cycles = 0
    for c in (geo.ellipse(1.2, 1.0), geo.neumann_oval(0.3),
              geo.ellipse(20.0, 0.05)):
        s = rng.uniform(0.0, c.perimeter, 2000)
        assert np.array_equal(c.t_of_s(s), t_of_s_eight_passes(c, s))
        passes = []
        arclen_t = c.arclen_t
        monkeypatch.setattr(c, "arclen_t",
                            lambda t: passes.append(1) or arclen_t(t))
        for x in s:
            passes.clear()
            t = c.t_of_s(x)
            if len(passes) < 8:
                f = arclen_t(np.clip(t, 0.0, geo.TWO_PI)) - x
                early_cycles += t - f / abs(c._dzf(geo._wrap(t))) != t
            assert np.array_equal(t, t_of_s_eight_passes(c, x))
    assert early_cycles > 0


@pytest.mark.parametrize("lam", [0.2, 0.3, 0.6, 0.7])
def test_oval_arc_length_against_the_30_digit_reference(lam):
    # the speed's cosine series integrated term by term, against the
    # oracle's at 40 digits: within 4 ulps of the perimeter over the
    # parameter (measured: at most 2.8, at lam = 0.7; the 12-point
    # Gauss-Legendre panels it replaced erred by up to 25.8, at
    # lam = 0.2), and the perimeter within 4 (measured: at most 3.4,
    # against 13.0)
    c, tab = geo.neumann_oval(lam), oracle.neumann_oval(lam)
    ulp = np.spacing(c.perimeter)
    t = np.concatenate([[0.0, 1e-9, geo.TWO_PI - 1e-9, geo.TWO_PI],
                        np.random.default_rng(RNG_SEED + 13).uniform(
                            0.0, geo.TWO_PI, 24)])
    err = [oracle.error(c.arclen_t(x), oracle.arclen(tab, x))
           for x in t.tolist()]
    assert max(err) <= 4 * ulp, max(err) / ulp
    assert oracle.error(c.perimeter, tab.perimeter) <= 4 * ulp


@pytest.mark.parametrize("lam", [0.3, 0.7])
def test_t_of_s_stops_early_on_the_oval(monkeypatch, lam):
    # the series is summed from the node below t, so arc length rounds
    # monotonically and the Newton passes reach their fixed points or
    # 2-cycles as soon as the Gauss-Legendre panels' did: 5 passes for
    # these 624 arcs (a plain series sum takes 6 and 8)
    c = geo.neumann_oval(lam)
    s = np.random.default_rng(RNG_SEED + 14).uniform(0.0, c.perimeter, 624)
    passes, arclen_t = [], c.arclen_t
    monkeypatch.setattr(c, "arclen_t",
                        lambda t: passes.append(1) or arclen_t(t))
    c.t_of_s(s)
    assert len(passes) <= 5


_ROW_SHAPES = st.sampled_from([(1,), (1, 1), (5,), (2, 3), (1, 270),
                               (2, 270)])
_OVAL_03 = geo.neumann_oval(0.3)


@settings(max_examples=30)
@given(_ROW_SHAPES, st.integers(0, 2 ** 32 - 1))
def test_oval_arc_length_rows_are_their_scalar_calls(shape, seed):
    # each entry of arclen_t and t_of_s on an array has the bits of its
    # scalar call, whatever the array's shape
    c = _OVAL_03
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, geo.TWO_PI, shape)
    s = rng.uniform(-1.0, c.perimeter + 1.0, shape)
    for fn, x in ((c.arclen_t, t), (c.t_of_s, s)):
        got = fn(x)
        assert got.shape == shape
        for i in np.ndindex(shape):
            assert fn(x[i]) == got[i]



def test_polygon_construction_and_angles():
    tri = geo.regular_polygon(3)
    assert np.allclose(tri.interior_angles, math.pi / 3, atol=1e-12)
    assert tri.angle_lcm == 6
    sq = geo.regular_polygon(4)
    assert np.allclose(sq.interior_angles, math.pi / 2, atol=1e-12)
    assert sq.angle_lcm == 4
    with pytest.raises(InvalidParameter):
        geo.PolygonBoundary(np.array([[0, 0], [0, 1], [1, 0.0]]))  # clockwise
    with pytest.raises(InvalidParameter):
        geo.PolygonBoundary(np.array([[0, 0], [1, 0], [0, 1.0]]),
                            rational_angles=[(1, 3)] * 3)


@pytest.mark.parametrize("k", [2.5, math.nan, "x", 2, MAX_COUNT + 1],
                         ids=["fraction", "nan", "text", "two", "over-cap"])
def test_regular_polygon_checks_its_side_count(k):
    # the cap refuses before a vertex is allocated
    with pytest.raises(InvalidParameter, match="sides"):
        geo.regular_polygon(k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r, match", [
    (-1.0, "circumradius must be positive"),
    (0.0, "circumradius must be positive"),
    (math.nan, "circumradius"), (math.inf, "circumradius"),
    ("x", "circumradius"), (1e300, "area overflows")],
    ids=["negative", "zero", "nan", "inf", "text", "area-overflow"])
def test_regular_polygon_checks_its_radius(r, match):
    # a negative radius once gave the polygon turned by pi, zero a
    # complaint about orientation, and 1e300 numpy overflow warnings
    with pytest.raises(InvalidParameter, match=match):
        geo.regular_polygon(4, circumradius=r)


def test_regular_polygon_takes_a_whole_float():
    assert np.array_equal(geo.regular_polygon(5.0).vertices,
                          geo.regular_polygon(5).vertices)


def test_polygon_point_tangent_and_corners():
    sq = geo.PolygonBoundary(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]))
    p, tau, kap = geo.point_tangent_curvature(sq, 0.5)
    assert np.allclose(p, [0.5, 0])
    assert np.allclose(tau, [1, 0])
    assert kap == 0.0
    with pytest.raises(CornerUndefined):
        geo.point_tangent_curvature(sq, 1.0)


@pytest.mark.parametrize("name, tol", [("disk", 0.0), ("ellipse", 0.0),
                                       ("pentagon", 0.0), ("oval", 1e-15)])
def test_point_on_grid_matches_scalar_calls(name, tol):
    curve = {"disk": geo.disk(1.0), "ellipse": geo.ellipse(1.2, 1.0),
             "pentagon": geo.regular_polygon(5),
             "oval": geo.neumann_oval(0.3)}[name]
    P = curve.perimeter
    rng = np.random.default_rng(RNG_SEED + 9)
    grid = rng.uniform(-P, 2 * P, (7, 24))
    # vertices of the pentagon (and s = 0, P on every table) sit on the
    # edge lookup's boundaries
    grid[0, :6] = np.arange(6) * P / 5
    xy = curve.point(grid)
    assert xy.shape == (7, 24, 2)
    ref = np.array([[curve.point(float(s)) for s in row] for row in grid])
    assert curve.point(float(grid[0, 1])).shape == (2,)
    if tol == 0.0:
        assert np.array_equal(xy, ref)
    else:
        assert np.max(np.abs(xy - ref)) <= tol


def test_polygon_tangent_and_curvature_take_arrays():
    pent = geo.regular_polygon(5)
    s = np.array([[0.3, 0.5], [1.9, 4.0]])
    tau = pent.tangent(s)
    assert tau.shape == (2, 2, 2)
    assert np.array_equal(tau, [[pent.tangent(x) for x in row] for row in s])
    assert np.array_equal(pent.curvature(s), np.zeros((2, 2)))
    p, tau, kap = geo.point_tangent_curvature(pent, s[0])
    assert (p.shape, tau.shape, kap.shape) == ((2, 2), (2, 2), (2,))
    assert pent.curvature(0.3) == 0.0
    assert pent.tangent(0.3).shape == (2,)
    # one entry on a vertex fails the whole array
    vertex = pent.cum_s[2]
    for f in (pent.tangent, pent.curvature,
              lambda x: geo.point_tangent_curvature(pent, x)):
        with pytest.raises(CornerUndefined, match="vertex 2"):
            f(np.array([0.3, vertex]))


def test_polygon_chord_square():
    sq = geo.PolygonBoundary(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]))
    # straight up from the bottom edge midpoint
    s2, th2, d = geo.chord(sq, 0.5, math.pi / 2)
    assert s2 == pytest.approx(2.5, abs=1e-12)
    assert th2 == pytest.approx(math.pi / 2, abs=1e-12)
    assert d == pytest.approx(1.0, abs=1e-12)
    # aim from the bottom-edge midpoint straight at the corner (1, 1)
    with pytest.raises(CornerHit):
        geo.chord(sq, 0.5, math.atan2(1.0, 0.5))


def test_polygon_chord_reversibility():
    tri = geo.regular_polygon(3)
    rng = np.random.default_rng(RNG_SEED + 6)
    done = 0
    for _ in range(40):
        s = rng.uniform(0, tri.perimeter)
        th = rng.uniform(0.2, math.pi - 0.2)
        try:
            s2, th2, _ = geo.chord(tri, s, th)
            s3, th3, _ = geo.chord(tri, s2, math.pi - th2)
        except (CornerHit, CornerUndefined):
            continue
        assert geo.wrap_to_half(s3 - s, tri.perimeter) == pytest.approx(
            0.0, abs=1e-9)
        done += 1
    assert done > 25


@given(k=st.integers(3, 8), frac=st.floats(0.0, 1.0, exclude_max=True),
       gap=st.floats(math.log10(1.1e-6), -2.0).map(lambda e: 10.0 ** e),
       backward=st.booleans())
def test_polygon_grazing_chord_leaves_its_edge(k, frac, gap, backward):
    # a rounded hit back on the launch edge once gave a chord of 1e-11
    poly = geo.regular_polygon(k)
    s = frac * poly.perimeter
    try:
        s2, _, d = geo.chord(poly, s, math.pi - gap if backward else gap)
    except (CornerHit, CornerUndefined):
        return
    assert poly.edge_of(s2)[0] != poly.edge_of(s)[0]
    assert d > 1e-9


def _sin_step(shift=0.0):
    """The residual sin(x) - shift and its Newton increment."""
    def step(x):
        f = math.sin(x) - shift
        return f, -f / math.cos(x)
    return step


def test_periodic_zeros_node_zero_once():
    # sin vanishes on the node 0 and just past the node pi (sin(pi) is
    # 1.2e-16 in floating point): each zero comes back once
    grid = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    assert grid[8] == math.pi
    zeros = geo._periodic_zeros(_sin_step(), grid, np.sin(grid),
                                2.0 * math.pi)
    assert len(zeros) == 2
    assert zeros[0] == 0.0
    assert zeros[1] == pytest.approx(math.pi, abs=1e-15)
    # a scan that disagrees in sign with the scalar residual at a node
    # (here f(0) < 0 < vals[0]) still yields the zero there, once
    vals = np.sin(grid)
    vals[0] = 1e-300
    zeros = geo._periodic_zeros(_sin_step(1e-300), grid, vals,
                                2.0 * math.pi)
    assert len(zeros) == 2
    assert zeros[0] == pytest.approx(math.pi, abs=1e-15)
    assert zeros[1] == 2.0 * math.pi


def test_periodic_zeros_direction():
    # sin rises through the node 0 and falls through pi
    grid = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    vals = np.sin(grid)
    rising = geo._periodic_zeros(_sin_step(), grid, vals, 2.0 * math.pi, 1)
    falling = geo._periodic_zeros(_sin_step(), grid, vals, 2.0 * math.pi,
                                  -1)
    assert rising == [0.0]
    assert len(falling) == 1
    assert falling[0] == pytest.approx(math.pi, abs=1e-15)


def test_difference_step_polishes_to_rounding():
    # a root with no analytic slope, falling through its bracket: the
    # forward-difference step lands within an ulp or two of it
    step = geo._difference_step(lambda x: np.cos(x), 0.1)
    root = geo._root_in(step, 1.5, 1.6, math.cos(1.5), math.cos(1.6),
                        1e-15)
    assert abs(root - math.pi / 2) <= 4.0 * np.spacing(math.pi / 2)
    # an end where the residual is exactly 0 is the root, as brentq has it
    assert geo._root_in(step, 0.0, 1.0, 0.0, -1.0, 1e-15) == 0.0
    assert geo._root_in(step, 0.0, 1.0, 1.0, 0.0, 1e-15) == 1.0


def cell_loop_zeros(step, grid, vals, period, direction=0):
    """The per-cell loop that `_periodic_zeros` replaced, kept as the
    oracle of its array pass: each sign change polished by _newton_one on
    step, the residual negated where it falls."""
    zeros = []
    ends = zip(grid, np.append(grid[1:], grid[0] + period),
               np.roll(vals, 1), vals, np.roll(vals, -1))
    for a, b, fp, fa, fb in ends:
        if fa == 0.0:
            if direction * (fb - fp) >= 0.0:
                zeros.append(a)
        elif (fb != 0.0 and (fa < 0.0) != (fb < 0.0)
              and direction * fb >= 0.0):
            sa, sb = step(a)[0], step(b)[0]
            if sa == 0.0 or sb == 0.0:
                zeros.append(a if sa == 0.0 else b)
            elif (sa < 0.0) != (sb < 0.0):
                sign = 1.0 if sa < 0.0 else -1.0
                zeros.append(geo._newton_one(
                    lambda x: (sign * step(x)[0], step(x)[1]), a, a, b,
                    sign * sa, sign * sb, (),
                    1e-15 + 8.9e-16 * max(abs(a), abs(b))))
            else:
                zeros.append(b if (sa < 0.0) == (fa < 0.0) else a)
    return zeros


# exact zeros of both signs, the smallest subnormals (an ulp or two from
# zero, or from a value of the other sign) and ordinary values
SCAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
    st.floats(-2.0, 2.0, allow_nan=False))
# how the scalar f departs from the scan at a node: one ulp down, none, one
# ulp up, or the opposite sign (a near-zero value rounded the other way)
NEG = "neg"
ULPS = st.lists(st.sampled_from([-1, 0, 0, 1, NEG]), min_size=25,
                max_size=25)


@given(vals=st.lists(SCAN_VALUES, min_size=2, max_size=24),
       ulps=ULPS,
       t0=st.floats(-4.0, 4.0), period=st.floats(0.5, 8.0),
       seam=st.booleans(), direction=st.sampled_from([-1, 0, 1]))
# adjacent zero nodes; a sign flip at the seam; a scalar f off the scan
# at a cell end: a zero turned negative, and a subnormal whose sign the
# scalar f and the scan, or f at the two ends of the period, disagree on
@example(vals=[1.0, 0.0, 0.0, -1.0, 0.5, 0.0], ulps=[0] * 25, t0=0.0,
         period=6.0, seam=False, direction=0)
@example(vals=[0.5, 1.0, -1.0, -0.25], ulps=[0] * 25, t0=1.0, period=2.0,
         seam=True, direction=1)
@example(vals=[1.0, 0.0, -1.0, 0.5], ulps=[0, -1] + [0] * 23, t0=0.0,
         period=4.0, seam=False, direction=-1)
@example(vals=[5e-324, 1.0, -1.0, -1.0], ulps=[NEG] + [0] * 24, t0=0.0,
         period=4.0, seam=False, direction=0)
@example(vals=[5e-324, 1.0, -1.0, -1.0], ulps=[0] * 24 + [NEG], t0=0.0,
         period=4.0, seam=False, direction=1)
def test_periodic_zeros_matches_cell_loop(vals, ulps, t0, period, seam,
                                          direction):
    n = len(vals)
    vals = np.array(vals)
    if seam:
        vals[0], vals[-1] = abs(vals[0]) or 1.0, -abs(vals[-1]) or -1.0
    grid = t0 + period * np.arange(n) / n
    ends = np.append(grid, grid[0] + period)
    # the scalar f: the scan at the nodes and at the period end (the scan's
    # first value), departing from it where ulps says, linear in between
    fe = [float(-v if u == NEG else np.nextafter(v, u * math.inf) if u
                else v)
          for v, u in zip(np.append(vals, vals[0]), ulps[:n] + ulps[-1:])]

    def step(t):
        # the residual, and its increment on the line of the piece from
        # its node (none on a flat piece)
        k = min(int(np.searchsorted(ends, t, side="right")) - 1, n)
        j = min(k, n - 1)
        slope = (fe[j + 1] - fe[j]) / (ends[j + 1] - ends[j])
        if t == ends[k]:
            f = fe[k]
        else:
            w = (t - ends[k]) / (ends[k + 1] - ends[k])
            f = fe[k] + w * (fe[k + 1] - fe[k])
        return f, -f / slope if slope else 0.0

    got = geo._periodic_zeros(step, grid, vals, period, direction)
    want = cell_loop_zeros(step, grid, vals, period, direction)
    assert [float(z).hex() for z in got] == [float(z).hex() for z in want]


def test_scan_zeros_read_signs_not_products():
    # a subnormal times a small value of the other sign underflows to -0.0,
    # and times itself to 0.0: the scan still marks the crossing, and the
    # end pick still returns the end where the scalar residual and the scan
    # disagree in sign
    on_node, crossing, _ = geo._scan_zeros(np.array([5e-324, -1e-10, 1.0]))
    assert not on_node.any() and crossing.tolist() == [True, True, False]
    f = {0.0: 5e-324, 1.0: 1e-300, 2.0: 1.0}
    zeros = geo._periodic_zeros(lambda t: (f[t], 0.0),
                                np.array([0.0, 1.0, 2.0]),
                                np.array([5e-324, -1.0, 1.0]), 3.0, -1)
    assert zeros == [1.0]


def test_arc_advance_wraps():
    c = geo.disk(1.0)
    assert geo.arc_advance(c, 6.0, 1.0) == pytest.approx(
        7.0 - 2 * math.pi, abs=1e-12)
    assert geo.arc_advance(c, 1.0, -2.0) == pytest.approx(
        2 * math.pi - 1.0, abs=1e-12)


def test_curve_from_config_kinds(tmp_path):
    c = geo.curve_from_config({"kind": "disk", "radius": "2.0"})
    assert c.kind == "disk" and c.perimeter == pytest.approx(4 * math.pi)
    c = geo.curve_from_config({"kind": "ellipse", "a": "2", "b": "1"})
    assert c.kind == "ellipse"
    c = geo.curve_from_config({"kind": "neumann_oval", "lam": "0.3"})
    assert c.kind == "neumann_oval"
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    path = tmp_path / "pts.csv"
    np.savetxt(path, np.stack([1.5 * np.cos(t), np.sin(t)], axis=1),
               delimiter=",")
    c = geo.curve_from_config({"kind": "csv", "path": str(path)})
    assert c.kind == "generic"
    p = geo.curve_from_config(
        {"kind": "polygon", "vertices": "0,0; 1,0; 1,1; 0,1"})
    assert p.kind == "polygon"
    with pytest.raises(InvalidParameter):
        geo.curve_from_config({"kind": "banana"})


@pytest.mark.parametrize("c", [geo.disk(1.0), geo.ellipse(1.2, 1.0),
                               geo.neumann_oval(0.3), geo.neumann_oval(0.6)],
                         ids=["disk", "ellipse", "oval", "non-convex"])
def test_turning_table(c):
    # built once per curve; the unwrapped bearing on a convex oval, and
    # never falling on any table, from 0 to 2 pi
    turn = c._turning_nodes
    assert c._turning_nodes is turn
    assert turn[0] == 0.0 and turn[-1] == pytest.approx(2 * math.pi,
                                                         abs=1e-14)
    assert np.all(np.diff(turn) >= 0.0)
    if c.is_convex:
        np.testing.assert_array_equal(turn, c._bearing_nodes
                                      - c._bearing_nodes[0])
