"""Geometry: curve construction, arc length, chords.

Chord results are checked against an independent dense-polyline ray
caster, curvature against finite differences of the tangent, and areas
against the shoelace value of a fine polygonization.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pensive import geometry as geo
from pensive.errors import (
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
    rng = np.random.default_rng(RNG_SEED + 4)
    for name, c in curves.items():
        s = rng.uniform(0, c.perimeter, 60)
        th = rng.uniform(0.02, math.pi - 0.02, 60)
        s2b, th2b, db = geo.chord_batch(c, s, th)
        for i in range(len(s)):
            s2, th2, d = geo.chord(c, float(s[i]), float(th[i]))
            assert geo.wrap_to_half(s2b[i] - s2, c.perimeter) == pytest.approx(
                0.0, abs=1e-9), name
            assert th2b[i] == pytest.approx(th2, abs=1e-9)
            assert db[i] == pytest.approx(d, abs=1e-9)


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


def test_chord_rejects_tangential_angles(curves):
    c = curves["disk"]
    for bad in (0.0, 1e-9, math.pi - 1e-9, math.pi):
        with pytest.raises(InvalidAngle):
            geo.chord(c, 0.0, bad)


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
    except PensiveError:
        with pytest.raises(PensiveError):
            geo.chord_batch(c, [s], [theta])
        return
    assert d > 0.0
    s2b, th2b, db = geo.chord_batch(c, [s], [theta])
    assert abs(geo.wrap_to_half(s2b[0] - s2, c.perimeter)) <= 1e-9
    assert th2b[0] == pytest.approx(th2, abs=1e-9)
    assert db[0] == pytest.approx(d, abs=1e-9)
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
