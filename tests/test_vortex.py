"""Vortex dynamics: Green's functions, conservation, fission/fusion,
and the zero-separation limit against the billiard step."""

import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pensive import billiard as bil
from pensive import delay
from pensive import geometry as geo
from pensive import errors
from pensive import vortex as vx
from pensive.errors import (AmbiguousEvent, BoundarySingularity,
                            DiagonalSingularity, InvalidAngle,
                            InvalidParameter)

RNG = np.random.default_rng(20240822)
TWO_PI = 2.0 * math.pi


# -- Green's and Robin functions -------------------------------------------


def test_halfplane_greens_example():
    hp = vx.HalfPlane()
    assert vx.greens(hp, (0, 1), (0, 2)) == pytest.approx(
        math.log(3.0) / TWO_PI, abs=1e-15)
    for _ in range(20):
        z = complex(RNG.normal(), RNG.uniform(0.1, 3.0))
        w = complex(RNG.normal(), RNG.uniform(0.1, 3.0))
        if abs(z - w) < 1e-3:
            continue
        assert vx.greens(hp, z, w) == pytest.approx(
            vx.greens(hp, w, z), abs=1e-14)
    # Dirichlet decay toward the wall
    assert abs(vx.greens(hp, 1e-7j, 1.0 + 1.0j)) < 1e-6


def test_halfplane_robin():
    hp = vx.HalfPlane()
    for y in (0.25, 0.7, 2.0):
        assert vx.robin(hp, complex(0.3, y)) == pytest.approx(
            math.log(2.0 * y) / TWO_PI, abs=1e-15)
    z0 = 0.4 + 0.9j
    h = 1e-6
    fd = complex(
        (vx.robin(hp, z0 + h) - vx.robin(hp, z0 - h)) / (2 * h),
        (vx.robin(hp, z0 + 1j * h) - vx.robin(hp, z0 - 1j * h)) / (2 * h))
    assert abs(vx.grad_robin(hp, z0) - fd) < 1e-9


def test_disk_greens_image_oracle():
    R = 1.3
    dk = vx.DiskDomain(R)

    def oracle(z, w):
        img = R * R / np.conj(w)
        return (-np.log(abs(z - w)) + np.log(abs(z - img)) +
                np.log(abs(w) / R)) / TWO_PI

    checked = 0
    while checked < 1000:
        z = complex(*(RNG.uniform(-1, 1, 2))) * 0.9 * R
        w = complex(*(RNG.uniform(-1, 1, 2))) * 0.9 * R
        if abs(z) > 0.97 * R or abs(w) > 0.97 * R or abs(z - w) < 1e-3:
            continue
        assert abs(vx.greens(dk, z, w) - oracle(z, w)) < 1e-12
        checked += 1


def test_grad_greens_matches_fd():
    h = 1e-6
    cases = [(vx.HalfPlane(), 0.4 + 0.8j, -0.3 + 1.4j),
             (vx.DiskDomain(1.5), 0.4 + 0.3j, -0.6 - 0.2j),
             (vx.NeumannOvalDomain(0.45), 0.5 + 0.15j, -0.4 + 0.1j)]
    for dom, z0, w0 in cases:
        fd = complex(
            (dom.greens(z0 + h, w0) - dom.greens(z0 - h, w0)) / (2 * h),
            (dom.greens(z0 + 1j * h, w0) -
             dom.greens(z0 - 1j * h, w0)) / (2 * h))
        assert abs(vx.grad_greens(dom, z0, w0) - fd) < 1e-8


def test_singularity_guards():
    dk = vx.DiskDomain(1.0)
    with pytest.raises(DiagonalSingularity):
        vx.greens(dk, 0.2 + 0.1j, 0.2 + 0.1j)
    with pytest.raises(BoundarySingularity):
        vx.greens(dk, 1.0 + 0j, 0.1j)
    with pytest.raises(BoundarySingularity):
        vx.robin(dk, 1.2 + 0j)
    with pytest.raises(BoundarySingularity):
        vx.robin(vx.HalfPlane(), 0.5 - 0.1j)


def test_complex_array_point_keeps_imaginary_part():
    dk = vx.DiskDomain(1.0)
    assert vx.greens(dk, np.array([0.3 + 0.4j]), 0.1 - 0.2j) == vx.greens(
        dk, 0.3 + 0.4j, 0.1 - 0.2j)
    z, g = vx.make_dipole(np.array([0.5j]), 1, 0.05)
    np.testing.assert_array_equal(z, vx.make_dipole(0.5j, 1, 0.05)[0])


def test_oval_reduces_to_disk_at_zero():
    ov = vx.NeumannOvalDomain(0.0)
    dk = vx.DiskDomain(1.0)
    for _ in range(10):
        z = complex(*(RNG.uniform(-0.6, 0.6, 2)))
        w = complex(*(RNG.uniform(-0.6, 0.6, 2)))
        if abs(z - w) < 1e-2:
            continue
        assert vx.greens(ov, z, w) == pytest.approx(
            vx.greens(dk, z, w), abs=1e-14)
        assert vx.robin(ov, z) == pytest.approx(vx.robin(dk, z),
                                                abs=1e-14)


def test_oval_robin_defining_limit():
    # Richardson extrapolation of G(z, z+d) + log|d|/2pi
    ov = vx.NeumannOvalDomain(0.5)
    for z0 in (0.2 + 0.1j, -0.45 + 0.05j, 0.1 - 0.3j):

        def v(d):
            return ov.greens(z0, z0 + d) + math.log(abs(d)) / TWO_PI

        d0 = 1e-5
        rich = 2.0 * v(d0 / 2) - v(d0)
        assert abs(vx.robin(ov, z0) - rich) < 1e-8
    # boundary decay of G through the conformal map
    zb = ov.map.F(np.exp(0.3j)) * (1.0 - 1e-7)
    assert abs(ov.greens(complex(zb), 0.1 + 0.05j)) < 1e-5


# -- velocities and integration --------------------------------------------


def test_rhs_centered_vortex_is_still():
    cfg = vx.VortexConfiguration(np.array([0j]), np.array([1.7]),
                                 vx.DiskDomain(2.0))
    assert abs(vx.vortex_rhs(cfg)[0]) < 1e-14


def test_rhs_halfplane_drift_speed():
    gam, eps = 2.3, 0.04
    cfg = vx.VortexConfiguration(np.array([complex(0, eps)]),
                                 np.array([gam]), vx.HalfPlane())
    v = vx.vortex_rhs(cfg)[0]
    assert v.real == pytest.approx(gam / (4 * math.pi * eps), rel=1e-12)
    assert abs(v.imag) < 1e-14


def test_rhs_stacked_dipole_velocities_horizontal():
    # +G over -G on the vertical axis: both velocities purely horizontal
    y0, ep = 1.0, 0.12
    cfg = vx.VortexConfiguration(
        np.array([complex(0, y0 + ep), complex(0, y0 - ep)]),
        np.array([1.4, -1.4]), vx.HalfPlane())
    v = vx.vortex_rhs(cfg)
    assert abs(v[0].imag) < 1e-12 * abs(v[0])
    assert abs(v[1].imag) < 1e-12 * abs(v[1])


def test_free_dipole_translation():
    eps = 0.01
    z, g = vx.make_dipole(0j, 1 + 0j, eps)
    cfg = vx.VortexConfiguration(z, g, vx.DiskDomain(500.0))
    v = vx.vortex_rhs(cfg)
    vc = 0.5 * (v[0] + v[1])
    assert abs(vc) == pytest.approx(1.0, rel=1e-5)
    assert vc.real > 0.999
    co = vx.DipoleCoordinates.from_positions(z[0], z[1], g[0])
    assert co.eps == pytest.approx(eps, abs=1e-15)
    # wall-parallel motion is grazing incidence with full momentum
    assert co.theta == pytest.approx(0.0, abs=1e-12)
    assert co.mu == pytest.approx(2 * eps, abs=1e-15)
    zd, gd = vx.make_dipole(0.5j, -1j, eps)
    cd = vx.DipoleCoordinates.from_positions(zd[0], zd[1], gd[0])
    assert cd.theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert cd.mu == pytest.approx(0.0, abs=1e-15)


def _random_config(dom, n, rng):
    z = []
    while len(z) < n:
        w = complex(*rng.uniform(-0.9, 0.9, 2)) * dom.scale
        if dom.name == "half_plane":
            w = complex(w.real, abs(w.imag) + 0.05)
        if dom.inside(w) and dom.boundary_distance(w) > 0.02 and \
                all(abs(w - u) > 0.02 for u in z):
            z.append(w)
    gamma = rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 2.0, n)
    return vx.VortexConfiguration(np.array(z), gamma, dom)


def _check_pairwise_kernels(cfg):
    # the one-pass pair sums against the public per-pair kernels; the
    # tolerance is relative to the sum of the terms' magnitudes
    dom, n = cfg.domain, cfg.n
    z, g = [complex(zk) for zk in cfg.z], cfg.gamma
    v = vx.vortex_rhs(cfg)
    for i in range(n):
        terms = [0.5 * g[i] * vx.grad_robin(dom, z[i])]
        terms += [g[j] * vx.grad_greens(dom, z[i], z[j])
                  for j in range(n) if j != i]
        ref = -1j * sum(terms)
        assert abs(v[i] - ref) <= 1e-12 * sum(map(abs, terms))
    terms = [0.5 * g[i] ** 2 * vx.robin(dom, z[i]) for i in range(n)]
    terms += [g[i] * g[j] * vx.greens(dom, z[i], z[j])
              for i in range(n) for j in range(i + 1, n)]
    H = vx.hamiltonian(cfg)
    assert abs(H - sum(terms)) <= 1e-12 * sum(map(abs, terms))
    assert vx.hamiltonian(dom, cfg.z, g) == H


DOMAINS = [vx.HalfPlane(), vx.DiskDomain(1.3), vx.NeumannOvalDomain(0.3)]


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.name)
def test_rhs_and_hamiltonian_match_pairwise_kernels(dom):
    rng = np.random.default_rng(20240823)
    for n in (1, 2, 3, 8):
        for _ in range(5):
            _check_pairwise_kernels(_random_config(dom, n, rng))


def _off_wall(dom, u, d):
    """The point at distance about d inside the wall, at fraction u of the
    way along it (of [-5, 5] on the half-plane's)."""
    if dom.name == "half_plane":
        return complex(10.0 * u - 5.0, d)
    Z = complex(np.exp(1j * TWO_PI * u))
    if dom.name == "disk":
        return (dom.radius - d) * Z
    inward = -Z * dom.map.Fp(Z)
    return dom.map.F(Z) + d * inward / abs(inward)


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.name)
@given(u=st.floats(0.0, 1.0, exclude_max=True),
       d=st.floats(1e-9, 1e-6), sep=st.floats(1e-9, 1e-6),
       phi=st.floats(0.0, TWO_PI), n=st.integers(2, 4),
       gammas=st.lists(st.floats(0.3, 2.0), min_size=4, max_size=4),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4,
                      max_size=4))
def test_rhs_and_hamiltonian_match_pairwise_kernels_near_singularities(
        dom, u, d, sep, phi, n, gammas, signs):
    # a pair within 1e-6 of each other and of the wall, then a third
    # vortex within 1e-6 of the wall elsewhere and a fourth in the bulk
    a = _off_wall(dom, u, d)
    z = [a, a + sep * complex(math.cos(phi), math.sin(phi)),
         _off_wall(dom, (u + 0.5) % 1.0, d),
         _off_wall(dom, (u + 0.25) % 1.0, 0.2 * dom.scale)][:n]
    assume(dom.inside(z[1]) and
           dom.boundary_distance(z[1]) > 1e-11 * dom.scale)
    g = np.multiply(gammas, signs)[:n]
    _check_pairwise_kernels(vx.VortexConfiguration(np.array(z), g, dom))


@pytest.mark.parametrize("dom", [vx.HalfPlane(), vx.DiskDomain(1.3),
                                 vx.NeumannOvalDomain(0.3)],
                         ids=lambda d: d.name)
def test_boundary_distance_array_matches_scalar(dom):
    cfg = _random_config(dom, 12, np.random.default_rng(20240824))
    d = dom.boundary_distance(cfg.z)
    assert d.shape == (12,)
    assert np.array_equal(d, [dom.boundary_distance(complex(zk))
                              for zk in cfg.z])


def test_corotation_period():
    dk = vx.DiskDomain(50.0)
    cfg = vx.VortexConfiguration(np.array([0.5 + 0j, -0.5 + 0j]),
                                 np.array([2.0, 2.0]), dk)
    traj = vx.integrate(cfg, 12.0, tol=1e-8)
    ang = np.unwrap(np.angle(traj.z[:, 0] - traj.z[:, 1]))
    rate = np.polyfit(traj.t, ang, 1)[0]
    period = TWO_PI / abs(rate)
    assert period == pytest.approx(math.pi ** 2, rel=0.01)


def test_conserved_quantities_long_run():
    # tight co-rotating pair, T=100 with the drift monitor active
    dk = vx.DiskDomain(40.0)
    cfg = vx.VortexConfiguration(np.array([0.5 + 0j, -0.5 + 0j]),
                                 np.array([1.0, 1.0]), dk)
    traj = vx.integrate(cfg, 100.0, tol=1e-8)
    assert traj.drift < 1e-8

    hp = vx.HalfPlane()
    cfg2 = vx.VortexConfiguration(np.array([0.3 + 1.0j, 0.1 + 0.6j]),
                                  np.array([1.0, -1.3]), hp)
    tr2 = vx.integrate(cfg2, 3.0, tol=1e-8)
    assert tr2.drift < 1e-8
    mdrift = np.max(np.abs(tr2.momentum - tr2.momentum[0]))
    assert mdrift / abs(tr2.momentum[0]) < 1e-8


def test_headon_time_reversal():
    # negating circulations retraces the bounce: x_rel runs through the
    # same values symmetrically about the reversal state
    hp = vx.HalfPlane()
    eps, y0, T = 0.05, 0.8, 3.0
    z, g = vx.make_dipole(complex(0, y0), -1j, eps)
    a = vx.integrate(vx.VortexConfiguration(z, g, hp), T, tol=1e-8)
    zf = a.z[-1]
    b = vx.integrate(vx.VortexConfiguration(zf, -g, hp), T, tol=1e-8)
    xa = np.real(a.z[:, 0] - a.z[:, 1])
    xb = np.interp(a.t, b.t, np.real(b.z[:, 0] - b.z[:, 1]))
    assert np.max(np.abs(xa - xb[::-1])) < 1e-6
    # the deepest point of the run is the reversal instant
    ya = np.imag(0.5 * (a.z[:, 0] + a.z[:, 1]))
    assert np.argmin(ya) == len(ya) - 1


def test_headon_swap_symmetry():
    # from the diagonal state x = y the distance to the corner is even
    # in time: forward and circulation-negated runs agree in |z|
    hp = vx.HalfPlane()
    a0 = 0.3
    z = np.array([complex(a0, a0), complex(-a0, a0)])
    g = np.array([1.0, -1.0])
    fw = vx.integrate(vx.VortexConfiguration(z, g, hp), 2.0, tol=1e-8)
    bw = vx.integrate(vx.VortexConfiguration(z, -g, hp), 2.0, tol=1e-8)
    ra = np.abs(fw.z[:, 0])
    rb = np.interp(fw.t, bw.t, np.abs(bw.z[:, 0]))
    assert np.max(np.abs(ra - rb)) < 1e-6
    # and t=0 is the minimum of |z| along the doubled window
    assert ra.min() >= ra[0] - 1e-9


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.name)
def test_samples_match_hamiltonian_and_momentum(dom):
    # integrate evaluates all its samples in one array pass; each sample
    # is bit for bit the one-configuration value
    rng = np.random.default_rng(20240825)
    for n in (1, 2, 8):
        cfg = _random_config(dom, n, rng)
        traj = vx.integrate(cfg, 0.2, n_eval=40)
        for k, zk in enumerate(traj.z):
            assert traj.hamiltonian[k] == vx.hamiltonian(dom, zk, cfg.gamma)
            assert traj.momentum[k] == vx.momentum(
                vx.VortexConfiguration(zk, cfg.gamma, dom))


def test_integration_succeeds_on_the_first_try(monkeypatch):
    # a drift retry would cost a second full integration
    attempts, trajs = [], []
    solve_ivp, integrate = vx.solve_ivp, vx.integrate

    def counted(*args, **kw):
        attempts.append(1)
        return solve_ivp(*args, **kw)

    def recorded(*args, **kw):
        trajs.append(integrate(*args, **kw))
        return trajs[-1]

    monkeypatch.setattr(vx, "solve_ivp", counted)
    monkeypatch.setattr(vx, "integrate", recorded)
    cfg = _random_config(vx.NeumannOvalDomain(0.3), 8,
                         np.random.default_rng(5))
    vx.integrate(cfg, 0.5)
    vx.dipole_billiard_limit_check(vx.DiskDomain(1.0), 0.3, math.pi / 3,
                                   0.01)
    assert len(attempts) == len(trajs) == 2
    assert all(tr.drift <= 1e-8 for tr in trajs)


def test_eventstop_on_boundary_approach():
    # a head-on dipole whose half separation is under the guard distance
    # descends to a wall clearance near it and trips the boundary guard
    # on the way (at half separation 5e-9 its separation was the guard
    # distance itself, so the collision guard stopped it at t = 0)
    hp = vx.HalfPlane()
    z, g = vx.make_dipole(complex(0, 0.3), -1j, 6e-9)
    cfg = vx.VortexConfiguration(z, g, hp)
    with pytest.raises(vx.EventStop) as exc:
        vx.integrate(cfg, 1.0, tol=1e-2)
    assert exc.value.t == pytest.approx(0.3, abs=1e-3)
    assert np.all(hp.boundary_distance(exc.value.state)
                  == pytest.approx(vx.GUARD_DISTANCE, rel=1e-6))


@pytest.mark.parametrize("kw", [
    {"T": math.nan}, {"T": math.inf}, {"T": 0.0}, {"T": 1.0, "tol": math.nan},
    {"T": 1.0, "tol": math.inf}, {"T": 1.0, "n_eval": 0},
    {"T": 1.0, "n_eval": 2.5}],
    ids=["T-nan", "T-inf", "T-zero", "tol-nan", "tol-inf", "n_eval-zero",
         "n_eval-fraction"])
def test_integrate_rejects_bad_horizons(kw):
    z, g = vx.make_dipole(0.2j, 1, 0.05)
    with pytest.raises(InvalidParameter):
        vx.integrate(vx.VortexConfiguration(z, g, vx.DiskDomain(1.0)), **kw)


def test_integrate_counts_samples_as_iterate_counts_steps():
    # n_eval takes billiard.iterate's whole-count check: a numeric string
    # is its number, a fraction is refused with iterate's message
    z, g = vx.make_dipole(0.2j, 1, 0.05)
    cfg = vx.VortexConfiguration(z, g, vx.DiskDomain(1.0))
    traj = vx.integrate(cfg, 0.1, n_eval="10")
    assert len(traj.t) == 10
    np.testing.assert_array_equal(traj.z, vx.integrate(cfg, 0.1, n_eval=10).z)
    with pytest.raises(InvalidParameter, match="n_eval must be a whole"):
        vx.integrate(cfg, 0.1, n_eval=2.5)


@pytest.mark.parametrize("n_eval", [None, "abc", object()],
                         ids=["none", "text", "object"])
def test_integrate_sample_count_that_is_no_number_is_typed(n_eval):
    # n_eval=None used to raise float()'s raw TypeError
    z, g = vx.make_dipole(0.2j, 1, 0.05)
    cfg = vx.VortexConfiguration(z, g, vx.DiskDomain(1.0))
    with pytest.raises(InvalidParameter, match="n_eval"):
        vx.integrate(cfg, 0.1, n_eval=n_eval)


def test_integrate_sample_count_is_capped(monkeypatch):
    # refused before any integration or sample array
    monkeypatch.setattr(vx, "solve_ivp", None)
    z, g = vx.make_dipole(0.2j, 1, 0.05)
    cfg = vx.VortexConfiguration(z, g, vx.DiskDomain(1.0))
    with pytest.raises(InvalidParameter, match="MAX_COUNT"):
        vx.integrate(cfg, 0.1, n_eval=errors.MAX_COUNT + 1)


def _points_inside_the_oval_wall(dom, depth, n=50):
    """n points at the given depth along the inward normal of the wall of
    a NeumannOvalDomain, between its 4096 nodes."""
    Z = np.exp(1j * (np.linspace(0.0, 2 * math.pi, n, endpoint=False)
                     + 0.01))
    tangent = dom.map.Fp(Z) * 1j * Z
    return dom.map.F(Z) + depth * 1j * tangent / np.abs(tangent)


def test_oval_boundary_distance_sees_the_wall():
    # the node minimum alone read 1.6e-6 to 9.6e-4 for these points; the
    # Koebe bound reads under twice their depth
    dom = vx.NeumannOvalDomain(0.3)
    d = dom.boundary_distance(_points_inside_the_oval_wall(dom, 1e-9))
    assert np.all(d >= 0.99e-9) and np.all(d <= 2.01e-9)
    # away from the wall the node minimum is the smaller term, bit for bit
    z = 0.5 * _points_inside_the_oval_wall(dom, 0.0)
    np.testing.assert_array_equal(
        dom.boundary_distance(z),
        np.abs(dom._nodes - z[:, None]).min(axis=-1))


def test_integrate_stops_a_start_within_the_guard():
    # a weak vortex 1e-9 inside the oval's wall: the guard's event never
    # changes sign, so the run used to go on, and here to fail its drift
    # check
    dom = vx.NeumannOvalDomain(0.3)
    z = _points_inside_the_oval_wall(dom, 1e-9, n=1)
    cfg = vx.VortexConfiguration(z, [1e-12], dom)
    with pytest.raises(vx.EventStop) as stop:
        vx.integrate(cfg, 0.1)
    assert stop.value.t == 0.0
    np.testing.assert_array_equal(stop.value.trajectory.z[-1], z)


def test_integrate_calls_solve_ivp_by_its_module_name(monkeypatch):
    # tracing counts integration attempts by wrapping vortex.solve_ivp, so
    # integrate must look that name up at call time
    calls = []
    solve_ivp = vx.solve_ivp

    def counted(*args, **kw):
        calls.append(1)
        return solve_ivp(*args, **kw)

    monkeypatch.setattr(vx, "solve_ivp", counted)
    z, g = vx.make_dipole(0.2j, 1, 0.05)
    vx.integrate(vx.VortexConfiguration(z, g, vx.DiskDomain(1.0)), 0.5)
    assert len(calls) == 1


def _counted_velocities(monkeypatch, dom):
    """The list of right-hand-side calls on dom from here on."""
    calls = []
    velocities = dom._velocities

    def counted(z, gamma):
        calls.append(1)
        return velocities(z, gamma)

    monkeypatch.setattr(dom, "_velocities", counted)
    return calls


def test_integrate_reports_attempts_rtol_and_rhs_calls(monkeypatch):
    dom = vx.DiskDomain(1.0)
    calls = _counted_velocities(monkeypatch, dom)
    z, g = vx.make_dipole(0.2j, 1, 0.05)
    cfg = vx.VortexConfiguration(z, g, dom)
    tr = vx.integrate(cfg, 0.5)
    assert (tr.attempts, tr.rtol, tr.nfev) == (1, 1e-11, len(calls))
    # the drift at rtol 1e-6 exceeds tol, so a second attempt runs at
    # rtol 1e-8; nfev counts both attempts
    calls.clear()
    tr = vx.integrate(cfg, 0.5, tol=1e-8, rtol=1e-6)
    assert (tr.attempts, tr.rtol, tr.nfev) == (2, 1e-8, len(calls))
    assert tr.drift <= 1e-8
    # the partial trajectory of a guard stop reports them too
    hp = vx.HalfPlane()
    calls = _counted_velocities(monkeypatch, hp)
    z, g = vx.make_dipole(complex(0, 0.3), -1j, 6e-9)
    with pytest.raises(vx.EventStop) as stop:
        vx.integrate(vx.VortexConfiguration(z, g, hp), 1.0, tol=1e-2)
    tr = stop.value.trajectory
    assert (tr.attempts, tr.rtol, tr.nfev) == (1, 1e-11, len(calls))
    assert len(calls) > 0


@pytest.mark.parametrize("rtol, tried", [(1e-11, [1e-11, 1e-13]),
                                         (1e-10, [1e-10, 1e-12, 1e-13])])
def test_drift_retries_stop_at_the_rtol_floor(monkeypatch, rtol, tried):
    # a head-on half-plane dipole of half separation 1.2e-8 drifts at
    # every rtol; an attempt at the floor 1e-13 is not run again
    rtols = []
    solve_ivp = vx.solve_ivp

    def counted(*args, **kw):
        rtols.append(kw["rtol"])
        return solve_ivp(*args, **kw)

    monkeypatch.setattr(vx, "solve_ivp", counted)
    z, g = vx.make_dipole(0.1 + 0.3j, -1j, 1.2e-8)
    with pytest.raises(InvalidParameter, match="drift"):
        vx.integrate(vx.VortexConfiguration(z, g, vx.HalfPlane()), 2.0,
                     tol=1e-2, rtol=rtol)
    assert rtols == tried


def test_integrate_caps_right_hand_side_calls_over_all_attempts(
        monkeypatch):
    # the same drifting dipole makes 59 calls at rtol 1e-11 and 62 at the
    # floor: a cap of 100 lets the first attempt finish and stops the
    # second, where the drift check would raise without the cap
    monkeypatch.setattr(vx, "MAX_COUNT", 100)
    z, g = vx.make_dipole(0.1 + 0.3j, -1j, 1.2e-8)
    with pytest.raises(InvalidParameter, match="integration failed: over "
                       "100 right-hand-side calls"):
        vx.integrate(vx.VortexConfiguration(z, g, vx.HalfPlane()), 2.0,
                     tol=1e-2, rtol=1e-11)


def test_guard_stop_ends_where_the_run_stopped():
    # a head-on dipole descends from height 0.3 at unit speed; a user
    # event that is not terminal fires at height 0.2, and the guard stops
    # the run near the wall. The stop's time and the trajectory's last
    # sample are the guard's, not the earlier user root
    hp = vx.HalfPlane()
    z, g = vx.make_dipole(complex(0, 0.3), -1j, 6e-9)

    def below(t, y):
        return y[1] - 0.2

    with pytest.raises(vx.EventStop) as stop:
        vx.integrate(vx.VortexConfiguration(z, g, hp), 1.0, tol=1e-2,
                     n_eval=50, events=[below])
    tr = stop.value.trajectory
    assert stop.value.t == tr.t[-1] == pytest.approx(0.3, abs=1e-3)
    assert np.all(np.diff(tr.t) >= 0.0)


# -- the DOP853 stepper against scipy's ---------------------------------------


def _scipy_dop853(cfg, T, t_eval, events=()):
    """scipy's DOP853 on the interleaved real positions of cfg."""
    from scipy.integrate import solve_ivp
    dom, gamma = cfg.domain, cfg.gamma.tolist()

    def rhs(t, y):
        return np.array(dom._velocities(y.view(complex).tolist(), gamma),
                        dtype=complex).view(float)

    return solve_ivp(rhs, (0.0, T), cfg.z.view(float), method="DOP853",
                     rtol=1e-10, atol=1e-12, t_eval=t_eval, events=events)


def _dop853(cfg, T, t_eval, events=()):
    dom, gamma = cfg.domain, cfg.gamma.tolist()
    return vx.solve_ivp(lambda t, z: dom._velocities(z, gamma), (0.0, T),
                        cfg.z, rtol=1e-10, atol=1e-12, t_eval=t_eval,
                        events=events)


@pytest.mark.parametrize("dom", [vx.HalfPlane(), vx.DiskDomain(1.0),
                                 vx.NeumannOvalDomain(0.3)],
                         ids=["half_plane", "disk", "oval"])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_dop853_repeats_scipys_steps(dom, n):
    # the same samples from the same number of right-hand-side calls
    cfg = _random_config(dom, n, np.random.default_rng(100 + n))
    t_eval = np.linspace(0.0, 0.5, 40)
    ref = _scipy_dop853(cfg, 0.5, t_eval)
    sol = _dop853(cfg, 0.5, t_eval)
    assert sol.status == ref.status == 0
    np.testing.assert_array_equal(sol.t, ref.t)
    assert sol.nfev == ref.nfev
    z_ref = np.ascontiguousarray(ref.y.T).view(complex)
    assert np.max(np.abs(sol.z - z_ref)) <= 1e-12


def test_dop853_event_direction_keeps_scipys_meaning():
    # a lone vortex circles the disk's center: x = 0 is crossed once
    # falling and once rising per turn
    cfg = vx.VortexConfiguration([0.5], [20.0], vx.DiskDomain(1.0))

    def cross(t, z):
        return z[0].real

    def rising(t, z):
        return z[0].real

    rising.direction = 1.0
    sol = _dop853(cfg, 1.5, [0.0], events=[cross, rising])
    ref = _scipy_dop853(cfg, 1.5, [0.0], events=[lambda t, y: y[0], rising])
    assert len(sol.t_events[0]) == 2 and len(sol.t_events[1]) == 1
    # the rising crossing is the second, where the vortex moves to +x
    assert sol.t_events[1][0] == sol.t_events[0][1]
    z = sol.z_events[1][0]
    assert cfg.domain._velocities([complex(z[0])], [20.0])[0].real > 0
    for te, te_ref in zip(sol.t_events, ref.t_events):
        np.testing.assert_allclose(te, te_ref, rtol=0, atol=1e-12)


def test_dop853_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    from pensive import _dop853
    assert ((_dop853.N_STAGES, _dop853.N_STAGES_EXTENDED,
             _dop853.INTERPOLATOR_POWER)
            == (ref.N_STAGES, ref.N_STAGES_EXTENDED, ref.INTERPOLATOR_POWER))
    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours, theirs = getattr(_dop853, name), getattr(ref, name)
        assert ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [(0, 1, 0.0), (0, 1, math.nan),
                                  (0, 1, math.inf), (0, 0, 0.05),
                                  (0, math.nan, 0.05)],
                         ids=["eps-zero", "eps-nan", "eps-inf",
                              "direction-zero", "direction-nan"])
def test_make_dipole_rejects_degenerate_pairs(args):
    # no coincident pair, no nan positions, no raw ZeroDivisionError
    with pytest.raises(InvalidParameter):
        vx.make_dipole(*args)


@pytest.mark.filterwarnings("error")
def test_hamiltonian_rejects_coincident_vortices():
    # positions given with a domain pass the configuration's checks
    with pytest.raises(DiagonalSingularity):
        vx.hamiltonian(vx.DiskDomain(1.0), [0.1, 0.1], [1.0, -1.0])
    with pytest.raises(BoundarySingularity):
        vx.hamiltonian(vx.DiskDomain(1.0), [0.1, 1.5], [1.0, -1.0])


# -- fission / fusion ------------------------------------------------------


def test_fission_values():
    fo = vx.fission_outcome(1.0, math.pi / 2)
    assert fo.v_plus == pytest.approx(1.0, abs=1e-15)
    assert fo.v_minus == pytest.approx(1.0, abs=1e-15)
    for theta in RNG.uniform(0.05, math.pi - 0.05, 50):
        fo = vx.fission_outcome(1.3, theta)
        c = math.cos(theta)
        m = math.sqrt(1 + c * c)
        assert fo.v_plus == pytest.approx(1.3 * (m - c), rel=1e-14)
        assert fo.v_minus == pytest.approx(1.3 * (m + c), rel=1e-14)
        assert fo.v_plus * fo.v_minus == pytest.approx(1.3 ** 2,
                                                       rel=1e-13)
    # grazing limit: silver ratio speeds
    fo = vx.fission_outcome(1.0, 1e-9)
    assert fo.v_plus == pytest.approx(1.0 / vx.CHI, rel=1e-8)
    assert fo.v_minus == pytest.approx(vx.CHI, rel=1e-8)
    with pytest.raises(InvalidAngle):
        vx.fission_outcome(1.0, 0.0)
    with pytest.raises(InvalidAngle):
        vx.fission_outcome(1.0, math.pi)


def test_metallic_constants():
    assert abs(vx.METALLIC.chi ** 2 - 2 * vx.METALLIC.chi - 1) < 1e-15
    assert abs(vx.METALLIC.phi ** 2 - vx.METALLIC.phi - 1) < 1e-15


def test_fusion_outcomes():
    out = vx.fusion_outcome(1.0, 1.0, 4 * math.pi)
    assert isinstance(out, vx.Merge)
    assert out.theta == pytest.approx(0.0, abs=1e-15)
    assert out.speed == pytest.approx(1.0, rel=1e-14)
    assert isinstance(vx.fusion_outcome(6.0, 1.0, 1.0), vx.Pass)
    # exact silver boundary is classified Pass (strict window)
    assert isinstance(vx.fusion_outcome(vx.CHI ** 2, 1.0, 1.0), vx.Pass)
    assert isinstance(vx.fusion_outcome(1.0, vx.CHI ** 2, 1.0), vx.Pass)
    # meeting point is the height-weighted average
    m = vx.fusion_outcome(2.0, 1.0, 1.0, x_plus=0.0, x_minus=3.0)
    assert m.x_meet == pytest.approx(1.0, rel=1e-14)


def test_fission_fusion_weld_angle():
    # fusion applied to fission heights gives tan(theta_f) = |cot(theta)|
    for theta in RNG.uniform(0.1, math.pi - 0.1, 50):
        if abs(theta - math.pi / 2) < 1e-3:
            continue
        fo = vx.fission_outcome(1.0, theta)
        out = vx.fusion_outcome(fo.y_plus, fo.y_minus, 1.0)
        assert isinstance(out, vx.Merge)
        assert math.tan(out.theta) == pytest.approx(
            abs(1.0 / math.tan(theta)), abs=1e-12)


def test_vortex_delay_weld():
    for _ in range(50):
        theta = RNG.uniform(0.05, math.pi - 0.05)
        L = RNG.uniform(0.2, 4.0)
        law = delay.vortex(L)
        assert vx.vortex_delay_from_fission(theta, L) == pytest.approx(
            law.ell(math.cos(theta)), abs=1e-12)
    assert vx.vortex_delay_from_fission(math.pi / 2, 1.8) == (
        pytest.approx(1.8, abs=1e-14))
    assert vx.vortex_delay_from_fission(1e-10, 2.0) == pytest.approx(
        2.0 * (1 - 1 / math.sqrt(2)), rel=1e-8)


def test_pair_classification_table():
    cases = [(0.0, False, "MergeDipole"), (0.5, False, "MergeDipole"),
             (vx.CHI, False, "Pass"), (3.0, False, "Pass"),
             (0.0, True, "LeapfrogReversing"),
             (1.0, True, "LeapfrogReversing"),
             (vx.PHI, True, "Cusp"),
             (2.0, True, "LeapfrogNoReverse"),
             (2.5, True, "PassOnce"), (vx.CHI, True, "PassOnce"),
             (-1.0, True, "LeapfrogReversing")]
    for mu, same, want in cases:
        assert vx.pair_classification(mu, same) == want


@pytest.mark.parametrize("call", [
    lambda: vx.fission_outcome(math.nan, 1.0),
    lambda: vx.fission_outcome(math.inf, 1.0),
    lambda: vx.fusion_outcome(math.nan, 1.0, 1.0),
    lambda: vx.fusion_outcome(1.0, 1.1, math.nan),
    lambda: vx.fusion_outcome(1.0, 1.1, 1.0, x_plus=math.inf),
    lambda: vx.vortex_delay_from_fission(1.0, math.nan),
    lambda: vx.pair_classification(math.nan, False),
    lambda: vx.pair_classification(math.inf, True)],
    ids=["fission-v-nan", "fission-v-inf", "fusion-height-nan",
         "fusion-gamma-nan", "fusion-x-inf", "delay-L-nan",
         "classification-nan", "classification-inf"])
def test_pair_algebra_rejects_non_finite_numbers(call):
    # no nan speed, nan ratio or nan-driven verdict
    with pytest.raises(InvalidParameter, match="expected a finite number"):
        call()


# -- the zero-separation limit --------------------------------------------


@pytest.mark.parametrize("dom", [vx.DiskDomain(1.3),
                                 vx.NeumannOvalDomain(0.3)],
                         ids=["disk", "neumann_oval"])
def test_domain_curve_is_built_once(dom):
    assert dom.curve() is dom.curve()


def test_limit_check_disk():
    rep = vx.dipole_billiard_limit_check(vx.DiskDomain(1.0), 0.3,
                                         math.pi / 3, 0.01)
    assert rep.delta_theta < 0.05
    assert rep.delta_s < 0.05 * TWO_PI


def test_limit_check_leaves_brentq_to_the_event_roots(monkeypatch):
    # the exit ray of the re-merged pair is a first hit polished by Newton;
    # brentq is called by the integrator alone, for its event roots
    callers = []
    brentq = geo.brentq

    def traced(*args, **kw):
        callers.append(pathlib.Path(sys._getframe(1).f_code.co_filename).name)
        return brentq(*args, **kw)

    monkeypatch.setattr(geo, "brentq", traced)
    vx.dipole_billiard_limit_check(vx.DiskDomain(1.0), 0.3, math.pi / 3, 0.01)
    assert callers and set(callers) == {"_dop853.py"}


def test_limit_check_diameter():
    rep = vx.dipole_billiard_limit_check(vx.DiskDomain(1.0), 1.2,
                                         math.pi / 2, 0.005)
    assert rep.delta_theta < 1e-2


def test_halfplane_fission_speeds_match():
    # aim a tight dipole at the wall and read off the settled monopole
    # speeds once the pair separation dwarfs the heights
    eps = 0.005
    theta = math.pi / 3
    hp = vx.HalfPlane()
    d_hat = complex(math.cos(-theta + 0), -math.sin(theta))
    d_hat /= abs(d_hat)
    z, g = vx.make_dipole(complex(0, 0.08), d_hat, eps)
    cfg = vx.VortexConfiguration(z, g, hp)
    traj = vx.integrate(cfg, 2.0, tol=1e-6, n_eval=2000)
    sep = np.abs(traj.z[:, 0] - traj.z[:, 1])
    k = np.nonzero(sep > 40 * eps)[0]
    assert len(k) > 2
    ks = k[-1]
    dt = traj.t[ks] - traj.t[ks - 1]
    v_p = abs(traj.z[ks, 0] - traj.z[ks - 1, 0]) / dt
    v_m = abs(traj.z[ks, 1] - traj.z[ks - 1, 1]) / dt
    fo = vx.fission_outcome(1.0, theta)
    assert v_p == pytest.approx(fo.v_plus, rel=0.02)
    assert v_m == pytest.approx(fo.v_minus, rel=0.02)


def test_same_sign_pairs_escape():
    # unequal same-sign monopoles near the wall pass and separate
    hp = vx.HalfPlane()
    for _ in range(5):
        g1 = RNG.uniform(0.8, 1.2)
        g2 = g1 * RNG.uniform(1.4, 2.5)
        y1 = RNG.uniform(0.008, 0.012)
        y2 = RNG.uniform(0.008, 0.012)
        z = np.array([complex(-0.15, y1), complex(0.15, y2)])
        cfg = vx.VortexConfiguration(z, np.array([g2, g1]), hp)
        traj = vx.integrate(cfg, 2.0, tol=1e-6)
        x_rel = np.real(traj.z[:, 0] - traj.z[:, 1])
        assert x_rel[-1] > 0.3
        k0 = int(np.argmin(np.abs(x_rel)))
        tail = x_rel[k0:]
        assert np.all(np.diff(tail) > -1e-9)


# -- multi-dipole event model ----------------------------------------------


def test_multi_dipole_single_reduction():
    curve = geo.disk(1.0)
    law = delay.vortex_for(curve)
    res = vx.multi_dipole_simulate([(0.7, 1.1)], curve, 14.0)
    fus = [e for e in res.events if e.kind == "fusion"]
    assert len(fus) >= 3
    pt = bil.PhasePoint(0.7, 1.1)
    for e in fus:
        pt = bil.pensive_step(curve, law, pt)
        assert abs(geo.wrap_to_half(e.s - pt.s, curve.perimeter)) < 1e-12
        assert abs(e.theta - pt.theta) < 1e-12
    kinds = [e.kind for e in res.events]
    for k, kind in enumerate(kinds):
        assert kind == ("fission" if k % 2 == 0 else "fusion")


def test_multi_dipole_symmetric_exchange():
    res = vx.multi_dipole_simulate(
        [(0.0, math.pi / 2), (math.pi, math.pi / 2)],
        vx.DiskDomain(1.0), 2.0 + math.pi / 2 + 0.5)
    fus = [e for e in res.events if e.kind == "fusion"]
    assert len(fus) == 2
    for e in fus:
        assert e.origins[0] != e.origins[1]
    # each fusion consumed one positive and one negative monopole
    assert res.monopoles_left == 0
    assert res.flights_left == 2


def test_multi_dipole_ratio_one_merge():
    # perpendicular launch: monopole speeds equal, merge at theta(1),
    # i.e. re-entry normal to the boundary
    res = vx.multi_dipole_simulate([(0.3, math.pi / 2)],
                                   vx.DiskDomain(1.0), 6.0)
    fus = [e for e in res.events if e.kind == "fusion"]
    assert fus
    assert fus[0].speeds[0] == pytest.approx(fus[0].speeds[1], rel=1e-12)
    assert fus[0].theta == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize("T", [math.nan, math.inf, -1.0])
def test_multi_dipole_rejects_bad_horizons(T):
    with pytest.raises(InvalidParameter):
        vx.multi_dipole_simulate([(0.3, 1.0)], geo.disk(1.0), T)


def test_multi_dipole_ambiguous_triple():
    s_c = 11.6 - 3 * math.pi
    dipoles = [(0.0, math.pi / 2, 1.0), (0.8, math.pi / 2, 1.0),
               (s_c, math.pi / 2, 8.0)]
    with pytest.raises(AmbiguousEvent) as exc:
        vx.multi_dipole_simulate(dipoles, vx.DiskDomain(1.0), 3.0)
    assert exc.value.t == pytest.approx(2.4, abs=1e-9)
    assert len(exc.value.log) > 0
