"""Point-vortex dynamics in bounded domains and the dipole limit models.

Circulation is counterclockwise-positive and the stream structure uses
the positive-type Green's function, so a single positive vortex drifts
along the boundary with the domain on its left. The motion is the
Kirchhoff system

    dz_i/dt = -i grad_z [ sum_{j != i} G_j G(z_i, z_j) + G_i R(z_i) / 2 ]

whose Hamiltonian and (half-plane) horizontal momentum are monitored
during integration.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import delay as delay_mod
from . import geometry as geo
from .errors import (MAX_COUNT, AmbiguousEvent, BoundarySingularity,
                     DiagonalSingularity, EventStop, InvalidAngle,
                     InvalidParameter, InvalidPoint, ReportIncomplete,
                     Unsupported, finite_float, whole_count)

TWO_PI = 2.0 * math.pi
CHI = 1.0 + math.sqrt(2.0)
PHI = 0.5 * (1.0 + math.sqrt(5.0))


@dataclass(frozen=True)
class MetallicConstants:
    """Silver and golden thresholds of the pair interaction."""

    chi: float = CHI
    phi: float = PHI


METALLIC = MetallicConstants()


def _as_z(point):
    if isinstance(point, complex):
        return point
    arr = np.asarray(point).ravel()
    if arr.size == 1:
        return complex(arr[0])      # a complex entry keeps its imaginary part
    if arr.size != 2:
        raise InvalidPoint("points are (x, y) pairs or complex numbers")
    return complex(float(arr[0]), float(arr[1]))


def _log_abs(w):
    # hypot rounds as abs() of one complex point does, as the scalar
    # velocity kernels use it; numpy's abs of a complex array does not
    return np.log(np.hypot(w.real, w.imag))


class _Domain:
    """Green's function, Robin function and energy from one array pass.

    Subclasses supply _terms(zz) for an (m, n) array of positions: the
    self terms 2 pi R(z_i), shape (m, n), and the pair terms
    2 pi G(z_i, z_j) for i < j in np.triu_indices order, shape (m, n_pairs).
    """

    def greens(self, z, w):
        return float(self._terms(np.array([[z, w]]))[1][0, 0]) / TWO_PI

    def robin(self, z):
        return float(self._terms(np.array([[z]]))[0][0, 0]) / TWO_PI

    def grad_greens(self, z, w):
        # i times the velocity at z of a unit vortex at w
        return 1j * self._velocities([z, w], [0.0, 1.0])[0]

    def grad_robin(self, z):
        # 2i times the velocity a unit vortex at z induces on itself
        return 2j * self._velocities([z], [1.0])[0]

    def _energy_rows(self, zz, gamma):
        """Hamiltonian of each row of an (m, n) array of positions.

        numpy sums along the last axis row by row, so a row gets the same
        bits alone as among others; a BLAS product (@) does not promise
        that.
        """
        self_t, pair_t = self._terms(zz)
        i, j = np.triu_indices(len(gamma), 1)
        w = np.concatenate([0.5 * gamma * gamma, gamma[i] * gamma[j]])
        return np.sum(np.concatenate([self_t, pair_t], axis=-1) * w,
                      axis=-1) / TWO_PI

    def _wall_event(self, z):
        """The boundary guard of :func:`integrate` at the (n,) complex
        positions z: the least wall distance less GUARD_DISTANCE."""
        return float(np.min(self.boundary_distance(z))) - GUARD_DISTANCE


class HalfPlane(_Domain):
    """Upper half-plane y > 0 with the x-axis as the wall."""

    name = "half_plane"
    scale = 1.0

    def inside(self, z):
        return z.imag > 0.0

    def boundary_distance(self, z):
        return z.imag

    def _terms(self, zz):
        i, j = np.triu_indices(zz.shape[-1], 1)
        zi, zj = zz[:, i], zz[:, j]
        return (np.log(2.0 * zz.imag),
                _log_abs(zi - np.conj(zj)) - _log_abs(zi - zj))

    def _velocities(self, z, gamma):
        """Kirchhoff velocities for lists of complex positions and float
        circulations; each pair is visited once and feeds both ends."""
        n = len(z)
        acc = [0j] * n
        for i in range(n):
            zi, gi = z[i], gamma[i]
            for j in range(i + 1, n):
                p = 1.0 / (zi - z[j]).conjugate()
                q = 1.0 / (zi - z[j].conjugate())
                acc[i] += gamma[j] * (q.conjugate() - p)
                acc[j] += gi * (p - q)
        return [(0.5 * gamma[i] / z[i].imag - 1j * acc[i]) / TWO_PI
                for i in range(n)]

    def curve(self):
        raise Unsupported("the half-plane has no closed boundary curve")

    # bound on the class, as on the other domains, for bench/spans.py
    grad_greens = _Domain.grad_greens
    grad_robin = _Domain.grad_robin

    def __repr__(self):
        return "HalfPlane()"


class _ConformalDomain(_Domain):
    """Image of the unit disk under a conformal map z = F(Z).

    Green's and Robin functions pull back through f = F^-1 to the unit
    disk; subclasses supply the pull-back of one point or of an array of
    points as _pull(z) = (Z, conj f'(z), conj(f''(z) / f'(z))).
    """

    def _terms(self, zz):
        Z, c, _ = self._pull(zz)
        i, j = np.triu_indices(zz.shape[-1], 1)
        Zi, Zj = Z[:, i], Z[:, j]
        return (np.log(1.0 - np.hypot(Z.real, Z.imag) ** 2) - _log_abs(c),
                _log_abs(1.0 - Zi * np.conj(Zj)) - _log_abs(Zi - Zj))

    def _velocities(self, z, gamma):
        """Kirchhoff velocities for lists of complex positions and float
        circulations: each vortex is pulled back once, then each pair is
        visited once and feeds both ends."""
        n = len(z)
        pulled = [self._pull(zk) for zk in z]
        Z = [pk[0] for pk in pulled]
        acc = [0j] * n
        for i in range(n):
            Zi, gi = Z[i], gamma[i]
            for j in range(i + 1, n):
                p = 1.0 / (Zi - Z[j]).conjugate()
                e = 1.0 / (1.0 - Zi * Z[j].conjugate())
                acc[i] += gamma[j] * (p + Z[j] * e.conjugate())
                acc[j] += gi * (Zi * e - p)
        out = []
        for i, (Zi, c, r) in enumerate(pulled):
            gi = gamma[i]
            out.append(1j * (c * (acc[i] + gi * Zi / (1.0 - abs(Zi) ** 2)) +
                             0.5 * gi * r) / TWO_PI)
        return out

    _curve = None

    def curve(self):
        """The boundary as a BoundaryCurve, built on the first call."""
        if self._curve is None:
            self._curve = self._make_curve()
        return self._curve


class DiskDomain(_ConformalDomain):
    """Disk of radius R centered at the origin: F(Z) = R Z."""

    name = "disk"

    def __init__(self, radius=1.0):
        self.radius = finite_float(radius, "radius")
        if self.radius <= 0:
            raise InvalidParameter("radius must be positive")
        self.scale = self.radius
        self._c = 1.0 / self.radius

    def _pull(self, z):
        return z * self._c, self._c, 0.0

    def inside(self, z):
        return abs(z) < self.radius

    def boundary_distance(self, z):
        # hypot agrees bit for bit with abs() of one complex point; numpy's
        # abs of a complex array does not always
        return self.radius - np.hypot(z.real, z.imag)

    # bound on each domain class itself, where method-level tracing
    # (bench/spans.py) looks them up
    grad_greens = _Domain.grad_greens
    grad_robin = _Domain.grad_robin

    def _make_curve(self):
        return geo.disk(self.radius)

    def __repr__(self):
        return "DiskDomain(%g)" % self.radius


class NeumannOvalDomain(_ConformalDomain):
    """Image of the unit disk under F(Z) = a Z / (1 - lam^2 Z^2).

    The Green's function pulls back conformally; the Robin function
    picks up the log-derivative of the inverse map.
    """

    name = "neumann_oval"

    def __init__(self, lam):
        self.map = geo.NeumannMap(lam)
        self.lam = self.map.lam
        t = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        self._nodes = self.map.F(np.exp(1j * t))
        self.scale = float(np.abs(self._nodes).max())

    def _pull(self, z):
        m = self.map
        Z = m.inv(z)
        fp = m.Fp(Z)
        return Z, (1.0 / fp).conjugate(), (-m.Fpp(Z) / (fp * fp)).conjugate()

    def inside(self, z):
        return abs(self.map.inv(z)) < 1.0

    def boundary_distance(self, z):
        """Distance to the wall, read as the smaller of the distance to the
        nearest of 4096 boundary nodes, which cannot see the wall between
        them, and the Koebe bound (1 - |Z|^2) |F'(Z)| at Z = F^-1(z), at
        most twice the distance near the wall; z may be one point or an
        array of points."""
        z = np.asarray(z)
        d = np.abs(self._nodes - z[..., None]).min(axis=-1)
        Z = self.map.inv(z)
        d = np.minimum(d, (1.0 - np.abs(Z) ** 2) * np.abs(self.map.Fp(Z)))
        return float(d) if d.ndim == 0 else d

    def _wall_event(self, z):
        # Koebe's quarter theorem puts the wall at least
        # (1 - |Z|^2) |F'(Z)| / 4 away. While that clears the guard, only
        # the event's sign matters, and the node minimum is skipped
        Z = self.map.inv(z)
        low = float(np.min(0.25 * (1.0 - np.abs(Z) ** 2) *
                           np.abs(self.map.Fp(Z))))
        if low > GUARD_DISTANCE:
            return low - GUARD_DISTANCE
        return super()._wall_event(z)

    grad_greens = _Domain.grad_greens
    grad_robin = _Domain.grad_robin

    def _make_curve(self):
        return geo.neumann_oval(self.lam)

    def __repr__(self):
        return "NeumannOvalDomain(%g)" % self.lam


def _check_interior(domain, z, label="point"):
    if not domain.inside(z):
        raise BoundarySingularity("%s not strictly inside %r" % (label,
                                                                 domain))
    if domain.boundary_distance(z) < 1e-12 * domain.scale:
        raise BoundarySingularity("%s on the boundary of %r" % (label,
                                                                domain))


def _check_pair(domain, z, w):
    _check_interior(domain, z, "z")
    _check_interior(domain, w, "w")
    if abs(z - w) < 1e-14 * domain.scale:
        raise DiagonalSingularity("z and w coincide")


def greens(domain, z, w):
    """Positive-type Dirichlet Green's function of the domain."""
    z, w = _as_z(z), _as_z(w)
    _check_pair(domain, z, w)
    return domain.greens(z, w)


def grad_greens(domain, z, w):
    """Real gradient in z of greens, packed as a complex number."""
    z, w = _as_z(z), _as_z(w)
    _check_pair(domain, z, w)
    return domain.grad_greens(z, w)


def robin(domain, z):
    """Robin function R(z) = lim_{w->z} [G(z,w) + log|z-w| / 2 pi]."""
    z = _as_z(z)
    _check_interior(domain, z)
    return domain.robin(z)


def grad_robin(domain, z):
    z = _as_z(z)
    _check_interior(domain, z)
    return domain.grad_robin(z)


# -- configurations and the Kirchhoff system ------------------------------


@dataclass
class VortexConfiguration:
    """Positions, circulations, and the domain carrying them."""

    z: np.ndarray
    gamma: np.ndarray
    domain: object
    t: float = 0.0

    def __post_init__(self):
        self.z = np.atleast_1d(np.asarray(self.z, dtype=complex))
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if self.z.shape != self.gamma.shape:
            raise InvalidParameter("positions and circulations mismatch")
        for k, zk in enumerate(self.z):
            _check_interior(self.domain, complex(zk), "vortex %d" % k)
        n = len(self.z)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(self.z[i] - self.z[j]) < 1e-14 * self.domain.scale:
                    raise DiagonalSingularity(
                        "vortices %d and %d coincide" % (i, j))

    @property
    def n(self):
        return len(self.z)


def vortex_rhs(config):
    """Velocities dz_i/dt of the regularized vortex system."""
    return np.array(config.domain._velocities(config.z.tolist(),
                                              config.gamma.tolist()),
                    dtype=complex)


def hamiltonian(config_or_domain, z=None, gamma=None):
    """Interaction energy plus the self (Robin) terms. Positions given
    with a domain pass the checks of a VortexConfiguration: inside, and
    no two coincident."""
    config = config_or_domain
    if z is not None:
        config = VortexConfiguration(z, gamma, config_or_domain)
    return float(config.domain._energy_rows(config.z[None, :],
                                            config.gamma)[0])


def momentum(config):
    """Horizontal translation momentum sum Gamma_i y_i (half-plane)."""
    return float(np.sum(np.imag(config.z) * config.gamma, axis=-1))


@dataclass
class VortexTrajectory:
    """Sampled integration output with conserved-quantity logs, and how
    :func:`integrate` got it: its attempts, the rtol of the attempt kept,
    and the right-hand-side calls over all attempts."""

    t: np.ndarray
    z: np.ndarray
    gamma: np.ndarray
    domain: object
    hamiltonian: np.ndarray
    momentum: np.ndarray
    drift: float
    attempts: int = 0
    rtol: float = math.nan
    nfev: int = 0


GUARD_DISTANCE = 1e-8


def solve_ivp(fun, t_span, z0, **options):
    """:func:`pensive._dop853.solve_ivp`, the DOP853 stepper on complex
    positions, imported on the first call, so importing pensive does not
    compile it. :func:`integrate` looks this name up at each attempt, so
    a wrapper set in its place sees every attempt."""
    from ._dop853 import solve_ivp
    return solve_ivp(fun, t_span, z0, **options)


def integrate(config, T, tol=1e-8, rtol=1e-11, n_eval=600, events=None):
    """Integrate the vortex system to time T with drift control.

    Steps with the order-8 Dormand-Prince pair (DOP853) of
    :mod:`pensive._dop853` on the complex positions, at atol = rtol/100.
    The Hamiltonian is evaluated at every output sample in one array pass;
    if its relative drift exceeds tol the run is repeated at rtol/100,
    floored at 1e-13, at most three attempts in all; an attempt at the
    floor is the last. A run over MAX_COUNT right-hand-side calls, all
    attempts counted, fails with InvalidParameter. Close approaches to the
    boundary or between vortices, within GUARD_DISTANCE, stop the run with
    EventStop carrying the partial trajectory; a start already that close
    stops at t = 0. Each of `events` is called as g(t, y), y the positions
    as interleaved (x, y) reals, and keeps scipy's ``terminal`` and
    ``direction`` meaning.
    """
    n_eval = whole_count(n_eval, "n_eval", least=1)
    if not (0 < T < math.inf and 0 < tol < math.inf):
        raise InvalidParameter("need a finite positive horizon and "
                               "tolerance")
    domain = config.domain
    gamma = config.gamma.copy()
    gl = gamma.tolist()
    n = config.n
    velocities = domain._velocities
    calls = 0

    def rhs(t, z):
        nonlocal calls
        calls += 1
        if calls > MAX_COUNT:
            raise InvalidParameter("integration failed: over %d right-hand-"
                                   "side calls" % MAX_COUNT)
        return velocities(z, gl)

    def ev_boundary(t, z):
        return domain._wall_event(z)

    def ev_collide(t, z):
        z = z.tolist()
        return min((abs(z[i] - z[j]) for i in range(n)
                    for j in range(i + 1, n)),
                   default=math.inf) - GUARD_DISTANCE

    ev_boundary.terminal = True
    ev_collide.terminal = True
    ev_list = [ev_boundary, ev_collide] + [_on_reals(ev)
                                           for ev in events or ()]

    H0 = hamiltonian(config)
    # the events fire where their sign changes, so a start already within
    # a guard distance stops here
    if min(ev_boundary(0.0, config.z), ev_collide(0.0, config.z)) <= 0.0:
        err = EventStop("vortex starts within guard distance", t=0.0,
                        state=config.z.copy())
        err.trajectory = VortexTrajectory(
            t=np.zeros(1), z=config.z[None, :].copy(), gamma=gamma,
            domain=domain, hamiltonian=np.array([H0]),
            momentum=np.array([np.sum(config.z.imag * gamma)]), drift=0.0)
        raise err
    t_eval = np.linspace(0.0, T, n_eval)
    rt = rtol
    nfev = 0
    for attempt in range(1, 4):
        sol = solve_ivp(rhs, (0.0, T), config.z, rtol=rt, atol=rt * 1e-2,
                        t_eval=t_eval, events=ev_list)
        nfev += sol.nfev
        if sol.status < 0:
            raise InvalidParameter("integration failed: %s" % sol.message)
        tt, zz = sol.t, sol.z
        if sol.status == 1:
            tt = np.append(tt, sol.t_final)
            zz = np.vstack([zz, sol.z_final[None, :]])
        Hs = domain._energy_rows(zz, gamma)
        mom = np.sum(np.imag(zz) * gamma, axis=-1)
        drift = float(np.max(np.abs(Hs - H0)) / max(abs(H0), 1e-300))
        if drift <= tol or rt <= 1e-13:
            break
        rt = max(rt * 1e-2, 1e-13)
    if not drift <= tol:
        raise InvalidParameter("Hamiltonian drift %.3g exceeds tol" % drift)
    traj = VortexTrajectory(t=tt, z=zz, gamma=gamma, domain=domain,
                            hamiltonian=Hs, momentum=mom, drift=drift,
                            attempts=attempt, rtol=rt, nfev=nfev)
    if sol.status == 1 and len(sol.t_events[0]) + len(sol.t_events[1]) > 0:
        err = EventStop("vortex came within guard distance",
                        t=float(tt[-1]), state=zz[-1])
        err.trajectory = traj
        raise err
    return traj


def _on_reals(event):
    """The event g(t, y) of interleaved (x, y) reals as an event of the
    complex positions, with its terminal and direction."""
    def on_complex(t, z):
        return event(t, z.view(float))

    on_complex.terminal = getattr(event, "terminal", None)
    on_complex.direction = getattr(event, "direction", 0)
    return on_complex


# -- dipole bookkeeping ----------------------------------------------------


@dataclass(frozen=True)
class DipoleCoordinates:
    """Relative/absolute coordinates of a two-vortex state."""

    x_rel: float
    y_rel: float
    x_abs: float
    y_abs: float
    mu: float
    eps: float
    gamma: float
    theta: float

    @classmethod
    def from_positions(cls, z_plus, z_minus, gamma):
        zp, zm = _as_z(z_plus), _as_z(z_minus)
        d = zp - zm
        direction = -1j * d / abs(d)
        theta = math.acos(max(-1.0, min(1.0, direction.real)))
        return cls(x_rel=d.real, y_rel=d.imag,
                   x_abs=0.5 * (zp.real + zm.real),
                   y_abs=0.5 * (zp.imag + zm.imag),
                   mu=d.imag, eps=0.5 * abs(d), gamma=float(gamma),
                   theta=theta)


def make_dipole(center, direction, eps, gamma=None, domain=None):
    """Vortex pair traveling along `direction` at speed gamma/(4 pi eps).

    The positive vortex sits to the left of the motion. With gamma
    omitted, it is set to 4 pi eps so the pair moves at unit speed. The
    half separation eps is finite and nonzero, the direction finite and
    nonzero.
    """
    zc = _as_z(center)
    d = _as_z(direction)
    eps = finite_float(eps, "eps")
    if eps == 0:
        raise InvalidParameter("eps must be nonzero: the vortices coincide")
    if not 0.0 < abs(d) < math.inf:
        raise InvalidParameter("direction must be finite and nonzero")
    d /= abs(d)
    if gamma is None:
        gamma = 4.0 * math.pi * eps
    z = np.array([zc + 1j * eps * d, zc - 1j * eps * d])
    g = np.array([gamma, -gamma])
    if domain is not None:
        return VortexConfiguration(z, g, domain)
    return z, g


# -- fission / fusion algebra ---------------------------------------------


@dataclass(frozen=True)
class FissionOutcome:
    """Speeds and heights (per unit separation) after a wall split."""

    v_plus: float
    v_minus: float
    y_plus: float
    y_minus: float


def _fission_heights(c):
    """Heights sqrt(1 + c^2) -/+ c of the split monopoles per unit
    separation, c the cosine of the incidence angle, and sqrt(1 + c^2);
    their speeds are v times the heights."""
    m = math.sqrt(1.0 + c * c)
    return m - c, m + c, m


def _in_silver_window(ratio):
    """The open fusion window chi^-2 < ratio < chi^2."""
    return CHI ** -2 < ratio < CHI ** 2


def fission_outcome(v, theta):
    """Monopole speeds and heights for a dipole hitting at angle theta."""
    if not 0.0 < theta < math.pi:
        raise InvalidAngle("incidence angle must lie in (0, pi)")
    v = finite_float(v, "v")
    y_plus, y_minus, _ = _fission_heights(math.cos(theta))
    return FissionOutcome(v_plus=v * y_plus, v_minus=v * y_minus,
                          y_plus=y_plus, y_minus=y_minus)


@dataclass(frozen=True)
class Merge:
    """Fusion verdict: the monopoles re-enter as a dipole."""

    theta: float
    speed: float
    x_meet: float


@dataclass(frozen=True)
class Pass:
    """Fusion verdict: height ratio outside the silver window."""

    ratio: float


def fusion_outcome(y_plus, y_minus, gamma, x_plus=0.0, x_minus=0.0):
    """Merge-or-pass decision for two boundary monopoles.

    The merge angle is measured from the boundary normal; the window is
    the open silver interval chi^-2 < y_plus/y_minus < chi^2.
    """
    y_plus = finite_float(y_plus, "y_plus")
    y_minus = finite_float(y_minus, "y_minus")
    gamma = finite_float(gamma, "gamma")
    x_plus = finite_float(x_plus, "x_plus")
    x_minus = finite_float(x_minus, "x_minus")
    if y_plus <= 0 or y_minus <= 0:
        raise InvalidParameter("heights must be positive")
    ratio = y_plus / y_minus
    if not _in_silver_window(ratio):
        return Pass(ratio=ratio)
    num = (y_plus - y_minus) ** 2
    den = -y_plus ** 2 + 6.0 * y_plus * y_minus - y_minus ** 2
    theta = math.atan(math.sqrt(num / den))
    speed = gamma / (4.0 * math.pi * math.sqrt(y_plus * y_minus))
    x_meet = (x_plus * y_plus + x_minus * y_minus) / (y_plus + y_minus)
    return Merge(theta=theta, speed=speed, x_meet=x_meet)


def vortex_delay_from_fission(theta, L):
    """Re-meeting displacement 2L v+ / (v+ + v-) of the split monopoles."""
    if not 0.0 < theta < math.pi:
        raise InvalidAngle("incidence angle must lie in (0, pi)")
    L = finite_float(L, "L")
    y_plus, _, m = _fission_heights(math.cos(theta))
    return L * y_plus / m


def pair_classification(mu, same_sign):
    """Regime label for a two-vortex pair at normalized momentum mu."""
    mu = abs(finite_float(mu, "mu"))
    if not same_sign:
        return "MergeDipole" if mu < CHI else "Pass"
    if abs(mu - PHI) < 1e-12:
        return "Cusp"
    if mu < PHI:
        return "LeapfrogReversing"
    if mu < CHI:
        return "LeapfrogNoReverse"
    return "PassOnce"


# -- the zero-separation limit against the ODE -----------------------------


@dataclass(frozen=True)
class LimitCheckReport:
    """One ODE bounce compared against one step of the limit map."""

    eps: float
    s_model: float
    theta_model: float
    s_ode: float
    theta_ode: float
    delta_s: float
    delta_theta: float


def dipole_billiard_limit_check(domain, x0, theta0, eps):
    """Integrate a tight dipole through one bounce and compare with the
    vortex-billiard step at the same launch data."""
    curve = domain.curve()
    law = delay_mod.vortex_for(curve)
    P = curve.perimeter
    s0 = float(x0) % P
    from . import billiard as bil
    model = bil.pensive_step_record(curve, law, bil.PhasePoint(s0, theta0))
    za = complex(*curve.point(s0))
    zb = complex(*curve.point(model.s_impact))
    zmid = 0.5 * (za + zb)
    d_hat = (zb - za) / abs(zb - za)
    depth = domain.boundary_distance(zmid)
    detect_radius = 0.6 * depth
    if detect_radius < 8 * eps:
        raise ReportIncomplete("separation too coarse for this chord")
    z, g = make_dipole(zmid, d_hat, eps)
    config = VortexConfiguration(z, g, domain)

    # fire only when the pair is dipole-like again: during the wall
    # slide the monopoles separate by an O(1) arc and their centroid
    # crosses the ring spuriously
    def ev_out(t, y):
        if abs(complex(y[0] - y[2], y[1] - y[3])) > 4.0 * eps:
            return -1.0
        zc = complex(0.5 * (y[0] + y[2]), 0.5 * (y[1] + y[3]))
        return domain.boundary_distance(zc) - detect_radius

    ev_out.terminal = True
    ev_out.direction = 1.0

    horizon = (0.5 * model.chord_length + abs(law.ell(-1.0)) + 6 * P) / 0.4
    try:
        traj = integrate(config, horizon, tol=1e-6, rtol=1e-10,
                         n_eval=400, events=[ev_out])
    except EventStop as stop:
        raise ReportIncomplete("guard event before re-merge at t=%.3g"
                               % stop.t)
    if traj.t[-1] >= horizon:
        raise ReportIncomplete("bounce did not complete in the horizon")
    zf = traj.z[-1]
    vel = domain._velocities(zf.tolist(), traj.gamma.tolist())
    v_c = 0.5 * (vel[0] + vel[1])
    d_out = v_c / abs(v_c)
    zc = 0.5 * (zf[0] + zf[1])
    t_hit = geo._ray_hit(curve, zc, -d_out)
    s_ode = float(curve.arclen_t(t_hit % TWO_PI)) % P
    tau = complex(curve.tangent_t(t_hit))
    theta_ode = math.acos(max(-1.0, min(1.0,
                                        (np.conj(tau) * d_out).real)))
    ds = abs(geo.wrap_to_half(s_ode - model.s_out, P))
    dth = abs(theta_ode - model.theta_out)
    return LimitCheckReport(eps=eps, s_model=model.s_out,
                            theta_model=model.theta_out, s_ode=s_ode,
                            theta_ode=theta_ode, delta_s=ds,
                            delta_theta=dth)


# -- event-driven multi-dipole model ---------------------------------------


@dataclass(frozen=True)
class MDEvent:
    """One entry of the fission/fusion/pass log."""

    t: float
    kind: str
    s: float
    theta: float
    speeds: tuple
    origins: tuple


@dataclass(frozen=True)
class FlightSeg:
    t0: float
    t1: float
    s_from: float
    s_to: float
    theta: float
    speed: float
    dipole: int


@dataclass(frozen=True)
class ArcSeg:
    """Monopole sliding at signed speed u from s0 at t0; t1 is None
    while it is still on the boundary."""

    t0: float
    t1: float
    s0: float
    u: float
    sign: int
    dipole: int


@dataclass
class MultiDipoleResult:
    """Event log plus piecewise trajectory segments of the limit model."""

    events: list
    segments: list
    T: float
    curve: object
    flights_left: int = 0
    monopoles_left: int = 0


def _launch(curve, dipole_id, s, theta, speed, t0):
    """An open flight: its FlightSeg and the landing momentum."""
    s = s % curve.perimeter
    s2, th2, length = geo.chord(curve, s, theta)
    return (FlightSeg(t0, t0 + length / speed, s, s2, theta, speed,
                      dipole_id), math.cos(th2))


def _arc_at(m, t):
    """Unwrapped arc position of the monopole m at time t."""
    return m.s0 + m.u * (t - m.t0)


def _next_meeting(m1, m2, t_now, P):
    du = m1.u - m2.u
    if abs(du) < 1e-15:
        return None
    c = _arc_at(m1, t_now) - _arc_at(m2, t_now)
    k0 = math.floor(c / P)
    best = None
    for k in (k0 - 1, k0, k0 + 1, k0 + 2):
        tau = (k * P - c) / du
        if tau > 1e-12 and (best is None or tau < best):
            best = tau
    return None if best is None else t_now + best


def multi_dipole_simulate(dipoles, domain_or_curve, T):
    """Run the zero-separation limit model: chords inside, monopole
    pairs along the boundary, silver-window fusions at meetings."""
    if not 0 <= T < math.inf:
        raise InvalidParameter("need a finite horizon T >= 0")
    curve = (domain_or_curve if hasattr(domain_or_curve, "perimeter")
             else domain_or_curve.curve())
    P = curve.perimeter
    flights = []
    monos = []
    events = []
    segments = []
    next_id = 0
    for entry in dipoles:
        s, theta = float(entry[0]), float(entry[1])
        speed = float(entry[2]) if len(entry) > 2 else 1.0
        flights.append(_launch(curve, next_id, s, theta, speed, 0.0))
        next_id += 1

    t_now = 0.0
    while True:
        t_fl = min((f.t1 for f, _ in flights), default=math.inf)
        meets = []
        for i in range(len(monos)):
            for j in range(i + 1, len(monos)):
                tm = _next_meeting(monos[i], monos[j], t_now, P)
                if tm is not None:
                    meets.append((tm, monos[i], monos[j]))
        t_meet = min((m[0] for m in meets), default=math.inf)
        t_next = min(t_fl, t_meet)
        if t_next > T:
            break
        if t_fl <= t_meet:
            f, c = flight = min(flights, key=lambda fl: fl[0].t1)
            flights.remove(flight)
            t_now = f.t1
            segments.append(f)
            y_plus, y_minus, _ = _fission_heights(c)
            up = f.speed * y_plus
            um = f.speed * y_minus
            monos.append(ArcSeg(t_now, None, f.s_to, +up, +1, f.dipole))
            monos.append(ArcSeg(t_now, None, f.s_to, -um, -1, f.dipole))
            events.append(MDEvent(t_now, "fission", f.s_to,
                                  math.acos(max(-1.0, min(1.0, c))),
                                  (up, um), (f.dipole,)))
            continue

        # process every meeting in the same instant; disjoint pairs are
        # independent, shared monopoles are co-located and caught by
        # the ambiguity scan
        t_now = t_meet
        batch = [m for m in meets if m[0] - t_meet <= 1e-12]
        for _, mi, mj in batch:
            if mi not in monos or mj not in monos:
                continue
            s_meet = _arc_at(mi, t_now) % P
            for other in monos:
                if other is mi or other is mj:
                    continue
                gap = abs(geo.wrap_to_half(_arc_at(other, t_now) % P
                                           - s_meet, P))
                if gap < 1e-9:
                    err = AmbiguousEvent(
                        "three monopoles within 1e-9 arc at t=%.6g"
                        % t_now)
                    err.t = t_now
                    err.log = events
                    raise err
            if mi.sign == mj.sign:
                events.append(MDEvent(t_now, "pass", s_meet, math.nan,
                                      (abs(mi.u), abs(mj.u)),
                                      (mi.dipole, mj.dipole)))
                continue
            plus, minus = (mi, mj) if mi.sign > 0 else (mj, mi)
            u_p, u_m = abs(plus.u), abs(minus.u)
            ratio = u_m / u_p  # height(+)/height(-)
            if not _in_silver_window(ratio):
                events.append(MDEvent(t_now, "pass", s_meet, math.nan,
                                      (u_p, u_m),
                                      (plus.dipole, minus.dipole)))
                continue
            p_new = 0.5 * (math.sqrt(ratio) - 1.0 / math.sqrt(ratio))
            theta_new = math.acos(max(-1.0, min(1.0, p_new)))
            speed_new = math.sqrt(u_p * u_m)
            segments += [replace(m, t1=t_now) for m in (plus, minus)]
            monos = [m for m in monos if m is not mi and m is not mj]
            events.append(MDEvent(t_now, "fusion", s_meet, theta_new,
                                  (u_p, u_m),
                                  (plus.dipole, minus.dipole)))
            flights.append(_launch(curve, next_id, s_meet, theta_new,
                                   speed_new, t_now))
            next_id += 1

    # chord endpoint kept; t1 = T marks the flight as truncated
    segments += [replace(f, t1=T) for f, _ in flights]
    segments += [replace(m, t1=T) for m in monos]
    return MultiDipoleResult(events=events, segments=segments, T=T,
                             curve=curve, flights_left=len(flights),
                             monopoles_left=len(monos))
