"""The four benchmark workloads: set-up, seeded job decks, output checks.

A workload is an endless stream of decks. A deck is a fixed mix of job
kinds and sizes; the seed only draws the continuous inputs (launch
points, angles, slide parameters, vortex positions) and the order. Every
deck of a workload therefore carries about the same work, which keeps
throughput and percentiles comparable between seeds and between runs
that complete different numbers of decks.

A job is one call into the public API, or one in-process
``pensive.cli.main([...])`` run. Its check runs after the timed loop and
returns None or the reason the output is wrong. Checks reuse the
acceptance-test tolerances.
"""

import csv
import math
import os
from math import gcd
from types import SimpleNamespace

import numpy as np

from spans import table_diameter

TWO_PI = 2.0 * math.pi


class Job:
    """One timed unit of work plus the check of its output."""

    __slots__ = ("kind", "run", "check", "out", "error", "latency", "ref")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check
        self.out = None
        self.error = None
        self.latency = None
        self.ref = None     # the runner's speed reference taken before it


def _context():
    """The package's modules; set-up adds the tables a workload shares.

    Jobs call through these module objects, so the traced run's patches
    are seen."""
    from pensive import (billiard, cli, delay, geometry, outer, twist,
                         variational, vortex)
    return SimpleNamespace(bil=billiard, cli=cli, delay=delay, geo=geometry,
                           outer=outer, twist=twist, var=variational,
                           vx=vortex)


def _ini(path, sections):
    with open(path, "w") as fh:
        for name, body in sections:
            fh.write("[%s]\n" % name)
            for key, val in body.items():
                fh.write("%s = %s\n" % (key, val))
            fh.write("\n")


def _read_rows(path):
    """The numeric rows of a CLI CSV table, header dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float).reshape(len(rows) - 1,
                                                   len(rows[0]))


# -- trajectory -------------------------------------------------------------


class Trajectory:
    """Generated INI experiments through ``pensive.cli.main``.

    Why: this is how users run the map. Most work sits on the scalar
    ``geometry.chord`` / ``t_of_s`` path, ``billiard.iterate``, ``delay``
    and ``svg``/``cli``; ``svg.render_trajectory_svg`` samples 24 scalar
    ``curve.point`` calls per slide arc. ``phase`` jobs reach
    ``geometry.chord_batch`` one row at a time.

    Step counts are 12-40 (a quarter of the jobs are ``phase`` runs of
    2 orbits x 40 steps), so that three decks of 38 jobs fit one run.

    Grazing launches (theta0 within 1e-6..1e-2 of 0 or pi) are the window
    where the scalar chord returns zero-length chords (ROADMAP item 1).
    They are not in the timed decks, where every job must succeed; a
    fixed set of them per run is the defect probe (``probe``), whose hit
    rate the runner reports on its own.
    """

    name = "trajectory"
    TABLES = {"disk": {"kind": "disk", "radius": "1"},
              "ellipse": {"kind": "ellipse", "a": "1.2", "b": "1"},
              "oval": {"kind": "neumann_oval", "lam": "0.3"}}
    LAWS = ("vortex", "puck", "constant", "generalized_puck")
    # simulate step counts: the disk and the ellipse run this ladder once
    # per deck (two jobs per law), so every deck carries the same number
    # of map steps
    STEP_LADDER = (12, 16, 20, 24, 28, 32, 36, 40)
    # the oval's steps cost about three times the others', so its 8
    # simulate jobs are the slowest fifth of a deck; all at the ladder's
    # mean length, they cost about the same, and the 90th percentile falls
    # inside that cluster instead of on the gap between two rungs
    OVAL_STEPS = 26
    POLYGON_STEPS = (20, 32)   # regular_polygon jobs with a constant slide
    PHASE = {"orbits": "2", "steps": "40"}
    # grazing launches per table in the probe: theta0 near pi (backward,
    # where ROADMAP item 1 finds most zero-length chords) and near 0
    PROBE_EDGES = (math.pi, math.pi, 0.0)
    PROBE_METRIC = "geometry.grazing_defect_frac"

    def setup(self):
        # the CLI builds its own tables from each INI file; these give the
        # diameters the chord check needs
        c = _context()
        geo = c.geo
        c.tables = {"disk": geo.disk(1.0), "ellipse": geo.ellipse(1.2, 1.0),
                    "oval": geo.neumann_oval(0.3)}
        c.polygons = {k: geo.regular_polygon(k) for k in (4, 5)}
        return c

    @staticmethod
    def _delay(law, rng):
        if law == "vortex":
            return {"kind": "vortex"}   # L = half the table's perimeter
        if law == "puck":
            return {"kind": "puck", "h": repr(rng.uniform(0.2, 1.0))}
        if law == "constant":
            return {"kind": "constant", "c": repr(rng.uniform(0.05, 0.5))}
        return {"kind": "generalized_puck", "profile": "bump",
                "amp": repr(rng.uniform(0.3, 0.7))}

    def deck(self, c, rng, workdir):
        specs = []
        ladder = len(self.STEP_LADDER)
        for t, table in enumerate(self.TABLES):
            for l, law in enumerate(self.LAWS):
                for j in range(ladder // len(self.LAWS)):
                    steps = self.OVAL_STEPS if table == "oval" else \
                        self.STEP_LADDER[(2 * l + j + 3 * t) % ladder]
                    specs.append(["simulate", table, law, steps, None])
                specs.append(["phase", table, law, None, None])
        for k, steps in enumerate(self.POLYGON_STEPS):
            specs.append(["simulate", "polygon%d" % (4 + k), "constant",
                          steps, None])
        return self._jobs(c, rng, workdir, specs)

    def probe(self, c, rng, workdir):
        """The grazing launches of one run: each table with each edge of
        PROBE_EDGES, laws and step counts drawn from the deck's."""
        specs = [["simulate", table,
                  self.LAWS[int(rng.integers(len(self.LAWS)))],
                  self.STEP_LADDER[int(rng.integers(len(self.STEP_LADDER)))],
                  edge]
                 for table in self.TABLES for edge in self.PROBE_EDGES]
        return self._jobs(c, rng, workdir, specs)

    def _jobs(self, c, rng, workdir, specs):
        jobs = []
        for i in rng.permutation(len(specs)):
            cmd, table, law, steps, edge = specs[i]
            outdir = os.path.join(workdir, "j%03d" % i)
            os.makedirs(outdir)
            ini = os.path.join(outdir, "job.ini")
            if table.startswith("polygon"):
                curve = {"kind": "regular_polygon", "sides": table[7:]}
                diam = table_diameter(c.polygons[int(table[7:])])
            else:
                curve = self.TABLES[table]
                diam = table_diameter(c.tables[table])
            run = {"command": cmd, "seed": str(int(rng.integers(2 ** 31))),
                   "outdir": outdir}
            if cmd == "simulate":
                if edge is not None:
                    gap = math.exp(rng.uniform(math.log(1e-6), math.log(1e-2)))
                    theta0 = edge + gap if edge == 0.0 else edge - gap
                else:
                    theta0 = rng.uniform(0.2, math.pi - 0.2)
                body = {"s0": repr(rng.uniform(0.0, 10.0)),
                        "theta0": repr(theta0), "steps": str(steps)}
                check = _SimulateCheck(outdir, steps, table == "disk", diam)
            else:
                body = dict(self.PHASE)
                check = _PhaseCheck(outdir, int(body["orbits"]),
                                    int(body["steps"]), table == "disk")
            _ini(ini, [("run", run), ("curve", curve),
                       ("delay", self._delay(law, rng)), (cmd, body)])
            argv = [cmd, ini]
            jobs.append(Job("%s/%s/%s" % (cmd, table, law),
                            lambda argv=argv: c.cli.main(argv), check))
        return jobs


class _SimulateCheck:
    """Row count, positive chord lengths, constant theta on the disk."""

    def __init__(self, outdir, steps, disk, diam):
        self.outdir, self.steps, self.disk, self.diam = (outdir, steps,
                                                         disk, diam)

    def __call__(self, rc):
        if rc != 0:
            return "exit code %d" % rc
        a = _read_rows(os.path.join(self.outdir, "trajectory.csv"))
        if len(a) != self.steps + 1:
            return "%d rows for %d steps" % (len(a), self.steps)
        # chord k runs from reflect point k-1 (row 0: the start) to impact k;
        # 1e-10 of the diameter is above the 12-digit CSV resolution
        length = np.hypot(*(a[1:, 4:6] - a[:-1, 6:8]).T)
        if length.min() <= 1e-10 * self.diam:
            k = int(np.argmin(length))
            return "zero-length chord at step %d (%.3g)" % (k + 1, length[k])
        if self.disk and np.max(np.abs(a[:, 2] - a[0, 2])) > 1e-9:
            return "theta drifts on the disk"
        if os.path.getsize(os.path.join(self.outdir, "trajectory.svg")) == 0:
            return "empty trajectory.svg"
        return None


class _PhaseCheck:
    def __init__(self, outdir, orbits, steps, disk):
        self.outdir, self.orbits, self.steps, self.disk = (outdir, orbits,
                                                           steps, disk)

    def __call__(self, rc):
        if rc != 0:
            return "exit code %d" % rc
        a = _read_rows(os.path.join(self.outdir, "phase.csv"))
        if len(a) != self.orbits * (self.steps + 1):
            return "%d rows for %d x %d" % (len(a), self.orbits, self.steps)
        if self.disk:
            th = a[:, 3].reshape(self.orbits, self.steps + 1)
            if np.max(np.abs(th - th[:, :1])) > 1e-9:
                return "theta drifts on the disk"
        if os.path.getsize(os.path.join(self.outdir, "phase.svg")) == 0:
            return "empty phase.svg"
        return None


# -- orbits -----------------------------------------------------------------


def census_pairs():
    """Coprime (p, q), q <= 8, inside the rotation window of vortex(pi)."""
    lo = 0.5 * (1.0 - 1.0 / math.sqrt(2.0))
    hi = 1.0 + 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
    return [(p, q) for q in range(2, 9) for p in range(1, 2 * q)
            if gcd(p, q) == 1 and lo < p / q < hi]


class Orbits:
    """Library calls into ``variational``, ``twist`` and ``billiard``.

    Why: ``variational`` and ``twist`` do all their work here.
    ``geometry.chord_batch`` runs on batches of about 270 rows inside
    ``p_star`` (against one row in ``trajectory``), so a chord change that
    helps one batch shape and hurts the other shows up. ROADMAP items 1
    and 3 act here.
    """

    name = "orbits"
    GF_JOBS = 20
    DSDT_PER_COMBO = 2
    JAC_PER_COMBO = 2

    def setup(self):
        c = _context()
        geo, delay = c.geo, c.delay
        c.disk = geo.disk(1.0)
        c.ellipse = geo.ellipse(1.2, 1.0)
        c.oval = geo.neumann_oval(0.3)
        c.census = census_pairs()
        c.vpi = delay.vortex(math.pi)
        # puck heights above h* certify Left on the ellipse
        base = c.twist.twist_certificate(c.ellipse, delay.zero())
        c.h_star = 2.0 * base.R / (2.0 * base.r / base.R - 1.0)
        return c

    def deck(self, c, rng, workdir):
        var, delay, twist, bil = c.var, c.delay, c.twist, c.bil
        disk, ell, oval = c.disk, c.ellipse, c.oval
        jobs = []
        for p, q in c.census:
            # the disk is rotation invariant: a random base arc keeps the
            # default seeding up to rounding
            seeds = rng.uniform(0.0, TWO_PI / q) + np.linspace(
                0.0, TWO_PI / q, 4, endpoint=False)
            jobs.append(Job(
                "search/disk/vortex(pi)",
                lambda p=p, q=q, seeds=seeds: var.periodic_orbit_search(
                    disk, c.vpi, (p, q), seeds=seeds),
                _OrbitCheck(c, disk, c.vpi, (p, q), census=True)))
        for curve, law, rot in ((ell, delay.zero(), (1, 2)),
                                (ell, delay.zero(), (1, 4)),
                                (ell, delay.vortex(0.5), (1, 2)),
                                (ell, delay.vortex(0.5), (1, 3)),
                                (oval, delay.vortex(0.5), (1, 2))):
            jobs.append(Job(
                "search/%s/%s" % (curve.kind, law.tag),
                lambda curve=curve, law=law, rot=rot:
                    var.periodic_orbit_search(curve, law, rot),
                _OrbitCheck(c, curve, law, rot)))
        gf_cases = ((disk, delay.vortex(1.0)), (ell, delay.vortex(0.5)))
        for j in range(self.GF_JOBS):
            curve, law = gf_cases[j % 2]
            P = curve.perimeter
            s = rng.uniform(0.0, P)
            S = (s + rng.uniform(0.25 * P, 0.75 * P)) % P
            jobs.append(Job(
                "gf/%s" % curve.kind,
                lambda curve=curve, law=law, s=s, S=S:
                    var.generating_function(curve, law, s, S),
                _GFCheck(c, curve, law, S)))
        theta = np.linspace(0.1, math.pi - 0.1, 2048)
        for curve in (ell, oval):
            for law in (delay.puck(0.7), delay.vortex(0.5)):
                for _ in range(self.DSDT_PER_COMBO):
                    s = np.full(theta.shape, rng.uniform(0.0, curve.perimeter))
                    probe = rng.choice(len(theta), 3, replace=False)
                    jobs.append(Job(
                        "dS_dtheta/%s/%s" % (curve.kind, law.tag),
                        lambda curve=curve, law=law, s=s:
                            twist.pensive_dS_dtheta(curve, law, s, theta),
                        _DSCheck(c, curve, law, s[0], theta[probe], probe)))
        h_star = c.h_star
        hs = np.sort(rng.uniform(0.5, 1.5, 11)) * h_star
        jobs.append(Job(
            "certificate/puck",
            lambda: [twist.twist_certificate(ell, delay.puck(float(h)))
                     for h in hs],
            lambda certs: None if all((ct.verdict == "Left") == (h > h_star)
                                      for ct, h in zip(certs, hs))
            else "puck verdict on the wrong side of h*"))
        Ls = rng.uniform(0.3, 3.0, 6)
        jobs.append(Job(
            "certificate/vortex",
            lambda: [twist.twist_certificate(t, delay.vortex(float(L)))
                     for t in (disk, ell) for L in Ls],
            lambda certs: None if all(ct.verdict == "Right" for ct in certs)
            else "vortex slide not certified Right"))
        for curve, law in ((disk, c.vpi), (ell, delay.vortex(0.8)),
                           (oval, delay.puck(1.0)), (ell, delay.constant(0.3))):
            for _ in range(self.JAC_PER_COMBO):
                s = rng.uniform(0.0, curve.perimeter, 200)
                p = np.cos(rng.uniform(0.25, math.pi - 0.25, 200))
                jobs.append(Job(
                    "jacobian/%s/%s" % (curve.kind, law.tag),
                    lambda curve=curve, law=law, s=s, p=p:
                        bil.measure_jacobian_det(curve, law, s, p),
                    lambda det: None if np.max(np.abs(det - 1.0)) < 1e-5
                    else "Jacobian determinant off by %.3g"
                    % np.max(np.abs(det - 1.0))))
        return [jobs[i] for i in rng.permutation(len(jobs))]


class _OrbitCheck:
    """q map steps close the orbit; disk angles match the rotation root."""

    def __init__(self, c, curve, law, rot, census=False):
        self.c, self.curve, self.law, self.rot = c, curve, law, rot
        self.census = census

    def __call__(self, orbit):
        bil, geo = self.c.bil, self.c.geo
        p, q = self.rot
        P = self.curve.perimeter
        x = bil.PhasePoint(float(orbit.s[0]), float(orbit.theta[0]))
        for _ in range(q):
            x = bil.pensive_step(self.curve, self.law, x)
        if abs(geo.wrap_to_half(x.s - orbit.s[0], P)) >= 1e-7 or \
                abs(x.theta - orbit.theta[0]) >= 1e-7:
            return "orbit does not close after %d steps" % q
        if self.census:
            from scipy.optimize import brentq
            root = brentq(lambda t: 2.0 * t + float(self.law.ell_theta(t))
                          - TWO_PI * p / q, 1e-9, math.pi - 1e-9, xtol=1e-14)
            if np.max(np.abs(orbit.theta - root)) >= 1e-8:
                return "angle misses the rotation root"
        return None


class _GFCheck:
    """The returned momentum solves the transit equation."""

    def __init__(self, c, curve, law, S):
        self.c, self.curve, self.law, self.S = c, curve, law, S

    def __call__(self, gf):
        geo = self.c.geo
        P = self.curve.perimeter
        S_cl, Th, _ = geo.chord(self.curve, gf.s % P, math.acos(gf.p_star))
        adv = S_cl + float(self.law.ell(math.cos(Th)))
        if abs(geo.wrap_to_half(adv - self.S, P)) > 1e-9:
            return "transit residual %.3g" % geo.wrap_to_half(adv - self.S, P)
        if abs(gf.dH_dS - math.cos(Th)) > 1e-9:
            return "dH/dS is not the landing momentum"
        return None


class _DSCheck:
    """The batched sweep agrees with the scalar path at sampled angles."""

    def __init__(self, c, curve, law, s, theta, idx):
        self.c, self.curve, self.law = c, curve, law
        self.s, self.theta, self.idx = s, theta, idx

    def __call__(self, vals):
        if not np.all(np.isfinite(vals)):
            return "non-finite dS/dtheta"
        for th, i in zip(self.theta, self.idx):
            ref = self.c.twist.pensive_dS_dtheta(self.curve, self.law,
                                                 float(self.s), float(th))
            if abs(vals[i] - ref) > 1e-6 * max(1.0, abs(ref)):
                return "batch and scalar dS/dtheta disagree at %.4f" % th
        return None


# -- vortex -----------------------------------------------------------------


class Vortex:
    """Library calls into ``vortex``.

    Why: the vortex kernels and ``scipy.integrate.solve_ivp`` do almost all
    the work and the map layers almost none, so this is the no-change
    control for map optimisations and the target of ROADMAP item 4.
    """

    name = "vortex"
    HORIZON = {2: 2.0, 4: 1.0, 8: 1.0}     # integrate T per vortex count
    INTEGRATE_PER_COMBO = 3
    # The integrator's step count (the cost) depends strongly on where the
    # vortices sit. Each (domain, n) slot therefore has one fixed base
    # configuration, 0.15 from the wall and 0.4 apart with circulations
    # near +-1, and the seed draws its image under a symmetry of the
    # domain: same cost, different inputs.
    WALL_GAP, PAIR_GAP = 0.15, 0.4
    BASE_SEED = 20240824

    def setup(self):
        c = _context()
        vx = c.vx
        c.domains = [vx.HalfPlane(), vx.DiskDomain(1.0),
                     vx.NeumannOvalDomain(0.3)]
        c.curves = {"disk": c.geo.disk(1.0),
                    "neumann_oval": c.geo.neumann_oval(0.3)}
        return c

    def _base(self, dom, n, rng):
        z = []
        while len(z) < n:
            w = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if dom.name == "half_plane":
                w = complex(w.real, 0.5 * (w.imag + 1.0) + 0.1)
            if not dom.inside(w) or \
                    dom.boundary_distance(w) < self.WALL_GAP or \
                    any(abs(w - u) < self.PAIR_GAP for u in z):
                continue
            z.append(w)
        g = rng.choice([-1.0, 1.0], n) * rng.uniform(0.8, 1.2, n)
        return np.array(z), g

    @staticmethod
    def _image(dom, z, g, rng):
        """Half-plane: a shift along the wall. Disk: a rotation. Oval:
        z -> -z and/or the mirror z -> conj(z) with reversed circulation."""
        if dom.name == "half_plane":
            return z + rng.uniform(-5.0, 5.0), g
        if dom.name == "disk":
            return z * np.exp(1j * rng.uniform(0.0, TWO_PI)), g
        if rng.random() < 0.5:
            z = -z
        if rng.random() < 0.5:
            z, g = np.conj(z), -g
        return z, g

    def deck(self, c, rng, workdir):
        vx = c.vx
        base = np.random.default_rng(self.BASE_SEED)
        jobs = []
        for dom in c.domains:
            for n, T in self.HORIZON.items():
                for _ in range(self.INTEGRATE_PER_COMBO):
                    z, g = self._image(dom, *self._base(dom, n, base), rng)
                    conf = vx.VortexConfiguration(z, g, dom)
                    jobs.append(Job(
                        "integrate/%s/n=%d" % (dom.name, n),
                        lambda conf=conf, T=T: vx.integrate(conf, T,
                                                            n_eval=100),
                        lambda tr: None if tr.drift <= 1e-8
                        else "Hamiltonian drift %.3g" % tr.drift))
        for dom in c.domains[1:]:
            s0 = rng.uniform(0.0, dom.curve().perimeter)
            theta0 = math.pi / 3    # as in the tests; the disk's cost is then fixed
            coarse = Job("limit/%s/eps=0.02" % dom.name,
                         lambda dom=dom, s0=s0, theta0=theta0:
                             vx.dipole_billiard_limit_check(dom, s0, theta0,
                                                            0.02),
                         lambda rep: None)
            jobs.append(coarse)
            jobs.append(Job("limit/%s/eps=0.01" % dom.name,
                            lambda dom=dom, s0=s0, theta0=theta0:
                                vx.dipole_billiard_limit_check(dom, s0,
                                                               theta0, 0.01),
                            _LimitCheck(coarse)))
        for kind, curve in c.curves.items():
            for k in range(2, 7):
                dipoles = [(rng.uniform(0.0, curve.perimeter),
                            rng.uniform(0.3, math.pi - 0.3),
                            rng.uniform(0.5, 1.5)) for _ in range(k)]
                jobs.append(Job(
                    "multidipole/%s/k=%d" % (kind, k),
                    lambda dipoles=dipoles, curve=curve:
                        vx.multi_dipole_simulate(dipoles, curve, 10.0),
                    _fission_check))
        return [jobs[i] for i in rng.permutation(len(jobs))]


class _LimitCheck:
    """The deltas shrink from eps = 0.02 to eps = 0.01.

    The angle error changes sign as the launch point moves, so where it
    is already below 1e-4 at eps = 0.02 it need not shrink further.
    """

    def __init__(self, coarse):
        self.coarse = coarse

    def __call__(self, rep):
        prev = self.coarse.out
        if prev is None:
            return "eps = 0.02 partner failed"
        if not rep.delta_s < prev.delta_s:
            return "delta_s does not shrink with eps"
        if not (rep.delta_theta < prev.delta_theta or
                max(rep.delta_theta, prev.delta_theta) < 1e-4):
            return "delta_theta does not shrink with eps"
        return None


def _fission_check(res):
    """Each fission's speeds are v (sqrt(1 + c^2) -/+ c), within 1e-12."""
    flights = {(seg.dipole, seg.t1): seg.speed for seg in res.segments
               if hasattr(seg, "speed")}
    for ev in res.events:
        if ev.kind != "fission":
            continue
        v = flights[(ev.origins[0], ev.t)]
        c = math.cos(ev.theta)
        m = math.sqrt(1.0 + c * c)
        if abs(ev.speeds[0] - v * (m - c)) > 1e-12 or \
                abs(ev.speeds[1] - v * (m + c)) > 1e-12:
            return "fission speeds at t=%.4g off" % ev.t
    return None


# -- outer ------------------------------------------------------------------


class Outer:
    """Library calls into ``outer``.

    Why: this is the only workload that uses ``outer``, and the ROADMAP
    names ``SphericalCurve.dual()`` as the slowest path; without it that
    layer goes unmeasured.
    """

    name = "outer"
    PSI = (0.55, 0.8, 0.9)
    ANGLES = (0.6, 1.3, 2.0)     # launch angles of the duality samples
    # The duality check fails (errors near 1e-3, or NotExterior) when the
    # launch point s or the slid point s + ell(theta) lies within about
    # 1e-3 of arclength of the cap's seam s = 0. Timed samples keep both
    # SEAM_GAP away from it; the probe puts them on it.
    SEAM_GAP = 0.01
    PROBE_METRIC = "outer.seam_defect_frac"
    PLANAR_REPS = 3
    ORBIT_STEPS = 20

    def setup(self):
        c = _context()
        # each table with the radii its start points are drawn from
        c.planar = {"ellipse": (c.geo.ellipse(2.0, 1.0), (2.6, 4.5)),
                    "oval": (c.geo.neumann_oval(0.3), (1.5, 3.0))}
        c.caps = [c.outer.spherical_cap(psi) for psi in self.PSI]
        return c

    def deck(self, c, rng, workdir):
        outer, delay = c.outer, c.delay
        jobs = []
        # A duality job checks one cap under all three laws, one sample
        # each; the angles rotate over the laws from cap to cap (a Latin
        # square). The laws' costs differ by more than 2x, so one law per
        # job would split the slowest tenth of jobs into clusters with the
        # 90th percentile between two of them; this way duality jobs cost
        # about the same, and so does every deck.
        shift = int(rng.integers(3))
        for i, cap in enumerate(c.caps):
            laws = (delay.zero(), delay.constant(0.35),
                    delay.vortex(0.5 * cap.length))
            # the cap is rotation invariant: random arcs, fixed angles keep
            # the cost of a sample fixed
            samples = []
            for k, law in enumerate(laws):
                th = self.ANGLES[(i + k + shift) % 3]
                samples.append([(self._off_seam(cap, law, th, rng), th)])
            jobs.append(Job(
                "duality/psi=%g" % self.PSI[i],
                lambda cap=cap, laws=laws, samples=samples:
                    [outer.sphere_duality_check(cap, law, smp)
                     for law, smp in zip(laws, samples)],
                lambda reps: None if max(r["max_error"] for r in reps) < 1e-6
                else "duality error %.3g" % max(r["max_error"]
                                                for r in reps)))
        # A planar job's cost grows with the start radius and the delay, and
        # the median job sits among the planar jobs; so radii and angle
        # delays are stratified (rep k takes the k-th of PLANAR_REPS equal
        # slices of their range, area points an even spread of radii) and
        # the seed draws the polar angles and the jitter within a slice.
        reps = self.PLANAR_REPS
        for k in range(reps):
            for name, (curve, (r_lo, r_hi)) in c.planar.items():
                value = 0.1 + 0.4 * (k + rng.random()) / reps
                for od in (outer.OuterDelay.from_area(lambda r: r ** 3,
                                                      label="r^3"),
                           outer.OuterDelay.from_angle(
                               lambda r, v=value: v, label="angle")):
                    ang = rng.uniform(0.0, TWO_PI)
                    rad = r_lo + (r_hi - r_lo) * (k + rng.random()) / reps
                    x0 = np.array([rad * math.cos(ang), rad * math.sin(ang)])
                    jobs.append(Job(
                        "orbit/%s/%s" % (name, od.label),
                        lambda curve=curve, od=od, x0=x0:
                            _outer_orbit(outer, curve, od, x0,
                                         self.ORBIT_STEPS),
                        _OuterOrbitCheck(c, curve)))
                    ang = rng.uniform(0.0, TWO_PI, 10)
                    rad = r_lo + (r_hi - r_lo) * (np.arange(10)
                                                  + rng.random(10)) / 10
                    pts = np.c_[rad * np.cos(ang), rad * np.sin(ang)]
                    jobs.append(Job(
                        "area/%s/%s" % (name, od.label),
                        lambda curve=curve, od=od, pts=pts:
                            outer.area_preservation_check(curve, od, pts),
                        lambda worst: None if worst < 1e-5
                        else "area defect %.3g" % worst))
        return [jobs[i] for i in rng.permutation(len(jobs))]


    def _off_seam(self, cap, law, theta, rng):
        """A uniform launch point whose slid point is also off the seam."""
        L, ell = cap.length, float(law.ell_theta(theta))
        while True:
            s = rng.uniform(0.0, L)
            if min(s % L, -s % L, (s + ell) % L, -(s + ell) % L) \
                    >= self.SEAM_GAP:
                return s

    def probe(self, c, rng, workdir):
        """The seam probe of one run: per cap, one duality check with the
        constant slide whose samples launch on the seam, just before it,
        and slide onto it, at angles drawn from ANGLES."""
        jobs = []
        for psi, cap in zip(self.PSI, c.caps):
            law = c.delay.constant(0.35)
            th = self.ANGLES[int(rng.integers(3))]
            ell = float(law.ell_theta(th))
            gap = rng.uniform(1e-5, 1e-4)
            samples = [(0.0, th), (cap.length - gap, th),
                       ((cap.length - ell - gap) % cap.length, th)]
            jobs.append(Job(
                "seam/psi=%g" % psi,
                lambda cap=cap, law=law, samples=samples:
                    c.outer.sphere_duality_check(cap, law, samples),
                lambda rep: None if rep["max_error"] < 1e-6
                else "duality error %.3g" % rep["max_error"]))
        return jobs


def _outer_orbit(outer, curve, od, x0, steps):
    xs = [x0]
    for _ in range(steps):
        xs.append(outer.pensive_outer_step(curve, od, xs[-1]))
    return xs


class _OuterOrbitCheck:
    """The last step keeps r: X = g(t) + r T(t) maps to g(t') - r T(t')."""

    def __init__(self, c, curve):
        self.c, self.curve = c, curve

    def __call__(self, xs):
        outer = self.c.outer
        r_in = outer.tangent_coordinates(self.curve, xs[-2]).r
        r_out = outer.tangent_coordinates(self.curve, xs[-1], side="left").r
        if abs(r_in - r_out) > 1e-9 * max(1.0, r_in):
            return "outer step changed r by %.3g" % (r_out - r_in)
        return None


WORKLOADS = {w.name: w for w in (Trajectory(), Orbits(), Vortex(), Outer())}
