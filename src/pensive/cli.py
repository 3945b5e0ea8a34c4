"""Configuration-driven experiment runner.

Experiments are described by INI files with a [run] section plus
[curve]/[delay] sections and one section of parameters per command.
Outputs are deterministic CSV tables (fixed headers) and SVG figures.

Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

import argparse
import configparser
import csv
import functools
import math
import os
import sys

import numpy as np

from . import billiard as bil
from . import delay as delay_mod
from . import geometry as geo
from . import outer as outer_mod
from . import svg as svg_mod
from . import twist as twist_mod
from . import variational as var_mod
from . import vortex as vx
from .errors import (ConfigError, HypothesisFailed, InvalidParameter,
                     PensiveError, finite_float, whole_count)

COMMANDS = ("simulate", "phase", "orbit", "twist", "vortex",
            "multidipole", "outer")

_CURVE_KEYS = {"kind", "radius", "a", "b", "lam", "path", "vertices",
               "sides", "circumradius"}
_DELAY_KEYS = {"kind", "c", "slope", "h", "l", "profile", "amp", "path"}
_SCHEMA = {
    "run": {"command", "seed", "outdir"},
    "curve": _CURVE_KEYS,
    "delay": _DELAY_KEYS,
    "simulate": {"s0", "theta0", "steps", "caustic"},
    "phase": {"orbits", "steps"},
    "orbit": {"p", "q"},
    "twist": {"h_min", "h_max", "count"},
    "vortex": {"mode", "positions", "gammas", "t_final", "n_eval",
               "s0", "theta0", "eps_list"},
    "multidipole": {"dipoles", "t_final"},
    "outer": {"mode", "x0", "y0", "steps", "akind", "coeff", "exponent",
              "value", "psi", "n_samples"},
}


class ExperimentConfig:
    """Validated experiment description."""

    def __init__(self, command, seed, outdir, sections):
        self.command = command
        self.seed = seed
        self.outdir = outdir
        self.sections = sections

    def section(self, name):
        return self.sections.get(name, {})

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)


def parse_config(path, command=None, outdir=None, seed=None):
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError("cannot read config file %r" % path)
    sections = {name: dict(parser.items(name))
                for name in parser.sections()}

    run = sections.get("run", {})
    cfg_command = run.get("command")
    if command is None:
        command = cfg_command
    elif cfg_command is not None and cfg_command != command:
        raise ConfigError("key 'command': config says %r but the "
                          "subcommand is %r" % (cfg_command, command))
    if command not in COMMANDS:
        raise ConfigError("key 'command': unknown command %r" % command)

    allowed_sections = {"run", "curve", "delay", command}
    for name, body in sections.items():
        if name not in allowed_sections:
            raise ConfigError("section %r is not used by command %r"
                              % (name, command))
        schema = _SCHEMA[name]
        for key in body:
            if key not in schema:
                raise ConfigError("key %r is not valid in section [%s]"
                                  % (key, name))

    if seed is None:
        seed = _parse_int(run.get("seed", "0"), "seed")
    if seed < 0:
        raise ConfigError("key 'seed': expected a non-negative integer, "
                          "got %r" % seed)
    if outdir is None:
        outdir = run.get("outdir", ".")
    outdir = os.environ.get("PENSIVE_OUTDIR", outdir)
    return ExperimentConfig(command, seed, outdir, sections)


def _parse_int(text, key):
    try:
        return int(str(text))
    except ValueError:
        raise ConfigError("key %r: expected an integer, got %r"
                          % (key, text))


def _parse_count(text, key):
    """A whole count from 1 to errors.MAX_COUNT."""
    try:
        return whole_count(_parse_int(text, key), key, least=1)
    except InvalidParameter as err:
        raise ConfigError("key %r: %s" % (key, err))


def _parse_float(text, key):
    try:
        return finite_float(str(text), key)
    except InvalidParameter:
        raise ConfigError("key %r: expected a finite number, got %r"
                          % (key, text))


def _need(cfg, section, key):
    val = cfg.get(section, key)
    if val is None:
        raise ConfigError("key %r is required in section [%s]"
                          % (key, section))
    return val


def _build_curve(cfg):
    body = cfg.section("curve")
    if not body:
        raise ConfigError("section [curve] is required")
    try:
        return geo.curve_from_config(body)
    except PensiveError as err:
        raise ConfigError("section [curve]: %s" % err)
    except (KeyError, ValueError) as err:
        raise ConfigError("section [curve]: bad value (%s)" % err)


def _build_delay(cfg, curve=None):
    body = cfg.section("delay")
    try:
        return delay_mod.delay_from_config(body, curve=curve)
    except PensiveError as err:
        raise ConfigError("section [delay]: %s" % err)
    except (KeyError, ValueError) as err:
        raise ConfigError("section [delay]: bad value (%s)" % err)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v):
    if isinstance(v, float):
        return "%.12g" % v
    return v


def _out(cfg, name):
    os.makedirs(cfg.outdir, exist_ok=True)
    return os.path.join(cfg.outdir, name)


# -- commands ---------------------------------------------------------------


def _cmd_simulate(cfg):
    curve = _build_curve(cfg)
    law = _build_delay(cfg, curve)
    s0 = _parse_float(cfg.get("simulate", "s0", "0"), "s0")
    theta0 = _parse_float(cfg.get("simulate", "theta0",
                                  repr(math.pi / 3)), "theta0")
    steps = _parse_count(cfg.get("simulate", "steps", "200"), "steps")
    try:
        x0 = bil.PhasePoint(s0, theta0)
    except PensiveError as err:
        raise ConfigError("key 'theta0': %s" % err)
    traj = bil.iterate(curve, law, x0, steps)

    start = bil.point_xy(curve, traj.points[0].s)
    rows = [[0, traj.points[0].s, traj.points[0].theta, traj.points[0].p,
             start[0], start[1], start[0], start[1]]]
    for k in range(1, len(traj.points)):
        x = traj.points[k]
        imp = traj.impacts[k - 1]
        ref = traj.reflects[k - 1]
        rows.append([k, x.s, x.theta, x.p, imp[0], imp[1], ref[0], ref[1]])
    _write_csv(_out(cfg, "trajectory.csv"),
               ["step", "s", "theta", "p", "impact_x", "impact_y",
                "reflect_x", "reflect_y"], rows)

    caustic = None
    if str(cfg.get("simulate", "caustic", "false")).lower() == "true":
        # polygons, like ovals without a radius, get no caustic
        radius = getattr(curve, "params", {}).get("radius")
        if radius is not None:
            rc = bil.caustic_radius(float(radius), theta0)
            caustic = (rc, "caustic r = %.4f" % rc)
    doc = svg_mod.render_trajectory_svg(traj, caustic=caustic)
    with open(_out(cfg, "trajectory.svg"), "w") as fh:
        fh.write(doc)
    return 0


def _cmd_phase(cfg):
    curve = _build_curve(cfg)
    law = _build_delay(cfg, curve)
    orbits = _parse_count(cfg.get("phase", "orbits", "8"), "orbits")
    steps = _parse_count(cfg.get("phase", "steps", "300"), "steps")
    rng = np.random.default_rng(cfg.seed)
    P = curve.perimeter
    # starts drawn orbit by orbit (s, then theta); then all orbits advance
    # together, one batched step at a time
    start = np.array([(rng.uniform(0.0, P), rng.uniform(0.2, math.pi - 0.2))
                      for _ in range(orbits)]).reshape(-1, 2)
    ss, ths = [start[:, 0]], [start[:, 1]]
    for _ in range(steps):
        s_arr, th_arr = bil.pensive_batch(curve, law, ss[-1], ths[-1])
        ss.append(s_arr)
        ths.append(th_arr)
    groups = [(k, sk, tk) for k, (sk, tk)
              in enumerate(zip(np.array(ss).T, np.array(ths).T))]
    rows = [[k, j, sv, tv] for k, sk, tk in groups
            for j, (sv, tv) in enumerate(zip(sk.tolist(), tk.tolist()))]
    _write_csv(_out(cfg, "phase.csv"),
               ["orbit", "step", "s", "theta"], rows)
    doc = svg_mod.render_phase_svg(groups, P)
    with open(_out(cfg, "phase.svg"), "w") as fh:
        fh.write(doc)
    return 0


def _cmd_orbit(cfg):
    curve = _build_curve(cfg)
    law = _build_delay(cfg, curve)
    p = _parse_int(_need(cfg, "orbit", "p"), "p")
    q = _parse_int(_need(cfg, "orbit", "q"), "q")
    try:
        var_mod._check_rotation((p, q))
    except InvalidParameter as err:
        raise ConfigError("section [orbit]: %s" % err)
    orb = var_mod.periodic_orbit_search(curve, law, (p, q))
    rows = []
    for i, (sv, tv) in enumerate(zip(orb.s, orb.theta)):
        rows.append([i, sv, tv, "%d/%d" % (p, q), orb.action, orb.residual,
                     orb.residue])
    _write_csv(_out(cfg, "orbit.csv"),
               ["i", "s", "theta", "type", "action", "residual", "residue"],
               rows)
    return 0


def _cmd_twist(cfg):
    curve = _build_curve(cfg)
    body = cfg.section("twist")
    rows = []
    if "h_min" in body or "h_max" in body or "count" in body:
        h_min = _parse_float(_need(cfg, "twist", "h_min"), "h_min")
        h_max = _parse_float(_need(cfg, "twist", "h_max"), "h_max")
        count = _parse_count(cfg.get("twist", "count", "11"), "count")
        values = np.linspace(h_min, h_max, count)
        laws = [("%.12g" % h, delay_mod.puck(float(h))) for h in values]
    else:
        laws = [("", _build_delay(cfg, curve))]
    for label, law in laws:
        try:
            cert = twist_mod.twist_certificate(curve, law)
            rows.append([label, cert.verdict, cert.inf_slope,
                         cert.sup_slope, cert.right_bound,
                         cert.left_bound])
        except HypothesisFailed as err:
            rows.append([label, "HypothesisFailed", math.nan, math.nan,
                         math.nan, math.nan])
    _write_csv(_out(cfg, "twist.csv"),
               ["param", "verdict", "inf_slope", "sup_slope",
                "right_bound", "left_bound"], rows)
    return 0


def _vortex_domain(cfg):
    body = cfg.section("curve")
    kind = str(body.get("kind", "")).strip().lower()
    if kind == "halfplane":
        return vx.HalfPlane()
    if kind == "disk":
        return vx.DiskDomain(_parse_float(body.get("radius", 1.0), "radius"))
    if kind == "neumann_oval":
        return vx.NeumannOvalDomain(_parse_float(_need(cfg, "curve", "lam"),
                                                 "lam"))
    raise ConfigError("key 'kind': vortex domains are halfplane, disk, "
                      "or neumann_oval, got %r" % kind)


def _parse_pairs(text, key):
    rows = [r for r in str(text).split(";") if r.strip()]
    out = []
    for r in rows:
        parts = [x.strip() for x in r.split(",")]
        if len(parts) != 2:
            raise ConfigError("key %r: expected 'x,y' pairs separated "
                              "by ';'" % key)
        out.append(complex(_parse_float(parts[0], key),
                           _parse_float(parts[1], key)))
    return out


def _cmd_vortex(cfg):
    mode = str(cfg.get("vortex", "mode", "run")).lower()
    domain = _vortex_domain(cfg)
    if mode == "limit":
        s0 = _parse_float(cfg.get("vortex", "s0", "0.3"), "s0")
        theta0 = _parse_float(cfg.get("vortex", "theta0",
                                      repr(math.pi / 3)), "theta0")
        eps_text = cfg.get("vortex", "eps_list", "0.02,0.01,0.005")
        eps_vals = [_parse_float(x, "eps_list")
                    for x in str(eps_text).split(",") if x.strip()]
        rows = []
        for eps in eps_vals:
            rep = vx.dipole_billiard_limit_check(domain, s0, theta0, eps)
            rows.append([rep.eps, rep.s_model, rep.theta_model, rep.s_ode,
                         rep.theta_ode, rep.delta_s, rep.delta_theta])
        _write_csv(_out(cfg, "limit.csv"),
                   ["eps", "s_model", "theta_model", "s_ode", "theta_ode",
                    "delta_s", "delta_theta"], rows)
        return 0
    if mode != "run":
        raise ConfigError("key 'mode': vortex modes are run or limit, "
                          "got %r" % mode)
    z0 = _parse_pairs(_need(cfg, "vortex", "positions"), "positions")
    gam_text = _need(cfg, "vortex", "gammas")
    gammas = [_parse_float(x, "gammas")
              for x in str(gam_text).split(",") if x.strip()]
    if len(gammas) != len(z0):
        raise ConfigError("key 'gammas': expected %d values, got %d"
                          % (len(z0), len(gammas)))
    t_final = _parse_float(cfg.get("vortex", "t_final", "1.0"), "t_final")
    n_eval = _parse_count(cfg.get("vortex", "n_eval", "400"), "n_eval")
    try:
        conf = vx.VortexConfiguration(np.array(z0, dtype=complex),
                                      np.array(gammas, dtype=float), domain)
    except PensiveError as err:
        raise ConfigError("section [vortex]: %s" % err)
    traj = vx.integrate(conf, t_final, n_eval=n_eval)
    header = ["t"]
    for i in range(len(z0)):
        header += ["x_%d" % i, "y_%d" % i]
    rows = []
    for j, t in enumerate(traj.t):
        row = [float(t)]
        for i in range(len(z0)):
            row += [float(traj.z[j, i].real), float(traj.z[j, i].imag)]
        rows.append(row)
    _write_csv(_out(cfg, "vortex.csv"), header, rows)
    paths = [np.c_[traj.z[:, i].real, traj.z[:, i].imag]
             for i in range(len(z0))]
    boundary = None
    try:
        boundary = domain.curve()
    except PensiveError:
        pass
    dashed = [(i // 2) % 2 == 1 for i in range(len(paths))]
    doc = svg_mod.render_vortex_svg(paths, boundary=boundary, dashed=dashed)
    with open(_out(cfg, "vortex.svg"), "w") as fh:
        fh.write(doc)
    return 0


def _cmd_multidipole(cfg):
    curve = _build_curve(cfg)
    text = _need(cfg, "multidipole", "dipoles")
    dipoles = []
    for r in str(text).split(";"):
        if not r.strip():
            continue
        parts = [x.strip() for x in r.split(",")]
        if len(parts) != 3:
            raise ConfigError("key 'dipoles': entries are "
                              "'s,theta,speed' separated by ';'")
        dipoles.append(tuple(_parse_float(x, "dipoles") for x in parts))
    t_final = _parse_float(cfg.get("multidipole", "t_final", "10"),
                           "t_final")
    res = vx.multi_dipole_simulate(dipoles, curve, t_final)
    rows = []
    for ev in res.events:
        spd = list(ev.speeds) + [math.nan] * (2 - len(ev.speeds))
        rows.append([ev.t, ev.kind, ev.s, ev.theta, spd[0], spd[1]])
    _write_csv(_out(cfg, "events.csv"),
               ["t", "kind", "s", "theta", "speed_a", "speed_b"], rows)
    return 0


def _outer_delay_from(cfg):
    akind = str(cfg.get("outer", "akind", "zero")).lower()
    if akind == "zero":
        return outer_mod.OuterDelay.zero()
    if akind == "power":
        coeff = _parse_float(cfg.get("outer", "coeff", "1"), "coeff")
        expo = _parse_float(cfg.get("outer", "exponent", "3"), "exponent")
        return outer_mod.OuterDelay.from_area(
            lambda r: coeff * r ** expo, label="power")
    if akind == "theta_const":
        value = _parse_float(_need(cfg, "outer", "value"), "value")
        return outer_mod.OuterDelay.from_angle(lambda r: value,
                                               label="theta_const")
    raise ConfigError("key 'akind': expected zero, power, or theta_const,"
                      " got %r" % akind)


def _cmd_outer(cfg):
    mode = str(cfg.get("outer", "mode", "planar")).lower()
    if mode == "planar":
        curve = _build_curve(cfg)
        od = _outer_delay_from(cfg)
        x0 = _parse_float(cfg.get("outer", "x0", "3"), "x0")
        y0 = _parse_float(cfg.get("outer", "y0", "0"), "y0")
        steps = _parse_count(cfg.get("outer", "steps", "50"), "steps")
        X = np.array([x0, y0])
        op = outer_mod.tangent_coordinates(curve, X)
        rows = [[0, X[0], X[1], op.alpha, op.r]]
        for k in range(1, steps + 1):
            # the row's tangency is the step's: solve it once
            X = outer_mod._slide_and_reflect(curve, od, op)
            op = outer_mod.tangent_coordinates(curve, X)
            rows.append([k, X[0], X[1], op.alpha, op.r])
        _write_csv(_out(cfg, "outer.csv"),
                   ["step", "x", "y", "alpha", "r"], rows)
        return 0
    if mode != "sphere":
        raise ConfigError("key 'mode': outer modes are planar or sphere, "
                          "got %r" % mode)
    psi = _parse_float(cfg.get("outer", "psi", "0.9"), "psi")
    n = _parse_count(cfg.get("outer", "n_samples", "25"), "n_samples")
    curve = outer_mod.spherical_cap(psi)
    law = _build_delay(cfg)
    rng = np.random.default_rng(cfg.seed)
    samples = [(rng.uniform(0.0, curve.length),
                rng.uniform(0.2, math.pi / 2)) for _ in range(n)]
    rep = outer_mod.sphere_duality_check(curve, law, samples)
    rows = [[k, s, th, err]
            for k, (s, th, err) in enumerate(rep["samples"])]
    _write_csv(_out(cfg, "duality.csv"),
               ["sample", "s", "theta", "error"], rows)
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "phase": _cmd_phase,
    "orbit": _cmd_orbit,
    "twist": _cmd_twist,
    "vortex": _cmd_vortex,
    "multidipole": _cmd_multidipole,
    "outer": _cmd_outer,
}


def run(cfg):
    """Execute a validated config; returns the process exit code."""
    return _DISPATCH[cfg.command](cfg)


@functools.cache
def _parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pensive",
        description="billiards with boundary slides: simulation, "
                    "certificates, vortex dynamics, outer billiards")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="INI experiment description")
        p.add_argument("--outdir", default=None,
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (overrides config)")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, command=args.command,
                           outdir=args.outdir, seed=args.seed)
        return run(cfg)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except PensiveError as err:
        print("numeric failure: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
