"""Import footprint: which scipy modules a fresh interpreter loads for
``import pensive`` and for each CLI command.

scipy is imported where it is called, so the map commands on disks,
ovals (non-convex ones too) and polygons, vortex runs and limit checks,
planar and spherical outer runs, and orbit searches and twist sweeps on
disks run on numpy alone, and ellipses add scipy.special (the arc
length). Every bracketed root is polished by the package's own Newton:
no command loads scipy.optimize.
"""

import json
import os
import pathlib
import subprocess
import sys

import pensive

# runs in a fresh interpreter: imports pensive, then runs each
# (label, command, config) of argv's JSON through the CLI, and prints
# the exit code and the scipy modules loaded after each step
_CHILD = r"""
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

report = {}
import pensive
report["import"] = [0, loaded()]
from pensive import cli
for label, command, config in json.loads(sys.argv[1]):
    report[label] = [cli.main([command, config]), loaded()]
print(json.dumps(report))
"""

_CURVES = {
    "disk": "kind = disk\nradius = 1.0",
    "oval": "kind = neumann_oval\nlam = 0.3",
    "nonconvex": "kind = neumann_oval\nlam = 0.7",
    "polygon": "kind = regular_polygon\nsides = 5",
    "ellipse": "kind = ellipse\na = 1.2\nb = 1.0",
}

# each run's command and its sections
_SECTIONS = {
    "simulate": ("simulate", "[delay]\nkind = puck\nh = 0.4\n"
                 "[simulate]\ns0 = 0.3\ntheta0 = 1.0\nsteps = 12\n"),
    "phase": ("phase", "[delay]\nkind = vortex\nl = 0.7\n"
              "[phase]\norbits = 2\nsteps = 8\n"),
    "vortex": ("vortex", "[vortex]\nmode = run\n"
               "positions = 0.28,0.3; 0.32,0.3\ngammas = 0.25, -0.25\n"
               "t_final = 0.5\nn_eval = 20\n"),
    "limit": ("vortex", "[vortex]\nmode = limit\neps_list = 0.02\n"),
    "outer": ("outer", "[outer]\nmode = planar\nakind = power\n"
              "coeff = 1.0\nexponent = 3\nx0 = 3.0\ny0 = 1.0\nsteps = 4\n"),
    "sphere": ("outer", "[delay]\nkind = constant\nc = 0.35\n"
               "[outer]\nmode = sphere\npsi = 0.9\nn_samples = 4\n"),
    "orbit": ("orbit", "[delay]\nkind = vortex\nl = 3.14159\n"
              "[orbit]\np = 2\nq = 5\n"),
    "twist": ("twist", "[twist]\nh_min = 0.2\nh_max = 0.6\ncount = 3\n"),
}


def _start(tmp_path, steps):
    """Start one child on the (run, curve) steps."""
    plan = []
    for run, curve in steps:
        label = "%s-%s" % (run, curve)
        command, sections = _SECTIONS[run]
        ini = tmp_path / (label + ".ini")
        ini.write_text("[run]\ncommand = %s\noutdir = %s\n[curve]\n%s\n%s"
                       % (command, tmp_path / label, _CURVES[curve],
                          sections))
        plan.append((label, command, str(ini)))
    env = dict(os.environ)
    src = str(pathlib.Path(pensive.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-c", _CHILD, json.dumps(plan)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=tmp_path)


def _report(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out)


def _subpackages(modules):
    """The public scipy subpackages among the loaded modules."""
    return {m.split(".")[1] for m in modules
            if m.startswith("scipy.") and not m.split(".")[1].startswith("_")
            } - {"version"}


def test_scipy_loads_only_where_it_is_called(tmp_path):
    # both children run at once, so the test costs the slower one
    # a child reports the modules loaded so far, so the runs that load no
    # scipy share one child, which runs them first
    plain = _start(tmp_path, [
        (run, curve) for curve in ("disk", "oval")
        for run in ("simulate", "phase", "limit")] + [
            ("simulate", "nonconvex"), ("simulate", "polygon"),
            ("vortex", "disk"), ("outer", "disk"), ("sphere", "disk"),
            ("orbit", "disk"), ("twist", "disk")])
    rest = _start(tmp_path, [("simulate", "ellipse"), ("phase", "ellipse")])
    plain, rest = _report(plain), _report(rest)

    # no command of the corpus polishes a root by scipy
    for label, (code, modules) in {**plain, **rest}.items():
        assert "scipy.optimize" not in modules, label
    assert plain.pop("import") == [0, []]
    assert rest.pop("import") == [0, []]
    # vortex runs step with the package's own DOP853
    code, modules = plain.pop("vortex-disk")
    assert code == 0 and (tmp_path / "vortex-disk" / "vortex.csv").exists()
    assert _subpackages(modules) == set()
    # planar outer runs polish their tangencies and slides by the
    # package's own Newton
    code, modules = plain.pop("outer-disk")
    assert code == 0 and (tmp_path / "outer-disk" / "outer.csv").exists()
    assert _subpackages(modules) == set()
    # map commands on disks and ovals, and simulate on a non-convex oval
    # and a polygon, whose chords find their first hits by Newton; the
    # limit check on both, whose re-merge is an event root; the sphere
    # duality; an orbit search and a twist sweep: numpy alone
    for label in ("limit-disk", "limit-oval"):
        assert (tmp_path / label / "limit.csv").exists(), label
    assert (tmp_path / "sphere-disk" / "duality.csv").exists()
    for label, (code, modules) in plain.items():
        assert code == 0, label
        assert modules == [], label
    # ellipses: the elliptic integral of the arc length
    for label in ("simulate-ellipse", "phase-ellipse"):
        code, modules = rest[label]
        assert code == 0, label
        assert _subpackages(modules) == {"special"}, label
