"""Import footprint: which scipy modules a fresh interpreter loads for
``import pensive`` and for each CLI command.

scipy is imported where it is called, so the map commands on disks and
ovals and vortex runs without events run on numpy alone, ellipses add
scipy.special (the arc length), and outer runs import scipy.optimize on
their first call.
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
    "ellipse": "kind = ellipse\na = 1.2\nb = 1.0",
}

_SECTIONS = {
    "simulate": "[delay]\nkind = puck\nh = 0.4\n"
                "[simulate]\ns0 = 0.3\ntheta0 = 1.0\nsteps = 12\n",
    "phase": "[delay]\nkind = vortex\nl = 0.7\n"
             "[phase]\norbits = 2\nsteps = 8\n",
    "vortex": "[vortex]\nmode = run\n"
              "positions = 0.28,0.3; 0.32,0.3\ngammas = 0.25, -0.25\n"
              "t_final = 0.5\nn_eval = 20\n",
    "outer": "[outer]\nmode = planar\nakind = power\ncoeff = 1.0\n"
             "exponent = 3\nx0 = 3.0\ny0 = 1.0\nsteps = 4\n",
}


def _start(tmp_path, steps):
    """Start one child on the (command, curve) steps."""
    plan = []
    for command, curve in steps:
        label = "%s-%s" % (command, curve)
        ini = tmp_path / (label + ".ini")
        ini.write_text("[run]\ncommand = %s\noutdir = %s\n[curve]\n%s\n%s"
                       % (command, tmp_path / label, _CURVES[curve],
                          _SECTIONS[command]))
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
        (command, curve) for curve in ("disk", "oval")
        for command in ("simulate", "phase")] + [("vortex", "disk")])
    rest = _start(tmp_path, [
        ("simulate", "ellipse"), ("phase", "ellipse"), ("outer", "disk")])
    plain, rest = _report(plain), _report(rest)

    assert plain.pop("import") == [0, []]
    assert rest.pop("import") == [0, []]
    # vortex runs step with the package's own DOP853
    code, modules = plain.pop("vortex-disk")
    assert code == 0 and (tmp_path / "vortex-disk" / "vortex.csv").exists()
    assert _subpackages(modules) == set()
    # map commands on disks and ovals: numpy alone
    for label, (code, modules) in plain.items():
        assert code == 0, label
        assert modules == [], label
    # ellipses: the elliptic integral of the arc length
    for label in ("simulate-ellipse", "phase-ellipse"):
        code, modules = rest[label]
        assert code == 0, label
        assert _subpackages(modules) == {"special"}, label
    # outer runs import their root solver on the first call
    code, modules = rest["outer-disk"]
    assert code == 0 and (tmp_path / "outer-disk" / "outer.csv").exists()
    assert "optimize" in _subpackages(modules)
    assert "integrate" not in _subpackages(modules)
