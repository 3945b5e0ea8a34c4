"""CLI tests: config validation, artifact layout, determinism, and
exit codes."""

import csv
import math
import os

import numpy as np
import pytest

from pensive import billiard as bil, cli, delay, geometry as geo


def write_ini(path, text):
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SIM_INI = """
[run]
command = simulate
seed = 0
outdir = {out}

[curve]
kind = disk
radius = 1.0

[delay]
kind = vortex
l = 0.7

[simulate]
s0 = 0.3
theta0 = 1.0471975511965976
steps = 40
caustic = true
"""


class TestSimulate:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "sim.ini", SIM_INI.format(out=out))
        assert cli.main(["simulate", ini]) == 0
        rows = read_rows(out / "trajectory.csv")
        assert rows[0] == ["step", "s", "theta", "p", "impact_x",
                           "impact_y", "reflect_x", "reflect_y"]
        assert len(rows) == 42
        doc = (out / "trajectory.svg").read_text()
        assert doc.startswith("<svg")
        for layer in ("boundary", "chords", "slides", "markers",
                      "caustic"):
            assert f'id="{layer}"' in doc

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            ini = write_ini(tmp_path / f"{name}.ini",
                            SIM_INI.format(out=out))
            assert cli.main(["simulate", ini]) == 0
            outs.append([(out / f).read_bytes()
                         for f in ("trajectory.csv", "trajectory.svg")])
        assert outs[0] == outs[1]

    def test_env_outdir_override(self, tmp_path, monkeypatch):
        out = tmp_path / "ignored"
        env_out = tmp_path / "env"
        ini = write_ini(tmp_path / "sim.ini", SIM_INI.format(out=out))
        monkeypatch.setenv("PENSIVE_OUTDIR", str(env_out))
        assert cli.main(["simulate", ini]) == 0
        assert (env_out / "trajectory.csv").exists()
        assert not out.exists()

    def test_caustic_on_polygon_is_skipped(self, tmp_path):
        out = tmp_path / "out"
        text = SIM_INI.format(out=out).replace(
            "kind = disk\nradius = 1.0", "kind = regular_polygon\nsides = 5")
        assert "regular_polygon" in text
        ini = write_ini(tmp_path / "poly.ini", text)
        assert cli.main(["simulate", ini]) == 0
        assert len(read_rows(out / "trajectory.csv")) == 42
        doc = (out / "trajectory.svg").read_text()
        assert doc.startswith("<svg")
        assert 'id="caustic"' not in doc


class TestConfigErrors:
    def test_unknown_key_named(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "bad.ini", """
[run]
command = simulate

[curve]
kind = disk

[simulate]
stepz = 7
""")
        assert cli.main(["simulate", ini]) == 2
        assert "stepz" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "bad.ini", """
[run]
command = simulate

[curve]
kind = disk

[warp]
x = 1
""")
        assert cli.main(["simulate", ini]) == 2
        assert "warp" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path):
        ini = write_ini(tmp_path / "bad.ini", """
[run]
command = simulate

[curve]
kind = disk
""")
        assert cli.main(["phase", ini]) == 2

    def test_bad_curve_kind(self, tmp_path):
        ini = write_ini(tmp_path / "bad.ini", """
[run]
command = simulate

[curve]
kind = wavegon
""")
        assert cli.main(["simulate", ini]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["simulate", str(tmp_path / "absent.ini")]) == 2

    def test_bad_number(self, tmp_path):
        ini = write_ini(tmp_path / "bad.ini", """
[run]
command = simulate

[curve]
kind = disk

[simulate]
steps = many
""")
        assert cli.main(["simulate", ini]) == 2


class TestNumericFailure:
    def test_drifting_pair_exit3(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "nf.ini", """
[run]
command = vortex
outdir = {out}

[curve]
kind = disk

[vortex]
mode = run
positions = 0.2,0.0; 0.200000005,0.0
gammas = 1, -1
t_final = 5.0
""".format(out=tmp_path / "out"))
        assert cli.main(["vortex", ini]) == 3
        assert "numeric failure" in capsys.readouterr().err


PHASE_INI = """
[run]
command = phase
seed = 3
outdir = {out}

[curve]
kind = ellipse
a = 2.0
b = 1.0

[delay]
kind = puck
h = 0.4

[phase]
orbits = 3
steps = 50
"""


class TestPhase:
    def test_csv_and_svg(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "ph.ini", PHASE_INI.format(out=out))
        assert cli.main(["phase", ini]) == 0
        rows = read_rows(out / "phase.csv")
        assert rows[0] == ["orbit", "step", "s", "theta"]
        assert len(rows) == 1 + 3 * 51
        assert {r[0] for r in rows[1:]} == {"0", "1", "2"}
        assert (out / "phase.svg").read_text().count("orbit-") == 3

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            ini = write_ini(tmp_path / f"{name}.ini",
                            PHASE_INI.format(out=out))
            assert cli.main(["phase", ini]) == 0
            outs.append([(out / f).read_bytes()
                         for f in ("phase.csv", "phase.svg")])
        assert outs[0] == outs[1]

    def test_matches_orbit_by_orbit_steps(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "ph.ini", PHASE_INI.format(out=out))
        assert cli.main(["phase", ini]) == 0
        got = np.array([[float(v) for v in r]
                        for r in read_rows(out / "phase.csv")[1:]])
        # reference: each orbit on its own, one single-row step at a time
        curve = geo.ellipse(2.0, 1.0)
        law = delay.puck(0.4)
        rng = np.random.default_rng(3)
        ref = []
        for k in range(3):
            s = rng.uniform(0.0, curve.perimeter)
            th = rng.uniform(0.2, math.pi - 0.2)
            for j in range(51):
                ref.append([k, j, s, th])
                s_arr, th_arr = bil.pensive_batch(curve, law, s, th)
                s, th = s_arr.item(), th_arr.item()
        ref = np.array([[float(cli._cell(v)) for v in r] for r in ref])
        assert np.array_equal(got, ref)


class TestOrbit:
    def test_periodic_orbit_csv(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "orb.ini", """
[run]
command = orbit
outdir = {out}

[curve]
kind = disk

[delay]
kind = vortex
l = 0.7

[orbit]
p = 1
q = 4
""".format(out=out))
        assert cli.main(["orbit", ini]) == 0
        rows = read_rows(out / "orbit.csv")
        assert rows[0] == ["i", "s", "theta", "type", "action", "residual"]
        assert len(rows) == 5
        assert rows[1][3] == "1/4"
        assert float(rows[1][5]) < 1e-7


class TestTwist:
    def test_sweep_crossing(self, tmp_path):
        out = tmp_path / "out"
        a, b = 1.2, 1.0
        kmin, kmax = geo.curvature_bounds(geo.ellipse(a, b))
        R, r = 1.0 / kmin, 1.0 / kmax
        threshold = 2.0 * R / (2.0 * (r / R) - 1.0)
        h_min, h_max, count = 10.0, 26.0, 17
        ini = write_ini(tmp_path / "tw.ini", """
[run]
command = twist
outdir = {out}

[curve]
kind = ellipse
a = {a}
b = {b}

[twist]
h_min = {h_min}
h_max = {h_max}
count = {count}
""".format(out=out, a=a, b=b, h_min=h_min, h_max=h_max, count=count))
        assert cli.main(["twist", ini]) == 0
        rows = read_rows(out / "twist.csv")
        assert rows[0] == ["param", "verdict", "inf_slope", "sup_slope",
                           "right_bound", "left_bound"]
        verdicts = [(float(r[0]), r[1]) for r in rows[1:]]
        lefts = [h for h, v in verdicts if v == "Left"]
        others = [h for h, v in verdicts if v != "Left"]
        assert lefts and others
        assert max(others) < min(lefts)
        grid = (h_max - h_min) / (count - 1)
        assert abs(min(lefts) - threshold) <= grid + 1e-9

    def test_single_certificate(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "tw1.ini", """
[run]
command = twist
outdir = {out}

[curve]
kind = disk

[delay]
kind = vortex
l = 0.7
""".format(out=out))
        assert cli.main(["twist", ini]) == 0
        rows = read_rows(out / "twist.csv")
        assert len(rows) == 2
        assert rows[1][1] == "Right"


class TestVortex:
    def test_run_csv_paths(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "vr.ini", """
[run]
command = vortex
outdir = {out}

[curve]
kind = disk
radius = 1.0

[vortex]
mode = run
positions = 0.28,0.3; 0.32,0.3; -0.3,-0.28; -0.3,-0.32
gammas = 0.25, -0.25, 0.25, -0.25
t_final = 1.0
n_eval = 50
""".format(out=out))
        assert cli.main(["vortex", ini]) == 0
        rows = read_rows(out / "vortex.csv")
        assert rows[0] == ["t", "x_0", "y_0", "x_1", "y_1", "x_2", "y_2",
                           "x_3", "y_3"]
        assert float(rows[1][0]) == 0.0
        doc = (out / "vortex.svg").read_text()
        assert 'id="paths"' in doc
        assert "stroke-dasharray" in doc

    def test_limit_table(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "vl.ini", """
[run]
command = vortex
outdir = {out}

[curve]
kind = disk

[vortex]
mode = limit
s0 = 0.3
theta0 = 1.0471975511965976
eps_list = 0.02, 0.01
""".format(out=out))
        assert cli.main(["vortex", ini]) == 0
        rows = read_rows(out / "limit.csv")
        assert rows[0][:2] == ["eps", "s_model"]
        ds = [abs(float(r[5])) for r in rows[1:]]
        assert len(ds) == 2 and ds[1] < ds[0]


class TestMultidipole:
    def test_event_log(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "md.ini", """
[run]
command = multidipole
outdir = {out}

[curve]
kind = disk

[multidipole]
dipoles = 0.7,1.1,1.0
t_final = 14
""".format(out=out))
        assert cli.main(["multidipole", ini]) == 0
        rows = read_rows(out / "events.csv")
        assert rows[0] == ["t", "kind", "s", "theta", "speed_a", "speed_b"]
        kinds = [r[1] for r in rows[1:]]
        assert kinds[0] == "fission"
        assert "fusion" in kinds
        assert all(k in ("fission", "fusion", "pass") for k in kinds)


class TestOuter:
    def test_planar_orbit_csv(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "op.ini", """
[run]
command = outer
outdir = {out}

[curve]
kind = disk
radius = 1.0

[outer]
mode = planar
akind = power
coeff = 1.0
exponent = 3
x0 = 3.0
y0 = 1.0
steps = 12
""".format(out=out))
        assert cli.main(["outer", ini]) == 0
        rows = read_rows(out / "outer.csv")
        assert rows[0] == ["step", "x", "y", "alpha", "r"]
        assert len(rows) == 14
        # on the circle every iterate keeps |X|^2 = 1 + r^2, so the
        # right-chart tangent length is an exact orbit invariant
        rvals = [float(r[4]) for r in rows[1:]]
        assert max(rvals) - min(rvals) < 1e-9

    def test_sphere_report(self, tmp_path):
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "os.ini", """
[run]
command = outer
seed = 1
outdir = {out}

[delay]
kind = constant
c = 0.35

[outer]
mode = sphere
psi = 0.9
n_samples = 8
""".format(out=out))
        assert cli.main(["outer", ini]) == 0
        rows = read_rows(out / "duality.csv")
        assert rows[0] == ["sample", "s", "theta", "error"]
        assert len(rows) == 9
        assert all(float(r[3]) < 1e-6 for r in rows[1:])
