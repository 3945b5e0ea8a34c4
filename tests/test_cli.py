"""CLI tests: config validation, artifact layout, determinism, and
exit codes."""

import csv
import hashlib
import math
import os

import numpy as np
import pytest

from pensive import billiard as bil, cli, delay, geometry as geo, outer
from pensive import variational as var
from pensive.errors import MAX_COUNT


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

    def test_parser_is_built_once(self, tmp_path, capsys):
        # a second main call in the process reuses the parser and reports
        # the same config error with the same exit code
        bad = write_ini(tmp_path / "bad.ini", """
[run]
command = simulate

[curve]
kind = disk

[simulate]
stepz = 7
""")
        good = write_ini(tmp_path / "sim.ini",
                         SIM_INI.format(out=tmp_path / "out"))
        assert cli.main(["simulate", bad]) == 2
        first = capsys.readouterr().err
        assert cli.main(["simulate", good]) == 0
        capsys.readouterr()
        assert cli.main(["simulate", bad]) == 2
        assert capsys.readouterr().err == first
        assert "stepz" in first
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                cli.main(["simulate"])
            assert err.value.code == 2
            assert "required: config" in capsys.readouterr().err
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("section, key", [
        ("simulate", "steps"), ("phase", "steps"), ("phase", "orbits")])
    def test_counts_over_the_cap(self, tmp_path, capsys, section, key):
        # exit 2 from the config read, before any step runs
        ini = write_ini(tmp_path / "big.ini", """
[run]
command = %s

[curve]
kind = disk

[%s]
%s = %d
""" % (section, section, key, MAX_COUNT + 1))
        assert cli.main([section, ini]) == 2
        assert "MAX_COUNT" in capsys.readouterr().err

    @pytest.mark.parametrize("sides", ["2.5", "nan", "x", "2",
                                       str(MAX_COUNT + 1)])
    def test_bad_polygon_sides(self, tmp_path, capsys, sides):
        # exit 2 from the table build, before any vertex is allocated
        ini = write_ini(tmp_path / "sides.ini", """
[run]
command = simulate

[curve]
kind = regular_polygon
sides = %s
""" % sides)
        assert cli.main(["simulate", ini]) == 2
        assert "sides" in capsys.readouterr().err

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
        # numbers must parse and be finite, counts must be positive
        cases = [
            ("simulate", "[curve]\nkind = disk\n[simulate]\nsteps = many"),
            ("simulate", "[curve]\nkind = disk\n[simulate]\nsteps = 0"),
            ("simulate", "[curve]\nkind = ellipse\na = nan\nb = 1"),
            ("simulate", "[curve]\nkind = disk\n[delay]\nkind = puck\n"
                         "h = nan"),
            ("simulate", "[curve]\nkind = disk\n[delay]\nkind = constant\n"
                         "c = inf"),
            ("phase", "[curve]\nkind = disk\n[phase]\norbits = 0"),
            ("vortex", "[curve]\nkind = disk\n[vortex]\n"
                       "positions = 0.2,0; -0.2,0\ngammas = 1, -1\n"
                       "t_final = nan"),
            ("vortex", "[curve]\nkind = disk\n[vortex]\n"
                       "positions = 0.2,0; -0.2,0\ngammas = 1, -1\n"
                       "n_eval = 0"),
            ("multidipole", "[curve]\nkind = disk\n[multidipole]\n"
                            "dipoles = 0.3,1.0,1.0\nt_final = inf"),
            # a seed must be non-negative, in the [run] section or the flag
            ("phase", "seed = -1\n[curve]\nkind = disk"),
            ("phase", "[curve]\nkind = disk", "--seed", "-1"),
        ]
        for k, (command, body, *flags) in enumerate(cases):
            ini = write_ini(tmp_path / ("bad%d.ini" % k),
                            "[run]\ncommand = %s\noutdir = %s\n%s\n"
                            % (command, tmp_path / "out", body))
            assert cli.main([command, ini, *flags]) == 2, body


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
        assert rows[0] == ["i", "s", "theta", "type", "action", "residual",
                           "residue"]
        assert len(rows) == 5
        assert rows[1][3] == "1/4"
        assert float(rows[1][5]) < 1e-7

    def test_period_over_the_cap_is_a_config_error(self, tmp_path):
        ini = write_ini(tmp_path / "cap.ini", """
[run]
command = orbit
outdir = {out}

[curve]
kind = disk

[delay]
kind = constant
c = 0.3

[orbit]
p = 1
q = {q}
""".format(out=tmp_path / "out", q=var.MAX_PERIOD + 1))
        assert cli.main(["orbit", ini]) == 2
        assert not (tmp_path / "out" / "orbit.csv").exists()


class TestMapBytes:
    # orbit searches, phase portraits and a trajectory on convex ovals:
    # each config with the sha256 of every file it writes
    PINNED = {
        "orbit-disk-vortex_pi": ("orbit", """
[curve]
kind = disk

[delay]
kind = vortex
l = 3.141592653589793

[orbit]
p = 2
q = 5
""", {"orbit.csv":
      "bb101bdf3bea97c160a6c4ff52efcc7d969411187d2db5e7fb2c78e550b4281a"}),
        "orbit-ellipse-vortex": ("orbit", """
[curve]
kind = ellipse
a = 1.2
b = 1

[delay]
kind = vortex
l = 0.5

[orbit]
p = 1
q = 3
""", {"orbit.csv":
      "f1f91d64aee0af161e921ad94112f3491e6780c50adc33d870272f95b8df9917"}),
        "phase-ellipse-puck": ("phase", """
[curve]
kind = ellipse
a = 1.2
b = 1

[delay]
kind = puck
h = 0.4

[phase]
orbits = 2
steps = 40
""", {"phase.csv":
      "b8f4bedef7f742573d684e3982c4e7f5171915c8bcff482d68a4dd941a5be6fa",
      "phase.svg":
      "6044cfe8d427e104dfe9734f0277e49607623911cc71f0a6ef503cba55119a54"}),
        "phase-oval-vortex": ("phase", """
[curve]
kind = neumann_oval
lam = 0.3

[delay]
kind = vortex

[phase]
orbits = 2
steps = 40
""", {"phase.csv":
      "268a66827c8ff0ea5b4abc2b30de60dca66b02473bb724e459b4cfe650287637",
      "phase.svg":
      "a263827c8875b8249d897a123bb6fdfb11225d570f17da0f364f2de78035df67"}),
        "simulate-oval-puck": ("simulate", """
[curve]
kind = neumann_oval
lam = 0.3

[delay]
kind = puck
h = 0.6

[simulate]
s0 = 1.3
theta0 = 0.9
steps = 26
""", {"trajectory.csv":
      "c139a60edf7f246fb3378347be41488b7818df10b908783e2a371c36732c83dc",
      "trajectory.svg":
      "1c52ccc18ad5d4ea89a602f352d408b21689673eaea623e606023fe62b25fc5f"}),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_map_bytes_are_pinned(self, tmp_path, name):
        command, body, digests = self.PINNED[name]
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "pin.ini",
                        "[run]\ncommand = %s\nseed = 1\noutdir = %s\n%s"
                        % (command, out, body))
        assert cli.main([command, ini]) == 0
        for fname, digest in digests.items():
            data = (out / fname).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, fname


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

    def test_one_tangency_per_row(self, tmp_path, monkeypatch):
        # each row's tangency is also the next step's
        calls = []
        solve = outer.tangent_coordinates

        def counted(*args, **kw):
            calls.append(1)
            return solve(*args, **kw)

        monkeypatch.setattr(outer, "tangent_coordinates", counted)
        ini = write_ini(tmp_path / "op.ini", """
[run]
command = outer
outdir = {out}

[curve]
kind = ellipse
a = 2
b = 1

[outer]
akind = power
steps = 7
""".format(out=tmp_path / "out"))
        assert cli.main(["outer", ini]) == 0
        assert len(calls) == 8

    @pytest.mark.parametrize("coeff, exponent", [("1e308", "3"),
                                                 ("1", "2000")])
    def test_non_finite_shift_exit3(self, tmp_path, capsys, coeff,
                                    exponent):
        # a(r) = coeff r^exponent overflows: inf, or OverflowError in the
        # power itself
        ini = write_ini(tmp_path / "op.ini", """
[run]
command = outer
outdir = {out}

[curve]
kind = ellipse
a = 2
b = 1

[outer]
akind = power
coeff = {coeff}
exponent = {exponent}
steps = 3
""".format(out=tmp_path / "out", coeff=coeff, exponent=exponent))
        assert cli.main(["outer", ini]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "bearing shift" in err

    # planar orbits on two tables and the sphere duality table, each
    # config with the sha256 of the file it writes
    PINNED = {
        "ellipse-power": ("""
[curve]
kind = ellipse
a = 2
b = 1

[outer]
akind = power
coeff = 1
exponent = 3
x0 = 3
y0 = 1
steps = 40
""", "outer.csv",
            "ca560769b936c80ce14cb0ecf53a5679f98bcf3607cdd33163f41d72d89f43d8"),
        "oval-theta_const": ("""
[curve]
kind = neumann_oval
lam = 0.3

[outer]
akind = theta_const
value = 0.35
x0 = 2.5
y0 = 0.5
steps = 40
""", "outer.csv",
            "7c81287fc7b297828c82c7c103173bd74301536348ed5b8c48fe8c5a0ee5b3ce"),
        "sphere-constant": ("""
[delay]
kind = constant
c = 0.35

[outer]
mode = sphere
psi = 0.9
n_samples = 8
""", "duality.csv",
            "0d7d8749d3a0cab5e2ec2b1432e0ed28b81975ee5788102de9ffb014eed782b5"),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_outer_bytes_are_pinned(self, tmp_path, name):
        body, fname, digest = self.PINNED[name]
        out = tmp_path / "out"
        ini = write_ini(tmp_path / "pin.ini",
                        "[run]\ncommand = outer\nseed = 1\noutdir = %s\n%s"
                        % (out, body))
        assert cli.main(["outer", ini]) == 0
        data = (out / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

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
