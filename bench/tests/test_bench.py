"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = run.load_workloads()


@pytest.fixture(scope="module")
def contexts():
    return {name: wl.setup() for name, wl in WORKLOADS.items()}


def _canon(v, workdir, depth=0):
    """Comparable form of a job input; generated files by their text."""
    if isinstance(v, np.ndarray):
        return v.tobytes()
    if isinstance(v, (bool, int, float, complex, np.number)):
        return v
    if isinstance(v, str):
        if os.path.isfile(v):
            with open(v) as fh:
                return fh.read().replace(workdir, "")
        return v.replace(workdir, "")
    if isinstance(v, (list, tuple)):
        return tuple(_canon(x, workdir, depth) for x in v)
    if (depth < 2 and hasattr(v, "__dict__") and not isinstance(v, dict)
            and not isinstance(v, types.ModuleType)):
        return (type(v).__name__,
                _canon(sorted(vars(v).items()), workdir, depth + 1))
    return type(v).__name__


def _fingerprint(deck, workdir):
    out = []
    for job in deck:
        cells = [c.cell_contents for c in job.run.__closure__ or ()]
        out.append((job.kind,
                    _canon(list(job.run.__defaults__ or ()) + cells,
                           workdir)))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_jobs(name, contexts, tmp_path):
    wl, ctx = WORKLOADS[name], contexts[name]
    prints = []
    for k, seed in enumerate((7, 7, 8)):
        work = str(tmp_path / str(k))
        os.makedirs(work)
        prints.append(_fingerprint(wl.deck(ctx, run.deck_rng(seed, 0), work),
                                   work))
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]
    assert sorted(p[0] for p in prints[0]) == sorted(p[0] for p in prints[2])


def test_trajectory_deck_mix(contexts, tmp_path):
    deck = WORKLOADS["trajectory"].deck(contexts["trajectory"],
                                        run.deck_rng(3, 0), str(tmp_path))
    kinds = [j.kind.split("/")[0] for j in deck]
    assert kinds.count("phase") / len(deck) == pytest.approx(0.25, abs=0.1)
    assert not any(_grazing(j) for j in deck)


def _grazing(job):
    """A simulate job launched within 0.2 of the tangent (the INI's
    theta0); phase jobs draw their own launches."""
    with open(job.run.__defaults__[0][1]) as fh:
        line = next((x for x in fh if x.startswith("theta0")), None)
    if line is None:
        return False
    theta0 = float(line.split("=")[1])
    return min(theta0, np.pi - theta0) < 0.2


def test_trajectory_probe_is_grazing(contexts, tmp_path):
    wl = WORKLOADS["trajectory"]
    probe = wl.probe(contexts["trajectory"], run.deck_rng(3, 0),
                     str(tmp_path))
    assert len(probe) == 3 * len(wl.PROBE_EDGES)
    assert all(j.kind.startswith("simulate/") and _grazing(j)
               for j in probe)
    assert sorted(w.name for w in WORKLOADS.values()
                  if hasattr(w, "probe")) == ["outer", "trajectory"]


def test_outer_samples_off_the_seam(contexts, tmp_path):
    wl = WORKLOADS["outer"]
    deck = wl.deck(contexts["outer"], run.deck_rng(4, 0), str(tmp_path))
    duality = [j for j in deck if j.kind.startswith("duality/")]
    assert len(duality) == len(wl.PSI)
    for job in duality:
        cap, laws, samples = job.run.__defaults__
        for law, [(s, th)] in zip(laws, samples):
            L = cap.length
            for x in (s, s + float(law.ell_theta(th))):
                assert min(x % L, -x % L) >= wl.SEAM_GAP


def test_percentile():
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(list(range(1, 12)), 90) == 10
    assert run.percentile([1, 2], 100) == 2
    x = np.random.default_rng(0).exponential(size=137)
    for q in (10, 50, 90, 99):
        assert run.percentile(x, q) == pytest.approx(np.percentile(x, q))
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_scaled_latencies():
    """Each deck is scaled by REF_S over the median reference of its own
    jobs: a deck run at half speed reads as the same deck at full speed."""
    fast = [types.SimpleNamespace(latency=t, ref=r * run.REF_S)
            for t, r in ((0.1, 1.0), (0.2, 0.9), (0.3, 1.1))]
    slow = [types.SimpleNamespace(latency=2 * j.latency, ref=2 * j.ref)
            for j in fast]
    scaled = run.scaled_latencies(fast + slow, [3, 3])
    assert scaled[0] == pytest.approx([0.1, 0.2, 0.3])
    assert scaled[1] == pytest.approx(scaled[0])


def _hand_tree():
    """root [0, 10] with children a [1, 4] and b [5, 9]; a has c [2, 3]."""
    rec = spans.SpanRecorder()
    for name, start, end, parent in (("root", 0.0, 10.0, -1),
                                     ("a", 1.0, 4.0, 0),
                                     ("c", 2.0, 3.0, 1),
                                     ("b", 5.0, 9.0, 0)):
        rec.name.append(rec.name_id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.job.append(0)
    return rec


def test_self_times_on_hand_tree():
    rec = _hand_tree()
    own = spans.self_times(rec.start, rec.end, rec.parent)
    assert list(own) == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0   # self times partition the root span
    rows = {path: (n, total, self_s)
            for path, n, total, self_s in spans.path_table(rec, 0.0)}
    assert rows[("root",)] == (1, 10.0, 3.0)
    assert rows[("root", "a", "c")] == (1, 1.0, 1.0)
    assert list(rows) == [("root",), ("root", "a"), ("root", "a", "c"),
                          ("root", "b")]


def test_layer_ratios_on_hand_tree():
    rec = spans.SpanRecorder()

    def add(name, parent, attrs=None):
        i = len(rec)
        rec.name.append(rec.name_id(name))
        rec.start.append(float(i))
        rec.end.append(float(i) + 0.5)
        rec.parent.append(parent)
        rec.job.append(0)
        if attrs:
            rec.attrs[i] = attrs
        return i

    p = add("variational.p_star", -1)
    b = add("geometry.chord_batch", p, {"rows": 10})
    add("geometry.chord_batch", b, {"rows": 4})     # nested: not new rows
    add("geometry.chord", b)
    add("geometry.chord", -1, {"zero": 1})
    m = {k: v for k, (v, _) in spans.layer_metrics(rec, per=2.0).items()}
    assert m["geometry.chord_batch.rows"] == 5.0
    assert m["geometry.chord_batch.calls"] == 1.0
    assert m["geometry.chord_batch.fallback_frac"] == 0.1
    assert m["geometry.chord_batch.rows_per_p_star"] == 10.0
    assert m["geometry.zero_chord_frac"] == 0.5


# (workload, job kind prefix, per-layer metrics that must be nonzero)
TRACED = (
    ("trajectory", "simulate/ellipse/", ("geometry.t_of_s.calls",
                                         "geometry.chord.calls",
                                         "billiard.iterate.steps",
                                         "delay.ell_theta.calls",
                                         "svg.point_calls",
                                         "cli.main.self_s")),
    ("trajectory", "phase/", ("billiard.pensive_batch.rows",
                              "geometry.chord_batch.calls",
                              "svg.render_phase_svg.self_s")),
    ("orbits", "search/disk/", ("variational.periodic_orbit_search.calls",
                                "variational.p_star.calls",
                                "geometry.chord_batch.rows",
                                "geometry.brentq.calls",
                                "variational.orbit_found_frac")),
    ("orbits", "dS_dtheta/", ("twist.pensive_dS_dtheta.self_s",)),
    ("vortex", "integrate/neumann_oval/", ("vortex.integrate.calls",
                                           "vortex.integrate.attempts",
                                           "vortex.grad_greens.calls",
                                           "vortex.grad_robin.calls",
                                           "vortex.boundary_distance.calls",
                                           "vortex.hamiltonian.self_s")),
    ("vortex", "multidipole/", ("vortex.multi_dipole_simulate.self_s",
                                "geometry.chord.calls")),
    ("outer", "orbit/", ("outer.tangent_coordinates.calls",
                         "outer.pensive_outer_step.self_s")),
    ("outer", "duality/", ("outer.spherical_outer_step.calls",
                           "outer.SphericalCurve.dual.self_s")),
)


@pytest.mark.parametrize("name,prefix,nonzero", TRACED)
def test_one_traced_job(name, prefix, nonzero, contexts, tmp_path):
    wl = WORKLOADS[name]
    deck = wl.deck(contexts[name], run.deck_rng(5, 0), str(tmp_path))
    job = next(j for j in deck if j.kind.startswith(prefix))
    geo = contexts[name].geo
    chord = geo.chord
    rec = spans.SpanRecorder()
    with spans.Tracer(rec):
        assert geo.chord is not chord
        out = job.run()
    assert geo.chord is chord
    assert job.check(out) is None
    metrics = spans.layer_metrics(rec)
    assert set(metrics) == {k for k, _ in spans.LAYER_METRICS}
    for key in nonzero:
        assert metrics[key][0] > 0, key


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "trajectory", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(spans.LAYER_METRICS + run.PROBE_METRICS + run.TRACE_METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
