"""pensive benchmark: closed-loop job streams with end-to-end metrics, and
a separate traced run for per-layer metrics.

Run one workload from the root of a checkout::

    python3 bench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

One client in one process runs jobs back to back (a closed loop). Jobs
come in decks of a fixed mix (see workloads.py); the loop runs whole
decks while the next deck is predicted to end within --seconds, and
until at least 100 jobs have run. Each job is timed from outside, and
timings are reported at reference speed (see REF_S); outputs are checked
after the timed loop. The last line of stdout is the JSON result.
"""

import os

# one BLAS/OpenMP thread: the benchmark is a single client, and lstsq in
# the orbit search must not spread over the cores beside it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PENSIVE_OUTDIR", None)

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
MIN_JOBS = 100       # so that ten samples lie beyond the 90th percentile

# Speed reference. A shared 2-vCPU VM can run up to 1.5x slower for
# minutes at a time, which moves every raw timing together; a change to
# the program moves only its own. So before each job the runner times a
# fixed pure-Python loop (the reference), and timings are reported at
# reference speed: scaled by REF_S over the median reference of their
# deck. REF_S is the loop's time on a 2-vCPU x86-64 VM at its usual
# speed, so scaled and raw timings there are about equal. This loop
# tracks the slowdowns of all four workloads, the numpy- and scipy-bound
# ones too, better than a loop of small numpy operations does.
REF_LOOP = 20000
REF_S = 1.3e-3

# (name, unit) of the end-to-end metrics, as in BENCHMARK.json
END_TO_END = (("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("ok_frac", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
# per-layer metrics of the defect probes: the share of probe jobs that
# raise or fail their check; 0 on a workload without that probe.
# trajectory: grazing launches, zero-length chords (ROADMAP item 1);
# outer: duality samples on the cap's seam
PROBE_METRICS = (("geometry.grazing_defect_frac", "ratio"),
                 ("outer.seam_defect_frac", "ratio"))
# per-layer metrics of the traced run itself: throughput under tracing on
# the first deck, and its cost against the same deck run without tracing
TRACE_METRICS = (("trace.jobs_per_s", "1/s"), ("trace.overhead_frac", "ratio"))


def load_workloads():
    """Import pensive from this checkout's src/ and nowhere else, then the
    workload table.

    Nothing imports numpy before this, so the set-up probe's clock covers
    the whole import of pensive with numpy and scipy."""
    if not os.path.isfile(os.path.join(SRC, "pensive", "__init__.py")):
        raise SystemExit("bench: no pensive sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import pensive
    if not os.path.abspath(pensive.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: pensive imported from %s" % pensive.__file__)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    return WORKLOADS


def percentile(values, q):
    """q-th percentile (0..100), linear between order statistics."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no values")
    x = (len(v) - 1) * q / 100.0
    lo = math.floor(x)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (x - lo)


def deck_rng(seed, k):
    import numpy as np
    return np.random.default_rng([seed, k])


def reference_s():
    """Time one pass of the speed reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def run_jobs(jobs, on_job=None):
    """Run and time each job, back to back, each after a speed reference."""
    for i, job in enumerate(jobs):
        job.ref = reference_s()
        if on_job is not None:
            on_job(i)
        start = time.perf_counter()
        try:
            job.out = job.run()
        except Exception as exc:  # any raise is a failed job
            job.error = "%s: %s" % (type(exc).__name__, exc)
        job.latency = time.perf_counter() - start


def make_deck(wl, ctx, seed, k, workdir):
    deck_dir = os.path.join(workdir, "deck%03d" % k)
    os.makedirs(deck_dir)
    return wl.deck(ctx, deck_rng(seed, k), deck_dir)


def run_decks(wl, ctx, seed, seconds, workdir, on_job=None):
    """Closed loop over whole decks: another deck starts while it is
    predicted to end within `seconds`, or fewer than MIN_JOBS have run.
    Returns the jobs run and the deck sizes."""
    jobs = []
    sizes = []
    t0 = time.perf_counter()
    while True:
        deck = make_deck(wl, ctx, seed, len(sizes), workdir)
        d0 = time.perf_counter()
        run_jobs(deck, on_job and (lambda i: on_job(len(jobs) + i)))
        jobs += deck
        sizes.append(len(deck))
        now = time.perf_counter()
        if now - t0 + (now - d0) > seconds and len(jobs) >= MIN_JOBS:
            return jobs, sizes


def check_jobs(jobs):
    """Run each job's output check; sets job.error on a wrong output."""
    for job in jobs:
        if job.error is None:
            try:
                why = job.check(job.out)
            except Exception as exc:
                why = "check raised %s: %s" % (type(exc).__name__, exc)
            if why:
                job.error = "check: " + why


def run_probe(wl, ctx, seed, workdir):
    """Run the workload's defect probe, if it has one, untimed and after
    the decks. Returns the PROBE_METRICS values."""
    out = {name: 0.0 for name, _ in PROBE_METRICS}
    if not hasattr(wl, "probe"):
        return out
    os.makedirs(workdir)
    # its own random stream, one that no deck number reaches
    jobs = wl.probe(ctx, deck_rng(seed, 2 ** 31 - 1), workdir)
    run_jobs(jobs)
    check_jobs(jobs)
    hits = [j for j in jobs if j.error is not None]
    print("defect probe: %d of %d probe jobs raise or fail their check"
          % (len(hits), len(jobs)))
    for j in hits:
        print("  hit %s: %s" % (j.kind, j.error[:90]))
    out[wl.PROBE_METRIC] = len(hits) / len(jobs)
    return out


def setup_seconds(workload):
    """Median wall time to import pensive and build the workload's tables,
    each time in a fresh interpreter, raw and at reference speed."""
    times = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        ref = statistics.median(reference_s() for _ in range(25))
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            raise SystemExit("bench: set-up probe failed")
        took = float(res.stdout.split()[-1])
        times.append(took)
        scaled.append(took * REF_S / ref)
    print("setup_s raw median %.4f s" % statistics.median(times))
    return statistics.median(scaled)


def decks_of(jobs, sizes):
    ends = [sum(sizes[:k + 1]) for k in range(len(sizes))]
    return [jobs[e - n:e] for e, n in zip(ends, sizes)]


def scaled_latencies(jobs, sizes):
    """Job latencies at reference speed, deck by deck."""
    out = []
    for deck in decks_of(jobs, sizes):
        scale = REF_S / statistics.median(j.ref for j in deck)
        out.append([j.latency * scale for j in deck])
    return out


def summarize(jobs, sizes):
    by_deck = scaled_latencies(jobs, sizes)
    lat = [x for deck in by_deck for x in deck]
    failed = [j for j in jobs if j.error is not None]
    p90 = percentile(lat, 90)
    rates = [len(deck) / sum(deck) for deck in by_deck]
    raw = [j.latency for j in jobs]
    print("workload jobs: %d in %d decks, %.2f s timed; jobs/s by deck: %s"
          % (len(jobs), len(sizes), sum(raw),
             " ".join("%.3f" % r for r in rates)))
    print("speed reference: median %.4f ms (REF_S %.4f ms); raw p50 %.2f ms,"
          " p90 %.2f ms, jobs/s %.3f"
          % (1e3 * statistics.median(j.ref for j in jobs), 1e3 * REF_S,
             1e3 * percentile(raw, 50), 1e3 * percentile(raw, 90),
             statistics.median(len(d) / sum(j.latency for j in d)
                               for d in decks_of(jobs, sizes))))
    print("job_p90_ms from %d samples, %d beyond it"
          % (len(lat), sum(x > p90 for x in lat)))
    print("fail_frac: %d / %d = %.4f"
          % (len(failed), len(jobs), len(failed) / len(jobs)))
    for j in failed:
        print("  failed %s: %s" % (j.kind, j.error[:90]))
    return {
        # the median deck: a slow spell of the machine in one deck does
        # not move it
        "jobs_per_s": statistics.median(rates),
        "job_p50_ms": 1e3 * percentile(lat, 50),
        "job_p90_ms": 1e3 * p90,
        "ok_frac": 1.0 - len(failed) / len(jobs),
    }


def result_line(jobs, metrics, units):
    failed = [j for j in jobs if j.error is not None]
    return json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seed = args.seed % 2 ** 63

    if args.setup_probe:
        t0 = time.perf_counter()
        load_workloads()[args.workload].setup()
        print(time.perf_counter() - t0)
        return 0

    WORKLOADS = load_workloads()
    if args.workload not in WORKLOADS:
        raise SystemExit("bench: unknown workload %r (have %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    wl = WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(args.workload)
    ctx = wl.setup()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as work:
        if args.trace:
            return traced_run(wl, ctx, seed, args.seconds, work)
        jobs, sizes = run_decks(wl, ctx, seed, args.seconds, work)
        check_jobs(jobs)
        run_probe(wl, ctx, seed, os.path.join(work, "probe"))
    metrics = summarize(jobs, sizes)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = dict(END_TO_END)
    for name, unit in END_TO_END:
        print("%-12s %14.6g %s" % (name, metrics[name], unit))
    print(result_line(jobs, metrics, units))
    return 0


def traced_run(wl, ctx, seed, seconds, work):
    import spans
    rec = spans.SpanRecorder()

    def mark(i):
        rec.job_id = i

    with spans.Tracer(rec):
        jobs, sizes = run_decks(wl, ctx, seed, seconds,
                                os.path.join(work, "traced"), on_job=mark)
    decks = len(sizes)
    # the same first deck again without tracing gives the overhead
    first = jobs[:sizes[0]]
    replay = make_deck(wl, ctx, seed, 0, os.path.join(work, "replay"))
    run_jobs(replay)
    check_jobs(jobs)
    probed = run_probe(wl, ctx, seed, os.path.join(work, "probe"))
    traced_s = sum(j.latency for j in first)
    plain_s = sum(j.latency for j in replay)
    layers = spans.layer_metrics(rec, decks)
    metrics = {k: v for k, (v, _) in layers.items()}
    units = {k: u for k, (_, u) in layers.items()}
    metrics.update(probed)
    metrics["trace.jobs_per_s"] = len(first) / traced_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    units.update(PROBE_METRICS + TRACE_METRICS)

    print("traced %d spans over %d jobs in %d decks" % (len(rec), len(jobs),
                                                        decks))
    print("%-96s %8s %10s %10s" % ("path (per deck)", "calls", "total_s",
                                   "self_s"))
    for path, n, total, own in spans.path_table(rec):
        print("%-96s %8.0f %10.4f %10.4f"
              % ((" " * 2 * (len(path) - 1) + path[-1])[:96], n / decks,
                 total / decks, own / decks))
    for key in metrics:
        print("%-46s %14.6g %s" % (key, metrics[key], units[key]))
    dump = os.path.join(OUT, "spans-%s-seed%d.json.gz" % (wl.name, seed))
    rec.dump(dump)
    print("spans written to %s" % os.path.relpath(dump, ROOT))
    print(result_line(jobs, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
