"""In-memory span recorder and the per-layer metrics derived from it.

Tracing wraps the public functions of each ``pensive`` module (and a few
methods and third-party entry points the layers call) by patching
attributes at run time; nothing under ``src/`` is edited. Every call of
a wrapped function records one span: name, start, end, parent span and
the id of the benchmark job it ran under. Spans are kept in flat arrays
and written out once, when the run ends.
"""

import functools
import gzip
import inspect
import json
import time
import weakref
from array import array

import numpy as np

# module attributes wrapped under the module's short name
MODULES = ("geometry", "delay", "billiard", "variational", "twist",
           "vortex", "outer", "svg", "cli")

# (module, class, method, span name): methods the layers call on objects
METHODS = (
    ("geometry", "BoundaryCurve", "point", "geometry.point"),
    ("geometry", "BoundaryCurve", "t_of_s", "geometry.t_of_s"),
    ("geometry", "PolygonBoundary", "point", "geometry.point"),
    ("delay", "DelayFunction", "ell_theta", "delay.ell_theta"),
    ("vortex", "HalfPlane", "boundary_distance", "vortex.boundary_distance"),
    ("vortex", "DiskDomain", "boundary_distance", "vortex.boundary_distance"),
    ("vortex", "NeumannOvalDomain", "boundary_distance",
     "vortex.boundary_distance"),
    ("outer", "SphericalCurve", "dual", "outer.SphericalCurve.dual"),
)

# methods called about a million times a deck: counted on the enclosing
# span instead of getting spans of their own
TALLIED = tuple((cls, meth, "vortex." + meth)
                for cls in ("HalfPlane", "DiskDomain", "NeumannOvalDomain")
                for meth in ("grad_greens", "grad_robin"))

# third-party functions as bound in a pensive module's namespace
FOREIGN = (("geometry", "brentq"), ("vortex", "solve_ivp"))


class SpanRecorder:
    """Flat, append-only span store for one single-threaded run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.attrs = {}
        self._open = []
        self.job_id = -1

    def name_id(self, name):
        k = self._ids.get(name)
        if k is None:
            k = self._ids[name] = len(self.names)
            self.names.append(name)
        return k

    def open(self, name_id):
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i, attrs=None):
        self.end[i] = time.perf_counter()
        self._open.pop()
        if attrs:
            self.attrs[i] = attrs

    def tally(self, name):
        """Count a call on the innermost open span (-1: none open)."""
        d = self.attrs.setdefault(self._open[-1] if self._open else -1, {})
        d[name] = d.get(name, 0) + 1

    def __len__(self):
        return len(self.name)

    def dump(self, path):
        """Write the spans as one gzip'd, column-wise JSON document."""
        doc = {"names": self.names, "name": list(self.name),
               "start": list(self.start), "end": list(self.end),
               "parent": list(self.parent), "job": list(self.job),
               "attrs": {str(k): v for k, v in self.attrs.items()}}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


# -- counters attached to spans --------------------------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


_diameters = {}     # id(table) -> (weak reference, diameter)


def table_diameter(curve):
    """Largest distance between two boundary samples, cached per table."""
    hit = _diameters.get(id(curve))
    if hit is not None and hit[0]() is curve:
        return hit[1]
    if hasattr(curve, "vertices"):
        xy = np.asarray(curve.vertices, dtype=float)
        z = xy[:, 0] + 1j * xy[:, 1]
    else:
        z = curve.zpoint_t(np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False))
    d = float(np.max(np.abs(z[:, None] - z[None, :])))
    _diameters[id(curve)] = (weakref.ref(curve), d)
    return d


def _count_chord(args, kwargs, out, exc):
    if exc is not None:
        return None
    curve = _arg(args, kwargs, 0, "curve")
    if out[2] < 1e-12 * table_diameter(curve):
        return {"zero": 1}
    return None


def _rows_at(pos):
    def count(args, kwargs, out, exc):
        return {"rows": int(np.size(_arg(args, kwargs, pos, "s")))}
    return count


def _count_iterate(args, kwargs, out, exc):
    if exc is not None:
        partial = getattr(exc, "partial", None)
        return {"steps": partial.n_steps if partial is not None else 0}
    return {"steps": out.n_steps}


def _count_search(args, kwargs, out, exc):
    return {"found": int(exc is None)}


COUNTERS = {
    "geometry.chord": _count_chord,
    "geometry.chord_batch": _rows_at(1),       # chord_batch(curve, s, theta)
    "billiard.pensive_batch": _rows_at(2),     # (curve, law, s, theta)
    "billiard.iterate": _count_iterate,
    "variational.periodic_orbit_search": _count_search,
}


# -- installing and removing the wrappers -----------------------------------


def _wrap(rec, name, fn):
    nid = rec.name_id(name)
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(i, count(args, kwargs, None, exc) if count else None)
            raise
        rec.close(i, count(args, kwargs, out, None) if count else None)
        return out

    return traced


def _tallied(rec, name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.tally(name)
        return fn(*args, **kwargs)

    return counted


class Tracer:
    """Context manager that patches the package and restores it on exit."""

    def __init__(self, rec):
        self.rec = rec
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        import importlib
        pkg = importlib.import_module("pensive")
        mods = {m: importlib.import_module("pensive." + m) for m in MODULES}
        method_names = {span for _, _, _, span in METHODS}
        method_names.update(span for _, _, span in TALLIED)
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                span = "%s.%s" % (short, attr)
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or span in method_names):
                    continue
                wrapped[id(fn)] = _wrap(self.rec, span, fn)
        for short, attr in FOREIGN:
            fn = getattr(mods[short], attr)
            self._set(mods[short], attr,
                      _wrap(self.rec, "%s.%s" % (short, attr), fn))
        # rebind every alias of a wrapped function, e.g. names that one
        # module imported from another with `from .x import f`
        for mod in [pkg] + list(mods.values()):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and inspect.isfunction(val):
                    self._set(mod, attr, wrapped[id(val)])
        for short, cls, meth, span in METHODS:
            owner = getattr(mods[short], cls)
            self._set(owner, meth, _wrap(self.rec, span, vars(owner)[meth]))
        for cls, meth, name in TALLIED:
            owner = getattr(mods["vortex"], cls)
            self._set(owner, meth, _tallied(self.rec, name, vars(owner)[meth]))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


# -- analysis ----------------------------------------------------------------


def self_times(start, end, parent):
    """Span duration minus the time its child spans cover.

    Spans come from one thread with stack discipline, so children nest
    inside their parent and never overlap each other: the covered time
    is the sum of the children's durations.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def _arrays(rec):
    name = np.frombuffer(rec.name, dtype=np.int32).astype(np.int64)
    parent = np.frombuffer(rec.parent, dtype=np.int32).astype(np.int64)
    return name, parent


def under(names, name, parent, pred):
    """Per span: does a proper ancestor's name satisfy pred?"""
    own = np.array([bool(pred(s)) for s in names] + [False])
    hit = np.zeros(len(name), dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return hit
        hit[live] |= own[name[anc[live]]]
        anc[live] = parent[anc[live]]


# (metric, unit) in report order
LAYER_METRICS = (
    ("geometry.t_of_s.calls", "count"), ("geometry.t_of_s.self_s", "s"),
    ("geometry.point.calls", "count"), ("geometry.point.self_s", "s"),
    ("geometry.chord.calls", "count"), ("geometry.chord.self_s", "s"),
    ("geometry.chord_batch.calls", "count"),
    ("geometry.chord_batch.rows", "count"),
    ("geometry.chord_batch.self_s", "s"),
    ("geometry.chord_batch.fallback_frac", "ratio"),
    ("geometry.chord_batch.rows_per_p_star", "count"),
    ("geometry.zero_chord_frac", "ratio"),
    ("geometry.brentq.calls", "count"),
    ("delay.ell_theta.calls", "count"), ("delay.ell_theta.self_s", "s"),
    ("billiard.iterate.steps", "count"), ("billiard.iterate.self_s", "s"),
    ("billiard.pensive_batch.calls", "count"),
    ("billiard.pensive_batch.rows", "count"),
    ("billiard.pensive_batch.self_s", "s"),
    ("variational.periodic_orbit_search.calls", "count"),
    ("variational.periodic_orbit_search.self_s", "s"),
    ("variational.p_star.calls", "count"),
    ("variational.p_star.self_s", "s"),
    ("variational.generating_function.calls", "count"),
    ("variational.orbit_found_frac", "ratio"),
    ("twist.pensive_dS_dtheta.self_s", "s"),
    ("twist.twist_certificate.self_s", "s"),
    ("vortex.integrate.calls", "count"), ("vortex.integrate.self_s", "s"),
    ("vortex.integrate.attempts", "count"),
    ("vortex.integrate.first_try_frac", "ratio"),
    ("vortex.grad_greens.calls", "count"),
    ("vortex.grad_robin.calls", "count"),
    ("vortex.boundary_distance.calls", "count"),
    ("vortex.boundary_distance.self_s", "s"),
    ("vortex.hamiltonian.self_s", "s"),
    ("vortex.dipole_billiard_limit_check.self_s", "s"),
    ("vortex.multi_dipole_simulate.self_s", "s"),
    ("outer.tangent_coordinates.calls", "count"),
    ("outer.tangent_coordinates.self_s", "s"),
    ("outer.pensive_outer_step.self_s", "s"),
    ("outer.SphericalCurve.dual.self_s", "s"),
    ("outer.spherical_outer_step.calls", "count"),
    ("outer.spherical_outer_step.self_s", "s"),
    ("svg.render_trajectory_svg.self_s", "s"),
    ("svg.render_phase_svg.self_s", "s"),
    ("svg.point_calls", "count"),
    ("cli.main.self_s", "s"),
)

# ratios of two counts: not divided by the number of decks
_RATIOS = {"geometry.chord_batch.fallback_frac",
           "geometry.chord_batch.rows_per_p_star", "geometry.zero_chord_frac",
           "variational.orbit_found_frac", "vortex.integrate.first_try_frac"}


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(rec, per=1.0):
    """LAYER_METRICS as {name: (value, unit)}; counts and times divided
    by per (the number of decks traced)."""
    name, parent = _arrays(rec)
    own = self_times(rec.start, rec.end, parent)
    ids = {n: i for i, n in enumerate(rec.names)}

    def sel(n):
        return name == ids.get(n, -1)

    def attr_sum(n, key, mask=None):
        idx = np.nonzero(sel(n) if mask is None else sel(n) & mask)[0]
        return sum(rec.attrs.get(int(i), {}).get(key, 0) for i in idx)

    def calls(n):
        tallied = sum(d.get(n, 0) for d in rec.attrs.values())
        return int(np.count_nonzero(sel(n))) + tallied

    def pred(target):
        return lambda s: s == target

    in_batch = under(rec.names, name, parent, pred("geometry.chord_batch"))
    in_pstar = under(rec.names, name, parent, pred("variational.p_star"))
    in_integ = under(rec.names, name, parent, pred("vortex.integrate"))
    in_svg = under(rec.names, name, parent, lambda s: s.startswith("svg."))
    batch_rows = attr_sum("geometry.chord_batch", "rows", ~in_batch)
    attempts = np.count_nonzero(sel("vortex.solve_ivp") & in_integ)
    m = {
        "geometry.chord_batch.rows": batch_rows,
        "geometry.chord_batch.fallback_frac": _ratio(
            np.count_nonzero(sel("geometry.chord") & in_batch), batch_rows),
        "geometry.chord_batch.rows_per_p_star": _ratio(
            attr_sum("geometry.chord_batch", "rows", ~in_batch & in_pstar),
            calls("variational.p_star")),
        "geometry.zero_chord_frac": _ratio(
            attr_sum("geometry.chord", "zero"), calls("geometry.chord")),
        "billiard.iterate.steps": attr_sum("billiard.iterate", "steps"),
        "billiard.pensive_batch.rows": attr_sum("billiard.pensive_batch",
                                                "rows"),
        "variational.orbit_found_frac": _ratio(
            attr_sum("variational.periodic_orbit_search", "found"),
            calls("variational.periodic_orbit_search")),
        "vortex.integrate.attempts": attempts,
        "vortex.integrate.first_try_frac": _ratio(
            calls("vortex.integrate"), attempts),
        "svg.point_calls": np.count_nonzero(sel("geometry.point") & in_svg),
    }
    out = {}
    for key, unit in LAYER_METRICS:
        if key in m:
            v = m[key]
        elif key.endswith(".calls"):
            v = calls(key[:-len(".calls")])
        else:
            v = float(own[sel(key[:-len(".self_s")])].sum())
        out[key] = (float(v if key in _RATIOS else v / per), unit)
    return out


def path_table(rec, min_share=0.01):
    """Time by call path (cli.main > svg.render_trajectory_svg > ...).

    Returns rows (path, calls, total_s, self_s), depth first, for the
    paths whose total time is at least min_share of all root-span time.
    """
    if not len(rec):
        return []
    name, parent = _arrays(rec)
    dur = np.asarray(rec.end) - np.asarray(rec.start)
    own = self_times(rec.start, rec.end, parent)
    # depth by pointer chasing, then path ids level by level
    depth = np.zeros(len(name), dtype=np.int64)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        depth[live] += 1
        anc[live] = parent[anc[live]]
    path_id = np.empty(len(name), dtype=np.int64)
    paths = []
    for d in range(int(depth.max()) + 1):
        idx = np.nonzero(depth == d)[0]
        up = path_id[parent[idx]] if d else np.full(len(idx), -1)
        keys, inv = np.unique(np.c_[up, name[idx]], axis=0,
                              return_inverse=True)
        base = len(paths)
        for u, n in keys:
            paths.append((paths[u] if u >= 0 else ()) + (rec.names[n],))
        path_id[idx] = base + inv.ravel()
    n_paths = len(paths)
    calls = np.bincount(path_id, minlength=n_paths)
    total = np.bincount(path_id, weights=dur, minlength=n_paths)
    selft = np.bincount(path_id, weights=own, minlength=n_paths)
    root = total[[i for i, p in enumerate(paths) if len(p) == 1]].sum()
    keep = [i for i in range(n_paths) if total[i] >= min_share * root]
    keep.sort(key=lambda i: paths[i])
    return [(paths[i], int(calls[i]), float(total[i]), float(selft[i]))
            for i in keep]
