"""Minimal hand-rolled SVG 1.1 emitter for trajectories, phase
portraits, and vortex paths.

Layers are explicit <g> groups (boundary, chords, slides, markers,
paths) so downstream styling stays diffable. Output is deterministic
for identical inputs.
"""

import math

import numpy as np

from .billiard import point_xy
from .errors import EmptyPlot

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]


def _fmt(x):
    return f"{float(x):.4f}"


class _Canvas:
    """Collects shapes in world coordinates, emits a scaled document."""

    def __init__(self, size=640, margin=0.05):
        self.size = size
        self.margin = margin
        self._groups = []
        self._pts = []

    def group(self, gid):
        body = []
        self._groups.append((gid, body))
        return body

    def track(self, xy):
        arr = np.atleast_2d(np.asarray(xy, dtype=float))
        self._pts.append(arr)

    def _transform(self):
        all_pts = np.vstack(self._pts)
        lo = all_pts.min(axis=0)
        hi = all_pts.max(axis=0)
        span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
        pad = self.margin * span
        scale = self.size / (span + 2 * pad)

        def to_px(x, y):
            px = (x - lo[0] + pad) * scale
            py = self.size - (y - lo[1] + pad) * scale
            return px, py

        return to_px

    def render(self):
        if not self._pts:
            raise EmptyPlot("nothing to draw")
        to_px = self._transform()
        out = ['<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{self.size}" height="{self.size}" '
               f'viewBox="0 0 {self.size} {self.size}">']
        for gid, body in self._groups:
            out.append(f'<g id="{gid}">')
            for kind, payload in body:
                if kind == "polyline":
                    xy, style = payload
                    pts = " ".join("%s,%s" % tuple(map(_fmt, to_px(x, y)))
                                   for x, y in xy)
                    out.append(f'<polyline points="{pts}" {style}/>')
                elif kind == "circle":
                    (x, y), rad, style = payload
                    px, py = to_px(x, y)
                    out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                               f'r="{_fmt(rad)}" {style}/>')
                elif kind == "text":
                    (x, y), label, style = payload
                    px, py = to_px(x, y)
                    out.append(f'<text x="{_fmt(px)}" y="{_fmt(py)}" '
                               f'{style}>{label}</text>')
            out.append('</g>')
        out.append('</svg>')
        return "\n".join(out) + "\n"


def _boundary_xy(curve, n=512):
    ts = np.linspace(0.0, 2 * math.pi, n + 1)
    z = curve.zpoint_t(ts)
    return np.c_[np.real(z), np.imag(z)]


def _polygon_xy(poly):
    v = np.asarray(poly.vertices, dtype=float)
    return np.vstack([v, v[:1]])


def _table_xy(curve):
    if getattr(curve, "kind", "") == "polygon":
        return _polygon_xy(curve)
    return _boundary_xy(curve)


def _slide_arcs_xy(curve, s_end, slide, n=24):
    """Arcs from s_end - slide to s_end, n samples each: (k, n, 2)."""
    ss = np.linspace(s_end - slide, s_end, n, axis=-1)
    return point_xy(curve, ss % curve.perimeter)


LINE = 'fill="none" stroke="%s" stroke-width="%s"'
DASHED = LINE + ' stroke-dasharray="6 4"'


def render_trajectory_svg(traj, caustic=None):
    """Billiard trajectory figure: boundary, chords, slide arcs, markers.

    caustic, if given, is (radius, label) for an annotated inner circle
    about the origin.
    """
    if traj.n_steps == 0:
        raise EmptyPlot("trajectory has no steps")
    curve = traj.curve
    cv = _Canvas()
    xy = _table_xy(curve)
    cv.track(xy)
    cv.group("boundary").append(
        ("polyline", (xy, LINE % ("#333333", 1.5))))

    chords = cv.group("chords")
    starts = np.vstack([point_xy(curve, traj.points[0].s),
                        traj.reflects[:-1]])
    for a, b in zip(starts, traj.impacts):
        chords.append(("polyline", (np.vstack([a, b]),
                                    LINE % ("#1f77b4", 1.0))))
    slides = cv.group("slides")
    slide = np.array(traj.slides)
    drawn = np.abs(slide) >= 1e-14
    s_end = np.array([x.s for x in traj.points[1:]])[drawn]
    for arc in _slide_arcs_xy(curve, s_end, slide[drawn]):
        slides.append(("polyline", (arc, LINE % ("#d62728", 2.0))))
    marks = cv.group("markers")
    for pt in traj.impacts:
        marks.append(("circle", (pt, 2.5,
                                 'fill="#1f77b4" stroke="none"')))
    for pt in traj.reflects:
        marks.append(("circle", (pt, 2.5,
                                 'fill="#d62728" stroke="none"')))
    if caustic is not None:
        radius, label = caustic
        ring = cv.group("caustic")
        ang = np.linspace(0, 2 * math.pi, 181)
        ring.append(("polyline",
                     (np.c_[radius * np.cos(ang), radius * np.sin(ang)],
                      DASHED % ("#2ca02c", 1.0))))
        ring.append(("text", ((0.0, 0.0), label,
                              'fill="#2ca02c" font-size="14" '
                              'text-anchor="middle"')))
    return cv.render()


def render_phase_svg(groups, perimeter):
    """Phase portrait: one dot layer per orbit in (s, theta) axes."""
    groups = [(str(label), np.asarray(s, dtype=float),
               np.asarray(th, dtype=float)) for label, s, th in groups]
    if not groups or all(s.size == 0 for _, s, _ in groups):
        raise EmptyPlot("no phase samples")
    cv = _Canvas()
    frame = np.array([[0.0, 0.0], [perimeter, 0.0], [perimeter, math.pi],
                      [0.0, math.pi], [0.0, 0.0]])
    frame[:, 0] *= math.pi / perimeter
    cv.track(frame)
    cv.group("frame").append(("polyline", (frame, LINE % ("#333333", 1.0))))
    for k, (label, s, th) in enumerate(groups):
        layer = cv.group(f"orbit-{label}")
        color = _PALETTE[k % len(_PALETTE)]
        for x, y in zip(s * math.pi / perimeter, th):
            layer.append(("circle", ((x, y), 1.5,
                                     f'fill="{color}" stroke="none"')))
    return cv.render()


def render_vortex_svg(paths, boundary=None, dashed=None):
    """Vortex path figure; dashed[k] switches path k to a dashed stroke."""
    paths = [np.atleast_2d(np.asarray(p, dtype=float)) for p in paths]
    if not paths or all(p.shape[0] < 2 for p in paths):
        raise EmptyPlot("no vortex paths")
    cv = _Canvas()
    if boundary is not None:
        xy = _table_xy(boundary)
        cv.track(xy)
        cv.group("boundary").append(
            ("polyline", (xy, LINE % ("#333333", 1.5))))
    layer = cv.group("paths")
    for k, path in enumerate(paths):
        cv.track(path)
        color = _PALETTE[k % len(_PALETTE)]
        style = LINE if not (dashed and dashed[k]) else DASHED
        layer.append(("polyline", (path, style % (color, 1.2))))
    marks = cv.group("markers")
    for k, path in enumerate(paths):
        color = _PALETTE[k % len(_PALETTE)]
        marks.append(("circle", (path[0], 3.0,
                                 f'fill="{color}" stroke="none"')))
    return cv.render()
