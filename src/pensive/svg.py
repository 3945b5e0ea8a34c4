"""Minimal hand-rolled SVG 1.1 emitter for trajectories, phase
portraits, and vortex paths.

Layers are explicit <g> groups (boundary, chords, slides, markers,
paths) so downstream styling stays diffable. Output is deterministic
for identical inputs.

Each renderer fixes its pixel frame first, from the shapes that should
fill the figure (the table, the phase frame, or the table plus the
vortex paths), maps whole (n, 2) arrays to pixels, and formats each
polyline or marker layer with one %-template.
"""

import math

import numpy as np

from .billiard import point_xy
from .errors import EmptyPlot

SIZE = 640
MARGIN = 0.05
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]

LINE = 'fill="none" stroke="%s" stroke-width="%s"'
DASHED = LINE + ' stroke-dasharray="6 4"'


def _frame(xy):
    """World-to-pixel map whose square frame holds the points xy."""
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
    pad = MARGIN * span
    scale = SIZE / (span + 2 * pad)

    def to_px(w):
        w = np.asarray(w, dtype=float)
        return np.stack([(w[..., 0] - lo[0] + pad) * scale,
                         SIZE - (w[..., 1] - lo[1] + pad) * scale], axis=-1)

    return to_px


def _polyline(px, style):
    """One <polyline> per (n, 2) row of px, all in one format pass."""
    px = px.reshape(-1, px.shape[-2], 2)
    one = '<polyline points="%s" %s/>' % (
        " ".join(["%.4f,%.4f"] * px.shape[1]), style)
    return "\n".join([one] * len(px)) % tuple(px.ravel().tolist())


def _dots(px, r, fill):
    """One filled <circle> of radius r per pixel point in px (n, 2)."""
    one = ('<circle cx="%%.4f" cy="%%.4f" r="%.4f" fill="%s" stroke="none"/>'
           % (r, fill))
    return "\n".join([one] * len(px)) % tuple(px.ravel().tolist())


def _document(layers):
    """The SVG text of (group id, group body) layers; empty bodies allowed."""
    out = ['<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">']
    for gid, body in layers:
        out.append(f'<g id="{gid}">')
        if body:
            out.append(body)
        out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def _table_xy(curve):
    """Closed outline of a table: polygon vertices or 513 samples in t."""
    if getattr(curve, "kind", "") == "polygon":
        v = np.asarray(curve.vertices, dtype=float)
        return np.vstack([v, v[:1]])
    z = curve.zpoint_t(np.linspace(0.0, 2 * math.pi, 513))
    return np.c_[np.real(z), np.imag(z)]


def render_trajectory_svg(traj, caustic=None):
    """Billiard trajectory figure: boundary, chords, slide arcs, markers.

    caustic, if given, is (radius, label) for an annotated inner circle
    about the origin.
    """
    if traj.n_steps == 0:
        raise EmptyPlot("trajectory has no steps")
    curve = traj.curve
    table = _table_xy(curve)
    to_px = _frame(table)
    starts = np.vstack([point_xy(curve, traj.points[0].s),
                        traj.reflects[:-1]])
    slide = np.array(traj.slides)
    drawn = np.abs(slide) >= 1e-14
    s_end = np.array([x.s for x in traj.points[1:]])[drawn]
    # arcs from s_end - slide to s_end, 24 samples each
    ss = np.linspace(s_end - slide[drawn], s_end, 24, axis=-1)
    arcs = point_xy(curve, ss % curve.perimeter)
    layers = [
        ("boundary", _polyline(to_px(table), LINE % ("#333333", 1.5))),
        ("chords", _polyline(to_px(np.stack([starts, traj.impacts], axis=1)),
                             LINE % ("#1f77b4", 1.0))),
        ("slides", _polyline(to_px(arcs), LINE % ("#d62728", 2.0))),
        ("markers", _dots(to_px(traj.impacts), 2.5, "#1f77b4") + "\n"
         + _dots(to_px(traj.reflects), 2.5, "#d62728")),
    ]
    if caustic is not None:
        radius, label = caustic
        ang = np.linspace(0, 2 * math.pi, 181)
        ring = np.c_[radius * np.cos(ang), radius * np.sin(ang)]
        x, y = to_px([0.0, 0.0]).tolist()
        text = (f'<text x="{x:.4f}" y="{y:.4f}" fill="#2ca02c" '
                f'font-size="14" text-anchor="middle">{label}</text>')
        layers.append(("caustic", _polyline(to_px(ring),
                                            DASHED % ("#2ca02c", 1.0))
                       + "\n" + text))
    return _document(layers)


def render_phase_svg(groups, perimeter):
    """Phase portrait: one dot layer per orbit in (s, theta) axes."""
    groups = [(str(label), np.asarray(s, dtype=float),
               np.asarray(th, dtype=float)) for label, s, th in groups]
    if not groups or all(s.size == 0 for _, s, _ in groups):
        raise EmptyPlot("no phase samples")
    frame = np.array([[0.0, 0.0], [perimeter, 0.0], [perimeter, math.pi],
                      [0.0, math.pi], [0.0, 0.0]])
    frame[:, 0] *= math.pi / perimeter
    to_px = _frame(frame)
    layers = [("frame", _polyline(to_px(frame), LINE % ("#333333", 1.0)))]
    for k, (label, s, th) in enumerate(groups):
        layers.append((f"orbit-{label}",
                       _dots(to_px(np.c_[s * math.pi / perimeter, th]), 1.5,
                             _PALETTE[k % len(_PALETTE)])))
    return _document(layers)


def render_vortex_svg(paths, boundary=None, dashed=None):
    """Vortex path figure; dashed[k] switches path k to a dashed stroke."""
    paths = [np.atleast_2d(np.asarray(p, dtype=float)) for p in paths]
    if not paths or all(p.shape[0] < 2 for p in paths):
        raise EmptyPlot("no vortex paths")
    table = [] if boundary is None else [_table_xy(boundary)]
    to_px = _frame(np.vstack(table + paths))
    layers = [("boundary", _polyline(to_px(xy), LINE % ("#333333", 1.5)))
              for xy in table]
    colors = [_PALETTE[k % len(_PALETTE)] for k in range(len(paths))]
    layers.append(("paths", "\n".join(
        _polyline(to_px(p), (DASHED if dashed and dashed[k] else LINE)
                  % (colors[k], 1.2)) for k, p in enumerate(paths))))
    layers.append(("markers", "\n".join(
        _dots(to_px(p[:1]), 3.0, c) for p, c in zip(paths, colors))))
    return _document(layers)
