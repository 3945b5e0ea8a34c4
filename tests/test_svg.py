"""SVG writer tests: the exact bytes of three figures.

The inputs are trig-free (a unit square with explicit vertices, fixed
step records, dyadic phase samples and vortex paths), so every pixel
coordinate is the same on any platform; only the caustic ring evaluates
cos/sin. The digests were recorded from the earlier canvas-based writer,
so a rewrite of the writer must keep every byte.
"""

import hashlib

import numpy as np
import pytest

from pensive import billiard as bil, delay, geometry as geo, svg
from pensive.errors import EmptyPlot

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def sha(doc):
    return hashlib.sha256(doc.encode()).hexdigest()


def square_trajectory():
    sq = geo.PolygonBoundary(SQUARE)
    traj = bil.Trajectory(sq, delay.constant(0.25), bil.PhasePoint(0.5, 1.0))
    # (s_launch, theta_in, s_impact, theta_out, s_out, chord, slide)
    for rec in [(0.5, 1.0, 1.25, 1.0, 1.5, 1.0, 0.25),
                (1.5, 1.0, 2.75, 2.0, 3.0, 1.25, 0.25),
                (3.0, 2.0, 0.25, 1.5, 3.875, 0.75, -0.375),
                (3.875, 1.5, 2.5, 1.25, 2.5, 1.0, 0.0)]:
        traj.append(bil.StepRecord(*rec))
    return traj


def test_figure_bytes_are_pinned():
    doc = svg.render_trajectory_svg(square_trajectory(),
                                    caustic=(0.375, "caustic r = 0.3750"))
    assert sha(doc) == (
        "8d6ead8328602112f67fad75188fb0ff6f1d0954b5c777222bba868f931d7148")

    groups = [(0, [0.5, 1.25, 3.5], [0.25, 1.5, 2.75]),
              ("empty", [], []),
              (2, np.arange(8) / 2.0, np.linspace(0.5, 2.25, 8))]
    doc = svg.render_phase_svg(groups, 4.0)
    assert doc.count("<circle") == 11 and '<g id="orbit-empty">\n</g>' in doc
    assert sha(doc) == (
        "8d1414b557c772be1c04114e40f6479098a2ae515b2f15fa551530cec02ea459")

    paths = [[[0.25, 0.25], [0.5, 0.375], [0.625, 0.75]],
             np.array([[0.75, 0.5], [0.5, 0.5], [0.25, 0.125], [0.125, 0.0]])]
    doc = svg.render_vortex_svg(paths, boundary=geo.PolygonBoundary(SQUARE),
                                dashed=[False, True])
    assert doc.count("stroke-dasharray") == 1
    assert sha(doc) == (
        "104bafc4482747589ad5f18018afeec48d181a338be4197a86107f11ce411f44")


def test_empty_figures_raise():
    traj = bil.Trajectory(geo.PolygonBoundary(SQUARE), delay.zero(),
                          bil.PhasePoint(0.5, 1.0))
    with pytest.raises(EmptyPlot):
        svg.render_trajectory_svg(traj)
    with pytest.raises(EmptyPlot):
        svg.render_phase_svg([(0, [], [])], 4.0)
    with pytest.raises(EmptyPlot):
        svg.render_vortex_svg([[[0.0, 0.0]]])
