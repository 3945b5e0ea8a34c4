"""Rotation numbers and periodic orbits on the disk with a slide.

On a circular table the map is a rigid rotation for each incidence
angle: the boundary advance per bounce is 2 theta + l~(theta). Sweeping
theta traces out the rotation ladder; every rational inside the window
carries a periodic orbit. The script prints the ladder for a vortex
slide, locates a few orbits variationally, and renders one trajectory
with its caustic plus a phase portrait.
"""

import math
import os

import numpy as np

from pensive import billiard as bil
from pensive import delay
from pensive import geometry as geo
from pensive import svg
from pensive import variational as var

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def main():
    os.makedirs(OUT, exist_ok=True)
    curve = geo.disk(1.0)
    law = delay.vortex(math.pi)

    print("rotation ladder, vortex slide of strength pi on the unit disk")
    print("%8s %12s %12s" % ("theta", "advance", "rotation"))
    for theta in np.linspace(0.2, math.pi - 0.2, 9):
        adv = bil.disk_rotation_angle(law, theta)
        print("%8.4f %12.6f %12.6f" % (theta, adv, adv / (2 * math.pi)))

    print("\nperiodic orbits found from the action principle")
    print("%6s %10s %12s %12s %12s"
          % ("p/q", "theta", "action", "residual", "residue"))
    for p, q in ((1, 3), (2, 5), (1, 2), (5, 4), (7, 6)):
        orbit = var.periodic_orbit_search(curve, law, (p, q))
        print("%3d/%-2d %10.6f %12.6f %12.2e %12.2e"
              % (p, q, orbit.theta[0], orbit.action, orbit.residual,
                 orbit.residue))

    theta0 = 1.1
    traj = bil.iterate(curve, law, bil.PhasePoint(0.0, theta0), 40)
    doc = svg.render_trajectory_svg(
        traj, caustic=(bil.caustic_radius(1.0, theta0), "caustic"))
    with open(os.path.join(OUT, "disk_vortex_trajectory.svg"), "w") as fh:
        fh.write(doc)

    groups = []
    for k, th in enumerate(np.linspace(0.5, 2.6, 6)):
        t = bil.iterate(curve, law, bil.PhasePoint(0.7 * k, th), 60)
        arr = t.as_arrays()
        groups.append(("orbit-%d" % k, arr["s"] % curve.perimeter,
                       arr["theta"]))
    doc = svg.render_phase_svg(groups, curve.perimeter)
    with open(os.path.join(OUT, "disk_vortex_phase.svg"), "w") as fh:
        fh.write(doc)
    print("\nwrote disk_vortex_trajectory.svg and disk_vortex_phase.svg"
          " to %s" % OUT)


if __name__ == "__main__":
    main()
