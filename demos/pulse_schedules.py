"""Walk through schedule construction for nested decoupling sequences.

Prints the pulse event table for a small two-level sequence, shows how odd
orders get a frame-closing pulse appended, and evaluates the three switching
functions on a few sample points.
"""

import numpy as np

from ddbound.sequences import (
    nesting_grid,
    nudd_schedule,
    qdd_schedule,
    udd_offsets,
)


def show_offsets():
    print("single-layer pulse offsets (fraction of total time):")
    for n in (1, 2, 3, 4):
        offs = udd_offsets(n)
        print(f"  N={n}: {[f'{t:.4f}' for t in offs]}")
    print("odd N ends with an appended pulse at t=1 so the frame closes\n")


def show_qdd_events(n1, n2):
    sched = qdd_schedule(n1, n2)
    print(f"QDD({n1},{n2}) schedule, {len(sched.events)} pulses:")
    print(f"  {'time':>10}  axis  level")
    for ev in sched.events:
        print(f"  {ev.time:>10.6f}  {ev.axis:>4}  {ev.level:>5}")
    print()


def show_switching(n1, n2):
    grid = nesting_grid((n1, n2))
    print(f"switching functions for QDD({n1},{n2}) at sample times:")
    samples = [0.0, 0.3, 0.45, 0.7, 0.9, 0.99]
    header = "  ".join(f"{s:>6.2f}" for s in samples)
    print(f"  t      {header}")
    # the interval each sample lies in, right-continuous at its ends, and the
    # last interval at t = 1
    cells = np.minimum(np.searchsorted(grid.ends, samples, side="right"), grid.ends.size - 1)
    axes = ("x", "y", "z")
    for axis, row in zip(axes, grid.switching(axes)):
        vals = "  ".join(f"{int(v):>+6d}" for v in row[cells])
        print(f"  f_{axis}    {vals}")
    print("note f_y = f_x * f_z pointwise\n")


def show_nudd():
    sched = nudd_schedule((1, 1, 1, 1), 2)
    print(f"two-qubit nested schedule, orders (1,1,1,1): {len(sched.events)} pulses")
    by_level = {}
    for ev in sched.events:
        by_level.setdefault(ev.level, []).append(ev)
    for level in sorted(by_level):
        evs = by_level[level]
        print(
            f"  level {level}: qubit {evs[0].qubit}, axis {evs[0].axis}, "
            f"{len(evs)} pulses"
        )


if __name__ == "__main__":
    show_offsets()
    show_qdd_events(2, 2)
    show_switching(2, 2)
    show_nudd()
