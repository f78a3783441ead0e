"""Sweep the analytic channel and distance bounds over the preset panels.

For each preset cell this prints the bound at three sample epsilons plus the
log-log slope fitted over the small-epsilon end of the grid, which should sit
near d_min + 1. The "fig3" and "fig4" presets pair panels of even and odd
inner orders so the parity effects on d_y and d_z are visible side by side.

Equivalent CSV output: ddbound bounds qdd --fig2 (or --fig3 / --fig4).
"""

import numpy as np

from ddbound.qdd_bounds import (
    decoupling_orders,
    default_eps_grid,
    preset_cells,
    sweep_cell,
)
from ddbound.series import cell_ok


def sweep_panel(name):
    grid = np.asarray(default_eps_grid())
    window = grid[grid <= 1e-3 * (1 + 1e-12)]
    print(f"preset {name}:")
    print(
        f"  {'N1':>3} {'N2':>3} {'eta_x':>7} {'eta_z':>7}  {'d':>12} "
        f"{'D(1e-4)':>10} {'D(1e-2)':>10} {'D(1)':>10} {'slope':>6}"
    )
    for n1, n2, eta in preset_cells(name):
        columns, converged = sweep_cell(n1, n2, eta, grid)
        vals = np.where(cell_ok(columns, converged), columns["D_bound"], np.nan)
        slope = np.polyfit(np.log(window), np.log(vals[: len(window)]), 1)[0]
        d = decoupling_orders(n1, n2).as_tuple()
        picks = [vals[0], vals[20], vals[40]]
        print(
            f"  {n1:>3} {n2:>3} {eta.eta_x:>7.0e} {eta.eta_z:>7.0e}  "
            f"{str(d):>12} "
            + " ".join(f"{v:>10.3e}" for v in picks)
            + f" {slope:>6.2f}"
        )
    print()


if __name__ == "__main__":
    for name in ("fig2", "fig3", "fig4"):
        sweep_panel(name)
    print("slope tracks min(d)+1; parity of N1 shifts d_y and d_z between panels")
