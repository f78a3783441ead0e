"""Sweep the nested multi-qubit tail bound over its preset panel.

The preset covers m=10 protected qubits, where the error-word count factor
gamma = 4^m - 1 is about 1.05e6. The natural small parameter is the product
eps*(1+gamma*eta), so each cell is swept over an epsilon window rescaled by
1/(1+gamma*eta); the slope of the tail Delta against eps still lands on
d_min + 1.

Equivalent CSV output: ddbound bounds nudd --fig5.
"""

import numpy as np

from ddbound.nudd_bounds import (
    gamma_factor,
    nudd_eps_window,
    nudd_sweep_cell,
    preset_nudd_cells,
)
from ddbound.series import cell_ok


def main():
    print(f"gamma(m=10) = {gamma_factor(10)}")
    print(
        f"  {'d_min':>5} {'eta':>7} {'eps window':>23} "
        f"{'Delta(lo)':>10} {'Delta(hi)':>10} {'slope':>6}"
    )
    for m, d_min, eta in preset_nudd_cells("fig5"):
        window = np.asarray(nudd_eps_window(eta, m))
        columns, converged = nudd_sweep_cell(m, d_min, eta, window)
        deltas = np.where(cell_ok(columns, converged), columns["Delta"], np.nan)
        fit = slice(0, 11)  # eps*(1+gamma*eta) from 1e-4 to 1e-3
        slope = np.polyfit(np.log(window[fit]), np.log(deltas[fit]), 1)[0]
        print(
            f"  {d_min:>5} {eta:>7.0e} "
            f"[{window[0]:>9.2e}, {window[-1]:>9.2e}] "
            f"{deltas[0]:>10.3e} {deltas[-1]:>10.3e} {slope:>6.2f}"
        )


if __name__ == "__main__":
    main()
