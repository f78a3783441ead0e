"""Compare exact simulated error against the analytic distance bound.

Builds random spin-bath models, evolves the exact joint propagator under the
pulse schedule, and reports the trace-norm distance of the protected state
next to the analytic bound with the same (epsilon, eta). The margin column is
bound minus actual and must never be negative. The final section repeats two
scalar-bath cases where the exact answer is known in closed form.

Command-line equivalent: ddbound verify bound --qdd 2 2 --eps 0.1 --eta 0.5
"""

import math

import numpy as np

from ddbound.simulator import (
    BathSpec,
    ExperimentConfig,
    build_model,
    run_experiment,
)


def random_panel():
    rng = np.random.default_rng(512)
    print("randomized spin-bath runs:")
    print(
        f"  {'orders':>8} {'dim':>4} {'eps':>7} {'D_actual':>10} "
        f"{'D_bound':>10} {'margin':>10} {'unitarity':>10}"
    )
    for orders in ((1, 1), (2, 2), (1, 4), (3, 3)):
        for dim in (2, 8):
            eps = float(10.0 ** rng.uniform(-2.0, -0.5))
            eta = 10.0 ** rng.uniform(-1.0, 0.5, size=3)
            bath = BathSpec(
                dim=dim,
                seed=int(rng.integers(0, 2**31)),
                norms={
                    "0": 1.0,
                    "x": float(eta[0]),
                    "y": float(eta[1]),
                    "z": float(eta[2]),
                },
            )
            res = run_experiment(
                ExperimentConfig(kind="qdd", orders=orders, bath=bath, T=eps)
            )
            print(
                f"  {str(orders):>8} {dim:>4} {eps:>7.1e} "
                f"{res['distance_actual']:>10.3e} {res['distance_bound']:>10.3e} "
                f"{res['margin']:>10.3e} {res['unitarity_residual']:>10.1e}"
            )
    print()


def nested_panel():
    rng = np.random.default_rng(513)
    print("two-qubit nested runs, orders (1,1,1,1):")
    labels = [a + b for a in "0xyz" for b in "0xyz" if a + b != "00"]
    for _ in range(3):
        norms = {"00": 1.0}
        for lab in labels:
            norms[lab] = float(0.3 * rng.uniform(0.2, 1.0))
        bath = BathSpec(dim=4, seed=int(rng.integers(0, 2**31)), norms=norms)
        res = run_experiment(
            ExperimentConfig(kind="nudd", orders=(1, 1, 1, 1), bath=bath, T=0.05)
        )
        print(
            f"  D_actual {res['distance_actual']:.3e}  D_bound "
            f"{res['distance_bound']:.3e}  margin {res['margin']:.3e}"
        )
    print()


def closed_forms():
    print("scalar-bath closed forms:")
    scalar = BathSpec(dim=1, seed=5, norms={"0": 1.0, "z": 0.8})
    bz = float(build_model(scalar, 1).couplings["z"][0, 0].real)
    res = run_experiment(
        ExperimentConfig(
            kind="qdd", orders=(0, 0), bath=scalar, T=1.0, initial_state="plus"
        )
    )
    print(
        f"  free precession: D = {res['distance_actual']:.12f}, "
        f"|sin(b_z T)| = {abs(math.sin(bz)):.12f}"
    )
    res = run_experiment(
        ExperimentConfig(
            kind="qdd", orders=(0, 2), bath=scalar, T=1.0, initial_state="plus"
        )
    )
    print(
        f"  commuting dephasing, one pulse layer: D = {res['distance_actual']:.3e} "
        f"(refocused exactly)"
    )


if __name__ == "__main__":
    random_panel()
    nested_panel()
    closed_forms()
