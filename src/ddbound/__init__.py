"""Nested dynamical-decoupling schedules, certified error bounds, exact verification.

Three layers:

* schedule construction and switching functions (:mod:`ddbound.sequences`);
* analytic trace-norm error bounds for the quadratic single-qubit sequence
  (:mod:`ddbound.qdd_bounds`) and the general nested multi-qubit family
  (:mod:`ddbound.nudd_bounds`);
* verification tools: proof-grade nested-integral order certification
  (:mod:`ddbound.dyson`) and an exact spin-bath simulator
  (:mod:`ddbound.simulator`) that checks measured errors against the bounds.

A command-line front end lives in :mod:`ddbound.cli` (entry point
``ddbound``).
"""

from .dyson import OrderCertification, verify_orders
from .nudd_bounds import (
    d_min_for_orders,
    gamma_factor,
    nudd_delta,
    nudd_distance_bound,
)
from .qdd_bounds import (
    DecouplingOrders,
    EtaVector,
    decoupling_orders,
    delta_tail,
    distance_bound,
)
from .sequences import (
    PulseEvent,
    PulseSchedule,
    SwitchingProfile,
    nudd_schedule,
    qdd_schedule,
    switching_qdd,
    udd_offsets,
)
from .series import NonConvergenceError
from .simulator import (
    BathSpec,
    ExperimentConfig,
    ScalingFit,
    fit_scaling,
    run_experiment,
    run_experiments,
    trace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BathSpec",
    "DecouplingOrders",
    "EtaVector",
    "ExperimentConfig",
    "NonConvergenceError",
    "OrderCertification",
    "PulseEvent",
    "PulseSchedule",
    "ScalingFit",
    "SwitchingProfile",
    "d_min_for_orders",
    "decoupling_orders",
    "delta_tail",
    "distance_bound",
    "fit_scaling",
    "gamma_factor",
    "nudd_delta",
    "nudd_distance_bound",
    "nudd_schedule",
    "qdd_schedule",
    "run_experiment",
    "run_experiments",
    "switching_qdd",
    "trace_distance",
    "udd_offsets",
    "verify_orders",
]
