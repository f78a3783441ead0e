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

from .dyson import OrderCertification, verify_orders, word_integral
from .nudd_bounds import (
    NuddBoundReport,
    d_min_for_orders,
    gamma_factor,
    nudd_delta,
    nudd_distance_bound,
)
from .qdd_bounds import (
    BoundReport,
    ChannelBounds,
    DecouplingOrders,
    EtaVector,
    bounding_function,
    decoupling_orders,
    delta_tail,
    distance_bound,
    g_poly,
)
from .sequences import (
    PulseEvent,
    PulseSchedule,
    SwitchingProfile,
    nudd_schedule,
    qdd_schedule,
    switching_nudd,
    switching_qdd,
    udd_offsets,
)
from .series import NonConvergenceError
from .simulator import (
    BathSpec,
    ExperimentConfig,
    ScalingFit,
    SimResult,
    fit_scaling,
    run_experiment,
    run_experiments,
    trace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BathSpec",
    "BoundReport",
    "ChannelBounds",
    "DecouplingOrders",
    "EtaVector",
    "ExperimentConfig",
    "NonConvergenceError",
    "NuddBoundReport",
    "OrderCertification",
    "PulseEvent",
    "PulseSchedule",
    "ScalingFit",
    "SimResult",
    "SwitchingProfile",
    "bounding_function",
    "d_min_for_orders",
    "decoupling_orders",
    "delta_tail",
    "distance_bound",
    "fit_scaling",
    "g_poly",
    "gamma_factor",
    "nudd_delta",
    "nudd_distance_bound",
    "nudd_schedule",
    "qdd_schedule",
    "run_experiment",
    "run_experiments",
    "switching_nudd",
    "switching_qdd",
    "trace_distance",
    "udd_offsets",
    "verify_orders",
    "word_integral",
]
