"""Exact pulsed evolution of protected qubits coupled to a finite random bath.

The joint Hamiltonian is a sum of Pauli strings on the system tensored with
Hermitian bath operators of prescribed spectral norm.  Between ideal pulses
the Hamiltonian is constant, so the evolution is propagated exactly in its
eigenbasis (one eigendecomposition, reused for every interval): a free
segment is a diagonal phase scaling, and each pulse is one dense product with
the Pauli operator in that basis, built once per (axis, qubit).  The global
phase of each pi pulse is dropped, which cancels in all density matrices.

From the final unitary the per-channel bath operators A are read off by a
Pauli partial trace, and the protected state is compared against the
uncoupled evolution in trace-norm distance.  Everything is deterministic in
the configured seed; random baths are rescaled to their exact target norm so
the dimensionless bound inputs are exact, not estimated.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .nudd_bounds import NuddBoundReport, d_min_for_orders, nudd_distance_bound
from .qdd_bounds import BoundReport, EtaVector, distance_bound
from .sequences import PulseSchedule, nudd_schedule
from .series import check_rel_tol

__all__ = [
    "PAULI",
    "pauli_labels",
    "pauli_matrix",
    "BathSpec",
    "HamiltonianModel",
    "ExperimentConfig",
    "SimResult",
    "ScalingFit",
    "random_bath",
    "build_model",
    "evolve",
    "extract_channel_ops",
    "unitarity_residuals",
    "spectral_norm",
    "trace_distance",
    "partial_trace_bath",
    "run_experiment",
    "fit_scaling",
    "MAX_TOTAL_DIM",
    "NORM_FLOOR",
]

PAULI = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_TOTAL_DIM = 256
MAX_QUBITS = 2
NORM_FLOOR = 1e-14  # below this, channel norms are numerically unresolvable

_BATH_STATES = ("maximally-mixed", "pure-random")
_INITIAL_STATES = ("random", "plus", "zero")


def pauli_labels(qubit_count: int) -> tuple[str, ...]:
    """All length-m Pauli strings over '0xyz' in lexicographic product order.

    A count outside 1..MAX_QUBITS raises before any of its 4^m labels is built.
    """
    if not 1 <= qubit_count <= MAX_QUBITS:
        raise ValueError(f"qubit count {qubit_count} outside supported range")
    return tuple(
        "".join(p) for p in itertools.product("0xyz", repeat=qubit_count)
    )


def _norm_labels(norms: Mapping[str, float], qubit_count: int) -> tuple[str, ...]:
    """The Pauli labels of ``qubit_count`` qubits, once every key of ``norms``
    is checked to be one of them."""
    labels = pauli_labels(qubit_count)
    unknown = set(norms) - set(labels)
    if unknown:
        raise ValueError(f"norm labels {sorted(unknown)} invalid for m={qubit_count}")
    return labels


def pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by ``label``."""
    mats = [PAULI[c] for c in label]
    return reduce(np.kron, mats)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _child_rng(seed: int, key: int) -> np.random.Generator:
    """Deterministic RNG stream ``key`` derived from a base seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


# spawn-key offsets reserved for non-coupling draws
_STATE_KEY = 1000
_BATH_STATE_KEY = 1001


@dataclass(frozen=True)
class BathSpec:
    """Random-bath description: dimension, seed, and target norm per channel.

    ``norms`` maps Pauli-string labels (e.g. "z" for one qubit, "x0" for two)
    to spectral norms J >= 0.  Channels not listed couple with J = 0.  The
    identity label ("0" * m) sets the pure-bath scale J0.
    """

    dim: int
    seed: int
    norms: Mapping[str, float]

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.dim):
            raise ValueError("bath dim must be a power of two >= 1")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"bath seed must be an integer >= 0, got {self.seed!r}")
        for label, j in self.norms.items():
            if not (math.isfinite(j) and j >= 0.0):
                raise ValueError(f"norm for channel {label!r} must be finite >= 0")

    def norm(self, label: str) -> float:
        return float(self.norms.get(label, 0.0))


def random_bath(dim: int, J: float, seed) -> np.ndarray:
    """Hermitian ``dim x dim`` matrix with spectral norm exactly ``J``.

    Drawn from the rotation-invariant Gaussian Hermitian ensemble, then
    rescaled so its largest eigenvalue magnitude equals ``J``.  ``seed`` may
    be an integer or a numpy Generator/SeedSequence.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not (math.isfinite(J) and J >= 0.0):
        raise ValueError("J must be finite and >= 0")
    if J == 0.0:
        return np.zeros((dim, dim), dtype=complex)
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = (raw + raw.conj().T) / 2.0
    scale = float(np.max(np.abs(np.linalg.eigvalsh(herm))))
    if scale == 0.0:
        raise RuntimeError("degenerate zero draw; use a different seed")
    return herm * (J / scale)


@dataclass
class HamiltonianModel:
    """Couplings of the joint Hamiltonian, and its eigendecomposition V diag(w) V^dag."""

    qubit_count: int
    bath_dim: int
    couplings: dict[str, np.ndarray]
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


def build_model(bath: BathSpec, qubit_count: int) -> HamiltonianModel:
    """Draw all couplings for ``qubit_count`` qubits and assemble the Hamiltonian.

    Coupling operators are drawn in sorted label order from independent
    seed-derived streams, so the model is a pure function of (bath, m).
    """
    labels = _norm_labels(bath.norms, qubit_count)
    d_sys = 2**qubit_count
    total = d_sys * bath.dim
    if total > MAX_TOTAL_DIM:
        raise ValueError(f"total dimension {total} exceeds limit {MAX_TOTAL_DIM}")
    couplings = {}
    for key, label in enumerate(sorted(labels)):
        j = bath.norm(label)
        couplings[label] = random_bath(bath.dim, j, _child_rng(bath.seed, key))
    h = np.zeros((total, total), dtype=complex)
    for label in labels:
        b = couplings[label]
        if np.any(b):
            h += np.kron(pauli_matrix(label), b)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    return HamiltonianModel(
        qubit_count=qubit_count,
        bath_dim=bath.dim,
        couplings=couplings,
        eigenvalues=w,
        eigenvectors=v,
    )


def evolve(schedule: PulseSchedule, model: HamiltonianModel, T: float) -> np.ndarray:
    """Exact joint unitary at time ``T`` under the pulsed Hamiltonian.

    The propagator is carried in the eigenbasis of H as W = V^dag U V, so a
    free segment of length tau is the diagonal row scaling exp(-i w tau) and
    each pulse is one D x D product with V^dag (sigma x 1) V, built once per
    (axis, qubit); U = V W V^dag at the end.  Pulses are exact Pauli
    conjugations (global phase dropped), applied in schedule order, so of two
    coincident pulses the inner level fires first.  Two Paulis commute or
    anticommute, so the other order would only flip the sign of U.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError("T must be finite and > 0")
    if schedule.qubit_count != model.qubit_count:
        raise ValueError("schedule and model disagree on qubit count")
    w, v = model.eigenvalues, model.eigenvectors
    phase_rate = -1j * w
    v_dag = v.conj().T
    # rows of V split as (system index, bath index): sigma x 1 acts on the first
    v_rows = v.reshape(2**model.qubit_count, model.bath_dim, len(w))
    u_eig = np.eye(len(w), dtype=complex)
    pulses: dict[tuple[str, int], np.ndarray] = {}
    t_prev = 0.0
    for event in schedule.events:
        if event.time > t_prev:
            u_eig *= np.exp(phase_rate * ((event.time - t_prev) * T))[:, None]
            t_prev = event.time
        key = (event.axis, event.qubit)
        if key not in pulses:
            label = "".join(
                event.axis if q == event.qubit else "0"
                for q in range(model.qubit_count)
            )
            sigma_v = np.tensordot(pauli_matrix(label), v_rows, axes=1)
            pulses[key] = v_dag @ sigma_v.reshape(v.shape)
        u_eig = pulses[key] @ u_eig
    if t_prev < 1.0:
        u_eig *= np.exp(phase_rate * ((1.0 - t_prev) * T))[:, None]
    return v @ u_eig @ v_dag


def extract_channel_ops(u: np.ndarray, qubit_count: int) -> dict[str, np.ndarray]:
    """Bath operators A per Pauli-string channel: U = sum sigma x A.

    A_label = (1/2^m) tr_system[(sigma_label)^dagger U].
    """
    d_sys = 2**qubit_count
    total = u.shape[0]
    if u.shape != (total, total) or total % d_sys:
        raise ValueError("unitary shape incompatible with qubit count")
    d_bath = total // d_sys
    u4 = u.reshape(d_sys, d_bath, d_sys, d_bath)
    out = {}
    for label in pauli_labels(qubit_count):
        sigma = pauli_matrix(label)
        out[label] = np.einsum("ki,kaib->ab", sigma.conj(), u4) / d_sys
    return out


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def unitarity_residuals(ops: Mapping[str, np.ndarray]) -> dict[str, float]:
    """Residual norms of the channel-operator unitarity relations.

    Always includes "completeness" (sum A^dag A minus the bath identity).
    For one qubit also the three cross relations mixing the identity channel
    with each Pauli pair.
    """
    labels = sorted(ops)
    dim = ops[labels[0]].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for label in labels:
        a = ops[label]
        acc += a.conj().T @ a
    out = {"completeness": spectral_norm(acc - np.eye(dim))}
    if all(len(label) == 1 for label in labels):
        a0, ax, ay, az = (ops[k] for k in ("0", "x", "y", "z"))

        def cross(p, q, r, s):
            return spectral_norm(
                p.conj().T @ q + q.conj().T @ p + 1j * (r.conj().T @ s - s.conj().T @ r)
            )

        out["cross_x"] = cross(ax, a0, ay, az)
        out["cross_y"] = cross(ay, a0, az, ax)
        out["cross_z"] = cross(az, a0, ax, ay)
    return out


def _check_density(rho: np.ndarray, tol: float) -> None:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if spectral_norm(rho - rho.conj().T) > tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise ValueError("density matrix trace differs from 1")
    if float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2))) < -tol:
        raise ValueError("density matrix has negative eigenvalues beyond tolerance")


def trace_distance(rho1: np.ndarray, rho2: np.ndarray, tol: float = 1e-10) -> float:
    """Trace-norm distance (1/2)||rho1 - rho2||_1 between density matrices."""
    _check_density(rho1, tol)
    _check_density(rho2, tol)
    return 0.5 * float(np.sum(np.linalg.svd(rho1 - rho2, compute_uv=False)))


def partial_trace_bath(rho: np.ndarray, d_sys: int, d_bath: int) -> np.ndarray:
    """Reduced system state: trace out the bath factor."""
    return np.einsum("aibi->ab", rho.reshape(d_sys, d_bath, d_sys, d_bath))


@dataclass(frozen=True)
class ExperimentConfig:
    """One protected-evolution experiment, fully determined by its fields.

    ``kind`` selects which bound family the result is compared against:
    "qdd" uses the channel-resolved quadratic bound (requires one qubit),
    "nudd" the collapsed multi-qubit bound.
    """

    kind: str
    orders: tuple[int, ...]
    bath: BathSpec
    T: float
    initial_state: str = "random"
    bath_state: str = "maximally-mixed"
    mode: str = "analytic"
    rel_tol: float = 1e-15

    def __post_init__(self) -> None:
        if self.kind not in ("qdd", "nudd"):
            raise ValueError("kind must be 'qdd' or 'nudd'")
        orders = tuple(int(n) for n in self.orders)
        object.__setattr__(self, "orders", orders)
        if any(n < 0 for n in orders):
            raise ValueError(f"orders must be integers >= 0, got {orders}")
        if self.kind == "qdd" and len(orders) != 2:
            raise ValueError("qdd experiments take exactly two orders")
        if len(orders) % 2 or not orders:
            raise ValueError("orders must come in (z, x) level pairs")
        m = len(orders) // 2
        _norm_labels(self.bath.norms, m)  # also rejects an unsupported qubit count
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError("T must be finite and > 0")
        check_rel_tol(self.rel_tol)
        if self.initial_state not in _INITIAL_STATES:
            raise ValueError(f"initial_state must be one of {_INITIAL_STATES}")
        if self.bath_state not in _BATH_STATES:
            raise ValueError(f"bath_state must be one of {_BATH_STATES}")
        id_label = "0" * m
        if self.bath.norm(id_label) <= 0.0:
            raise ValueError(
                "identity-channel norm J0 must be > 0 (sets the epsilon scale)"
            )
        if 2**m * self.bath.dim > MAX_TOTAL_DIM:
            raise ValueError("total dimension exceeds supported limit")

    @property
    def qubit_count(self) -> int:
        return len(self.orders) // 2


@dataclass(frozen=True)
class SimResult:
    """Measured quantities of one experiment next to their analytic bounds."""

    kind: str
    orders: tuple[int, ...]
    epsilon: float
    eta: tuple[float, ...] | float
    mode: str
    channel_norms: dict[str, float]
    distance_actual: float
    distance_bound: float
    margin: float
    channel_margins: dict[str, float]
    unitarity_residual: float
    cross_residuals: dict[str, float]


def _initial_system_state(config: ExperimentConfig) -> np.ndarray:
    d_sys = 2**config.qubit_count
    if config.initial_state == "zero":
        psi = np.zeros(d_sys, dtype=complex)
        psi[0] = 1.0
    elif config.initial_state == "plus":
        psi = np.full(d_sys, 1.0 / math.sqrt(d_sys), dtype=complex)
    else:
        rng = _child_rng(config.bath.seed, _STATE_KEY)
        raw = rng.normal(size=d_sys) + 1j * rng.normal(size=d_sys)
        psi = raw / np.linalg.norm(raw)
    return psi


def _initial_bath_state(config: ExperimentConfig) -> np.ndarray:
    dim = config.bath.dim
    if config.bath_state == "maximally-mixed":
        return np.eye(dim, dtype=complex) / dim
    rng = _child_rng(config.bath.seed, _BATH_STATE_KEY)
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    raw /= np.linalg.norm(raw)
    return np.outer(raw, raw.conj())


def run_experiment(config: ExperimentConfig) -> SimResult:
    """Run one pulsed evolution and compare it against the analytic bound.

    Builds the joint state rho(T) under the schedule and the uncoupled
    reference state evolved by the identity-channel bath operator alone, then
    reports their system trace distance, per-channel operator norms, the
    matching distance bound, and all unitarity residuals.
    """
    m = config.qubit_count
    schedule = nudd_schedule(config.orders, m)
    model = build_model(config.bath, m)
    u = evolve(schedule, model, config.T)
    ops = extract_channel_ops(u, m)
    norms = {label: spectral_norm(a) for label, a in ops.items()}
    residuals = unitarity_residuals(ops)
    cross = {k: v for k, v in residuals.items() if k != "completeness"}

    # Evaluate the bound at the realized operator norms of the sampled
    # couplings, not the requested ones: rescaling rounds by a few ulp and the
    # dominance margin should not depend on which side that rounding lands.
    realized = {
        label: float(np.linalg.norm(mat, 2))
        for label, mat in model.couplings.items()
    }
    id_label = "0" * m
    j0 = realized[id_label]
    eps = j0 * config.T
    if config.kind == "qdd":
        eta = EtaVector(
            realized.get("x", 0.0) / j0,
            realized.get("y", 0.0) / j0,
            realized.get("z", 0.0) / j0,
        )
        report: BoundReport = distance_bound(
            config.orders[0], config.orders[1], eps, eta, config.mode, config.rel_tol
        )
        bound = report.distance_bound
        channel_margins = {
            ch: report.channel_bounds.for_channel(ch) - norms[ch]
            for ch in ("x", "y", "z")
        }
        eta_out: tuple[float, ...] | float = eta.as_tuple()
    else:
        j1 = max(
            (v for label, v in realized.items() if label != id_label),
            default=0.0,
        )
        eta_val = j1 / j0
        d_min = d_min_for_orders(config.orders)
        nrep: NuddBoundReport = nudd_distance_bound(
            d_min, eps, eta_val, m, config.rel_tol
        )
        bound = nrep.distance_bound
        error_sum = sum(v for label, v in norms.items() if label != id_label)
        channel_margins = {"error_sum": nrep.delta - error_sum}
        eta_out = eta_val

    psi = _initial_system_state(config)
    rho_bath = _initial_bath_state(config)
    rho0 = np.kron(np.outer(psi, psi.conj()), rho_bath)
    rho_t = u @ rho0 @ u.conj().T

    b0 = model.couplings[id_label]
    wb, vb = np.linalg.eigh(b0)
    u_bath = (vb * np.exp(-1j * wb * config.T)) @ vb.conj().T
    rho_bath_t = u_bath @ rho_bath @ u_bath.conj().T
    rho_ideal = np.kron(np.outer(psi, psi.conj()), rho_bath_t)

    d_sys = 2**m
    sys_actual = partial_trace_bath(rho_t, d_sys, config.bath.dim)
    sys_ideal = partial_trace_bath(rho_ideal, d_sys, config.bath.dim)
    dist = trace_distance(sys_actual, sys_ideal)

    return SimResult(
        kind=config.kind,
        orders=config.orders,
        epsilon=eps,
        eta=eta_out,
        mode=config.mode,
        channel_norms=norms,
        distance_actual=dist,
        distance_bound=bound,
        margin=bound - dist,
        channel_margins=channel_margins,
        unitarity_residual=residuals["completeness"],
        cross_residuals=cross,
    )


@dataclass(frozen=True)
class ScalingFit:
    """Log-log slope fit of channel norms vs time over a small-epsilon grid.

    ``slopes[ch]`` is None when the channel stayed below the resolvable floor
    on too many grid points ("order too high to resolve" rather than zero).
    """

    eps_grid: tuple[float, ...]
    norms: dict[str, tuple[float, ...]]
    slopes: dict[str, float | None]
    floor: float = NORM_FLOOR


def fit_scaling(
    n1: int,
    n2: int,
    bath: BathSpec,
    eps_grid: Sequence[float] | None = None,
) -> ScalingFit:
    """Fit the small-time power law of each error-channel norm under QDD.

    The expected slope of log||A_alpha|| vs log T is at least d_alpha + 1.
    Defaults to eight log-spaced points with epsilon in [1e-3, 1e-2].
    """
    if eps_grid is None:
        eps_grid = tuple(float(x) for x in np.geomspace(1e-3, 1e-2, 8))
    else:
        eps_grid = tuple(float(x) for x in eps_grid)
        if len(eps_grid) < 3:
            raise ValueError("need at least three grid points for a slope")
    j0 = bath.norm("0")
    if j0 <= 0.0:
        raise ValueError("bath must set the identity norm J0 > 0")
    schedule = nudd_schedule((n1, n2), 1)
    model = build_model(bath, 1)
    norms: dict[str, list[float]] = {"x": [], "y": [], "z": []}
    for eps in eps_grid:
        u = evolve(schedule, model, eps / j0)
        ops = extract_channel_ops(u, 1)
        for ch in norms:
            norms[ch].append(spectral_norm(ops[ch]))
    slopes: dict[str, float | None] = {}
    log_t = np.log(np.asarray(eps_grid) / j0)
    for ch, ys in norms.items():
        ys_arr = np.asarray(ys)
        mask = ys_arr > NORM_FLOOR
        if int(mask.sum()) < 3:
            slopes[ch] = None
            continue
        slope, _ = np.polyfit(log_t[mask], np.log(ys_arr[mask]), 1)
        slopes[ch] = float(slope)
    return ScalingFit(
        eps_grid=eps_grid,
        norms={ch: tuple(v) for ch, v in norms.items()},
        slopes=slopes,
    )
