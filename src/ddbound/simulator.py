"""Exact pulsed evolution of protected qubits coupled to a finite random bath.

The joint Hamiltonian is a sum of Pauli strings on the system tensored with
Hermitian bath operators of prescribed spectral norm.  Between ideal pulses
the Hamiltonian is constant, so the evolution is propagated exactly in its
eigenbasis (one eigendecomposition, reused for every interval): a free
segment is a diagonal phase scaling and a pulse is a dense matrix, the Pauli
operator in that basis, built once per nesting level.  A schedule is its
orders (``sequences.PulseSchedule``), and the propagator is built from their
nesting rather than pulse by pulse.
Uhrig sub-intervals are symmetric about each block's midpoint, so mirror
sub-blocks have the same length and the same inner sequence; each is built
once from block-local durations and used on both sides, which takes 70 D x D
products for QDD (10,10) against its 120 pulses.  The global phase of each
pi pulse is dropped, which cancels in all density matrices.

From the final unitary the per-channel bath operators A are read off by a
Pauli partial trace, and the protected state is compared against the
uncoupled evolution in trace-norm distance.  The same partial trace, of
U^dag U - 1, gives the unitarity relations at every qubit count: its
identity component is the completeness relation and every other component
a cross relation.  Everything is deterministic in the configured seed;
random baths are rescaled to their exact target norm so the dimensionless
bound inputs are exact, not estimated.

Experiments run as stacks (``run_experiments``): configs with equal qubit
counts and bath dimensions form a group, and each group runs as arrays with
a leading cell axis, so the coupling rescaling, the eigendecompositions, the
channel extraction and every spectral norm take one numpy call per stack
rather than per cell.  Every spectral norm of a bath-dimension matrix comes
from a Hermitian eigensolve, and no matrix is decomposed twice: a coupling's
norm is read off the eigenvalues that rescaled it, a channel operator's is
the root of its Gram matrix's top eigenvalue, and the unitarity residuals,
components of U^dag U - 1 and Hermitian by construction, are their largest
|eigenvalue|.  Only ``trace_distance`` takes singular values, of
system-dimension matrices.

Only ``evolve`` depends on the pulse schedule: a group is ordered by
schedule, and ``evolve`` runs once per schedule on its slice of the stack.
A stack holds at most ``MAX_TOTAL_DIM**2`` matrix entries per array, no
more than one experiment at the largest total dimension.  Each stacked step
does to every cell's matrices what it does to one alone, so a result does
not depend on the cells that share its stack; the one-model forms of
``build_model`` and ``evolve`` are stacks of one.  A run is columns, arrays
over its cells and a converged mask, and an experiment's result is its row:
one cell of them as a dict keyed by the columns (``run_experiment`` runs
one).  The distance bound stays one call per cell, because the benchmark's
tracer (``perfbench/tests``) counts one bound span per cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cache, reduce
from typing import Mapping, Sequence

import numpy as np

from .nudd_bounds import d_min_for_orders, nudd_distance_bound
from .qdd_bounds import _MODES, EtaVector, distance_bound
from .sequences import PulseSchedule, _axis_qubit, _is_int, _steps, _validate_orders, nudd_schedule
from .series import NonConvergenceError

__all__ = [
    "pauli_labels",
    "BathSpec",
    "HamiltonianModel",
    "ExperimentConfig",
    "ScalingFit",
    "build_model",
    "evolve",
    "extract_channel_ops",
    "unitarity_residuals",
    "trace_distance",
    "run_experiment",
    "run_experiments",
    "fit_scaling",
    "MAX_TOTAL_DIM",
]

_PAULI = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_TOTAL_DIM = 256
MAX_QUBITS = 2
_NORM_FLOOR = 1e-14  # below this, channel norms are numerically unresolvable
_DENSITY_TOL = 1e-10  # how far a density matrix may stray from Hermitian, unit trace, PSD

_BATH_STATES = ("maximally-mixed", "pure-random")
_INITIAL_STATES = ("random", "plus", "zero")


def pauli_labels(qubit_count: int) -> tuple[str, ...]:
    """All length-m Pauli strings over '0xyz' in lexicographic product order.

    A count that is not an integer in 1..MAX_QUBITS raises before any of its
    4^m labels is built.
    """
    if not (_is_int(qubit_count) and 1 <= qubit_count <= MAX_QUBITS):
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


@cache
def _pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by ``label``; built once
    per label and read-only."""
    mat = reduce(np.kron, [_PAULI[c] for c in label])
    mat.flags.writeable = False
    return mat


def _is_power_of_two(n: int) -> bool:
    return _is_int(n) and n >= 1 and (n & (n - 1)) == 0


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
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"bath seed must be an integer >= 0, got {self.seed!r}")
        for label, j in self.norms.items():
            if not (math.isfinite(j) and j >= 0.0):
                raise ValueError(f"norm for channel {label!r} must be finite >= 0")

    def norm(self, label: str) -> float:
        return float(self.norms.get(label, 0.0))


def _hermitian_draw(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One draw from the rotation-invariant Gaussian Hermitian ensemble."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def _hermitian_norm(h: np.ndarray) -> np.ndarray:
    """Spectral norms of Hermitian matrices (..., d, d): each one's largest
    |eigenvalue|, from a backward-stable Hermitian eigensolve.

    ``eigvalsh`` reads only the lower triangle, so each matrix must be
    Hermitian by construction.
    """
    w = np.linalg.eigvalsh(h)
    return np.maximum(-w[..., 0], w[..., -1])


def _rescale(herm: np.ndarray, J) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian matrices (..., d, d) rescaled to spectral norm J, and the
    norms they realize.

    A matrix of norm s scaled by c = J / s has norm s c up to the rounding of
    its entries, a few ulp, so the realized norms come from the one
    eigensolve that found s; no coupling is decomposed again.
    """
    scale = _hermitian_norm(herm)
    if np.any(scale == 0.0):
        raise RuntimeError("degenerate zero draw; use a different seed")
    factor = J / scale
    return herm * factor[..., None, None], scale * factor


@dataclass
class HamiltonianModel:
    """Couplings of the joint Hamiltonian, their realized spectral norms, and
    its eigendecomposition V diag(w) V^dag.

    ``coupling_norms[label]`` is the norm of ``couplings[label]`` as the
    rescaling realized it (0 for an uncoupled channel).  A stack of models
    carries a leading cell axis on every array.
    """

    qubit_count: int
    bath_dim: int
    couplings: dict[str, np.ndarray]
    coupling_norms: dict[str, np.ndarray] = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes, broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def build_model(bath: BathSpec | Sequence[BathSpec], qubit_count: int) -> HamiltonianModel:
    """Draw all couplings for ``qubit_count`` qubits and assemble the Hamiltonian.

    Coupling operators are drawn in sorted label order from independent
    seed-derived streams, so the model is a pure function of (bath, m).  A
    sequence of baths of one dimension gives their models stacked along a
    leading axis; one bath is a view of a stack of one.  Raises ValueError
    where a requested norm J > 0 realizes as 0 (J / ||draw|| underflows), so
    no channel is silently uncoupled, and where the eigensolve returns a
    non-finite eigenvalue, so ``evolve`` never receives one.
    """
    baths = [bath] if isinstance(bath, BathSpec) else list(bath)
    if not baths or any(b.dim != baths[0].dim for b in baths):
        raise ValueError("a stack of baths must be nonempty and share one dimension")
    labels = pauli_labels(qubit_count)
    for b in baths:
        _norm_labels(b.norms, qubit_count)
    dim, cells = baths[0].dim, len(baths)
    total = 2**qubit_count * dim
    if total > MAX_TOTAL_DIM:
        raise ValueError(f"total dimension {total} exceeds limit {MAX_TOTAL_DIM}")
    couplings, norms = {}, {}
    for key, label in enumerate(sorted(labels)):
        j = np.array([b.norm(label) for b in baths])
        live = np.flatnonzero(j)
        couplings[label] = np.zeros((cells, dim, dim), dtype=complex)
        norms[label] = np.zeros(cells)
        if live.size:
            draws = [_hermitian_draw(dim, _child_rng(baths[s].seed, key)) for s in live]
            couplings[label][live], norms[label][live] = _rescale(np.stack(draws), j[live])
            lost = live[norms[label][live] == 0.0]
            if lost.size:
                raise ValueError(
                    f"norm for channel {label!r} of {float(j[lost[0]])!r} realizes as 0 at "
                    f"bath dim {dim}: rescaling a draw to it underflows"
                )
    h = np.zeros((cells, total, total), dtype=complex)
    for label in labels:
        b = couplings[label]
        live = np.any(b, axis=(1, 2))
        if live.any():
            np.add(h, _kron(_pauli_matrix(label), b), out=h, where=live[:, None, None])
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    if not np.isfinite(w).all():
        raise ValueError(
            "an eigenvalue of the Hamiltonian is not finite: its coupling norms are too large "
            "to decompose in double precision"
        )
    if isinstance(bath, BathSpec):
        couplings = {label: c[0] for label, c in couplings.items()}
        norms = {label: n[0] for label, n in norms.items()}
        w, v = w[0], v[0]
    return HamiltonianModel(
        qubit_count=qubit_count,
        bath_dim=dim,
        couplings=couplings,
        coupling_norms=norms,
        eigenvalues=w,
        eigenvectors=v,
    )


def evolve(schedule: PulseSchedule, model: HamiltonianModel, T) -> np.ndarray:
    """Exact joint unitary at time ``T`` under the pulsed Hamiltonian.

    The propagator is carried in the eigenbasis of H as W = V^dag U V, so a
    free segment of length tau is the diagonal phase exp(-i w tau) and a pulse
    is P = V^dag (sigma x 1) V, built once per level; U = V W V^dag at the end.
    Pulses are exact Pauli conjugations (global phase dropped).

    W is built from the nesting of ``schedule.orders``, not from its event
    list.  An order-N block of length s is the time-ordered product
    B_1 P B_2 P ... P B_K (K = N + 1, and odd N closes with one more P),
    where B_j is the inner block of length s delta_j.  Durations are
    block-local: delta_j = sin^2(j pi/(2N+2)) - sin^2((j-1) pi/(2N+2)), the
    Uhrig step of ``sequences._steps``, for j <= ceil(K/2), and
    delta_{K+1-j} is the same float as delta_j.  So with
    C_j = P B_j the block is B_1 C_2 ... C_m [C_{m+1}] C_m ... C_2 C_1 in
    matrix order (C_1 in place of B_1 for odd N), and it is built inside
    out, W <- C_j W C_j for j = ceil(K/2) down to 1: each distinct C_j is
    formed once, used on both sides and dropped, and only one partial block
    per nesting level is held.  Where B_j is a free segment, C_j = P
    diag(lambda) is applied as a row or column scaling and one product.
    Per call this takes 6, 30 and 70 D x D products for QDD (2,2), (6,6) and
    (10,10), against 8, 48 and 120 pulses, and 7 for NUDD (1,1,1,1) against
    30.  Of two coincident pulses the inner level fires first; the other
    order would only flip the sign of U, since two Paulis commute or
    anticommute.

    A schedule is its orders, so it never holds other events.  ``model`` may
    be a stack and ``T`` an array of times; they broadcast against each
    other, and each matrix of the result is the unitary its model and time
    give alone.
    """
    T = np.asarray(T, dtype=float)
    if not np.all((T > 0.0) & np.isfinite(T)):
        raise ValueError("T must be finite and > 0")
    m = schedule.qubit_count
    if m != model.qubit_count:
        raise ValueError("schedule and model disagree on qubit count")
    orders = schedule.orders
    w, v = model.eigenvalues, model.eigenvectors
    phase_rate = -1j * w
    t_col = T[..., None]
    v_dag = _dagger(v)
    # rows of V split as (system index, bath index): sigma x 1 acts on the first
    v_rows = v.reshape(v.shape[:-2] + (2**m, -1))
    pulses = {}
    for level, n in enumerate(orders, 1):
        if n:
            axis, qubit = _axis_qubit(level)
            label = "".join(axis if q == qubit else "0" for q in range(m))
            pulses[level] = v_dag @ (_pauli_matrix(label) @ v_rows).reshape(v.shape)
    del v_dag, v_rows
    # levels up to `free` fire no pulse, so their blocks are free segments
    free = next((i for i, n in enumerate(orders) if n), len(orders))

    def block(level: int, s: float) -> np.ndarray:
        """W of one level-``level`` block of length s T; a phase vector if free."""
        if level <= free:
            return np.exp(phase_rate * (s * t_col))
        n = orders[level - 1]
        if not n:
            return block(level - 1, s)
        p = pulses[level]
        steps = _steps(n)[: n // 2 + 1]
        u = None
        for j in range(len(steps), 0, -1):
            b = block(level - 1, s * steps[j - 1])
            twice = 2 * j <= n + 1  # C_j also stands at K + 1 - j
            lead = j == 1 and not n % 2  # B_1, not C_1, opens an even order
            if level > free + 1:
                if lead:
                    u = b @ u
                c = p @ b
                del b  # a level holds one partial block while the next is built
                if u is None:
                    u = c @ c if twice else c
                else:
                    if not lead:
                        u = c @ u
                    u = u @ c
                del c
            elif u is None:  # b is a phase vector: C_j = P diag(b)
                u = p * b[..., None, :]
                if twice:
                    u *= b[..., :, None]
                    u = p @ u
            else:
                u *= b[..., :, None]
                if not lead:
                    u = p @ u
                u = u @ p
                u *= b[..., None, :]
        return u

    u_eig = block(len(orders), 1.0)
    del pulses
    if len(orders) == free:
        return (v * u_eig[..., None, :]) @ _dagger(v)
    return v @ u_eig @ _dagger(v)


def extract_channel_ops(u: np.ndarray, qubit_count: int) -> dict[str, np.ndarray]:
    """Bath operators A per Pauli-string channel: U = sum sigma x A.

    A_label = (1/2^m) tr_system[(sigma_label)^dagger U], per matrix of a
    stack of operators, all labels in one contraction over the stacked
    Pauli table; the operators are views into one array.
    """
    d_sys = 2**qubit_count
    total = u.shape[-1]
    if u.ndim < 2 or u.shape[-2] != total or total % d_sys:
        raise ValueError("unitary shape incompatible with qubit count")
    d_bath = total // d_sys
    labels = pauli_labels(qubit_count)
    sigma = np.stack([_pauli_matrix(label) for label in labels]).conj()
    u4 = u.reshape(u.shape[:-2] + (d_sys, d_bath, d_sys, d_bath))
    ops = np.einsum("pki,...kaib->p...ab", sigma, u4) / d_sys
    return dict(zip(labels, ops))


def _spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest singular value; an array of them for a stack of matrices.

    It is the square root of the largest eigenvalue of the Gram matrix
    B^dag B, where B = 2^k A brings A's largest entry into [1/2, 1) (k from
    ``np.frexp``, capped so that 2^k is a double).  The scaling is exact, and
    the Gram matrix of B neither underflows nor overflows, whatever A's scale.
    """
    _, e = np.frexp(np.max(np.abs(a), axis=(-2, -1)))
    k = np.minimum(-e, 1023)
    b = a * np.ldexp(1.0, k)[..., None, None]
    top = np.linalg.eigvalsh(_dagger(b) @ b)[..., -1]
    norms = np.ldexp(np.sqrt(top), -k)
    return float(norms) if a.ndim == 2 else norms


def unitarity_residuals(u: np.ndarray, qubit_count: int) -> dict[str, float | np.ndarray]:
    """Residual norms of the unitarity relations of U, per Pauli channel.

    W = U^dag U - 1 is split by the Pauli partial trace of
    ``extract_channel_ops``: its identity component, sum A^dag A minus the
    bath identity, is "completeness", and each other component P is
    "cross_P".  Each is Hermitian, so its norm is its largest |eigenvalue|.
    For a stack of unitaries each residual is an array over the stack.
    """
    w = _dagger(u) @ u
    w -= np.eye(w.shape[-1])
    comps = extract_channel_ops(w, qubit_count)
    norms = _hermitian_norm(np.stack(list(comps.values())))
    keys = ["completeness"] + [f"cross_{label}" for label in list(comps)[1:]]
    return {k: float(n) if u.ndim == 2 else n for k, n in zip(keys, norms)}


def _check_density(rho: np.ndarray) -> None:
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    if np.any(_spectral_norm(rho - _dagger(rho)) > _DENSITY_TOL):
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if np.any(abs(trace.real - 1.0) > _DENSITY_TOL) or np.any(abs(trace.imag) > _DENSITY_TOL):
        raise ValueError("density matrix trace differs from 1")
    if float(np.min(np.linalg.eigvalsh((rho + _dagger(rho)) / 2))) < -_DENSITY_TOL:
        raise ValueError("density matrix has negative eigenvalues beyond tolerance")


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float | np.ndarray:
    """Trace-norm distance (1/2)||rho1 - rho2||_1 between density matrices.

    Stacks of matrices give an array of distances.
    """
    _check_density(rho1)
    _check_density(rho2)
    dist = 0.5 * np.sum(np.linalg.svd(rho1 - rho2, compute_uv=False), axis=-1)
    return float(dist) if rho1.ndim == 2 else dist


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

    def __post_init__(self) -> None:
        if self.kind not in ("qdd", "nudd"):
            raise ValueError("kind must be 'qdd' or 'nudd'")
        orders = _validate_orders(self.orders)
        object.__setattr__(self, "orders", orders)
        if self.kind == "qdd" and len(orders) != 2:
            raise ValueError("qdd experiments take exactly two orders")
        if len(orders) % 2 or not orders:
            raise ValueError("orders must come in (z, x) level pairs")
        m = len(orders) // 2
        _norm_labels(self.bath.norms, m)  # also rejects an unsupported qubit count
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError("T must be finite and > 0")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
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


def _run_stack(
    schedules: Sequence[PulseSchedule], configs: Sequence[ExperimentConfig], rows: list[int],
    run: dict, converged: np.ndarray,
) -> None:
    """Experiments that share a qubit count and a bath dimension, as one
    stack, written into a run's columns and converged mask at ``rows``.

    ``schedules[s]`` is the pulse schedule of ``configs[s]``, and the cells of
    one schedule are adjacent.  Only ``evolve`` depends on the schedule, so it
    runs once per schedule on that slice of the stack's model and times; the
    model build, the channel extraction, the residuals, the norms and the
    trace distance run once for the whole stack.
    """
    m = configs[0].qubit_count
    d_sys, d_bath = 2**m, configs[0].bath.dim
    model = build_model([c.bath for c in configs], m)
    T = np.array([c.T for c in configs])
    parts, lo = [], 0
    for schedule, group in itertools.groupby(schedules):
        hi = lo + sum(1 for _ in group)
        cells = slice(lo, hi)
        part = replace(
            model,
            couplings={label: c[cells] for label, c in model.couplings.items()},
            coupling_norms={label: n[cells] for label, n in model.coupling_norms.items()},
            eigenvalues=model.eigenvalues[cells],
            eigenvectors=model.eigenvectors[cells],
        )
        parts.append(evolve(schedule, part, T[cells]))
        lo = hi
    u = parts[0] if len(parts) == 1 else np.concatenate(parts)
    ops = extract_channel_ops(u, m)
    residuals = unitarity_residuals(u, m)
    labels = tuple(ops)
    norms = _spectral_norm(np.stack(list(ops.values())))
    del ops

    psi = np.stack([_initial_system_state(c) for c in configs])
    rho_bath = np.stack([_initial_bath_state(c) for c in configs])
    rho_sys = psi[:, :, None] * psi.conj()[:, None, :]
    # U (psi x 1) = sum_a |a> x K_a, so tr_B rho(T) = [tr(K_a rho_B K_c^dag)]_ac;
    # the uncoupled reference moves the bath alone and leaves rho_sys as it is
    k = np.einsum("saibj,sb->saij", u.reshape(-1, d_sys, d_bath, d_sys, d_bath), psi)
    flat = (-1, d_sys, d_bath * d_bath)
    rho_t = (k @ rho_bath[:, None]).reshape(flat) @ _dagger(k.reshape(flat))
    dist = trace_distance(rho_t, rho_sys)

    # The bound takes the realized coupling norms, not the requested ones:
    # rescaling rounds by a few ulp, and the dominance margin should not
    # depend on which side that rounding lands.
    j = np.stack([model.coupling_norms[label] for label in labels])
    with np.errstate(all="ignore"):  # beyond double range: inf or NaN, which the bounds reject
        eps, eta = j[0] * T, j[1:] / j[0]
    bounds, channels = run["distance_bound"], run["channel_bounds"]
    for row, config, e, ratios in zip(rows, configs, eps.tolist(), eta.T.tolist()):
        qdd = config.kind == "qdd"
        run["eta"][row] = tuple(ratios) if qdd else max(ratios)
        try:
            if qdd:
                point = distance_bound(*config.orders, e, EtaVector(*ratios), config.mode)
                for ch in "xyz":
                    channels[ch][row] = point[f"L_{ch}"]
            else:
                point = nudd_distance_bound(d_min_for_orders(config.orders), e, max(ratios), m)
                channels["error_sum"][row] = point["Delta"]
            bounds[row] = point["D_bound"]
        except NonConvergenceError as exc:
            run["error"][row] = str(exc)
            converged[row] = False
    # NUDD's Delta bounds the sum of the error-channel norms, added left to right
    measured = {**dict(zip(labels, norms)), "error_sum": sum(norms[1:])}
    for ch in channels.keys() & measured.keys():
        run["channel_margins"][ch][rows] = channels[ch][rows] - measured[ch]
    run["epsilon"][rows], run["distance_actual"][rows] = eps, dist
    run["margin"][rows] = bounds[rows] - dist
    run["unitarity_residual"][rows] = residuals.pop("completeness")
    for label, n in zip(labels, norms):
        run["channel_norms"][label][rows] = n
    for key, r in residuals.items():
        run["cross_residuals"][key][rows] = r


def run_experiments(configs: Sequence[ExperimentConfig]) -> tuple[dict, np.ndarray]:
    """Run experiments in stacks; return the run as columns over the configs
    and the mask of the configs whose bound converged.

    The columns, in one place: ``kind``, ``orders``, ``mode`` and ``eta``
    (the realized ratios J_alpha / J_0, an (x, y, z) tuple for QDD and their
    largest for NUDD); ``epsilon`` = J_0 T; ``distance_actual``, the trace
    distance of the protected state from its uncoupled reference, against
    ``distance_bound`` (``margin`` is their difference); ``channel_norms``,
    the spectral norm of each channel's bath operator by Pauli label;
    ``channel_bounds``, the bounds those norms are measured against, L_x,
    L_y and L_z for QDD and NUDD's Delta under ``error_sum`` for the sum of
    the error-channel norms, with ``channel_margins`` keyed alike;
    ``unitarity_residual``, the completeness residual of U^dag U - 1, and
    ``cross_residuals``, its other Pauli components, ``cross_<label>`` for
    each non-identity label (``unitarity_residuals``); and ``error``, the
    text of a cell's bound error ("" where it converged).  ``kind``,
    ``orders``, ``eta``, ``mode`` and ``error`` are lists, the others float
    arrays, and each dict column a dict of them by label.  NaN marks a value
    that a cell does not have: a label of another qubit count or bound
    family, or what its failed bound would have given.

    Configs of equal qubit count and bath dimension form a group, ordered by
    pulse schedule so that each schedule is one slice of the group, and run
    in stacks of at most ``MAX_TOTAL_DIM**2`` matrix entries per array; only
    ``evolve`` splits a stack by schedule.  Every stacked step treats each
    cell's matrices as it would a lone experiment's, so a result does not
    depend on the other configs.
    """
    n = len(configs)
    counts = sorted({c.qubit_count for c in configs})
    kinds = {c.kind for c in configs}
    channels = ("x", "y", "z") * ("qdd" in kinds) + ("error_sum",) * ("nudd" in kinds)
    run: dict = {"kind": [c.kind for c in configs], "orders": [c.orders for c in configs],
                 "eta": [None] * n, "mode": [c.mode for c in configs], "error": [""] * n}
    for name in ("epsilon", "distance_actual", "distance_bound", "margin", "unitarity_residual"):
        run[name] = np.full(n, np.nan)
    for name, keys in (
        ("channel_norms", [label for m in counts for label in pauli_labels(m)]),
        ("channel_bounds", channels),
        ("channel_margins", channels),
        ("cross_residuals", [f"cross_{label}" for m in counts for label in pauli_labels(m)[1:]]),
    ):
        run[name] = {key: np.full(n, np.nan) for key in keys}
    converged = np.ones(n, dtype=bool)
    groups: dict[tuple[int, int], dict[PulseSchedule, list[int]]] = {}
    for i, config in enumerate(configs):
        schedule = nudd_schedule(config.orders, config.qubit_count)
        group = groups.setdefault((config.qubit_count, config.bath.dim), {})
        group.setdefault(schedule, []).append(i)
    for (m, d_bath), by_schedule in groups.items():
        members = [(s, i) for s, indices in by_schedule.items() for i in indices]
        size = max(1, MAX_TOTAL_DIM**2 // (2**m * d_bath) ** 2)
        for lo in range(0, len(members), size):
            schedules, stack = zip(*members[lo : lo + size])
            _run_stack(schedules, [configs[i] for i in stack], list(stack), run, converged)
    return run, converged


def _result(run: dict, converged: np.ndarray, s: int) -> dict:
    """Point ``s`` of a run's columns, its row: a dict keyed by the columns
    less ``error``, with Python scalars for array columns and without the
    labels that are NaN there; raises the NonConvergenceError of a cell whose
    bound failed."""
    if not converged[s]:
        raise NonConvergenceError(run["error"][s])

    def point(col):
        if isinstance(col, dict):
            return {k: v[s].item() for k, v in col.items() if not np.isnan(v[s])}
        return col[s] if isinstance(col, list) else col[s].item()

    return {name: point(col) for name, col in run.items() if name != "error"}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one pulsed evolution and compare it against the analytic bound.

    Reads the protected state tr_B rho(T) under the schedule off the
    (system, bath) blocks of U and compares it with the uncoupled reference,
    the bath evolved alone, which leaves the system state as it started; then
    reports their trace distance, per-channel operator norms, the matching
    distance bound, and all unitarity residuals.  Returns the row of a run of
    one, keyed by the columns of ``run_experiments``; raises the bound's
    NonConvergenceError.
    """
    return _result(*run_experiments([config]), 0)


@dataclass(frozen=True)
class ScalingFit:
    """Log-log slope fit of channel norms vs time over a small-epsilon grid.

    ``slopes[ch]`` is None when the channel rose above the resolvable floor
    at fewer than three distinct grid points ("order too high to resolve"
    rather than zero).
    """

    eps_grid: tuple[float, ...]
    norms: dict[str, tuple[float, ...]]
    slopes: dict[str, float | None]
    floor: float = _NORM_FLOOR


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
        if len(set(eps_grid)) < 3:
            raise ValueError("need at least three distinct grid points for a slope")
    j0 = bath.norm("0")
    if j0 <= 0.0:
        raise ValueError("bath must set the identity norm J0 > 0")
    schedule = nudd_schedule((n1, n2), 1)
    model = build_model(bath, 1)
    ops = extract_channel_ops(evolve(schedule, model, np.asarray(eps_grid) / j0), 1)
    norms = {ch: tuple(float(x) for x in _spectral_norm(ops[ch])) for ch in "xyz"}
    slopes: dict[str, float | None] = {}
    log_t = np.log(np.asarray(eps_grid) / j0)
    for ch, ys in norms.items():
        ys_arr = np.asarray(ys)
        mask = ys_arr > _NORM_FLOOR
        if np.unique(log_t[mask]).size < 3:
            slopes[ch] = None
            continue
        slope, _ = np.polyfit(log_t[mask], np.log(ys_arr[mask]), 1)
        slopes[ch] = float(slope)
    return ScalingFit(
        eps_grid=eps_grid,
        norms=norms,
        slopes=slopes,
    )
