"""Exact propagator simulator tests.

Cross-checks against closed forms: a pulse-free run with a one-dimensional
bath is plain Larmor precession, so the protected-state distance is
|sin(b_z T)| for a |+> probe, and any commuting dephasing bath is refocused
exactly by a single outer level.
"""

import itertools
import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import ddbound.simulator as simulator
from ddbound.sequences import nudd_schedule, qdd_schedule
from ddbound.series import NonConvergenceError
from ddbound.simulator import (
    MAX_TOTAL_DIM,
    BathSpec,
    ExperimentConfig,
    _pauli_matrix,
    _spectral_norm,
    build_model,
    evolve,
    extract_channel_ops,
    fit_scaling,
    pauli_labels,
    run_experiment,
    run_experiments,
    trace_distance,
    unitarity_residuals,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_labels():
    assert pauli_labels(1) == ("0", "x", "y", "z")
    labels2 = pauli_labels(2)
    assert len(labels2) == 16
    assert labels2[0] == "00" and "xz" in labels2


def test_pauli_matrix_kron_order():
    got = _pauli_matrix("xz")
    assert np.array_equal(got, np.kron(SX, SZ))
    assert not got.flags.writeable  # built once per label and shared
    assert np.array_equal(_pauli_matrix("0"), np.eye(2))


def test_bath_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(dim=3, seed=0, norms={"0": 1.0})
    with pytest.raises(ValueError):
        BathSpec(dim=4, seed=0, norms={"0": -1.0})
    spec = BathSpec(dim=4, seed=0, norms={"0": 1.0})
    assert spec.norm("x") == 0.0


def _pauli_sum(model):
    """The joint Hamiltonian as the explicit sum of Pauli x coupling terms."""
    return sum(np.kron(_pauli_matrix(label), b) for label, b in model.couplings.items())


def _from_eigh(model):
    """The Hamiltonian rebuilt from the model's eigendecomposition, (v * w) @ v^dag."""
    v, w = model.eigenvectors, model.eigenvalues
    return (v * w) @ v.conj().T


def test_build_model_shapes_and_limits():
    bath = BathSpec(dim=4, seed=1, norms={"0": 1.0, "z": 0.5})
    model = build_model(bath, 1)
    assert model.eigenvalues.shape == (8,)
    assert model.eigenvectors.shape == (8, 8)
    assert np.allclose(_from_eigh(model), _pauli_sum(model))
    assert set(model.couplings) == {"0", "x", "y", "z"}
    assert np.all(model.couplings["x"] == 0.0)
    assert np.linalg.norm(model.couplings["z"], 2) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        build_model(BathSpec(dim=256, seed=0, norms={"0": 1.0}), 1)
    with pytest.raises(ValueError):
        build_model(BathSpec(dim=4, seed=0, norms={"0": 1.0}), 3)
    with pytest.raises(ValueError):
        build_model(BathSpec(dim=4, seed=0, norms={"q": 1.0}), 1)


def test_norm_that_underflows_is_rejected():
    # J = 5e-324 over a draw of norm above 1 rounds to a factor of 0; in a
    # stack the first cell that loses its coupling is named, the others build
    tiny = BathSpec(dim=8, seed=1, norms={"00": 1.0, "zx": 5e-324})
    fine = BathSpec(dim=8, seed=1, norms={"00": 1.0, "zx": 0.5})
    message = (
        "norm for channel 'zx' of 5e-324 realizes as 0 at bath dim 8: "
        "rescaling a draw to it underflows"
    )
    for baths in (tiny, [fine, tiny, tiny]):
        with pytest.raises(ValueError) as info:
            build_model(baths, 2)
        assert str(info.value) == message
    assert build_model([fine, fine], 2).coupling_norms["zx"] == pytest.approx([0.5, 0.5])


def test_model_matches_explicit_sum():
    bath = BathSpec(dim=2, seed=9, norms={"0": 1.0, "x": 0.4, "z": 0.2})
    model = build_model(bath, 1)
    h = sum(
        np.kron(_pauli_matrix(label), mat) for label, mat in model.couplings.items()
    )
    assert np.allclose(_from_eigh(model), h)


def test_evolve_free_evolution():
    """Without pulses the propagator is the bare matrix exponential."""
    bath = BathSpec(dim=4, seed=2, norms={"0": 1.0, "y": 0.3})
    model = build_model(bath, 1)
    sched = qdd_schedule(0, 0)
    assert len(sched.events) == 0
    u = evolve(sched, model, 0.7)
    w, v = np.linalg.eigh(_pauli_sum(model))
    expected = (v * np.exp(-1j * w * 0.7)) @ v.conj().T
    assert np.allclose(u, expected, atol=1e-12)


def test_evolve_is_unitary():
    bath = BathSpec(dim=8, seed=3, norms={"0": 1.0, "x": 0.5, "y": 0.5, "z": 0.5})
    model = build_model(bath, 1)
    u = evolve(qdd_schedule(2, 2), model, 0.4)
    assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-12)


def reconstruct_from_channels(ops):
    """Inverse of extract_channel_ops: sum of sigma x A over all channels."""
    return sum(np.kron(_pauli_matrix(label), a) for label, a in ops.items())


def _lab_frame_evolve(events, model, T, tie_order="inner-first"):
    """Independent reference for evolve: the ordered product of lab-frame
    expm(-i H tau) segments and dense sigma x 1 pulses at ``events``, with H
    rebuilt as the Pauli sum and coincident pulses ordered by level (inner
    level first, or outer level first)."""
    h = _pauli_sum(model)
    eye_bath = np.eye(model.bath_dim)
    sign = 1 if tie_order == "inner-first" else -1
    u = np.eye(h.shape[0], dtype=complex)
    t_prev = 0.0
    for e in sorted(events, key=lambda e: (e.time, sign * e.level)):
        if e.time > t_prev:
            u = expm(-1j * h * ((e.time - t_prev) * T)) @ u
            t_prev = e.time
        label = "".join(e.axis if q == e.qubit else "0" for q in range(model.qubit_count))
        u = np.kron(_pauli_matrix(label), eye_bath) @ u
    return expm(-1j * h * ((1.0 - t_prev) * T)) @ u


def _sign_distance(u, ref):
    """Largest entry of u - s * ref for the better global sign s = +-1."""
    return min(np.max(np.abs(u - s * ref)) for s in (1, -1))


_NORMS = {
    1: {"0": 1.0, "x": 0.4, "y": 0.3, "z": 0.6},
    2: {"00": 1.0, "x0": 0.3, "0z": 0.5, "yy": 0.2, "zx": 0.4},
}


@pytest.mark.parametrize("tie_order", ["inner-first", "outer-first"])
@pytest.mark.parametrize(
    "orders, bath_dim",
    [
        ((2, 2), 2),
        ((3, 3), 8),
        ((1, 4), 32),
        ((10, 10), 16),
        ((1, 1, 1, 1), 1),
        ((1, 1, 1, 1), 16),
    ],
)
def test_evolve_matches_lab_frame_oracle(orders, bath_dim, tie_order):
    """evolve fires coincident pulses inner level first and matches that oracle;
    the outer-first oracle differs from it by at most a global sign."""
    m = len(orders) // 2
    model = build_model(BathSpec(dim=bath_dim, seed=7, norms=_NORMS[m]), m)
    sched = nudd_schedule(orders, m)
    u = evolve(sched, model, 0.9)
    ref = _lab_frame_evolve(sched.events, model, 0.9, tie_order)
    if tie_order == "inner-first":
        assert np.max(np.abs(u - ref)) < 1e-12
    else:
        assert _sign_distance(u, ref) < 1e-12


@pytest.mark.parametrize("orders, instants", [((3, 3), 16), ((1, 1, 1, 1), 16)])
def test_tie_order_is_applied_at_coincident_pulses(orders, instants):
    """evolve fires coincident pulses inner level first, and this is why no
    option offers the other order: two coincident pulses are Paulis that
    commute or anticommute, so firing the outer level first changes U by a
    global sign, which no channel norm or distance sees.  Whole schedules
    pair their coincident anticommuting pulses, so the sign is +1; cut after
    the first coincident instant it is -1, which the two oracles show."""
    m = len(orders) // 2
    sched = nudd_schedule(orders, m)
    times = [e.time for e in sched.events]
    assert len(set(times)) == instants < len(times)
    first_tie = next(t for t in times if times.count(t) > 1)
    cut = [e for e in sched.events if e.time <= first_tie]
    model = build_model(BathSpec(dim=2, seed=7, norms=_NORMS[m]), m)
    u = evolve(sched, model, 0.9)
    assert np.max(np.abs(u - _lab_frame_evolve(sched.events, model, 0.9))) < 1e-12
    assert np.max(np.abs(u - _lab_frame_evolve(sched.events, model, 0.9, "outer-first"))) < 1e-12
    inner = _lab_frame_evolve(cut, model, 0.9)
    assert np.max(np.abs(inner + _lab_frame_evolve(cut, model, 0.9, "outer-first"))) < 1e-12


def test_edited_schedule_cannot_reach_evolve():
    """A schedule is its orders: its events cannot be replaced or edited, so
    evolve never gets a schedule whose pulses differ from its orders'."""
    sched = qdd_schedule(2, 2)
    moved = (replace(sched.events[0], time=0.01), *sched.events[1:])
    model = build_model(BathSpec(dim=2, seed=7, norms=_NORMS[1]), 1)
    with pytest.raises(TypeError):
        evolve(replace(sched, events=moved), model, 0.9)
    with pytest.raises(AttributeError):
        sched.events = moved
    assert sched.events[0].time == 1 / 16


@pytest.mark.parametrize("orders, bath_dim, matrices", [((10, 10), 128, 7), ((1, 1, 1, 1), 64, 9)])
def test_evolve_memory_peak(orders, bath_dim, matrices):
    """At total dim 256 evolve holds no more than a few D x D complex matrices
    at once: one per nesting level, the pulses and the working products."""
    m = len(orders) // 2
    model = build_model(BathSpec(dim=bath_dim, seed=7, norms=_NORMS[m]), m)
    sched = nudd_schedule(orders, m)
    tracemalloc.start()
    try:
        evolve(sched, model, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= matrices * MAX_TOTAL_DIM**2 * np.dtype(complex).itemsize


def _counted_evolve(schedule, model, T):
    """``evolve``'s unitary and the number of D x D matrix products it took.

    The eigenvectors enter as an array subclass whose ufuncs count each
    matmul of two D x D operands and pass it on unchanged, so every array
    derived from them is counted too.
    """
    dim = model.eigenvectors.shape[-1]
    products = 0

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            nonlocal products
            plain = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            if ufunc is np.matmul and all(np.shape(x)[-2:] == (dim, dim) for x in plain):
                products += 1
            if "out" in kwargs:
                kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
            result = getattr(ufunc, method)(*plain, **kwargs)
            return result.view(Counting) if isinstance(result, np.ndarray) else result

    counted = replace(model, eigenvectors=model.eigenvectors.view(Counting))
    return evolve(schedule, counted, T).view(np.ndarray), products


@pytest.mark.parametrize(
    "orders, block", [((2, 2), 6), ((6, 6), 30), ((10, 10), 70), ((1, 1, 1, 1), 7)]
)
def test_evolve_dense_product_count(orders, block):
    """evolve's D x D products: its docstring's count for the nested blocks,
    one per pulsed level to form that level's pulse, and two for V W V^dag."""
    m = len(orders) // 2
    model = build_model(BathSpec(dim=2, seed=7, norms=_NORMS[m]), m)
    sched = nudd_schedule(orders, m)
    u, products = _counted_evolve(sched, model, 0.9)
    assert products == block + np.count_nonzero(orders) + 2
    assert np.array_equal(u, evolve(sched, model, 0.9))


def _unitarity_bound(dim, products, pulses, phi):
    """A first-order bound on max|U U^dag - I| for ``evolve``'s U.

    Two sources, with u = 2^-53 and gamma_n = n u / (1 - n u):
    - Each of the ``products`` D x D products of near-unitary factors rounds
      by at most gamma_{D+2} |A| |B| entrywise (Higham, Accuracy and
      Stability of Numerical Algorithms, Thm 3.5, with the complex
      arithmetic of its section 3.6).  Its 2-norm is then at most
      D gamma_{D+2}, and sqrt(D) gamma_{D+2} when the entry errors have
      independent signs (the probabilistic model of Higham and Mary, 2019),
      which is the model taken here.
    - The eigenvectors V are orthonormal only up to phi = |V^dag V - I|_2.
      So each pulse P = V^dag (sigma x 1) V has |P^dag P - I| <= 2 phi, each
      of the schedule's ``pulses`` events carries that into U, and the
      change of basis U = V W V^dag adds 2 phi more.
    An error E of U adds E U^dag + U E^dag to U U^dag - I, so each product
    counts twice, and the product U U^dag of the check adds one.
    """
    gamma = (dim + 2) * 2.0**-53 / (1 - (dim + 2) * 2.0**-53)
    return 2 * (pulses + 1) * phi + (2 * products + 1) * math.sqrt(dim) * gamma


def _unitarity_residual(u):
    return np.max(np.abs(u @ u.conj().T - np.eye(len(u))))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 2),
    orders=st.lists(st.integers(0, 4), min_size=4, max_size=4),
    log_bath=st.integers(0, 3),
    log_t=st.floats(-3.0, 1.0),
    seed=st.integers(0, 2**16),
)
# 524 pulses at total dim 16: its residual of 1.0056e-12 broke a fixed 1e-12
@example(m=2, orders=[3, 3, 4, 4], log_bath=3, log_t=0.0, seed=154)
# Re u[0, 0] = 0.017: a real shift of that one entry moved the residual by less
# than the bound, so the negative control scales a whole row instead
@example(m=1, orders=[0, 0, 0, 0], log_bath=0, log_t=0.8984375, seed=1)
def test_evolve_unitary_and_matches_oracle(m, orders, log_bath, log_t, seed):
    # total dims 2-16 keep the expm oracle cheap at up to 624 events;
    # the parametrized oracle test covers dims up to 64
    orders = tuple(orders[: 2 * m])
    bath_dim = 2 ** max(0, log_bath - m + 1)
    model = build_model(BathSpec(dim=bath_dim, seed=seed, norms=_NORMS[m]), m)
    sched = nudd_schedule(orders, m)
    T = 10.0**log_t
    u, products = _counted_evolve(sched, model, T)
    v = model.eigenvectors
    phi = np.linalg.norm(v.conj().T @ v - np.eye(len(v)), 2)
    bound = _unitarity_bound(len(u), products, len(sched.events), phi)
    assert bound < 1e-11
    assert _unitarity_residual(u) < bound
    off = u.copy()
    off[0] *= 1 + 10 * bound  # negative control: (U U^dag)[0, 0] moves by 20x the bound
    assert _unitarity_residual(off) >= bound
    assert np.max(np.abs(u - _lab_frame_evolve(sched.events, model, T))) < 1e-11
    assert _sign_distance(u, _lab_frame_evolve(sched.events, model, T, "outer-first")) < 1e-11


def test_channel_extraction_roundtrip():
    bath = BathSpec(dim=4, seed=4, norms={"0": 1.0, "x": 0.2, "z": 0.6})
    model = build_model(bath, 1)
    u = evolve(qdd_schedule(1, 1), model, 0.3)
    ops = extract_channel_ops(u, 1)
    assert set(ops) == {"0", "x", "y", "z"}
    assert np.allclose(reconstruct_from_channels(ops), u, atol=1e-13)
    res = unitarity_residuals(u, 1)
    assert set(res) == {"completeness", "cross_x", "cross_y", "cross_z"}
    assert res["completeness"] < 1e-12
    for key in ("cross_x", "cross_y", "cross_z"):
        assert res[key] < 1e-12


def test_trace_distance_basics():
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(p0, p1) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        trace_distance(p0, np.diag([0.7, 0.7]).astype(complex))  # trace != 1


def test_experiment_config_validation():
    bath = BathSpec(dim=4, seed=0, norms={"0": 1.0, "z": 0.5})
    with pytest.raises(ValueError):
        ExperimentConfig(kind="cdd", orders=(1, 1), bath=bath, T=0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="qdd", orders=(1, 1, 1), bath=bath, T=0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="qdd", orders=(1, 1), bath=bath, T=-0.1)
    no_j0 = BathSpec(dim=4, seed=0, norms={"z": 0.5})
    with pytest.raises(ValueError):
        ExperimentConfig(kind="qdd", orders=(1, 1), bath=no_j0, T=0.1)


@pytest.mark.parametrize("kind, orders", [("qdd", (1, 1)), ("nudd", (1, 1))])
def test_experiment_config_rejects_unknown_mode(kind, orders, monkeypatch):
    """A bad mode fails in the config, before any model is built or evolved."""
    import ddbound.simulator as sim

    def no_model(*args):
        raise AssertionError("build_model ran before the mode was checked")

    monkeypatch.setattr(sim, "build_model", no_model)
    bath = BathSpec(dim=2, seed=0, norms={"0": 1.0, "z": 0.5})
    with pytest.raises(ValueError, match="mode"):
        run_experiment(ExperimentConfig(kind=kind, orders=orders, bath=bath, T=0.1, mode="bogus"))


def test_run_experiment_margins_and_determinism():
    bath = BathSpec(dim=8, seed=42, norms={"0": 1.0, "x": 0.3, "y": 0.8, "z": 0.05})
    cfg = ExperimentConfig(kind="qdd", orders=(2, 2), bath=bath, T=0.05)
    res = run_experiment(cfg)
    assert 0.0 <= res.distance_actual <= res.distance_bound
    assert res.margin > 0.0
    assert all(v > 0.0 for v in res.channel_margins.values())
    assert res.unitarity_residual < 1e-12
    res2 = run_experiment(cfg)
    assert res2.distance_actual == res.distance_actual
    assert res2.channel_norms == res.channel_norms


def test_run_experiment_eta_from_realized_norms():
    bath = BathSpec(dim=8, seed=1, norms={"0": 1.0, "x": 0.3, "y": 0.8, "z": 0.05})
    res = run_experiment(ExperimentConfig(kind="qdd", orders=(1, 1), bath=bath, T=0.1))
    assert res.epsilon == pytest.approx(0.1, rel=1e-12)
    assert res.eta[0] == pytest.approx(0.3, rel=1e-12)


def test_run_experiment_nudd():
    bath = BathSpec(
        dim=4, seed=11, norms={"00": 1.0, "x0": 0.2, "0z": 0.2, "yy": 0.1}
    )
    cfg = ExperimentConfig(kind="nudd", orders=(1, 1, 1, 1), bath=bath, T=0.05)
    res = run_experiment(cfg)
    assert res.kind == "nudd"
    assert res.margin > 0.0
    assert res.unitarity_residual < 1e-11
    assert "error_sum" in res.channel_margins


def test_initial_state_options():
    bath = BathSpec(dim=4, seed=13, norms={"0": 1.0, "z": 0.5})
    for state in ("random", "plus", "zero"):
        for bath_state in ("maximally-mixed", "pure-random"):
            cfg = ExperimentConfig(
                kind="qdd",
                orders=(1, 1),
                bath=bath,
                T=0.1,
                initial_state=state,
                bath_state=bath_state,
            )
            res = run_experiment(cfg)
            assert res.margin > -1e-12


def test_scalar_bath_sine_closed_form():
    """dim-1 bath, no pulses, |+> probe: distance is exactly |sin(b_z T)|."""
    bath = BathSpec(dim=1, seed=21, norms={"0": 1.0, "z": 0.8})
    model = build_model(bath, 1)
    bz = float(model.couplings["z"][0, 0].real)
    for T in (0.3, 1.0, 2.5):
        cfg = ExperimentConfig(
            kind="qdd", orders=(0, 0), bath=bath, T=T, initial_state="plus"
        )
        res = run_experiment(cfg)
        assert res.distance_actual == pytest.approx(abs(math.sin(bz * T)), abs=1e-12)


def test_commuting_dephasing_fully_refocused():
    """One outer level cancels a commuting dephasing coupling exactly."""
    bath = BathSpec(dim=1, seed=22, norms={"0": 1.0, "z": 0.8})
    for orders in ((0, 1), (0, 2), (2, 3)):
        cfg = ExperimentConfig(
            kind="qdd", orders=orders, bath=bath, T=0.9, initial_state="plus"
        )
        res = run_experiment(cfg)
        assert res.distance_actual <= 1e-12


def test_fit_scaling_orders_11():
    bath = BathSpec(dim=4, seed=31, norms={"0": 1.0, "x": 0.4, "y": 0.4, "z": 0.4})
    fit = fit_scaling(1, 1, bath)
    assert fit.slopes["x"] == pytest.approx(2.0, abs=0.1)
    assert fit.slopes["y"] == pytest.approx(3.0, abs=0.1)
    assert fit.slopes["z"] == pytest.approx(2.0, abs=0.1)


def test_fit_scaling_underflow_reports_none():
    # with no transverse couplings the x channel never rises above the floor
    bath = BathSpec(dim=4, seed=32, norms={"0": 1.0, "z": 0.3})
    fit = fit_scaling(2, 2, bath)
    assert fit.slopes["x"] is None


def test_fit_scaling_needs_three_distinct_resolved_points():
    """A channel resolved at three grid points that are one eps has no slope."""
    bath = BathSpec(dim=4, seed=31, norms={"0": 1.0, "x": 0.4, "y": 0.4, "z": 0.4})
    fit = fit_scaling(1, 1, bath, eps_grid=[1e-12, 1e-11, 0.01, 0.01, 0.01])
    assert all(min(fit.norms[ch][2:]) > fit.floor > max(fit.norms[ch][:2]) for ch in "xyz")
    assert fit.slopes == dict.fromkeys("xyz")


def test_result_jsonable():
    bath = BathSpec(dim=2, seed=41, norms={"0": 1.0, "x": 0.1})
    res = run_experiment(ExperimentConfig(kind="qdd", orders=(1, 1), bath=bath, T=0.1))
    doc = json.loads(json.dumps(asdict(res)))
    assert doc["kind"] == "qdd"
    assert doc["orders"] == [1, 1] and len(doc["eta"]) == 3
    assert isinstance(doc["channel_norms"], dict)
    assert doc["margin"] == res.margin


# ------------------------------------------------------------ stacked runs --


def _outcomes(columns, converged):
    """Each cell of a run's columns as its SimResult, or as the message of
    its bound's NonConvergenceError."""
    out = []
    for s in range(len(converged)):
        try:
            out.append(simulator._result(columns, converged, s))
        except NonConvergenceError as exc:
            out.append(str(exc))
    return out


def _one_by_one(configs):
    out = []
    for cfg in configs:
        try:
            out.append(run_experiment(cfg))
        except NonConvergenceError as exc:
            out.append(str(exc))
    return out


# (kind, orders, bath dims): QDD up to bath dim 64 (the stack cap is four
# cells there), NUDD up to 16 to keep the dim-256 cells out of the loop
_GROUP_SPECS = (
    ("qdd", (1, 1), (1, 2, 8, 64)),
    ("qdd", (2, 1), (1, 4, 64)),
    ("nudd", (1, 1, 1, 1), (1, 2, 16)),
    ("nudd", (0, 1, 1, 0), (1, 4)),
)


@st.composite
def _configs(draw):
    """Configs in groups of one (schedule, bath dim), some over the stack cap,
    in a shuffled order."""
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        kind, orders, dims = draw(st.sampled_from(_GROUP_SPECS))
        dim = draw(st.sampled_from(dims))
        labels = pauli_labels(len(orders) // 2)
        for _ in range(draw(st.integers(1, 6 if dim == 64 else 3))):
            eta = draw(st.floats(1e-3, 5.0))
            norms = {labels[0]: 1.0}
            norms.update({lab: eta * (k % 3 + 1) / 3 for k, lab in enumerate(labels[1:])})
            cells.append(
                ExperimentConfig(
                    kind=kind,
                    orders=orders,
                    bath=BathSpec(dim=dim, seed=draw(st.integers(0, 2**20)), norms=norms),
                    T=draw(st.sampled_from((1e-3, 0.05, 0.7, 150.0))),
                    initial_state=draw(st.sampled_from(("random", "plus", "zero"))),
                    bath_state=draw(st.sampled_from(("maximally-mixed", "pure-random"))),
                )
            )
    return draw(st.permutations(cells))


def _straddling():
    """Six QDD cells at total dim 128 (stacks of four and two), two of whose
    bounds overflow at eps = 150, and a NUDD pair between them."""
    qdd = [
        ExperimentConfig(
            kind="qdd", orders=(2, 1), T=T,
            bath=BathSpec(dim=64, seed=s, norms={"0": 1.0, "x": 1.0, "y": 0.5, "z": 1.0}),
            initial_state=state, bath_state=bath_state,
        )
        for s, (T, state, bath_state) in enumerate(
            itertools.product((0.05, 150.0, 0.7), ("plus", "random"), ("pure-random",))
        )
    ]
    nudd = [
        ExperimentConfig(
            kind="nudd", orders=(1, 1, 1, 1), T=0.05, initial_state="zero",
            bath=BathSpec(dim=2, seed=s, norms={"00": 1.0, "xy": 0.3, "z0": 0.1}),
        )
        for s in range(2)
    ]
    return qdd[:3] + nudd + qdd[3:]


def _mixed_schedules():
    """Twenty QDD cells at total dim 64, interleaved over orders (1,1), (2,1)
    and (1,2): grouped by schedule they run as stacks of 16 and 4, each
    holding two schedules."""
    orders = [(1, 1)] * 10 + [(2, 1)] * 8 + [(1, 2)] * 2
    return [
        ExperimentConfig(
            kind="qdd", orders=o, T=(0.05, 0.7, 3.0)[s % 3],
            bath=BathSpec(dim=32, seed=s, norms={"0": 1.0, "x": 0.4, "y": 0.1, "z": 0.8}),
            initial_state=("plus", "random")[s % 2],
        )
        for s, o in sorted(enumerate(orders), key=lambda c: c[0] % 7)
    ]


def _mixed_kinds():
    """QDD (1,1) and NUDD (1,1) cells of one qubit at one bath dimension: one
    stack holding both bound families."""
    return [
        ExperimentConfig(
            kind=kind, orders=(1, 1), T=T,
            bath=BathSpec(dim=4, seed=s, norms={"0": 1.0, "x": 0.2, "y": 0.6, "z": 0.4}),
        )
        for s, (kind, T) in enumerate(itertools.product(("nudd", "qdd"), (0.05, 0.7)))
    ]


@settings(max_examples=20, deadline=None)
@given(configs=_configs())
@example(configs=_straddling())
@example(configs=_mixed_schedules())
@example(configs=_mixed_kinds())
def test_run_experiments_equals_one_by_one(configs):
    """Stacked groups give every cell, float for float, its lone result."""
    got = _outcomes(*run_experiments(configs))
    want = _one_by_one(configs)
    if configs == _straddling():
        assert [k for k, r in enumerate(got) if isinstance(r, str)] == [2, 5]
    assert got == want
    assert repr(got) == repr(want)  # also tells -0.0 from 0.0


def test_run_experiments_batch_independence():
    """A cell's result does not depend on which cells share its stack."""
    def cfg(seed, T, eta=0.4, state="random"):
        norms = {"0": 1.0, "x": eta, "y": 0.5 * eta, "z": 2.0 * eta}
        bath = BathSpec(dim=8, seed=seed, norms=norms)
        return ExperimentConfig(kind="qdd", orders=(2, 2), bath=bath, T=T, initial_state=state)

    target = cfg(5, 0.3)
    alone = _outcomes(*run_experiments([target]))[0]
    others = [cfg(s, 0.01 * s, eta=0.1 * s, state="plus") for s in range(1, 9)]
    for stack in (others[:1] + [target], [target] + others, others[:4] + [target] + others[4:]):
        results = _outcomes(*run_experiments(stack))
        assert repr(results[stack.index(target)]) == repr(alone)


def test_run_experiments_empty():
    columns, converged = run_experiments([])
    assert converged.shape == (0,) and columns["kind"] == [] and columns["channel_norms"] == {}


def test_run_columns_mark_absent_values_nan():
    """A run's columns hold the labels of every qubit count and bound family
    in it, NaN where a cell has no such label, and NaN for the bound values
    of a cell whose bound failed, whose error text they keep."""
    norms = {"0": 1.0, "x": 1.0, "z": 0.5}
    configs = [
        ExperimentConfig(kind="qdd", orders=(2, 1), T=T, bath=BathSpec(dim=2, seed=0, norms=norms))
        for T in (0.1, 150.0)
    ] + [
        ExperimentConfig(kind="nudd", orders=(1, 1, 1, 1), T=0.1,
                         bath=BathSpec(dim=2, seed=0, norms={"00": 1.0, "xy": 0.3}))
    ]
    columns, converged = run_experiments(configs)
    assert converged.tolist() == [True, False, True]
    assert columns["error"][0] == columns["error"][2] == ""
    with pytest.raises(NonConvergenceError) as exc:
        run_experiment(configs[1])
    assert columns["error"][1] == str(exc.value)
    assert list(columns["channel_norms"]) == list(pauli_labels(1) + pauli_labels(2))
    assert list(columns["channel_bounds"]) == ["x", "y", "z", "error_sum"]
    nan = {label: np.isnan(col).tolist() for label, col in columns["channel_norms"].items()}
    assert nan["x"] == [False, False, True] and nan["xy"] == [True, True, False]
    for name in ("channel_bounds", "channel_margins"):
        assert np.isnan(columns[name]["x"]).tolist() == [False, True, True]
        assert np.isnan(columns[name]["error_sum"]).tolist() == [True, True, False]
    assert np.isnan(columns["distance_bound"]).tolist() == [False, True, False]
    assert np.isfinite(columns["distance_actual"]).all()


def test_stacks_stay_under_the_memory_cap(monkeypatch):
    """No stacked array holds more than MAX_TOTAL_DIM**2 matrix entries: 20
    cells at total dim 64 run as stacks of 16 and 4, a dim-256 cell alone."""
    shapes = []
    evolve_one = simulator.evolve

    def recording(schedule, model, T):
        shapes.append(model.eigenvectors.shape)
        return evolve_one(schedule, model, T)

    monkeypatch.setattr(simulator, "evolve", recording)
    qdd = [
        ExperimentConfig(
            kind="qdd", orders=(1, 1), T=0.1,
            bath=BathSpec(dim=32, seed=s, norms={"0": 1.0, "x": 0.3}),
        )
        for s in range(20)
    ]
    big = ExperimentConfig(
        kind="nudd", orders=(1, 1, 1, 1), T=0.1,
        bath=BathSpec(dim=64, seed=0, norms={"00": 1.0, "xz": 0.3}),
    )
    run_experiments(qdd + [big])
    assert shapes == [(16, 64, 64), (4, 64, 64), (1, 256, 256)]
    assert all(np.prod(shape) <= MAX_TOTAL_DIM**2 for shape in shapes)


def test_stacks_split_only_evolve_by_schedule(monkeypatch):
    """A 24-cell sweep over 4 orders x 3 bath dims builds one model per bath
    dim and evolves once per (orders, bath dim)."""
    calls = {"build_model": [], "evolve": []}

    def counting(name):
        original = getattr(simulator, name)

        def wrapper(*args):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(simulator, name, wrapper)

    counting("build_model")
    counting("evolve")
    configs = [
        ExperimentConfig(
            kind="qdd", orders=orders, T=0.1,
            bath=BathSpec(dim=dim, seed=len(orders) + dim, norms={"0": 1.0, "x": eta}),
        )
        for orders, dim, eta in itertools.product(
            ((1, 1), (2, 2), (1, 4), (3, 3)), (2, 8, 32), (0.1, 1.0)
        )
    ]
    run_experiments(configs)
    assert [len(baths) for baths, _ in calls["build_model"]] == [8, 8, 8]
    assert len(calls["evolve"]) == 12
    assert all(model.eigenvectors.shape[0] == 2 for _, model, _ in calls["evolve"])


def test_stacked_model_and_evolve_are_the_single_forms():
    """build_model and evolve over a stack give each model's own arrays."""
    baths = [BathSpec(dim=4, seed=s, norms={"0": 1.0, "x": 0.2 * s, "z": 0.3}) for s in range(3)]
    stacked = build_model(baths, 1)
    times = np.array([0.1, 0.5, 2.0])
    u = evolve(qdd_schedule(2, 3), stacked, times)
    for k, bath in enumerate(baths):
        one = build_model(bath, 1)
        assert np.array_equal(stacked.eigenvectors[k], one.eigenvectors)
        assert np.array_equal(stacked.eigenvalues[k], one.eigenvalues)
        assert all(np.array_equal(stacked.couplings[lab][k], c) for lab, c in one.couplings.items())
        assert np.array_equal(u[k], evolve(qdd_schedule(2, 3), one, times[k]))
    with pytest.raises(ValueError, match="one dimension"):
        build_model([baths[0], BathSpec(dim=2, seed=0, norms={"0": 1.0})], 1)
    with pytest.raises(ValueError, match="T must be"):
        evolve(qdd_schedule(1, 1), stacked, np.array([0.1, -1.0, 0.2]))


def test_fit_scaling_is_the_per_point_evolution():
    """fit_scaling's one stacked evolve gives each grid point's lone norms."""
    bath = BathSpec(dim=4, seed=31, norms={"0": 2.0, "x": 0.4, "y": 0.4, "z": 0.4})
    fit = fit_scaling(1, 2, bath)
    model = build_model(bath, 1)
    for k, eps in enumerate(fit.eps_grid):
        ops = extract_channel_ops(evolve(qdd_schedule(1, 2), model, eps / 2.0), 1)
        assert all(fit.norms[ch][k] == _spectral_norm(ops[ch]) for ch in "xyz")


# ------------------------------------------------------------------- norms --

_U = 2.0**-53  # unit roundoff of float64


def _svd_norm(a):
    """Spectral norm by singular values, the oracle for the eigensolve norms."""
    return np.linalg.norm(a, 2)


@settings(max_examples=60, deadline=None)
@given(
    hermitian=st.booleans(),
    n=st.integers(1, 64),
    cells=st.integers(1, 3),
    k=st.integers(-540, 540),
    zeros=st.lists(st.booleans(), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
# past |k| = 511 the unscaled Gram matrix of a Gaussian draw under- or overflows
@example(hermitian=False, n=64, cells=2, k=-540, zeros=[False] * 3, seed=0)
@example(hermitian=False, n=64, cells=2, k=540, zeros=[False] * 3, seed=0)
@example(hermitian=True, n=1, cells=3, k=0, zeros=[True, False, True], seed=1)
def test_norm_helpers_match_singular_values(hermitian, n, cells, k, zeros, seed):
    """Hermitian and general stacks of dims 1-64, scaled by 2^k, some of
    them all zero: each eigensolve norm is the largest singular value to
    64 n u relative, and exactly 0 for a zero matrix."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(cells, n, n)) + 1j * rng.normal(size=(cells, n, n))
    if hermitian:
        a = (a + a.conj().swapaxes(-1, -2)) / 2
    a *= 2.0**k  # exact: every entry stays a normal double
    a[np.array(zeros[:cells])] = 0.0
    want = np.array([_svd_norm(m) for m in a])
    helpers = (simulator._hermitian_norm, _spectral_norm) if hermitian else (_spectral_norm,)
    for norm in helpers:
        got = norm(a)
        assert np.all(np.abs(got - want) <= 64 * n * _U * want), (norm.__name__, got, want)
        assert [norm(m) for m in a] == list(got)  # a stack is its matrices one by one


def test_spectral_norm_at_the_ends_of_the_double_range():
    """The power-of-two prescale reaches subnormal and near-overflow entries."""
    tiny, huge = 5e-324, 1.5e308
    assert _spectral_norm(np.array([[tiny]], dtype=complex)) == tiny
    assert _spectral_norm(np.diag([huge, -huge]).astype(complex)) == huge
    assert _spectral_norm(np.diag([3 * tiny, tiny]).astype(complex)) == 3 * tiny
    assert _spectral_norm(np.zeros((2, 2), dtype=complex)) == 0.0


def _oracle_cells():
    """QDD at bath dims 2-32 and NUDD m = 2 at bath dims 2-8, in one list."""
    qdd = [
        ExperimentConfig(
            kind="qdd", orders=orders, T=T, initial_state=state,
            bath=BathSpec(dim=dim, seed=17 * dim + sum(orders),
                          norms={"0": 1.0, "x": 0.7, "y": 0.05, "z": 2.0}),
        )
        for orders, dim, (T, state) in itertools.product(
            ((1, 1), (2, 3)), (2, 8, 32), ((0.01, "random"), (0.6, "plus"))
        )
    ]
    nudd = [
        ExperimentConfig(
            kind="nudd", orders=(1, 1, 1, 1), T=T, bath_state="pure-random",
            bath=BathSpec(dim=dim, seed=dim, norms={"00": 1.0, "xz": 0.3, "y0": 0.8, "0x": 0.02}),
        )
        for dim, T in itertools.product((2, 4, 8), (0.02, 0.5))
    ]
    return [c for pair in itertools.zip_longest(qdd, nudd) for c in pair if c is not None]


def _svd_residuals(ops):
    """Completeness and cross residuals of channel operators, rebuilt from
    their definitions and normed by singular values.

    With U = sum_P sigma_P x A_P, the component Q of U^dag U - 1 is
    sum_{P,R} tr(sigma_Q sigma_P sigma_R) / 2^m A_P^dag A_R, less the bath
    identity for Q = identity ("completeness"; the others are "cross_Q").
    """
    labels = list(ops)
    sigma = {k: _pauli_matrix(k) for k in labels}
    dag = {k: a.conj().T for k, a in ops.items()}
    mats = {}
    for q in labels:
        mat = -np.eye(ops[q].shape[-1]) if q == labels[0] else 0.0
        for p, r in itertools.product(labels, labels):
            c = np.trace(sigma[q] @ sigma[p] @ sigma[r]) / len(sigma[q])
            if c:
                mat = mat + c * (dag[p] @ ops[r])
        mats["completeness" if q == labels[0] else "cross_" + q] = mat
    return {k: _svd_norm(m) for k, m in mats.items()}


def _close(got, want):
    return abs(got - want) <= max(1e-13 * abs(want), 1e-15)


def test_run_experiments_norms_match_singular_values():
    """Over mixed QDD and NUDD cells, the channel norms, the realized
    coupling norms and the residuals of ``run_experiments`` match singular
    values recomputed here, and D_actual is bit for bit the SVD trace
    distance of the states the run forms."""
    configs = _oracle_cells()
    for cfg, res in zip(configs, _outcomes(*run_experiments(configs))):
        m = cfg.qubit_count
        model = build_model(cfg.bath, m)
        realized = {lab: _svd_norm(c) for lab, c in model.couplings.items()}
        assert all(_close(model.coupling_norms[lab], n) for lab, n in realized.items())
        assert _close(res.epsilon, realized["0" * m] * cfg.T)
        u = evolve(nudd_schedule(cfg.orders, m), model, cfg.T)
        ops = extract_channel_ops(u, m)
        assert all(_close(res.channel_norms[lab], _svd_norm(a)) for lab, a in ops.items())
        residuals = _svd_residuals(ops)
        assert _close(res.unitarity_residual, residuals.pop("completeness"))
        assert res.cross_residuals.keys() == residuals.keys()
        assert all(_close(res.cross_residuals[k], r) for k, r in residuals.items())
        # the states as the run forms them (a stack of one), and their distance
        psi = simulator._initial_system_state(cfg)[None]
        rho_bath = simulator._initial_bath_state(cfg)[None]
        d_sys, d_bath = 2**m, cfg.bath.dim
        k = np.einsum("saibj,sb->saij", u.reshape(-1, d_sys, d_bath, d_sys, d_bath), psi)
        flat = (-1, d_sys, d_bath * d_bath)
        rho_t = (k @ rho_bath[:, None]).reshape(flat) @ k.reshape(flat).conj().swapaxes(-1, -2)
        rho_sys = psi[:, :, None] * psi.conj()[:, None, :]
        svd = np.linalg.svd(rho_t[0] - rho_sys[0], compute_uv=False)
        assert res.distance_actual == 0.5 * np.sum(svd)


def test_residual_catches_a_scaled_channel_block():
    """Negative control: scaling one (system) block of U by 1 + 1e-8 breaks
    unitarity, and the completeness residual reports more than 1e-9."""
    for cfg in _oracle_cells()[:4]:
        m = cfg.qubit_count
        model = build_model(cfg.bath, m)
        u = evolve(nudd_schedule(cfg.orders, m), model, cfg.T)
        assert unitarity_residuals(u, m)["completeness"] < 1e-12
        d_bath = cfg.bath.dim
        u[:d_bath, :d_bath] *= 1 + 1e-8
        ops = extract_channel_ops(u, m)
        got = unitarity_residuals(u, m)["completeness"]
        assert got > 1e-9
        assert _close(got, _svd_residuals(ops)["completeness"])


def test_residual_catches_a_two_qubit_cross_term():
    """Negative control for two qubits: U (1 + 1e-8 sigma_xz x H) with
    ||H|| = 1 keeps completeness to second order in 1e-8, and its xz cross
    relation reads 2e-8 (U^dag U = 1 + 2e-8 sigma_xz x H + O(1e-16))."""
    cfg = ExperimentConfig(
        kind="nudd", orders=(1, 1, 1, 1), T=0.3,
        bath=BathSpec(dim=4, seed=5, norms={"00": 1.0, "xz": 0.3, "y0": 0.8, "0x": 0.02}),
    )
    u = evolve(nudd_schedule(cfg.orders, 2), build_model(cfg.bath, 2), cfg.T)
    h = np.diag(np.linspace(-1.0, 1.0, 4))
    skewed = u @ (np.eye(16) + 1e-8 * np.kron(_pauli_matrix("xz"), h))
    res = unitarity_residuals(skewed, 2)
    assert list(res) == ["completeness"] + [f"cross_{k}" for k in pauli_labels(2)[1:]]
    assert res["completeness"] < 1e-12
    assert res["cross_xz"] > 1e-9
    assert max(v for k, v in res.items() if k != "cross_xz") < 1e-12
    want = _svd_residuals(extract_channel_ops(skewed, 2))
    assert all(_close(res[k], r) for k, r in want.items())


_BATH = BathSpec(dim=2, seed=0, norms={"0": 1.0})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: BathSpec(dim=2, seed=-1, norms={}),
                     "bath seed must be an integer >= 0, got -1", id="BathSpec-negative-seed"),
        pytest.param(lambda: evolve(qdd_schedule(1, 1),
                                    build_model(replace(_BATH, norms={"00": 1.0}), 2), 0.1),
                     "schedule and model disagree on qubit count", id="evolve-qubit-count"),
        pytest.param(lambda: extract_channel_ops(np.eye(6), 2),
                     "unitary shape incompatible with qubit count", id="extract-shape"),
        pytest.param(lambda: trace_distance(np.ones((1, 2)), np.eye(2) / 2),
                     "density matrix must be square", id="density-square"),
        pytest.param(lambda: trace_distance(np.array([[0.5, 0.1], [0.0, 0.5]]), np.eye(2) / 2),
                     "density matrix is not Hermitian within tolerance", id="density-hermitian"),
        pytest.param(lambda: trace_distance(np.eye(2), np.eye(2) / 2),
                     "density matrix trace differs from 1", id="density-trace"),
        pytest.param(lambda: trace_distance(np.diag([1.5, -0.5]), np.eye(2) / 2),
                     "density matrix has negative eigenvalues beyond tolerance",
                     id="density-negative"),
        pytest.param(lambda: ExperimentConfig(kind="nudd", orders=(1, 1, 1), bath=_BATH, T=0.1),
                     "orders must come in (z, x) level pairs", id="config-odd-levels"),
        pytest.param(lambda: ExperimentConfig(kind="qdd", orders=(1, 1), T=0.1,
                                              bath=replace(_BATH, dim=MAX_TOTAL_DIM)),
                     "total dimension exceeds supported limit", id="config-total-dim"),
        pytest.param(lambda: ExperimentConfig(kind="qdd", orders=(1, 1), bath=_BATH, T=0.1,
                                              initial_state="bogus"),
                     "initial_state must be one of ('random', 'plus', 'zero')",
                     id="config-initial-state"),
        pytest.param(lambda: ExperimentConfig(kind="qdd", orders=(1, 1), bath=_BATH, T=0.1,
                                              bath_state="bogus"),
                     "bath_state must be one of ('maximally-mixed', 'pure-random')",
                     id="config-bath-state"),
        pytest.param(lambda: fit_scaling(1, 1, _BATH, eps_grid=(1e-3, 1e-2)),
                     "need at least three distinct grid points for a slope", id="fit-grid"),
        pytest.param(lambda: fit_scaling(1, 1, BathSpec(2, 0, {"0": 1.0, "x": 0.3}),
                                         eps_grid=[0.01] * 3),
                     "need at least three distinct grid points for a slope",
                     id="fit-grid-repeated"),
        pytest.param(lambda: fit_scaling(1, 1, replace(_BATH, norms={"x": 1.0})),
                     "bath must set the identity norm J0 > 0", id="fit-j0"),
    ],
)
def test_validation_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
