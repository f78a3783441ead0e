"""Command-line interface tests.

Each test drives ``ddbound.cli.main`` in-process and checks the exit code,
the emitted header block, and the data rows. Argparse-level failures raise
``SystemExit(2)`` which matches the invalid-input exit code used by the
command functions themselves.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddbound.cli as cli
import ddbound.simulator as simulator
from ddbound.cli import main
from ddbound.nudd_bounds import NUDD_SWEEP_COLUMNS, nudd_sweep_cell
from ddbound.qdd_bounds import (
    _MODES,
    QDD_SWEEP_COLUMNS,
    EtaVector,
    default_eps_grid,
    sweep_cell,
)
from ddbound.series import NORMAL_MIN, NonConvergenceError

from record_golden import BASE_CONFIGS, CELL_CONFIG, SIM_CONFIG, SWEEP_CONFIG


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def header_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith("#")]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_sequence_qdd_22(capsys):
    code, out, _ = run_cli(["sequence", "--qdd", "2", "2"], capsys)
    assert code == 0
    heads = header_lines(out)
    assert any(h.startswith("# ddbound=") for h in heads)
    assert any(h.startswith("# config_hash=") for h in heads)
    rows = data_lines(out)
    assert rows[0].split(",")[0] == "time"  # column header
    body = rows[1:]
    assert len(body) == 8
    axes = [r.split(",")[1] for r in body]
    assert axes.count("z") == 6 and axes.count("x") == 2


def test_sequence_nudd_matches_qdd(capsys):
    code_a, out_a, _ = run_cli(["sequence", "--qdd", "1", "1"], capsys)
    code_b, out_b, _ = run_cli(
        ["sequence", "--nudd", "1,1", "--qubits", "1"], capsys
    )
    assert code_a == 0 and code_b == 0
    assert data_lines(out_a) == data_lines(out_b)


def test_bounds_qdd_fig2_reproducible(tmp_path, capsys):
    target = tmp_path / "fig2.csv"
    code, _, _ = run_cli(["bounds", "qdd", "--fig2", "--out", str(target)], capsys)
    assert code == 0
    first = target.read_bytes()
    text = first.decode()
    assert len(data_lines(text)) == 1 + 16 * 41  # column header + 16 cells
    code, _, _ = run_cli(["bounds", "qdd", "--fig2", "--out", str(target)], capsys)
    assert code == 0
    assert target.read_bytes() == first  # truncate-write, byte-identical


def test_bounds_qdd_manual_grid(capsys):
    code, out, _ = run_cli(
        [
            "bounds", "qdd", "--n1", "1", "--n2", "2", "--eta", "0.5",
            "--eps-min", "1e-3", "--eps-max", "1e-2", "--eps-points", "5",
        ],
        capsys,
    )
    assert code == 0
    rows = data_lines(out)
    assert len(rows) == 6  # column header + 5 grid points
    cols = rows[0].split(",")
    assert "D_bound" in cols
    first = rows[1].split(",")
    assert float(first[cols.index("epsilon")]) == pytest.approx(1e-3)


def test_bounds_qdd_empty_grid(capsys):
    code, out, _ = run_cli(
        ["bounds", "qdd", "--n1", "0", "--n2", "0", "--eta", "1", "--eps-points", "0"],
        capsys,
    )
    assert code == 0
    rows = data_lines(out)
    assert len(rows) == 1  # column header only


def test_bounds_nudd_fig5(capsys):
    code, out, _ = run_cli(["bounds", "nudd", "--fig5"], capsys)
    assert code == 0
    assert len(data_lines(out)) == 1 + 16 * 41


def test_bounds_nudd_nonconvergence_flagged(capsys):
    code, out, err = run_cli(
        [
            "bounds", "nudd", "--m", "10", "--dmin", "5", "--eta", "100",
            "--eps-min", "0.5", "--eps-max", "1.0", "--eps-points", "2",
        ],
        capsys,
    )
    assert code == 3
    assert any("non-convergence" in ln for ln in out.splitlines())
    rows = data_lines(out)[1:]
    assert all("nan" in r for r in rows)


@pytest.mark.parametrize(
    "argv, points",
    [
        (["bounds", "qdd", "--n1", "2", "--n2", "2", "--eta", "1",
          "--eps-min", "100", "--eps-max", "150", "--eps-points", "2"], 2),
        (["bounds", "nudd", "--m", "1", "--dmin", "2", "--eta", "1",
          "--eps-min", "100", "--eps-max", "150", "--eps-points", "2"], 2),
    ],
)
def test_bounds_overflow_flagged_not_printed(argv, points, capsys):
    """A bound or leading term beyond double range is a flagged row, never
    ``inf`` and never a traceback."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 3
    flags = [ln for ln in out.splitlines() if ln.startswith("# non-convergence")]
    assert len(flags) == points
    rows = data_lines(out)[1:]
    assert len(rows) == points and all(r.endswith("nan,nan,nan") for r in rows)
    assert "inf" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "qdd", "--n1", "200", "--n2", "200", "--eta", "1"],
        ["bounds", "nudd", "--m", "1", "--dmin", "200", "--eta", "1"],
    ],
)
def test_bounds_past_factorial_range_are_rows(argv, capsys):
    """Orders above 170, where (d+1)! is beyond double range, give finite rows."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "non-convergence" not in out
    rows = data_lines(out)[1:]
    assert len(rows) == 41
    values = [float(v) for r in rows for v in r.split(",")]
    assert all(math.isfinite(v) for v in values)
    # D_leading at eps = 1, in 60-digit arithmetic
    leading = float(rows[-1].split(",")[-1])
    assert leading == pytest.approx(4.8869154231988433e-257, rel=1e-12)


def test_bounds_subnormal_rows_flagged(capsys):
    """Values below 2^-1022 have lost digits: their row gets a comment line
    naming them, and the exit code is unchanged."""
    code, out, _ = run_cli(["bounds", "qdd", "--n1", "200", "--n2", "200", "--eta", "1"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("# ") or "subnormal" in ln]
    cols = lines[0].split(",")
    flagged = 0
    for prev, ln in zip(lines, lines[1:]):
        if ln.startswith("#"):
            continue
        values = dict(zip(cols, map(float, ln.split(","))))
        tiny = [c for c in cols[9:] if 0.0 < values[c] < 2.0**-1022]
        if tiny:
            flagged += 1
            assert prev.startswith("# subnormal: epsilon=")
            assert prev.endswith(f"; {', '.join(tiny)} below 2^-1022")
        else:
            assert not prev.startswith("# subnormal")
    # D_leading at eps = 0.5 is 1.52e-317 (the value that once printed 17
    # digits unflagged); every row from eps = 1e-4 up to it is flagged
    assert flagged >= 33


@pytest.mark.parametrize(
    "argv, zero_columns",
    [
        (["bounds", "qdd", "--n1", "2", "--n2", "2", "--eta-x", "0", "--eta-y", "0",
          "--eta-z", "0.1", "--eps-points", "2"], ("L_x", "L_y")),
        (["bounds", "nudd", "--m", "1", "--dmin", "2", "--eta", "0", "--eps-points", "2"],
         ("Delta", "D_bound", "D_leading")),
    ],
)
def test_bounds_exact_zeros_stay_zero(argv, zero_columns, capsys):
    """A channel with no coupling has an exact zero bound: outward rounding
    leaves it 0 rather than the smallest subnormal, and no row is flagged."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "subnormal" not in out
    lines = data_lines(out)
    cols = lines[0].split(",")
    for row in lines[1:]:
        values = dict(zip(cols, row.split(",")))
        assert all(values[c] == "0" for c in zero_columns)


def test_bounds_overflow_edge_rows(capsys):
    """A grid that crosses the overflow edge flags exactly the points past it."""
    argv = ["bounds", "qdd", "--n1", "2", "--n2", "2", "--eta", "1",
            "--eps-min", "10", "--eps-max", "300", "--eps-points", "13"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 3
    rows = data_lines(out)[1:]
    flagged = [r.split(",")[0] for r in rows if r.endswith("nan,nan,nan,nan,nan")]
    assert flagged == [r.split(",")[0] for r in rows[8:]]
    assert len([ln for ln in out.splitlines() if ln.startswith("# non-convergence")]) == 5


# The bounds-table writer before it wrote each cell from its columns: one
# row dict per grid point, each value formatted and tested on its own.  Kept
# as the reference that the column writer must match byte for byte.
def _oracle_fmt(value):
    return "%.17g" % value if isinstance(value, float) else str(value)


def _oracle_flag_line(kind, row, columns):
    parts = " ".join(
        f"{c}={_oracle_fmt(row[c])}" for c in columns
        if not (isinstance(row[c], float) and math.isnan(row[c]))
    )
    return f"# {kind}: {parts}"


def _oracle_table(columns, cells):
    """(lines, exit code) of the old row loop over ``cells``."""
    lines = [",".join(columns)]
    failures = 0
    for cell in cells:
        values, converged = cell()
        lists = {c: v.tolist() for c, v in values.items() if isinstance(v, np.ndarray)}
        fixed = {c: v for c, v in values.items() if c not in lists}
        for i, eps in enumerate(lists["epsilon"]):
            row = {**fixed, **{c: v[i] for c, v in lists.items()}}
            if not (converged[i] and all(math.isfinite(v[i]) for v in lists.values())):
                row = {**dict.fromkeys(columns, math.nan), **fixed, "epsilon": eps}
                lines.append(_oracle_flag_line("non-convergence", row, columns))
                failures += 1
            else:
                tiny = [c for c in columns if isinstance(row[c], float)
                        and 0.0 < abs(row[c]) < NORMAL_MIN]
                if tiny:
                    key = {c: row[c] for c in ("epsilon", *fixed)}
                    lines.append(
                        f"{_oracle_flag_line('subnormal', key, key)}; "
                        f"{', '.join(tiny)} below 2^-1022"
                    )
            lines.append(",".join(_oracle_fmt(row[c]) for c in columns))
    return lines, 3 if failures else 0


def _writer_table(columns, cells):
    """(lines, exit code) of ``cli._table`` with an empty header."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = 3 if cli._table(None, [], columns, cells) else 0
    return out.getvalue().splitlines(), code


# Values drawn by their decade exponent over [lo, hi], so small values are as
# likely as large ones, with the subnormal decades drawn as often again.
def _decades(lo, hi):
    return st.one_of(st.floats(lo, -308.0), st.floats(lo, hi)).map(lambda e: 10.0**e)


def _zero_or_decades(lo, hi):
    return st.one_of(st.just(0.0), _decades(lo, hi))


_GRIDS = st.lists(_decades(-320.0, 3.0), max_size=60)


@settings(max_examples=150, deadline=None)
@given(
    n1=st.integers(0, 40),
    n2=st.integers(0, 40),
    eta=st.tuples(*[_zero_or_decades(-310.0, 3.0)] * 3),
    grid=_GRIDS,
    mode=st.sampled_from(_MODES),
)
def test_qdd_writer_matches_row_loop(n1, n2, eta, grid, mode):
    """The column writer prints exactly the old row loop's text and exit code
    for random QDD cells, across the non-convergence and subnormal edges."""
    cell = partial(sweep_cell, n1, n2, EtaVector(*eta), grid, mode)
    assert _writer_table(QDD_SWEEP_COLUMNS, [cell]) == _oracle_table(QDD_SWEEP_COLUMNS, [cell])


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 12),
    d_min=st.integers(0, 60),
    eta=_zero_or_decades(-310.0, 2.0),
    grid=_GRIDS,
)
def test_nudd_writer_matches_row_loop(m, d_min, eta, grid):
    """The same for random NUDD cells."""
    cell = partial(nudd_sweep_cell, m, d_min, eta, grid)
    assert _writer_table(NUDD_SWEEP_COLUMNS, [cell]) == _oracle_table(NUDD_SWEEP_COLUMNS, [cell])


def test_writer_mixes_flags_like_row_loop():
    """One table whose cells mix non-convergence, subnormal and plain rows."""
    grid = default_eps_grid(1e-4, 300.0, 25)
    cells = [
        partial(sweep_cell, 200, 200, EtaVector.isotropic(1.0), grid),
        partial(sweep_cell, 2, 2, EtaVector.isotropic(1.0), grid),
    ]
    lines, code = _writer_table(QDD_SWEEP_COLUMNS, cells)
    assert (lines, code) == _oracle_table(QDD_SWEEP_COLUMNS, cells)
    assert code == 3
    kinds = {ln.split(":")[0] for ln in lines if ln.startswith("#")}
    assert kinds == {"# non-convergence", "# subnormal"}


def test_writer_subnormal_eta_flags_every_row(capsys):
    """A subnormal fixed column flags every row, named in column order."""
    cell = partial(sweep_cell, 2, 2, EtaVector(1e-310, 0.5, 0.5), default_eps_grid(1e-4, 1e-3, 4))
    assert _writer_table(QDD_SWEEP_COLUMNS, [cell]) == _oracle_table(QDD_SWEEP_COLUMNS, [cell])
    code, out, _ = run_cli(
        "bounds qdd --n1 2 --n2 2 --eta-x 1e-310 --eta-y 0.5 --eta-z 0.5 --eps-points 4".split(),
        capsys,
    )
    assert code == 0
    flags = [ln for ln in out.splitlines() if ln.startswith("# subnormal: ")]
    assert len(flags) == 4
    assert all(" eta_x=9.9999999999999694e-311 " in ln for ln in flags)
    assert all(ln.endswith("; eta_x below 2^-1022") for ln in flags)


def test_bounds_qdd_config_file(tmp_path, capsys):
    cfg = tmp_path / "cell.json"
    cfg.write_text(json.dumps({"n1": 2, "n2": 2, "eta": 1.0, "eps_points": 3}))
    code, out, _ = run_cli(["bounds", "qdd", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(data_lines(out)) == 4
    # flags override the file
    code, out, _ = run_cli(
        ["bounds", "qdd", "--config", str(cfg), "--eps-points", "2"], capsys
    )
    assert code == 0
    assert len(data_lines(out)) == 3


def test_simulate_record(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["ddbound"]
    assert record["seed"] == 7
    assert record["result"]["margin"] > 0.0
    assert record["config"]["orders"] == [1, 1]


def test_simulate_seed_override_and_append(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    log = tmp_path / "runs.jsonl"
    for seed in ("3", "4"):
        code, _, _ = run_cli(
            ["simulate", "--config", str(cfg), "--seed", seed, "--out", str(log)],
            capsys,
        )
        assert code == 0
    lines = log.read_text().splitlines()
    assert len(lines) == 2  # append mode
    assert json.loads(lines[0])["seed"] == 3
    assert json.loads(lines[1])["seed"] == 4


def test_verify_orders_certifies(capsys):
    code, out, _ = run_cli(
        ["verify", "orders", "--qdd", "1", "1", "--nmax", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    cert = doc["certification"]
    assert cert["certified"] is True
    assert cert["orders"] == {"d_x": 1, "d_y": 2, "d_z": 1}


# Zero words are proved by residues, with no threshold to set, so argparse
# itself rejects every --zero-tol value.
@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-30"])
def test_verify_orders_rejects_bad_zero_tol(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "orders", "--qdd", "3", "3", "--nmax", "2", f"--zero-tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --zero-tol={tol}" in captured.err


def test_verify_orders_over_claim_exits_1(capsys, monkeypatch):
    """Negative control: claiming d_x = 2 for QDD (1,1), whose x channel
    starts at order 1, lists the four nonzero x words of length 2 as
    violations and exits 1."""
    import ddbound.dyson as dyson

    claimed = dyson.decoupling_orders
    monkeypatch.setattr(dyson, "decoupling_orders",
                        lambda *args: replace(claimed(*args), d_x=2))
    code, out, err = run_cli("verify orders --qdd 1 1 --nmax 2".split(), capsys)
    assert (code, err) == (1, "")
    cert = json.loads(out)["certification"]
    assert cert["certified"] is False
    assert cert["violations"] == [
        {"abs": 0.125, "channel": "x", "n": 2, "value": value, "word": word}
        for word, value in (("0x", "-1/8"), ("x0", "1/8"), ("yz", "1/8"), ("zy", "-1/8"))
    ]


def test_verify_bound_rows(capsys):
    code, out, _ = run_cli(
        [
            "verify", "bound", "--qdd", "2", "2", "--eps", "0.1", "--eta", "1",
            "--seeds", "3", "--bath-dim", "4",
        ],
        capsys,
    )
    assert code == 0
    rows = data_lines(out)
    cols = rows[0].split(",")
    assert cols[-1] == "ok"
    body = rows[1:]
    assert len(body) == 3
    assert all(r.split(",")[-1] == "1" for r in body)


def test_verify_bound_loosen_fails(capsys):
    code, out, _ = run_cli(
        [
            "verify", "bound", "--qdd", "2", "2", "--eps", "0.1", "--eta", "1",
            "--seeds", "3", "--bath-dim", "4", "--loosen", "-1",
        ],
        capsys,
    )
    assert code == 1
    body = data_lines(out)[1:]
    assert all(r.split(",")[-1] == "0" for r in body)


def test_verify_bound_fails_a_two_qubit_cross_relation(capsys, monkeypatch):
    """Negative control: an evolve whose U is off by 1e-8 sigma_xz x H
    (||H|| = 1) breaks a two-qubit cross relation and not completeness, and
    every row fails."""
    evolve = simulator.evolve

    def skewed(schedule, model, T):
        u = evolve(schedule, model, T)
        h = np.diag(np.linspace(-1.0, 1.0, model.bath_dim))
        return u @ (np.eye(u.shape[-1]) + 1e-8 * np.kron(simulator._pauli_matrix("xz"), h))

    argv = "verify bound --nudd 1,1,1,1 --qubits 2 --eps 0.1 --seeds 2 --bath-dim 4".split()
    assert run_cli(argv, capsys)[0] == 0
    monkeypatch.setattr(simulator, "evolve", skewed)
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    body = [r.split(",") for r in data_lines(out)[1:]]
    assert len(body) == 2
    assert all(float(r[-2]) < 1e-12 and r[-1] == "0" for r in body)


def test_sweep_grid_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    target = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(target)], capsys)
    assert code == 0
    first = target.read_bytes()
    assert len(data_lines(first.decode())) == 1 + 2 * 2  # header + cells
    code, _, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(target)], capsys)
    assert code == 0
    assert target.read_bytes() == first


def test_sweep_overflowed_bound_flags_the_cell(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    doc = {**SWEEP_CONFIG, "orders": [[2, 2]], "eps": [0.05, 150], "eta": [1.0], "seeds": 1}
    cfg.write_text(json.dumps(doc))
    code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 3
    assert [ln.split(" (")[0] for ln in out.splitlines() if "non-convergence" in ln] == [
        "# non-convergence: cell=1 seed=1"
    ]
    # the column header, cell 0, and cell 1 with NaN in every computed column
    assert data_lines(out)[1:][1] == "1,qdd,2/2,4,1,nan,1,nan,nan,nan,nan,nan"
    assert len(data_lines(out)) == 3


def test_sweep_flags_one_cell_of_a_stacked_group(tmp_path, capsys, monkeypatch):
    """Three cells of one (schedule, bath dim) group run as one stack; only the
    middle one's bound overflows, and the other two keep their rows in order."""
    stacks = []
    evolve = simulator.evolve
    monkeypatch.setattr(
        simulator, "evolve", lambda s, model, T: stacks.append(np.shape(T)) or evolve(s, model, T)
    )
    cfg = tmp_path / "sweep.json"
    doc = {**SWEEP_CONFIG, "orders": [[2, 2]], "eps": [0.05, 150, 0.05], "eta": [1.0],
           "seeds": 1}
    cfg.write_text(json.dumps(doc))
    code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert stacks == [(3,)]
    assert code == 3
    assert [ln.split(" (")[0] for ln in out.splitlines() if "non-convergence" in ln] == [
        "# non-convergence: cell=1 seed=1"
    ]
    rows = data_lines(out)[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "1", "2"]
    assert rows[1] == "1,qdd,2/2,4,1,nan,1,nan,nan,nan,nan,nan"
    assert out.index("cell=1") < out.index("\n2,")


def test_verify_bound_writes_one_row_per_cell(capsys):
    """Every cell has its row: a cell whose bound overflows keeps its seed and
    eta and has NaN in the columns its run computes, epsilon included."""
    argv = "verify bound --qdd 2 2 --eps 400 --eta 1000 --seeds 2 --bath-dim 2".split()
    code, out, _ = run_cli(argv, capsys)
    assert code == 3
    assert sum(ln.startswith("# non-convergence: seed=") for ln in out.splitlines()) == 2
    assert data_lines(out)[1:] == [f"{seed},nan,1000,nan,nan,nan,nan,nan,nan" for seed in (0, 1)]


@pytest.mark.parametrize("loosen", ["1e308", "-1e308"])
def test_verify_bound_loosened_overflow_is_a_failed_row(loosen, capsys):
    """A loosened bound beyond double range fails the row rule, as a bounds
    value there does: a ``# non-convergence`` row of NaN and exit 3, whatever
    the sign of ``--loosen``."""
    argv = "verify bound --qdd 2 2 --eps 1 --eta 1 --seeds 2 --bath-dim 2".split()
    code, out, _ = run_cli([*argv, f"--loosen={loosen}"], capsys)
    assert code == 3
    assert [ln for ln in out.splitlines() if ln.startswith("# ")][5:] == [
        "# non-convergence: seed=0", "# non-convergence: seed=1"
    ]
    assert data_lines(out)[1:] == [f"{seed},nan,1,nan,nan,nan,nan,nan,nan" for seed in (0, 1)]


@pytest.mark.parametrize(
    "argv",
    [
        "bounds qdd --n1 2 --n2 2 --eps-points 2",
        "verify bound --qdd 1 1 --eps 0.05 --seeds 1 --bath-dim 2",
    ],
)
def test_unwritable_out_is_one_error(argv, tmp_path, capsys):
    """An ``--out`` that cannot be opened, for a command that truncates it
    or one that appends to it, exits 2 with one error line and no output."""
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli([*argv.split(), "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write output {str(target)!r}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("command", ["verify bound", "sweep"])
def test_subnormal_experiment_rows_flagged(command, tmp_path, capsys):
    """A ``verify bound`` or ``sweep`` row holding a value below 2^-1022 is
    preceded by a ``# subnormal`` line that gives its cell and seed and names
    those columns in column order; the exit code stays 0."""
    if command == "sweep":
        doc = {**SWEEP_CONFIG, "orders": [[1, 1]], "bath_dim": [2], "eps": [1e-300],
               "eta": [1.0], "seeds": 1}
        (tmp_path / "sweep.json").write_text(json.dumps(doc))
        argv = ["sweep", "--config", str(tmp_path / "sweep.json")]
        where = "cell=0 seed=0"
    else:
        argv = "verify bound --qdd 1 1 --eps 1e-300 --seeds 1 --bath-dim 2".split()
        where = "seed=0"
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    columns = data_lines(out)[0].split(",")
    lines = out.splitlines()
    flags = [i for i, ln in enumerate(lines) if ln.startswith("# subnormal")]
    assert len(flags) == 1
    row = dict(zip(columns, lines[flags[0] + 1].split(",")))
    floats = ("epsilon", "D_actual", "D_bound", "margin", "channel_margin_min", "unitarity")
    tiny = [c for c in columns if c in floats and 0 < abs(float(row[c])) < NORMAL_MIN]
    assert "D_bound" in tiny
    assert lines[flags[0]] == f"# subnormal: {where}; {', '.join(tiny)} below 2^-1022"


@pytest.mark.parametrize(
    "argv",
    [
        # D_actual lands above D_bound in one row, which the floor still passes
        "verify bound --qdd 3 3 --eps 1e-3 --eta 0.01 --seeds 2 --bath-dim 2",
        # D_bound is subnormal, so that row carries both flags
        "verify bound --qdd 1 1 --eps 1e-300 --seeds 1 --bath-dim 2",
        # bounds far above the floor: no row is flagged
        "verify bound --qdd 1 1 --eps 0.1 --eta 1 --seeds 2 --bath-dim 2",
    ],
)
def test_floor_decided_rows_flagged_unresolved(argv, capsys):
    """A row whose D_bound is below the margin floor 1e-12 is preceded by an
    ``# unresolved`` line giving its seed, placed before any ``# subnormal``
    line; no other row is flagged, and ``ok`` and the exit code keep what
    the check decides."""
    code, out, _ = run_cli(argv.split(), capsys)
    columns = data_lines(out)[0].split(",")
    lines = out.splitlines()
    start = lines.index(",".join(columns)) + 1
    rows = [(i, dict(zip(columns, ln.split(",")))) for i, ln in enumerate(lines)
            if i >= start and not ln.startswith("#")]
    for i, row in rows:
        flags = []
        while i > start and lines[i - 1].startswith("#"):
            i -= 1
            flags.insert(0, lines[i])
        unresolved = f"# unresolved: seed={row['seed']}; D_bound below the margin floor 1e-12"
        if float(row["D_bound"]) < -cli.MARGIN_FLOOR:
            assert flags[0] == unresolved
            assert all(f.startswith("# subnormal") for f in flags[1:])
        else:
            assert flags == []
        ok = float(row["margin"]) >= cli.MARGIN_FLOOR and float(
            row["channel_margin_min"]) >= cli.MARGIN_FLOOR
        assert row["ok"] == str(int(ok and float(row["unitarity"]) <= cli.UNITARITY_TOL))
    assert code == (cli.EXIT_OK if all(r["ok"] == "1" for _, r in rows) else cli.EXIT_ASSERTION)
    assert any(ln.startswith("# unresolved") for ln in lines) == ("0.1" not in argv)


def test_sweep_over_qubit_counts_is_its_one_count_sweeps(tmp_path, capsys):
    """A NUDD sweep over m = 1 and m = 2 orders, whose run holds the channel
    labels of both qubit counts, prints in every column but ``cell`` the
    rows and comment lines of the two one-orders sweeps whose master seeds
    give the same cell seeds, and exits as the worse of them."""
    doc = {"kind": "nudd", "bath_dim": [2], "eps": [0.05, 300.0], "eta": [0.3, 1.0],
           "seeds": 2, "master_seed": 5}

    def sweep(**changes):
        (tmp_path / "sweep.json").write_text(json.dumps({**doc, **changes}))
        code, out, _ = run_cli(["sweep", "--config", str(tmp_path / "sweep.json")], capsys)
        lines = out.splitlines()
        body = lines[lines.index(",".join(cli._SWEEP_COLUMNS)) + 1:]
        return code, [re.sub(r"^(# [a-z-]+: )cell=\d+ |^\d+,", r"\1", ln) for ln in body]

    code, both = sweep(orders=[[1, 1], [1, 1, 1, 1]])
    one_code, one = sweep(orders=[[1, 1]])
    two_code, two = sweep(orders=[[1, 1, 1, 1]], master_seed=5 + 8)
    assert both == one + two
    assert code == max(one_code, two_code)
    assert any(ln.startswith("# non-convergence") for ln in one + two)


def test_sweep_unresolved_row_names_its_cell(tmp_path, capsys):
    """A ``sweep`` row's ``# unresolved`` line gives its cell and seed."""
    doc = {**SWEEP_CONFIG, "orders": [[1, 1]], "bath_dim": [2], "eps": [1e-300, 0.1],
           "eta": [1.0], "seeds": 1}
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    code, out, _ = run_cli(["sweep", "--config", str(tmp_path / "sweep.json")], capsys)
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("# unresolved")] == [
        "# unresolved: cell=0 seed=0; D_bound below the margin floor 1e-12"
    ]


@pytest.mark.parametrize(
    "argv, low",
    [
        # L_y = 4.35e-14 under a D_bound of 3.45e-11: the floor decides channel y
        ("verify bound --qdd 3 3 --eps 0.01 --eta 0.01 --seeds 4 --bath-dim 8", "L_y"),
        # every bound clears the floor: no row is flagged
        ("verify bound --qdd 1 1 --eps 0.1 --eta 1 --seeds 2 --bath-dim 2", None),
    ],
)
def test_floor_decided_channel_bounds_flagged(argv, low, capsys, monkeypatch):
    """A row whose D_bound clears the margin floor but one of whose channel
    bounds does not, so that the floor decides that channel's check, is
    preceded by one ``# unresolved`` line naming it; the bounds compared are
    the run's own channel bounds, each cell read as a SimResult."""
    runs = []
    run = cli.run_experiments
    monkeypatch.setattr(
        cli, "run_experiments", lambda configs: runs.append(run(configs)) or runs[0]
    )
    code, out, _ = run_cli(argv.split(), capsys)
    assert code == 0
    floor = -cli.MARGIN_FLOOR
    expected = []
    (columns, converged), = runs
    assert len(data_lines(out)[1:]) == len(converged)
    for s, row in enumerate(data_lines(out)[1:]):
        res = simulator._result(columns, converged, s)
        assert res.distance_bound >= floor
        assert [f"L_{ch}" for ch, b in res.channel_bounds.items() if b < floor] == [low] * bool(low)
        if low:
            seed = row.split(",")[0]
            expected.append(f"# unresolved: seed={seed}; {low} below the margin floor 1e-12")
        expected.append(row)
    assert out.splitlines()[6:] == expected  # after the header block and the column line


# The experiment-table writer before it joined the bounds writer: one row
# dict per cell, each flag tested on its own.  Kept as the reference that
# ``cli._run_cells`` and ``cli._table`` must match byte for byte.
def _oracle_run_cells(cells, columns, loosen):
    """(lines, violation count, failure count) of the old row loop over ``cells``."""
    lines = []
    violations = failures = 0
    run, converged = cli.run_experiments([cfg for _, cfg, _ in cells])
    for s, (index, cfg, eta) in enumerate(cells):
        row = {
            "cell": index,
            "kind": cfg.kind,
            "orders": "/".join(str(n) for n in cfg.orders),
            "bath_dim": cfg.bath.dim,
            "seed": cfg.bath.seed,
            "eta": eta,
        }
        where = " ".join(f"{c}={row[c]}" for c in ("cell", "seed") if c in columns)
        try:
            res = simulator._result(run, converged, s)
        except NonConvergenceError as exc:
            failures += 1
            lines.append(f"# non-convergence: {where} ({exc})")
            lines.append(",".join(_oracle_fmt({**dict.fromkeys(columns, math.nan), **row}[c])
                                  for c in columns))
            continue
        bound = loosen * res.distance_bound
        margin = bound - res.distance_actual
        ch_min = min(res.channel_margins.values())
        ok = (
            margin >= cli.MARGIN_FLOOR
            and ch_min >= cli.MARGIN_FLOOR
            and res.unitarity_residual <= cli.UNITARITY_TOL
            and max(res.cross_residuals.values(), default=0.0) <= cli.UNITARITY_TOL
        )
        violations += not ok
        row.update(
            epsilon=res.epsilon,
            D_actual=res.distance_actual,
            D_bound=bound,
            margin=margin,
            channel_margin_min=ch_min,
            unitarity=res.unitarity_residual,
            ok=int(ok),
        )
        if bound < -cli.MARGIN_FLOOR:
            lines.append(f"# unresolved: {where}; D_bound below the margin floor 1e-12")
        # added with the channel flag: a D_bound above the floor names the
        # channel bounds below it
        elif low := [f"L_{ch}" for ch, b in res.channel_bounds.items() if b < -cli.MARGIN_FLOOR]:
            lines.append(f"# unresolved: {where}; {', '.join(low)} below the margin floor 1e-12")
        tiny = ", ".join(c for c in columns if isinstance(row[c], float)
                         and 0.0 < abs(row[c]) < NORMAL_MIN)
        if tiny:
            lines.append(f"# subnormal: {where}; {tiny} below 2^-1022")
        lines.append(",".join(_oracle_fmt(row[c]) for c in columns))
    return lines, violations, failures


# Values by decade, near the margin floor 1e-12 as often as across the rest
_SIM_VALUES = st.one_of(
    st.just(0.0), _decades(-320.0, 1.0), st.floats(-13.0, -11.0).map(lambda e: 10.0**e)
)


@st.composite
def _outcomes(draw):
    """A synthetic ``run_experiments`` run of one family's channels: columns
    drawn across the subnormal and floor edges, and failed cells."""
    kind, channels, eta = draw(st.sampled_from([("qdd", "xyz", (0.5,) * 3),
                                                ("nudd", ("error_sum",), 0.5)]))
    n = draw(st.integers(1, 8))
    converged = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))) != 0

    def floats(strategy=_SIM_VALUES, failed=np.nan):
        """One drawn value per cell; ``failed`` where a cell's bound failed."""
        drawn = np.array(draw(st.lists(strategy, min_size=n, max_size=n)))
        return np.where(converged, drawn, failed)

    bound = floats()
    return {
        "kind": [kind] * n, "orders": [(2, 2)] * n, "eta": [eta] * n, "mode": ["analytic"] * n,
        "error": ["" if ok else draw(st.sampled_from(["tail", "overflow"])) for ok in converged],
        "epsilon": floats(failed=0.5), "distance_actual": floats(failed=0.5),
        "distance_bound": bound, "margin": np.zeros(n), "unitarity_residual": floats(failed=0.5),
        "channel_norms": {label: np.zeros(n) for label in simulator.pauli_labels(1)},
        "channel_bounds": {ch: np.fmin(bound, floats()) for ch in channels},
        "channel_margins": {ch: floats(st.sampled_from([1.0, -1.0])) * floats()
                            for ch in channels},
        "cross_residuals": {f"cross_{a}": floats(failed=0.5) for a in "xyz"},
    }, converged


@settings(max_examples=150, deadline=None)
@given(
    outcomes=_outcomes(),
    loosen=st.sampled_from([1.0, -1.0]),
    columns=st.sampled_from([cli._SWEEP_COLUMNS, cli._VERIFY_COLUMNS]),
)
def test_experiment_writer_matches_row_loop(outcomes, loosen, columns):
    """The shared writer prints exactly the old experiment row loop's text,
    with its violation and failure counts, which set the exit codes of
    ``verify bound`` and ``sweep``, for synthetic runs of either column set."""
    grid = {"kind": "qdd", "orders": [[2, 2]], "bath_dim": [2], "eps": [0.1], "eta": [0.5],
            "seeds": len(outcomes[1]), "master_seed": 3}
    cells = cli._experiment_grid(grid)
    with mock.patch.object(cli, "run_experiments", lambda configs: outcomes):
        expected = _oracle_run_cells(cells, columns, loosen)
        part = cli._run_cells(cells, loosen)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        failures = cli._table(None, [], columns, [lambda: part])
    violations = np.count_nonzero(part[0]["ok"] == 0.0)
    assert (out.getvalue().splitlines()[1:], violations, failures) == expected


@pytest.mark.parametrize("argv", ["sequence --qdd 2 2", "sequence --qdd 2"])
def test_python_m_ddbound_is_the_cli(argv, capsys, monkeypatch):
    """``python -m ddbound`` from a checkout gives ``main``'s output and exit
    code, for a valid call and for one argparse rejects."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    proc = subprocess.run(
        [sys.executable, "-m", "ddbound", *argv.split()],
        capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def test_oversized_qubit_count_rejected_before_labels(tmp_path, capsys):
    """20 nudd orders mean 10 qubits: rejected without listing 4^10 labels."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, "kind": "nudd", "orders": [[1] * 20]}))
    tracemalloc.start()
    try:
        code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "qubit count 10 outside supported range" in err
    assert peak < 4e6


# The series stopping tolerance is a constant, so argparse itself rejects
# --rel-tol, whatever its value; these rows keep the ids they had when the
# CLI range-checked the flag.  Invalid input that the program's own checks
# reject is in the golden corpus (``record_golden.ERRORS``).
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "qdd", "--n1", "1", "--n2", "1", "--rel-tol", "0.1"],
        ["bounds", "qdd", "--n1", "1", "--n2", "1", "--rel-tol", "nan"],
        ["bounds", "nudd", "--m", "2", "--dmin", "1", "--eta", "1", "--rel-tol", "0.5"],
    ],
    ids=[f"argv{i}-rel_tol" for i in range(3)],
)
def test_invalid_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --rel-tol {argv[-1]}" in captured.err


# Not in the golden corpus: the message ends in the json module's own text.
@pytest.mark.parametrize(
    "argv, text, message",
    [
        pytest.param("simulate --config cfg.json", "{",
                     "config 'cfg.json' is not valid JSON: Expecting property name enclosed in "
                     "double quotes: line 1 column 2 (char 1)", id="config-not-json"),
    ],
)
def test_invalid_inputs_are_one_error(argv, text, message, tmp_path, capsys, monkeypatch):
    """Input that a command's own checks reject (``text`` is the config
    file): one exact ``error:`` line, nothing on stdout, exit 2."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    assert run_cli(argv.split(), capsys) == (2, "", f"error: {message}\n")


# Every sequence order shares one domain, in [0, 10000]: past it the tail
# underflows wherever the pass converges, while its cost grows with the order.
_ORDER_DOMAIN = "in [0, 10000]"


def test_order_at_its_domain_end_runs(capsys):
    code, out, err = run_cli(
        "bounds qdd --n1 10000 --n2 2 --eta 1e-4 --eps-points 2".split(), capsys
    )
    assert (code, err) == (0, "")
    assert data_lines(out)[1].split(",")[1:3] == ["10000", "2"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("bounds qdd", ("--n1 N1", "--n2 N2")),
        ("bounds nudd", ("--dmin DMIN",)),
        ("sequence", ("--qdd N1 N2", "--nudd N1,N2,...")),
        ("verify orders", ("--qdd N1 N2",)),
        ("verify bound", ("--qdd N1 N2", "--nudd N1,N2,...")),
    ],
)
def test_help_states_the_order_domain(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    text = text.split(" options: ", 1)[1]
    for flag in flags:
        help_line = text.split(f" {flag} ", 1)[1].split(" --", 1)[0]
        assert _ORDER_DOMAIN in help_line, (flag, help_line)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "sim.json", "--tie-order", "outer-first"],
        ["verify", "bound", "--qdd", "2", "2", "--eps", "0.1", "--seeds", "1",
         "--tie-order", "inner-first"],
    ],
)
def test_tie_order_flag_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(json.dumps(SIM_CONFIG))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tie-order" in captured.err


# Config-file keys of each command and the JSON type each takes (a config of
# each that runs is ``BASE_CONFIGS``).  Written out here rather than read from
# the CLI so the test checks the CLI against an independent statement of its
# inputs.
KEY_TYPES = {
    "bounds qdd": {
        "preset": str, "n1": int, "n2": int, "eta": float, "eta_x": float,
        "eta_y": float, "eta_z": float, "eps_min": float, "eps_max": float,
        "eps_points": int, "mode": str,
    },
    "bounds nudd": {
        "preset": str, "m": int, "dmin": int, "eta": float, "eps_min": float,
        "eps_max": float, "eps_points": int,
    },
    "sweep": {
        "kind": str, "orders": list, "bath_dim": list, "eps": list, "eta": list,
        "seeds": int, "master_seed": int, "mode": str,
        "initial_state": str, "bath_state": str,
    },
    "simulate": {
        "kind": str, "orders": list, "bath": dict, "T": float, "initial_state": str,
        "bath_state": str, "mode": str,
    },
}
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
# Integers that no double can hold: JSON numbers, but no float option's value.
_BEYOND_DOUBLES = st.one_of(st.integers(min_value=2**1024), st.integers(max_value=-(2**1024)))
WRONG_VALUES = {
    int: st.one_of(st.text(), st.booleans(), st.lists(st.integers(), max_size=2)),
    float: st.one_of(st.text(), st.booleans(), st.lists(_NUMBERS, max_size=2), _BEYOND_DOUBLES),
    str: st.one_of(st.integers(), _NUMBERS, st.booleans(), st.lists(st.text(), max_size=2)),
    list: st.one_of(
        st.text(), st.integers(), _NUMBERS, st.booleans(),
        st.lists(st.text(), min_size=1, max_size=2),
    ),
    dict: st.one_of(st.text(), st.integers(), st.lists(st.integers(), max_size=2)),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_value_of_wrong_type_exits_2(data, tmp_path_factory):
    command = data.draw(st.sampled_from(sorted(KEY_TYPES)))
    key = data.draw(st.sampled_from(sorted(KEY_TYPES[command])))
    value = data.draw(WRONG_VALUES[KEY_TYPES[command][key]])
    cfg = tmp_path_factory.getbasetemp() / "wrong_type.json"
    cfg.write_text(json.dumps({**BASE_CONFIGS[command], key: value}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*command.split(), "--config", str(cfg)])
    assert code == 2
    assert repr(key) in err.getvalue()


@pytest.mark.parametrize(
    "command, key", [(c, k) for c in sorted(KEY_TYPES) for k in sorted(KEY_TYPES[c])]
)
def test_config_null_is_unset_or_rejected(command, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIGS[command], key: None}))
    code, _, err = run_cli([*command.split(), "--config", str(cfg)], capsys)
    assert code in (0, 2)
    assert code == 0 or err.startswith("error:")


# The domain of each numeric option of each command: a strategy of values
# outside it and in-domain values at its edge.  Written out here rather than
# read from the CLI so the test checks the CLI against an independent
# statement of its inputs.  A list option (--qdd, --nudd, simulate's orders,
# sweep's lists) takes the value as one item of the list.
_NOT_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
_ORDER = (st.integers(max_value=-1), [0])
_COUNT = (st.integers(max_value=0), [1])
_COUPLING = (st.one_of(st.floats(max_value=-5e-324), _NOT_FINITE, _BEYOND_DOUBLES), [0.0])
_DURATION = (st.one_of(st.floats(max_value=0.0), _NOT_FINITE, _BEYOND_DOUBLES), [5e-324])
_EPS_POINTS = (st.one_of(st.integers(max_value=-1), st.just(1)), [0, 2])
_BATH_DIM = (st.integers(max_value=2**70).filter(lambda n: n < 1 or n & (n - 1)), [1])
_ETAS = dict.fromkeys(("eta", "eta_x", "eta_y", "eta_z"), _COUPLING)
_EPS_GRID = {"eps_min": _DURATION, "eps_max": _DURATION, "eps_points": _EPS_POINTS}
DOMAINS = {
    "sequence": {"qdd": _ORDER, "nudd": _ORDER, "qubits": _COUNT},
    "bounds qdd": {"n1": _ORDER, "n2": _ORDER, **_ETAS, **_EPS_GRID},
    "bounds nudd": {
        "m": (st.one_of(st.integers(max_value=0), st.integers(min_value=32)), [1, 31]),
        "dmin": _ORDER, "eta": _COUPLING, **_EPS_GRID,
    },
    "simulate": {"orders": _ORDER, "T": _DURATION, "seed": _ORDER},
    "verify orders": {"qdd": _ORDER, "nmax": _COUNT},
    "verify bound": {
        "qdd": _ORDER, "nudd": _ORDER, "eps": _DURATION, **_ETAS,
        "qubits": (st.one_of(st.integers(max_value=0), st.integers(min_value=3)), [1, 2]),
        "bath_dim": _BATH_DIM, "seeds": _COUNT, "seed": _ORDER,
        "loosen": (_NOT_FINITE, [-1.0]),
    },
    "sweep": {
        "orders": _ORDER, "bath_dim": _BATH_DIM, "eps": _DURATION, "eta": _COUPLING,
        "seeds": _COUNT, "master_seed": _ORDER,
    },
}
# A valid call of each command that a flag is appended to (simulate and
# sweep read BASE_CONFIGS); the orders flag is added where the command needs one.
DOMAIN_CALLS = {
    "sequence": ["sequence"],
    "bounds qdd": ["bounds", "qdd", "--n1", "1", "--n2", "1", "--eps-points", "2"],
    "bounds nudd": ["bounds", "nudd", "--m", "1", "--dmin", "1", "--eps-points", "2"],
    "verify orders": ["verify", "orders", "--nmax", "1"],
    "verify bound": ["verify", "bound", "--eps", "0.05", "--seeds", "1", "--bath-dim", "2"],
}


def _sources(command, name):
    """How the option can be given: as a flag, as a config key, or both."""
    flag = command != "sweep" and (command, name) != ("simulate", "orders")
    config = command in KEY_TYPES and (command, name) != ("simulate", "seed")
    return ["flag"] * flag + ["config"] * config


DOMAIN_CASES = [
    (command, name, source)
    for command in DOMAINS
    for name in DOMAINS[command]
    for source in _sources(command, name)
]


def _domain_call(command, name, value, source, tmp):
    """Exit code, stdout and stderr of a valid call of ``command`` in which
    ``name`` is given ``value`` by ``source`` (the suite turns warnings into
    errors, so a warning fails the call)."""
    if source == "config" or command in ("simulate", "sweep"):
        doc = dict(BASE_CONFIGS[command])
        if name.startswith("eta_"):
            del doc["eta"]  # which conflicts with a per-axis eta
        if source == "config":
            items = {"simulate orders": [value, 1], "sweep orders": [[value, 1]],
                     **{f"sweep {key}": [value] for key in ("bath_dim", "eps", "eta")}}
            doc[name] = items.get(f"{command} {name}", value)
        (tmp / "domain.json").write_text(json.dumps(doc))
        argv = [*command.split(), "--config", str(tmp / "domain.json")]
    else:
        argv = list(DOMAIN_CALLS[command])
    if source == "flag":
        if name == "qdd":
            argv += ["--qdd", str(value), "1"]
        elif name == "nudd":
            argv += [f"--nudd={value},1", "--qubits", "1"]
        else:
            argv += ["--qdd", "1", "1"] if command in ("sequence", "verify orders",
                                                      "verify bound") else []
            argv.append(f"--{name.replace('_', '-')}={value!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _label(name, source):
    return f"--{name.replace('_', '-')}" if source == "flag" else f"config key {name!r}"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_value_outside_domain_names_its_source(data, tmp_path_factory):
    """Every option of every command rejects a value outside its domain, as
    a flag and as a config key: exit 2, no output and one ``error:`` line
    that names the flag or key, with no warning or traceback."""
    command, name, source = data.draw(st.sampled_from(DOMAIN_CASES))
    value = data.draw(DOMAINS[command][name][0])
    tmp = tmp_path_factory.getbasetemp()
    code, out, err = _domain_call(command, name, value, source, tmp)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {_label(name, source)} must be ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, name, value, source",
    [
        (command, name, value, source)
        for command, name, source in DOMAIN_CASES
        for value in DOMAINS[command][name][1]
    ],
    ids=lambda value: repr(value) if isinstance(value, float) else None,
)
def test_domain_edges_are_accepted(command, name, value, source, tmp_path):
    """A value at the edge of its option's domain is no error of that option."""
    code, _, err = _domain_call(command, name, value, source, tmp_path)
    assert f"{_label(name, source)} must be" not in err


def test_numeric_options_declare_their_domain():
    """Every int- or float-typed option (or list of them) declares a domain,
    and its default lies in it, since ``_resolve`` checks given values only.
    ``DOMAINS`` names the same options, and ``--nudd``, whose orders are
    checked against the orders domain once they are parsed."""
    declared = set()
    for command, spec in cli._COMMANDS.items():
        for opt in spec.options:
            base = opt.type
            while isinstance(base, list):
                base = base[0]
            assert (base in (int, float)) == (opt.domain is not None), (command, opt.name)
            if opt.domain is not None:
                declared.add((command, opt.name))
                assert opt.default is None or opt.domain[1](opt.default), (command, opt.name)
    nudd = {("sequence", "nudd"), ("verify bound", "nudd")}
    assert declared | nudd == {(c, n) for c in DOMAINS for n in DOMAINS[c]}


# config_hash of fixed inputs, recorded before the CLI options were declared
# in one table.  The hash covers only the resolved inputs, so it is the same
# on every host and must not change when the CLI code does, while the rest of
# these outputs holds simulated values, whose last bits depend on the BLAS
# that numpy links.  (The golden corpus pins the whole output of the other
# commands' config-hash calls, ``record_golden.CONFIG_HASH``.)  The values
# were re-recorded when the tie_order, rel_tol and zero_tol keys left the
# resolved configs; each equals the hash of the old resolved config with
# those keys deleted.
HASH_CONFIGS = {
    "cell.json": CELL_CONFIG,
    "sim.json": SIM_CONFIG,
    "sweep.json": SWEEP_CONFIG,
}


# Explicit ids, fixed at the names the cases had when their hashes were
# recorded, so that re-recording a hash keeps the test's name.
@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["simulate", "--config", "sim.json"], "28d359854c68dc24",
                     id="argv4-6ae56db8b48632bb"),
        pytest.param(
            [
                "verify", "bound", "--qdd", "2", "2", "--eps", "0.1", "--eta-x", "0.3",
                "--eta-y", "0.7", "--eta-z", "0.05", "--seeds", "2", "--bath-dim", "2",
            ],
            "d08b94c7682420b4",
            id="argv6-d08b94c7682420b4",
        ),
        pytest.param(["sweep", "--config", "sweep.json"], "73e9f55490f0bfac",
                     id="argv7-60961df5bcd6c5df"),
    ],
)
def test_config_hash_frozen(argv, expected, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in HASH_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    if out.startswith("{"):
        assert json.loads(out)["config_hash"] == expected
    else:
        assert f"# config_hash={expected}" in header_lines(out)


# Argument vectors whose parse the one-command parser must leave exactly as
# the full tree gives it: help at every level, unknown commands, errors of
# every kind, and clean parses that run.
PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["--version"], ["--version", "bounds", "qdd"],
    ["bounds"], ["bounds", "-h"], ["verify"], ["verify", "--help"],
    ["bogus"], ["bounds", "bogus"], ["verify", "bogus"], ["bounds qdd"], ["-x", "sequence"],
    *([*name.split(), "-h"] for name in (
        "sequence", "bounds qdd", "bounds nudd", "simulate", "verify orders",
        "verify bound", "sweep",
    )),
    ["bounds", "qdd", "--bogus"], ["bounds", "qdd", "--fig2", "extra"],
    ["bounds", "qdd", "--version"], ["sequence", "--qdd", "1", "1", "--version"],
    ["bounds", "qdd", "--eta-", "1"], ["bounds", "qdd", "--n", "1"], ["bounds", "qdd", "--=1"],
    ["bounds", "qdd", "--fig2", "--fig3"], ["bounds", "qdd", "--n1", "x"],
    ["bounds", "qdd", "--mode", "other"], ["sequence", "--qdd", "1"],
    ["verify", "orders", "--qdd", "1", "1"], ["simulate"], ["sweep", "--seed", "1"],
    ["bounds", "qdd", "--"], ["bounds", "qdd", "--", "--fig2"], ["--", "bounds", "qdd"],
    ["bounds", "qdd", "--n1", "1", "-h"], ["bounds", "qdd", "-h", "--bogus"],
    ["bounds", "qdd", "--eps-poi", "0"], ["bounds", "qdd", "--n1", "1"],
    ["bounds", "nudd", "--m", "1", "--dmin", "1", "--eps-points=2"],
    ["verify", "orders", "--qdd", "1", "1", "--nmax", "1"],
    ["verify", "bound", "--qdd", "1", "1", "--eps", "0.05", "--seeds", "1", "--bath-dim", "2",
     "--loosen", "-1"],
    ["sequence", "--nudd=1,1", "--qubits", "1"], ["sequence", "--qdd=1"],
    ["bounds", "qdd", "--fig2", "--fig2"],
    ["verify", "orders", "--qdd", "1", "--nmax", "1"],
    ["bounds", "qdd", "--n1", "1", "--n2", "1", "--eps-points", "2", "--out"],
]

# One valid call of each command.
VALID_CALLS = [
    ["sequence", "--nudd", "1,1", "--qubits", "1"],
    ["bounds", "qdd", "--n1", "2", "--n2", "1", "--eps-points", "2"],
    ["bounds", "nudd", "--m", "1", "--dmin", "1", "--eps-points", "2"],
    ["simulate", "--config", "sim.json"],
    ["verify", "orders", "--qdd", "1", "1", "--nmax", "1"],
    ["verify", "bound", "--qdd", "1", "1", "--eps", "0.05", "--seeds", "1", "--bath-dim", "2"],
    ["sweep", "--config", "sweep.json"],
]


def _outcome(call, capsys):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def call_configs(tmp_path, monkeypatch):
    """The configs ``VALID_CALLS`` read, in the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(json.dumps(SIM_CONFIG))
    (tmp_path / "sweep.json").write_text(json.dumps({**SWEEP_CONFIG, "seeds": 1}))


@pytest.mark.parametrize("argv", PARSE_CORPUS + VALID_CALLS, ids=" ".join)
def test_main_parses_as_the_full_tree(argv, call_configs, capsys, monkeypatch):
    """``main`` gives the exit code, stdout and stderr of the full parser
    tree followed by the command, compared in-process because argparse's
    wording differs between Python versions."""
    monkeypatch.setenv("COLUMNS", "80")
    tree = _outcome(lambda: cli._run(cli.build_parser().parse_args(argv)), capsys)
    assert _outcome(lambda: main(argv), capsys) == tree


@pytest.mark.parametrize("argv", VALID_CALLS, ids=" ".join)
def test_valid_call_builds_no_parser(argv, call_configs, capsys, monkeypatch):
    """A well-formed call is read from its command's option table: no parser
    is built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(argv, capsys)[0] == 0
    assert len(built) == 0


# Option values to draw: values the option's type and choices accept, and
# values they reject or that start with "-".  argparse reads a space-separated
# value that starts with "-" as a value only if it looks like a negative
# number ("-1", "-0.5", but not "-1e-3" or "-x").
_VALUE_TEXTS = {
    int: (("0", "1", "2"), ("-1", "1.5", "x", "")),
    float: (("0.05", "1e-3", "1", "0", "nan"), ("-1", "-0.5", "-1e-3", "-inf", "x", "")),
    str: (("1,1", "1,0,1,0", "1,x"), ("-1", "-x")),
    "config": (("sim.json", "sweep.json", "cell.json", "missing.json"), ("-", "-x")),
    "out": (("out.txt", "missing/out.txt", ""), ("-", "-x")),
}
# Ways to get one flag wrong, and tokens that only the tree reads.
_FAULTS = ("abbreviated", "value short", "value over", "value rejected", "joined")
_TREE_TOKENS = (["-h"], ["--help"], ["--"], ["--bogus", "1"], ["extra"], ["--version"])


@st.composite
def _option_tokens(draw, spec, fault=None):
    """One flag of ``spec`` and its values, typed right or with one ``fault``:
    the flag abbreviated, one value short or over, values its type or
    choices reject, or its values joined to it by ``=``."""
    opts = [opt for opt, _ in cli._flags(spec)]
    if fault == "joined":  # a fault only for a flag of no value or of two
        opts = [opt for opt in opts if opt.preset or opt.nargs] or opts
    opt = draw(st.sampled_from(opts))
    flag = draw(st.sampled_from(
        [f"--{name}" for name in opt.choices] if opt.preset else [cli._flag(opt.name)]
    ))
    if opt.choices and not opt.preset:
        accepted, rejected = opt.choices, ("other", "-x")
    else:
        accepted, rejected = _VALUE_TEXTS[opt.name if opt.name in _VALUE_TEXTS else opt.type]
    count = 0 if opt.preset else opt.nargs or 1
    if fault == "abbreviated":
        flag = flag[: draw(st.integers(2, len(flag) - 1))]
    count += {"value short": -1, "value over": 1}.get(fault, 0)
    texts = rejected if fault == "value rejected" else accepted
    values = draw(st.lists(st.sampled_from(texts), min_size=max(count, 0), max_size=max(count, 0)))
    if fault == "joined":
        return [f"{flag}={values[0] if values else ''}", *values[1 : draw(st.integers(1, 2))]]
    if count == 1 and draw(st.booleans()):
        return [f"{flag}={values[0]}"]
    return [flag, *values]


@st.composite
def _command_argv(draw, name):
    """A valid call of command ``name``, or its words alone, followed by up
    to three well-formed flags of its option table; and in half the draws
    one more group among them: a flag with one fault, or a token that only
    the tree reads."""
    spec = cli._COMMANDS[name]
    words = name.split()
    base = next(argv for argv in VALID_CALLS if argv[: len(words)] == words)
    groups = draw(st.lists(_option_tokens(spec), max_size=3))
    if draw(st.booleans()):
        fault = draw(st.sampled_from((*_FAULTS, "tree token")))
        odd = st.sampled_from(_TREE_TOKENS) if fault == "tree token" else _option_tokens(spec, fault)
        groups.insert(draw(st.integers(0, len(groups))), draw(odd))
    argv = list(draw(st.sampled_from((words, base))))
    for group in groups:
        argv += group
    return argv


def _outcome_with_files(call, where):
    """Exit code, stdout, stderr and the files written into ``where`` by
    ``call``, which are then removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    written = {}
    for path in sorted(where.iterdir()):
        if path.is_file() and path.name not in ("sim.json", "sweep.json", "cell.json"):
            written[path.name] = path.read_text()
            path.unlink()
    return code, out.getvalue(), err.getvalue(), written


@pytest.mark.parametrize("name", list(cli._COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_read_parses_as_the_full_tree(name, data, tmp_path_factory):
    """Command lines drawn from each command's option table, well formed or
    not, give the exit code, stdout, stderr and files of the full tree; and
    every one the table read accepts gives the tree's namespace, less the
    tree's ``command``/``subcommand``."""
    argv = data.draw(_command_argv(name))
    where = tmp_path_factory.getbasetemp() / "table_read"
    where.mkdir(exist_ok=True)
    configs = {"sim.json": SIM_CONFIG, "sweep.json": {**SWEEP_CONFIG, "seeds": 1},
               "cell.json": HASH_CONFIGS["cell.json"]}
    for config, doc in configs.items():
        (where / config).write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            tree = _outcome_with_files(
                lambda: cli._run(cli.build_parser().parse_args(argv)), where
            )
            assert _outcome_with_files(lambda: main(argv), where) == tree
            args = cli._read(cli._COMMANDS[name], argv[len(name.split()) :])
            if args is not None:
                parsed = vars(cli.build_parser().parse_args(argv))
    finally:
        os.chdir(cwd)
    if args is not None:
        parsed.pop("command")
        parsed.pop("subcommand", None)
        # compared by repr, so that a nan value equals itself
        assert {k: repr(v) for k, v in vars(args).items()} == {
            k: repr(v) for k, v in parsed.items()
        }
