"""Command-line interface tests.

Each test drives ``ddbound.cli.main`` in-process and checks the exit code,
the emitted header block, and the data rows. Argparse-level failures raise
``SystemExit(2)`` which matches the invalid-input exit code used by the
command functions themselves.
"""

import contextlib
import hashlib
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddbound.cli import main


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


def test_sequence_rejects_negative_order(capsys):
    code, _, err = run_cli(["sequence", "--qdd", "-1", "2"], capsys)
    assert code == 2
    assert "--qdd" in err


def test_sequence_requires_a_kind(capsys):
    code, _, err = run_cli(["sequence"], capsys)
    assert code == 2
    assert err


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


def _without_column(text, name):
    """CSV text with column ``name`` cut from the column header and every row."""
    out, col = [], None
    for ln in text.splitlines():
        if not ln.startswith("#"):
            cells = ln.split(",")
            col = cells.index(name) if col is None else col
            del cells[col]
            ln = ",".join(cells)
        out.append(ln)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["bounds", "qdd", "--fig2"],
         "d8d1336f09cada9f58961d165c97db22e363505125910357aaa1a54525050541"),
        (["bounds", "qdd", "--fig3"],
         "fe347dab494692943154710924934b4ffd8dfe21beeef457d2ea63b88a2b846d"),
        (["bounds", "qdd", "--fig4"],
         "c9af9865391dd3e51f87908996354cc57468c85a91e2991718c8f37650941faa"),
        (["bounds", "qdd", "--fig2", "--mode", "numeric-footnote"],
         "cf8d25cb60d4df0e81465459d0902a2073d231a5b94b3b0ee352f98fb767db42"),
        (["bounds", "nudd", "--fig5"],
         "500a912062e9efdc716775d3743b80842ebf970edcecc110c015987227d7b08a"),
    ],
)
def test_preset_csv_frozen(argv, digest, capsys):
    """sha256 of each preset CSV without its D_leading column, recorded when
    the leading term was still formed from g_{d+1} and (d+1)!: every other
    column is unchanged by taking the leading term from the tail pass."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    text = _without_column(out, "D_leading")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_simulate_overflowed_bound_exits_3(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    norms = {label: 1 for label in "0xyz"}
    bath = {"dim": 2, "seed": 1, "norms": norms}
    cfg.write_text(json.dumps({**SIM_CONFIG, "T": 150, "bath": bath}))
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "D_bound" in err


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


def test_bounds_qdd_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n1": 1, "n2": 1, "eta": 1.0, "bogus": 5}))
    code, _, err = run_cli(["bounds", "qdd", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bogus" in err


SIM_CONFIG = {
    "kind": "qdd",
    "orders": [1, 1],
    "T": 0.1,
    "bath": {"dim": 4, "seed": 7, "norms": {"0": 1.0, "z": 0.5}},
}


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


def test_simulate_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    doc = dict(SIM_CONFIG)
    doc["extra"] = True
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "extra" in err


def test_verify_orders_certifies(capsys):
    code, out, _ = run_cli(
        ["verify", "orders", "--qdd", "1", "1", "--nmax", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    cert = doc["certification"]
    assert cert["certified"] is True
    assert cert["orders"] == {"d_x": 1, "d_y": 2, "d_z": 1}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-30"])
def test_verify_orders_rejects_bad_zero_tol(tol, capsys):
    code, out, err = run_cli(
        ["verify", "orders", "--qdd", "3", "3", "--nmax", "2", f"--zero-tol={tol}"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "zero_tol" in err


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


SWEEP_CONFIG = {
    "kind": "qdd",
    "orders": [[1, 1], [2, 2]],
    "bath_dim": [4],
    "eps": [0.05],
    "eta": [0.5],
    "seeds": 2,
    "master_seed": 0,
}


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
    assert len(data_lines(out)) == 2  # the column header and cell 0


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


def test_sweep_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    doc = dict(SWEEP_CONFIG)
    doc["oops"] = 1
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "oops" in err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["bounds", "qdd", "--n1", "1", "--n2", "1", "--rel-tol", "0.1"], "rel_tol"),
        (["bounds", "qdd", "--n1", "1", "--n2", "1", "--rel-tol", "nan"], "rel_tol"),
        (["bounds", "nudd", "--m", "2", "--dmin", "1", "--eta", "1", "--rel-tol", "0.5"],
         "rel_tol"),
        (["bounds", "nudd", "--fig5", "--eps-points", "1"], "eps_points"),
        (["bounds", "nudd", "--fig5", "--eps-min", "2", "--eps-max", "1"], "lo < hi"),
        (["verify", "bound", "--nudd=-1,1", "--qubits", "1", "--eps", "0.1"], "nonnegative"),
        (["verify", "bound", "--nudd", "1,1", "--qubits", "2", "--eps", "0.1"],
         "expected 4 per-level orders"),
        (["verify", "bound", "--nudd", "1,1", "--qubits", "1", "--eps", "0.05",
          "--eta-x", "0.3"], "per-axis eta"),
        (["verify", "bound", "--qdd", "1", "1", "--eps", "0.05", "--seeds", "1",
          "--loosen", "nan"], "--loosen"),
        (["verify", "bound", "--qdd", "1", "1", "--eps", "0.05", "--seeds", "1",
          "--loosen", "inf"], "--loosen"),
        (["bounds", "nudd", "--m", "32", "--dmin", "1", "--eta", "1"], "[1, 31]"),
        (["bounds", "nudd", "--m", "0", "--dmin", "1", "--eta", "1"], "[1, 31]"),
        (["verify", "orders", "--qdd", "1", "1", "--nmax", "0"], "n_max must be >= 1"),
    ],
)
def test_invalid_flags_exit_2(argv, needle, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and needle in err


@pytest.mark.parametrize(
    "command, doc, extra, needle",
    [
        ("sweep", {**SWEEP_CONFIG, "orders": [[1, -1]]}, [], ">= 0"),
        ("sweep", {k: v for k, v in SWEEP_CONFIG.items() if k != "eps"}, [],
         "'eps' is required"),
        ("simulate", {k: v for k, v in SIM_CONFIG.items() if k != "T"}, ["--seed", "1"],
         "'T' is required"),
        ("simulate", {**SIM_CONFIG, "rel_tol": 0.5}, [], "rel_tol"),
        ("simulate", {**SIM_CONFIG, "bath": {**SIM_CONFIG["bath"], "seed": "s"}}, [], "seed"),
        ("simulate", SIM_CONFIG, ["--seed", "-1"], "seed"),
        ("simulate",
         {**SIM_CONFIG, "bath": {**SIM_CONFIG["bath"], "norms": {"0": 1.0, "q": 0.5}}},
         [], "'q'"),
        ("simulate",
         {**SIM_CONFIG, "bath": {**SIM_CONFIG["bath"], "norms": {"0": 1.0, "xz": 0.5}}},
         [], "'xz'"),
        # coincident pulses always fire inner level first; the option is gone
        ("simulate", {**SIM_CONFIG, "tie_order": "outer-first"}, [], "tie_order"),
        ("sweep", {**SWEEP_CONFIG, "tie_order": "inner-first"}, [], "tie_order"),
    ],
)
def test_invalid_config_values_exit_2(command, doc, extra, needle, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--config", str(cfg), *extra], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and needle in err


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


# Config-file keys of each command and the JSON type each takes, with a
# config that runs.  Written out here rather than read from the CLI so the
# test checks the CLI against an independent statement of its inputs.
KEY_TYPES = {
    "bounds qdd": {
        "preset": str, "n1": int, "n2": int, "eta": float, "eta_x": float,
        "eta_y": float, "eta_z": float, "eps_min": float, "eps_max": float,
        "eps_points": int, "mode": str, "rel_tol": float,
    },
    "bounds nudd": {
        "preset": str, "m": int, "dmin": int, "eta": float, "eps_min": float,
        "eps_max": float, "eps_points": int, "rel_tol": float,
    },
    "sweep": {
        "kind": str, "orders": list, "bath_dim": list, "eps": list, "eta": list,
        "seeds": int, "master_seed": int, "mode": str, "rel_tol": float,
        "initial_state": str, "bath_state": str,
    },
    "simulate": {
        "kind": str, "orders": list, "bath": dict, "T": float, "initial_state": str,
        "bath_state": str, "mode": str, "rel_tol": float,
    },
}
BASE_CONFIGS = {
    "bounds qdd": {"n1": 1, "n2": 2, "eta": 0.5, "eps_points": 2},
    "bounds nudd": {"m": 2, "dmin": 1, "eta": 0.5, "eps_points": 2},
    "sweep": {**SWEEP_CONFIG, "orders": [[1, 1]], "bath_dim": [2], "seeds": 1},
    "simulate": SIM_CONFIG,
}
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
WRONG_VALUES = {
    int: st.one_of(st.text(), st.booleans(), st.lists(st.integers(), max_size=2)),
    float: st.one_of(st.text(), st.booleans(), st.lists(_NUMBERS, max_size=2)),
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


# config_hash of fixed inputs, recorded before the CLI options were declared
# in one table.  The hash covers only the resolved inputs, so it is the same
# on every host and must not change when the CLI code does.  The simulate,
# verify bound and sweep values were re-recorded when the tie_order key left
# their resolved configs; each equals the hash of the old resolved config
# with that key deleted.
HASH_CONFIGS = {
    "cell.json": {"n1": 2, "n2": 2, "eta": 1.0, "eps_points": 3},
    "sim.json": SIM_CONFIG,
    "sweep.json": SWEEP_CONFIG,
}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["sequence", "--qdd", "2", "2"], "7ed332f58e69d3b5"),
        (["sequence", "--nudd", "1,1", "--qubits", "1"], "a0bf6c806d17828e"),
        (["bounds", "qdd", "--config", "cell.json"], "45b18c924338ac64"),
        (["bounds", "nudd", "--m", "2", "--dmin", "2", "--eta", "0.7", "--eps-points", "5"],
         "6470082c4cadd22b"),
        (["simulate", "--config", "sim.json"], "6ae56db8b48632bb"),
        (["verify", "orders", "--qdd", "1", "1", "--nmax", "2"], "c66947e5704b6438"),
        (
            [
                "verify", "bound", "--qdd", "2", "2", "--eps", "0.1", "--eta-x", "0.3",
                "--eta-y", "0.7", "--eta-z", "0.05", "--seeds", "2", "--bath-dim", "2",
            ],
            "d08b94c7682420b4",
        ),
        (["sweep", "--config", "sweep.json"], "60961df5bcd6c5df"),
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
