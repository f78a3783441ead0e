"""Command-line interface tests.

Each test drives ``ddbound.cli.main`` in-process and checks the exit code,
the emitted header block, and the data rows. Argparse-level failures raise
``SystemExit(2)`` which matches the invalid-input exit code used by the
command functions themselves.
"""

import json

import pytest

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


def test_sweep_grid_and_determinism(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    target = tmp_path / "sweep.csv"
    monkeypatch.setenv("DDBOUND_THREADS", "1")
    code, _, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(target)], capsys)
    assert code == 0
    serial = target.read_bytes()
    assert len(data_lines(serial.decode())) == 1 + 2 * 2  # header + cells
    monkeypatch.setenv("DDBOUND_THREADS", "4")
    code, _, _ = run_cli(["sweep", "--config", str(cfg), "--out", str(target)], capsys)
    assert code == 0
    assert target.read_bytes() == serial


def test_sweep_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    doc = dict(SWEEP_CONFIG)
    doc["oops"] = 1
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "oops" in err


def test_threads_env_validated(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    monkeypatch.setenv("DDBOUND_THREADS", "zero")
    code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "DDBOUND_THREADS" in err
