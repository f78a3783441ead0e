"""Command-line front end: schedules, bound sweeps, simulation, verification.

Subcommands
-----------
sequence        emit a pulse schedule as CSV (``time,axis,qubit,level``)
bounds qdd      two-level distance/channel bounds over a grid
bounds nudd     nested multi-qubit bound over a grid
simulate        run one exact spin-bath experiment from a JSON config
verify orders   certify claimed suppression orders: word integrals proved zero
verify bound    check bound dominance over randomized baths
sweep           randomized experiment grid from a JSON config

Each command's options are declared once, in ``_COMMANDS``.  A call that
names a command builds that command's parser only.  The full tree of
``build_parser`` is built for help above the commands, unknown commands and
parse errors, so every parse error reads as the tree writes it.  Configs are JSON
objects whose keys mirror the long flag names with underscores (``--eps-min``
-> ``"eps_min"``).  Flags override file values; unknown keys are rejected.
A ``null`` value counts as unset; any other value must have the JSON type and
one of the choices of the option it sets, and is used as written, never
converted.  A value outside its option's domain exits 2 naming its flag or
key.  A ``simulate`` config looks like::

    {"kind": "qdd", "orders": [2, 2], "T": 0.05,
     "bath": {"dim": 8, "seed": 42,
              "norms": {"0": 1.0, "x": 0.3, "y": 0.8, "z": 0.05}}}

with optional ``initial_state``, ``bath_state`` and ``mode`` keys.  A
``sweep`` config gives lists to cross::

    {"kind": "qdd", "orders": [[1, 1], [2, 2]], "bath_dim": [2, 8],
     "eps": [0.001, 0.01], "eta": [0.1, 1.0], "seeds": 3, "master_seed": 0}

``verify bound`` runs the same grid with one cell per bath seed.  Every
artifact starts with a header block recording the package version, the
resolved-config hash, the master seed, and the mode, so identical inputs
produce byte-identical output.  CSV floats use 17 significant digits; JSON
floats use shortest round-trip repr.

Exit codes: 0 success, 1 a verified property is violated (and nothing else),
2 invalid input, 3 numerical non-convergence or a bound beyond double range
(possibly partial: such rows are flagged with ``# non-convergence`` comment
lines), or an order certificate whose primes fall short of its proof bound.
Every bound is rounded outward, so each printed value is an upper bound; a
row holding a value below 2^-1022, whose digits overstate its precision, is
preceded by a ``# subnormal`` comment line and keeps its exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import product
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .dyson import verify_orders
from .nudd_bounds import (
    _MAX_M,
    NUDD_SWEEP_COLUMNS,
    nudd_eps_window,
    nudd_sweep_cell,
    nudd_sweep_row,  # noqa: F401  (patched here by perfbench/tracer.py)
    preset_nudd_cells,
)
from .qdd_bounds import (
    QDD_SWEEP_COLUMNS,
    EtaVector,
    default_eps_grid,
    preset_cells,
    sweep_cell,
    sweep_row,  # noqa: F401  (patched here by perfbench/tracer.py)
)
from .sequences import nudd_schedule, qdd_schedule
from .series import NORMAL_MIN, NonConvergenceError, cell_rows
from .simulator import (
    BathSpec,
    ExperimentConfig,
    _is_power_of_two,
    pauli_labels,
    run_experiment,
    run_experiments,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INVALID = 2
EXIT_NONCONVERGENCE = 3

MARGIN_FLOOR = -1e-12
UNITARITY_TOL = 1e-10

_VERIFY_COLUMNS = (
    "seed",
    "epsilon",
    "eta",
    "D_actual",
    "D_bound",
    "margin",
    "channel_margin_min",
    "unitarity",
    "ok",
)

_SWEEP_COLUMNS = (
    "cell",
    "kind",
    "orders",
    "bath_dim",
    "seed",
    "epsilon",
    "eta",
    "D_actual",
    "D_bound",
    "margin",
    "channel_margin_min",
    "unitarity",
)


class CliError(ValueError):
    """Invalid command-line or config input (exit code 2)."""


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _csv_row(row: dict, columns: Sequence[str]) -> str:
    return ",".join(_fmt(row[c]) for c in columns)


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _header(command: str, resolved: dict, seed: Any = None, mode: Any = None) -> list[str]:
    return [
        f"# ddbound={__version__}",
        f"# command={command}",
        f"# config_hash={_config_hash(resolved)}",
        f"# seed={'none' if seed is None else seed}",
        f"# mode={'none' if mode is None else mode}",
    ]


def _emit(lines: list[str], out: str | None, append: bool = False) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "a" if append else "w", encoding="utf-8") as fh:
            fh.write(text)


# ----------------------------------------------------------------- options --


@dataclass(frozen=True)
class Opt:
    """One option of one command.

    ``type`` is what a config value must be: ``int``, ``float`` (an integer
    in double range too), ``str``, ``dict`` (any object), ``[t]`` (a non-empty
    list of ``t``) or ``{str: t}`` (an object of ``t`` values); JSON booleans
    match none of them.  A ``flag`` option is also ``--name`` with dashes for
    underscores; a ``key`` option is a key of the resolved config (and of the
    config file, for commands that read one).  With ``preset`` each choice is
    a flag of its own (``--fig2``).  A ``required`` option must be given on
    the command line, or, for commands that read ``--config``, by the file
    or a flag.  ``domain`` is (text, test): a given value, or list item, that
    fails the test exits 2 with ``<--flag | config key 'k'> must be <text>,
    got <value>``.  Defaults must pass too, but are not checked.
    """

    name: str
    type: Any
    default: Any = None
    choices: tuple[str, ...] = ()
    help: str | None = None
    flag: bool = True
    key: bool = True
    preset: bool = False
    nargs: int | None = None
    metavar: Any = None
    required: bool = False
    domain: tuple[str, Callable[[Any], bool]] | None = None


@dataclass(frozen=True)
class Command:
    """A subcommand: handler, help line, options, and its ``--config`` flag
    (None, "optional" or "required")."""

    func: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[Opt, ...]
    config: str | None = None


_TYPE_NAMES = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
    dict: ("an object", "objects"),
}


def _describe(spec: Any) -> tuple[str, str]:
    """Singular and plural name of a config value type."""
    if isinstance(spec, list):
        inner = _describe(spec[0])[1]
        return f"a non-empty list of {inner}", f"non-empty lists of {inner}"
    if isinstance(spec, dict):
        inner = _describe(*spec.values())[1]
        return f"an object of {inner}", f"objects of {inner}"
    return _TYPE_NAMES[spec]


def _matches(value: Any, spec: Any) -> bool:
    if isinstance(spec, list):
        return (
            isinstance(value, list)
            and bool(value)
            and all(_matches(v, spec[0]) for v in value)
        )
    if isinstance(spec, dict):
        return isinstance(value, dict) and all(
            _matches(v, *spec.values()) for v in value.values()
        )
    if isinstance(value, bool):
        return False
    if spec is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max  # else no double can hold it
    return isinstance(value, (int, float) if spec is float else spec)


def _check(name: str, value: Any, spec: Any, choices: Sequence[str] = ()) -> None:
    """Reject a config value of the wrong type or outside ``choices``."""
    if not _matches(value, spec):
        raise CliError(f"{name} must be {_describe(spec)[0]}, got {json.dumps(value)}")
    if choices and value not in choices:
        raise CliError(f"{name} must be one of {', '.join(choices)}, got {value!r}")


def _check_domain(name: str, value: Any, domain: tuple[str, Callable] | None) -> None:
    """Reject a value, or any item of a list value, outside ``domain``."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_domain(name, item, domain)
    elif domain and not domain[1](value):
        raise CliError(f"{name} must be {domain[0]}, got {value!r}")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CliError(f"config {path!r} must be a JSON object")
    return doc


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """Merge defaults <- config file <- explicitly passed flags.

    All flags default to None so a set flag is distinguishable from an unset
    one, and a config ``null`` is unset too.  Other config values are checked
    against their option and kept as written, so the config hash sees the
    input itself.  Given values must lie in their option's domain.
    """
    opts = {opt.name: opt for opt in args.spec.options}
    resolved = {opt.name: opt.default for opt in args.spec.options if opt.key}
    given = {}
    path = getattr(args, "config", None)
    if path is not None:
        doc = _load_json(path)
        unknown = sorted(set(doc) - set(resolved))
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(unknown)}")
        for name, value in doc.items():
            if value is not None:
                _check(f"config key {name!r}", value, opts[name].type, opts[name].choices)
                given[name] = (f"config key {name!r}", value)
    for name in opts:
        if (value := getattr(args, name, None)) is not None:
            given[name] = (_flag(name), value)
    for name, (source, value) in given.items():
        _check_domain(source, value, opts[name].domain)
        if opts[name].key:
            resolved[name] = value
    for name in resolved:
        if opts[name].required and resolved[name] is None:
            raise CliError(f"config key {name!r} is required")
    return resolved


def _orders(resolved: dict) -> tuple[str, tuple[int, ...], int]:
    """(kind, orders, qubit count) of ``--qdd N1 N2`` or ``--nudd ... --qubits M``."""
    qdd, nudd = resolved["qdd"], resolved.get("nudd")
    if (qdd is None) == (nudd is None):
        raise CliError("exactly one of --qdd or --nudd is required")
    if qdd is not None:
        return "qdd", tuple(qdd), 1
    try:
        orders = tuple(int(tok) for tok in nudd.split(","))
    except ValueError:
        raise CliError(f"--nudd: expected comma-separated integers, got {nudd!r}")
    _check_domain("--nudd", orders, _NONNEGATIVE)
    m = resolved["qubits"]
    if m is None:
        raise CliError("--nudd requires --qubits")
    if len(orders) != 2 * m:
        raise CliError(
            f"--nudd/--qubits: expected {2 * m} per-level orders for {m} qubit(s), "
            f"got {len(orders)}"
        )
    return "nudd", orders, m


def _scalar_eta(resolved: dict) -> float:
    """``--eta``, default 1."""
    return 1.0 if resolved["eta"] is None else resolved["eta"]


def _qdd_eta(resolved: dict) -> tuple[float, float, float]:
    """Per-axis eta from ``--eta-x/-y/-z`` (unset axes 0), else ``--eta`` (default 1)."""
    comps = (resolved["eta_x"], resolved["eta_y"], resolved["eta_z"])
    if all(c is None for c in comps):
        return (_scalar_eta(resolved),) * 3
    if resolved["eta"] is not None:
        raise CliError("--eta conflicts with --eta-x/--eta-y/--eta-z")
    return tuple(0.0 if c is None else c for c in comps)


# ---------------------------------------------------------------- sequence --


def cmd_sequence(args: argparse.Namespace) -> int:
    kind, orders, m = _orders(_resolve(args))
    if kind == "qdd":
        schedule = qdd_schedule(*orders)
        resolved: dict[str, Any] = {"qdd": list(orders)}
    else:
        schedule = nudd_schedule(orders, m)
        resolved = {"nudd": list(orders), "qubits": m}

    lines = _header("sequence", resolved)
    lines.append("time,axis,qubit,level")
    for ev in schedule.events:
        lines.append(f"{_fmt(ev.time)},{ev.axis},{ev.qubit},{ev.level}")
    _emit(lines, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ bounds --


def _eps_grid(resolved: dict, window: Callable = default_eps_grid) -> tuple[float, ...]:
    """``window(eps_min, eps_max, eps_points)``; 0 points is an empty grid."""
    points = resolved["eps_points"]
    if points == 0:
        return ()
    try:
        return window(resolved["eps_min"], resolved["eps_max"], points)
    except ValueError as exc:
        raise CliError(str(exc))


def _flag_line(kind: str, row: dict, columns: Sequence[str]) -> str:
    parts = " ".join(f"{c}={_fmt(row[c])}" for c in columns if not _is_nan(row[c]))
    return f"# {kind}: {parts}"


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _bounds_table(
    out: str | None,
    header: list[str],
    columns: Sequence[str],
    cells: Sequence[Callable[[], tuple[dict, Any]]],
) -> int:
    """Emit the rows of each cell, one batched pass per cell.

    ``cells`` holds one callable per cell that returns the cell as columns
    and the converged mask of its pass (``sweep_cell``/``nudd_sweep_cell``
    with the cell's arguments bound).  A point that ``cell_rows`` makes None
    becomes a flagged row of the cell's fixed columns and NaN.  A row with a
    value below the smallest normal double, whose printed digits overstate
    its precision, is preceded by a ``# subnormal`` comment line naming those
    values; it does not change the exit code.
    """
    lines = header + [",".join(columns)]
    failures = 0
    for cell in cells:
        try:
            values, converged = cell()
        except ValueError as exc:
            raise CliError(str(exc))
        fixed = {c: v for c, v in values.items() if not isinstance(v, np.ndarray)}
        for eps, row in zip(values["epsilon"].tolist(), cell_rows(values, converged)):
            if row is None:
                row = {**dict.fromkeys(columns, math.nan), **fixed, "epsilon": eps}
                lines.append(_flag_line("non-convergence", row, columns))
                failures += 1
            else:
                tiny = [c for c in columns if isinstance(row[c], float)
                        and 0.0 < abs(row[c]) < NORMAL_MIN]
                if tiny:
                    key = {c: row[c] for c in ("epsilon", *fixed)}
                    lines.append(
                        f"{_flag_line('subnormal', key, key)}; "
                        f"{', '.join(tiny)} below 2^-1022"
                    )
            lines.append(_csv_row(row, columns))
    _emit(lines, out)
    return EXIT_NONCONVERGENCE if failures else EXIT_OK


def _preset_alone(resolved: dict, *groups: tuple[str, ...]) -> None:
    """Reject a preset given with any key of ``groups``, which the preset fixes
    itself; each group is named as one set of flags."""
    for keys in groups:
        if any(resolved[k] is not None for k in keys):
            flags = "/".join(map(_flag, keys))
            raise CliError(f"a preset cannot be combined with {flags}")


def cmd_bounds_qdd(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    if resolved["preset"] is not None:
        _preset_alone(resolved, ("n1", "n2"), ("eta", "eta_x", "eta_y", "eta_z"))
        cells = preset_cells(resolved["preset"])
    elif resolved["n1"] is not None or resolved["n2"] is not None:
        if resolved["n1"] is None or resolved["n2"] is None:
            raise CliError("--n1 and --n2 must be given together")
        cells = ((resolved["n1"], resolved["n2"], EtaVector(*_qdd_eta(resolved))),)
    else:
        raise CliError("--fig2/--fig3/--fig4 or --n1/--n2 is required")

    grid = _eps_grid(resolved)
    mode = resolved["mode"]
    table = [partial(sweep_cell, n1, n2, eta, grid, mode) for n1, n2, eta in cells]
    header = _header("bounds qdd", resolved, mode=mode)
    return _bounds_table(args.out, header, QDD_SWEEP_COLUMNS, table)


def cmd_bounds_nudd(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    # One cell per (m, d_min, eta); the preset rescales each cell's grid into
    # the representable window for its (eta, m).
    table = []
    if resolved["preset"] is not None:
        _preset_alone(resolved, ("m", "dmin"), ("eta",))
        for m, d_min, eta in preset_nudd_cells(resolved["preset"]):
            grid = _eps_grid(resolved, partial(nudd_eps_window, eta, m))
            table.append(partial(nudd_sweep_cell, m, d_min, eta, grid))
    elif resolved["m"] is not None or resolved["dmin"] is not None:
        if resolved["m"] is None or resolved["dmin"] is None:
            raise CliError("--m and --dmin must be given together")
        table.append(partial(nudd_sweep_cell, resolved["m"], resolved["dmin"],
                             _scalar_eta(resolved), _eps_grid(resolved)))
    else:
        raise CliError("--fig5 or --m/--dmin is required")

    header = _header("bounds nudd", resolved)
    return _bounds_table(args.out, header, NUDD_SWEEP_COLUMNS, table)


# ---------------------------------------------------------------- simulate --


_BATH_TYPES = {"dim": int, "seed": int, "norms": {str: float}}


def cmd_simulate(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    if args.seed is not None:
        resolved["bath"] = {**resolved["bath"], "seed": args.seed}
    bath = resolved["bath"]
    unknown = sorted(set(bath) - set(_BATH_TYPES))
    if unknown:
        raise CliError(f"unknown bath keys: {', '.join(unknown)}")
    for key, spec in _BATH_TYPES.items():
        if key not in bath:
            raise CliError(f"bath key {key!r} is required")
        _check(f"bath key {key!r}", bath[key], spec)
    try:
        config = ExperimentConfig(
            kind=resolved["kind"],
            orders=tuple(resolved["orders"]),
            bath=BathSpec(
                dim=bath["dim"],
                seed=bath["seed"],
                norms={k: float(v) for k, v in bath["norms"].items()},
            ),
            T=resolved["T"],
            initial_state=resolved["initial_state"],
            bath_state=resolved["bath_state"],
            mode=resolved["mode"],
        )
    except ValueError as exc:
        raise CliError(str(exc))
    result = run_experiment(config)
    record = {
        "ddbound": __version__,
        "command": "simulate",
        "config_hash": _config_hash(resolved),
        "seed": config.bath.seed,
        "mode": config.mode,
        "config": resolved,
        "result": asdict(result),
    }
    _emit([json.dumps(record, sort_keys=True)], args.out, append=True)
    return EXIT_OK


# ------------------------------------------------------------------- sweep --


def _bath_norms(m: int, eta: Any) -> dict[str, float]:
    """J0 = 1 on the identity channel and ``eta`` on every other channel.

    A one-qubit ``eta`` may be an (x, y, z) triple of per-axis values.  An
    unsupported qubit count is rejected before any of the 4^m labels is listed.
    """
    axes = dict(zip("xyz", eta)) if isinstance(eta, tuple) else {}
    identity, *errors = pauli_labels(m)
    return {identity: 1.0, **{label: axes.get(label, eta) for label in errors}}


def _eta_label(eta: Any) -> str:
    """``eta`` as written in rows: an isotropic triple is written once."""
    axes = eta if isinstance(eta, tuple) else (eta,)
    if all(e == axes[0] for e in axes):
        axes = axes[:1]
    return "/".join(_fmt(e) for e in axes)


_CELL_FIELDS = ("initial_state", "bath_state", "mode")


def _experiment_grid(grid: dict) -> list[tuple[int, ExperimentConfig, str]]:
    """(index, config, eta label) per cell of a sweep config, in nesting order.

    Each cell's bath seed is master_seed + index, so results do not depend on
    the order the cells run in.  Cell fields the config lacks take their
    ``ExperimentConfig`` defaults.
    """
    fields = {k: grid[k] for k in _CELL_FIELDS if k in grid}
    cells = []
    axes = product(grid["orders"], grid["bath_dim"], grid["eps"], grid["eta"])
    for orders, bath_dim, eps, eta in axes:
        for _ in range(grid["seeds"]):
            index = len(cells)
            try:
                bath = BathSpec(
                    dim=bath_dim,
                    seed=grid["master_seed"] + index,
                    norms=_bath_norms(len(orders) // 2, eta),
                )
                cfg = ExperimentConfig(
                    kind=grid["kind"], orders=tuple(orders), bath=bath, T=eps, **fields
                )
            except ValueError as exc:
                raise CliError(str(exc))
            cells.append((index, cfg, _eta_label(eta)))
    return cells


def _run_cells(
    cells: Sequence[tuple[int, ExperimentConfig, str]],
    columns: Sequence[str],
    loosen: float = 1.0,
) -> tuple[list[str], int, int]:
    """Run the cells as stacked groups: CSV lines in cell order, violation
    count, non-convergence count.

    A cell is a violation when ``loosen`` times its bound falls below the
    measured distance, a channel bound is exceeded, or the propagator is not
    unitary to ``UNITARITY_TOL``.
    """
    lines: list[str] = []
    violations = failures = 0
    results = run_experiments([cfg for _, cfg, _ in cells])
    for (index, cfg, eta), res in zip(cells, results):
        if isinstance(res, NonConvergenceError):
            failures += 1
            ids = {"cell": index, "seed": cfg.bath.seed}
            where = " ".join(f"{c}={v}" for c, v in ids.items() if c in columns)
            lines.append(f"# non-convergence: {where} ({res})")
            continue
        bound = loosen * res.distance_bound
        margin = bound - res.distance_actual
        ch_min = min(res.channel_margins.values())
        ok = (
            margin >= MARGIN_FLOOR
            and ch_min >= MARGIN_FLOOR
            and res.unitarity_residual <= UNITARITY_TOL
            and max(res.cross_residuals.values(), default=0.0) <= UNITARITY_TOL
        )
        violations += not ok
        row = {
            "cell": index,
            "kind": cfg.kind,
            "orders": "/".join(str(n) for n in cfg.orders),
            "bath_dim": cfg.bath.dim,
            "seed": cfg.bath.seed,
            "epsilon": res.epsilon,
            "eta": eta,
            "D_actual": res.distance_actual,
            "D_bound": bound,
            "margin": margin,
            "channel_margin_min": ch_min,
            "unitarity": res.unitarity_residual,
            "ok": int(ok),
        }
        lines.append(_csv_row(row, columns))
    return lines, violations, failures


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    rows, _, failures = _run_cells(_experiment_grid(resolved), _SWEEP_COLUMNS)
    lines = _header(
        "sweep", resolved, seed=resolved["master_seed"], mode=resolved["mode"]
    )
    _emit(lines + [",".join(_SWEEP_COLUMNS)] + rows, args.out)
    return EXIT_NONCONVERGENCE if failures else EXIT_OK


# ------------------------------------------------------------------ verify --


def cmd_verify_orders(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _, (n1, n2), _ = _orders(resolved)
    try:
        cert = verify_orders(
            n1,
            n2,
            resolved["nmax"],
            backend=resolved["backend"],
            mode=resolved["mode"],
        )
    except ValueError as exc:
        raise CliError(str(exc))
    record = {
        "ddbound": __version__,
        "command": "verify orders",
        "config_hash": _config_hash(resolved),
        "seed": None,
        "mode": resolved["mode"],
        "config": resolved,
        "certification": {**vars(cert), "orders": asdict(cert.orders)},
    }
    _emit([json.dumps(record, sort_keys=True)], args.out, append=True)
    if cert.violations:
        return EXIT_ASSERTION
    return EXIT_OK if cert.certified else EXIT_NONCONVERGENCE


def cmd_verify_bound(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    kind, orders, _ = _orders(resolved)
    eps = resolved["eps"]
    if kind == "qdd":
        eta = _qdd_eta(resolved)
    elif any(resolved[f"eta_{axis}"] is not None for axis in "xyz"):
        raise CliError("per-axis eta (--eta-x/-y/-z) needs --qdd; use --eta with --nudd")
    else:
        eta = _scalar_eta(resolved)
    meta = {
        "kind": kind,
        "orders": list(orders),
        "eps": eps,
        "eta": _eta_label(eta),
        **{k: resolved[k] for k in ("bath_dim", "seeds", "seed", "mode", "loosen")},
    }
    grid = {
        "kind": kind,
        "orders": [orders],
        "bath_dim": [resolved["bath_dim"]],
        "eps": [eps],
        "eta": [eta],
        "seeds": resolved["seeds"],
        "master_seed": resolved["seed"],
        "mode": resolved["mode"],
    }
    rows, violations, failures = _run_cells(
        _experiment_grid(grid), _VERIFY_COLUMNS, resolved["loosen"]
    )
    lines = _header("verify bound", meta, seed=resolved["seed"], mode=resolved["mode"])
    _emit(lines + [",".join(_VERIFY_COLUMNS)] + rows, args.out, append=True)
    if violations:
        return EXIT_ASSERTION
    return EXIT_NONCONVERGENCE if failures else EXIT_OK


# ------------------------------------------------------------------ parser --


_NONNEGATIVE = (">= 0", lambda v: v >= 0)
_POSITIVE = (">= 1", lambda v: v >= 1)
_COUPLING = ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
_DURATION = ("finite and > 0", lambda v: math.isfinite(v) and v > 0)
_BATH_DIM = ("a power of two", _is_power_of_two)

_MODE = Opt("mode", str, "analytic", ("analytic", "numeric-footnote"),
            help="suppression-order table variant")
_EPS_GRID = (
    Opt("eps_min", float, 1e-4, help="smallest epsilon", domain=_DURATION),
    Opt("eps_max", float, 1.0, help="largest epsilon", domain=_DURATION),
    Opt("eps_points", int, 41, help="log-grid size, 0 for an empty grid",
        domain=("0 or >= 2", lambda n: n == 0 or n >= 2)),
)
_ETA_AXES = tuple(Opt(f"eta_{a}", float, help=f"{a} relative coupling strength", domain=_COUPLING)
                  for a in "xyz")
_KIND = Opt("kind", str, choices=("qdd", "nudd"), flag=False, required=True)
_STATES = (
    Opt("initial_state", str, "random", flag=False),
    Opt("bath_state", str, "maximally-mixed", flag=False),
)
_QDD = Opt("qdd", int, nargs=2, metavar=("N1", "N2"),
           help="two-level sequence with inner order N1, outer N2", domain=_NONNEGATIVE)
_NUDD = Opt("nudd", str, metavar="N1,N2,...", help="nested sequence orders, innermost first")
_QUBITS = Opt("qubits", int, help="protected qubit count for --nudd", domain=_POSITIVE)

_COMMANDS = {
    "sequence": Command(cmd_sequence, "emit a pulse schedule as CSV", (_QDD, _NUDD, _QUBITS)),
    "bounds qdd": Command(
        cmd_bounds_qdd,
        "two-level channel and distance bounds",
        (
            Opt("preset", str, choices=("fig2", "fig3", "fig4"), help="preset grid",
                preset=True),
            Opt("n1", int, help="inner sequence order", domain=_NONNEGATIVE),
            Opt("n2", int, help="outer sequence order", domain=_NONNEGATIVE),
            Opt("eta", float, help="isotropic relative coupling strength", domain=_COUPLING),
            *_ETA_AXES,
            *_EPS_GRID,
            _MODE,
        ),
        config="optional",
    ),
    "bounds nudd": Command(
        cmd_bounds_nudd,
        "nested multi-qubit bound",
        (
            Opt("preset", str, choices=("fig5",), help="preset grid", preset=True),
            Opt("m", int, help="protected qubit count",
                domain=(f"in [1, {_MAX_M}]", lambda m: 1 <= m <= _MAX_M)),
            Opt("dmin", int, help="minimum suppression order", domain=_NONNEGATIVE),
            Opt("eta", float, help="relative coupling strength", domain=_COUPLING),
            *_EPS_GRID,
        ),
        config="optional",
    ),
    "simulate": Command(
        cmd_simulate,
        "run one exact experiment from JSON config",
        (
            _KIND,
            Opt("orders", [int], flag=False, required=True, domain=_NONNEGATIVE),
            Opt("bath", dict, flag=False, required=True),
            Opt("T", float, help="override the duration", required=True, domain=_DURATION),
            *_STATES,
            _MODE,
            Opt("seed", int, key=False, help="override the bath seed", domain=_NONNEGATIVE),
        ),
        config="required",
    ),
    "verify orders": Command(
        cmd_verify_orders,
        "word-integral certification, zeros proved by residues",
        (
            replace(_QDD, required=True),
            Opt("nmax", int, required=True, help="certify all word lengths up to NMAX",
                domain=_POSITIVE),
            Opt(
                "backend", str, "auto", ("auto", "rational", "mp"),
                help="how word values are reported: rational (orders <= 2, exact "
                "values by CRT) or mp (float64 values)",
            ),
            _MODE,
        ),
    ),
    "verify bound": Command(
        cmd_verify_bound,
        "randomized bound-dominance check",
        (
            _QDD,
            _NUDD,
            _QUBITS,
            Opt("eps", float, help="epsilon = J0 * T (J0 fixed at 1)", required=True,
                domain=_DURATION),
            Opt("eta", float, help="relative coupling strength", domain=_COUPLING),
            *_ETA_AXES,
            Opt("bath_dim", int, 8, help="bath dimension", domain=_BATH_DIM),
            Opt("seeds", int, 20, help="number of random baths", domain=_POSITIVE),
            Opt("seed", int, 0, help="master seed", domain=_NONNEGATIVE),
            _MODE,
            Opt("loosen", float, 1.0, help="negative-control hook: multiply the bound "
                "by this factor before the dominance check", domain=("finite", math.isfinite)),
        ),
    ),
    "sweep": Command(
        cmd_sweep,
        "randomized experiment grid from JSON config",
        tuple(
            replace(opt, flag=False)
            for opt in (
                _KIND,
                Opt("orders", [[int]], required=True, domain=_NONNEGATIVE),
                Opt("bath_dim", [int], required=True, domain=_BATH_DIM),
                Opt("eps", [float], required=True, domain=_DURATION),
                Opt("eta", [float], required=True, domain=_COUPLING),
                Opt("seeds", int, 1, domain=_POSITIVE),
                Opt("master_seed", int, 0, domain=_NONNEGATIVE),
                _MODE,
                *_STATES,
            )
        ),
        config="required",
    ),
}

_GROUPS = {
    "bounds": "evaluate analytic bounds over a grid",
    "verify": "certify orders or check bound dominance",
}


def _add_option(p: argparse.ArgumentParser, opt: Opt, has_config: bool) -> None:
    if opt.preset:
        group = p.add_mutually_exclusive_group()
        for name in opt.choices:
            group.add_argument(f"--{name}", dest=opt.name, action="store_const",
                               const=name, help=f"{opt.help} '{name}'")
        return
    notes = [opt.domain[0]] if opt.domain else []
    notes += [] if opt.default is None else [f"default {opt.default}"]
    note = f" ({', '.join(notes)})" if notes else ""
    p.add_argument(
        _flag(opt.name),
        type=opt.type,
        choices=opt.choices or None,
        nargs=opt.nargs,
        metavar=opt.metavar,
        required=opt.required and not has_config,
        help=f"{opt.help or ''}{note}".strip(),
    )


def _add_command(p: argparse.ArgumentParser, spec: Command) -> None:
    """Give ``p`` the options of ``spec``, and ``spec`` as its ``spec`` default."""
    p.set_defaults(spec=spec)
    for opt in spec.options:
        if opt.flag:
            _add_option(p, opt, spec.config is not None)
    if spec.config is not None:
        p.add_argument("--config", metavar="PATH", required=spec.config == "required",
                       help="JSON config (flags override)")
    p.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser: every command, its help line and options.

    ``main`` parses a call that names a command with that command's parser
    alone, and builds this tree only for what the tree itself reports: help
    at the top or group level, an unknown command, and every parse error.
    """
    parser = argparse.ArgumentParser(
        prog="ddbound",
        description="Nested dynamical-decoupling schedules, analytic error "
        "bounds, and exact verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, Any] = {}
    for name, spec in _COMMANDS.items():
        *group, leaf = name.split()
        parent = sub
        if group:
            if group[0] not in groups:
                g = sub.add_parser(group[0], help=_GROUPS[group[0]])
                groups[group[0]] = g.add_subparsers(dest="subcommand", required=True)
            parent = groups[group[0]]
        _add_command(parent.add_parser(leaf, help=spec.help), spec)
    return parser


class _CommandParser(argparse.ArgumentParser):
    """One command's parser: it raises its parse errors for the tree to report."""

    def error(self, message: str) -> None:
        raise argparse.ArgumentError(None, message)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with only the parser of the command it names.

    That parser is built as the tree's leaf for the command, so its help and
    its clean parses are the tree's.  An ``argv`` that names no command, or
    that this parser rejects or leaves arguments of, is parsed by
    ``build_parser()``, which reports it as the tree does.
    """
    for name, spec in _COMMANDS.items():
        words = name.split()
        if argv[: len(words)] == words:
            parser = _CommandParser(prog=f"ddbound {name}")
            _add_command(parser, spec)
            try:
                args, rest = parser.parse_known_args(argv[len(words) :])
                if not rest:
                    return args
            except argparse.ArgumentError:
                pass
            break
    return build_parser().parse_args(argv)


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command; its invalid input and non-convergence become
    exit codes with one ``error:`` line."""
    try:
        return args.spec.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NonConvergenceError as exc:
        print(f"error: series did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def main(argv: Sequence[str] | None = None) -> int:
    return _run(_parse(sys.argv[1:] if argv is None else list(argv)))


if __name__ == "__main__":
    sys.exit(main())
