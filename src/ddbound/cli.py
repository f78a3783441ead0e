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
names a command and gives it only full flags with well-formed values is read
straight from that command's option table, with no parser built.  Every other
call (help, an unknown command or flag, a value that starts with ``-``, a
parse error) goes whole to the full tree of ``build_parser``, so help and
every parse error read as the tree writes them.  Configs are JSON
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
2 invalid input, 3 numerical non-convergence or a value beyond double range
(possibly partial: such rows are flagged with ``# non-convergence`` comment
lines), or an order certificate whose primes fall short of its proof bound.
Every bound is rounded outward, so each printed value is an upper bound.
One writer, under one row rule (``series.cell_ok``), writes the ``bounds``,
``sweep`` and ``verify bound`` tables, and precedes a row holding a value
below 2^-1022, whose digits overstate its precision, by a ``# subnormal``
comment line.  A ``sweep`` or ``verify bound`` row where the margin floor
(1e-12) rather than a bound decides the check, as its ``D_bound`` or a
channel bound ``L_<channel>`` is below the floor, is preceded by an
``# unresolved`` line naming that bound.  Neither flag changes the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial, reduce
from itertools import product
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .dyson import verify_orders
from .nudd_bounds import (
    _MAX_M,
    NUDD_SWEEP_COLUMNS,
    nudd_distance_bound as nudd_sweep_row,  # noqa: F401  (patched here by perfbench/tracer.py)
    nudd_eps_window,
    nudd_sweep_cell,
    preset_nudd_cells,
)
from .qdd_bounds import (
    _MODES,
    QDD_SWEEP_COLUMNS,
    EtaVector,
    default_eps_grid,
    distance_bound as sweep_row,  # noqa: F401  (patched here by perfbench/tracer.py)
    preset_cells,
    sweep_cell,
)
from .sequences import nudd_schedule, qdd_schedule
from .series import NORMAL_MIN, NonConvergenceError, cell_ok
from .simulator import (
    _BATH_STATES,
    _INITIAL_STATES,
    MAX_QUBITS,
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


#: The one float format of every output: 17 significant digits round-trip.
_FLOAT = "%.17g"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return _FLOAT % value
    return str(value)


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


def _record(command: str, resolved: dict, seed: Any, mode: Any, out: str | None, **body) -> None:
    """Append one JSON record: the header fields of ``_header``, the resolved
    config, and ``body``."""
    record = {
        "ddbound": __version__,
        "command": command,
        "config_hash": _config_hash(resolved),
        "seed": seed,
        "mode": mode,
        "config": resolved,
        **body,
    }
    _emit([json.dumps(record, sort_keys=True)], out, append=True)


def _emit(lines: list[str], out: str | None, append: bool = False) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "a" if append else "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write output {out!r}: {exc}")


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
    """Reject a value, or any item of a list or object value, outside ``domain``."""
    if isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
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


def _resolve(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, str]]:
    """Merge defaults <- config file <- explicitly passed flags.

    All flags default to None so a set flag is distinguishable from an unset
    one, and a config ``null`` is unset too.  Other config values are checked
    against their option and kept as written, so the config hash sees the
    input itself.  Given values must lie in their option's domain.  Returns
    the resolved config and, for each given option, its source: the flag or
    ``config key 'k'`` that gave it.
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
    return resolved, {name: source for name, (source, _) in given.items()}


def _named(sources: dict[str, str], keys: Sequence[str]) -> str:
    """How a rule across options names the options ``keys``: as their set of
    flags, unless a config key gave one of them; then by what gave them."""
    given = [sources[k] for k in keys if k in sources]
    if all(source.startswith("--") for source in given):
        return "/".join(map(_flag, keys))
    return "/".join(given)


def _together(sources: dict[str, str], a: str, b: str) -> None:
    """Reject the option ``a`` or ``b`` given without the other."""
    if (a in sources) != (b in sources):
        if sources.get(a, sources.get(b)).startswith("--"):
            raise CliError(f"{_flag(a)} and {_flag(b)} must be given together")
        raise CliError(f"config keys {a!r} and {b!r} must be given together")


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
    _check_domain("--nudd", orders, _ORDER)
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


_ETA_KEYS = ("eta_x", "eta_y", "eta_z")


def _qdd_eta(resolved: dict, sources: dict[str, str]) -> tuple[float, float, float]:
    """Per-axis eta from ``--eta-x/-y/-z`` (unset axes 0), else ``--eta`` (default 1)."""
    comps = tuple(resolved[k] for k in _ETA_KEYS)
    if all(c is None for c in comps):
        return (_scalar_eta(resolved),) * 3
    if resolved["eta"] is not None:
        eta, axes = _named(sources, ("eta",)), _named(sources, _ETA_KEYS)
        raise CliError(f"{eta} conflicts with {axes}")
    return tuple(0.0 if c is None else c for c in comps)


# ---------------------------------------------------------------- sequence --


def cmd_sequence(args: argparse.Namespace) -> int:
    kind, orders, m = _orders(_resolve(args)[0])
    try:
        if kind == "qdd":
            schedule = qdd_schedule(*orders)
            resolved: dict[str, Any] = {"qdd": list(orders)}
        else:
            schedule = nudd_schedule(orders, m)
            resolved = {"nudd": list(orders), "qubits": m}
    except ValueError as exc:  # a schedule past its size limit
        raise CliError(str(exc))

    lines = _header("sequence", resolved)
    lines.append("time,axis,qubit,level")
    for ev in schedule.events:
        lines.append(f"{_fmt(ev.time)},{ev.axis},{ev.qubit},{ev.level}")
    _emit(lines, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ bounds --


def _eps_grid(
    resolved: dict, sources: dict[str, str], window: Callable = default_eps_grid
) -> tuple[float, ...]:
    """``window(eps_min, eps_max, eps_points)``; 0 points is an empty grid.

    The domains of the three options are checked already; the rule across
    them, lo < hi, holds for the empty grid too and names what gave the
    ends (``_named``).
    """
    lo, hi, points = (resolved[k] for k in ("eps_min", "eps_max", "eps_points"))
    if not lo < hi:
        ends = _named(sources, ("eps_min", "eps_max"))
        raise CliError(f"{ends} must satisfy lo < hi, got lo={lo!r}, hi={hi!r}")
    return window(lo, hi, points) if points else ()


def _table(
    out: str | None, header: list[str], columns: Sequence[str], parts: Sequence[Callable],
    append: bool = False,
) -> int:
    """Emit a table of ``columns`` from its parts; return its count of failed rows.

    ``parts`` holds one callable per part of the table (a bounds cell, an
    experiment run) that returns the part as columns, the converged mask of
    its rows and, optionally, a dict of the part's ``_cell_lines`` keywords.
    The row rule ``cell_ok`` decides which rows fail, and each part is
    written from its columns (``_cell_lines``).
    """
    lines = header + [",".join(columns)]
    failures = 0
    for part in parts:
        try:
            values, converged, *declared = part()
        except ValueError as exc:
            raise CliError(str(exc))
        ok = cell_ok(values, converged)
        failures += np.count_nonzero(~ok)
        lines += _cell_lines(values, ok, columns, **(declared[0] if declared else {}))
    _emit(lines, out, append)
    return failures


def _cell_lines(
    values: dict, ok: np.ndarray, columns: Sequence[str], key: Sequence[str] | None = None,
    notes: Sequence[str] | None = None, flags: Sequence[tuple[str, dict, str]] = (),
) -> list[str]:
    """The CSV lines of one part of a table.

    A column is a float array over the rows, a list of row text, or one
    value that every row shares.  The shared columns are formatted once,
    into a row template, and every row fills it with its own values.
    Comment lines give the row's ``key`` columns, in column order: by
    default epsilon and the shared columns.  A row not ``ok`` keeps its key,
    text and shared columns, has NaN in its other float columns, and is
    preceded by a ``# non-convergence`` comment line that ends in its entry
    of ``notes``.  An ``ok`` row is preceded by one comment line
    ``# <kind>: <key>; <names> <text>`` for each flag ``(kind, masks, text)``
    with a mask true on the row, naming those masks in order.  The last flag
    is ``subnormal``: its masks are the columns holding a value below the
    smallest normal double, whose printed digits overstate its precision,
    and a subnormal shared column flags every row.
    """
    floats = [c for c in columns if isinstance(values[c], np.ndarray)]
    texts = {c: values[c] for c in columns if isinstance(values[c], list)}
    shared = {c: values[c] for c in columns if c not in floats and c not in texts}
    spec = {c: _FLOAT if c in floats else "%s" if c in texts else _fmt(values[c])
            for c in columns}
    key = [c for c in columns if c in (key or ("epsilon", *shared))]
    table = np.array([values[c] for c in floats])
    if not ok.all():
        table[np.ix_([c not in key for c in floats], ~ok)] = np.nan
    by_row = {**texts, **dict(zip(floats, table.tolist()))}
    template = ",".join(spec.values())
    rows = [template % row for row in zip(*(by_row[c] for c in columns if c in by_row))]

    tiny = dict(zip(floats, (table != 0.0) & (np.abs(table) < NORMAL_MIN)))
    tiny.update((c, ok) for c, v in shared.items()
                if isinstance(v, float) and 0.0 < abs(v) < NORMAL_MIN)
    flags = [*flags, ("subnormal", {c: tiny[c] for c in columns if c in tiny}, "below 2^-1022")]
    marks = [m for _, masks, _ in flags for m in masks.values()]
    flagged = np.flatnonzero(np.logical_or.reduce([~ok, *marks])).tolist()
    if not flagged:
        return rows
    where = " ".join(f"{c}={spec[c]}" for c in key)
    keyed = [by_row[c] for c in key if c in by_row]
    listed = [(k, [(c, m.tolist()) for c, m in masks.items()], t) for k, masks, t in flags]
    lines, start = [], 0
    for i in flagged:
        at = where % tuple(col[i] for col in keyed)
        if ok[i]:
            named = [(k, ", ".join(c for c, m in masks if m[i]), t) for k, masks, t in listed]
            lines += rows[start:i] + [f"# {k}: {at}; {n} {t}" for k, n, t in named if n]
        else:
            lines += rows[start:i] + [f"# non-convergence: {at}{notes[i] if notes else ''}"]
        start = i
    return lines + rows[start:]


def _preset_alone(sources: dict[str, str], *groups: tuple[str, ...]) -> None:
    """Reject a preset given with any option of ``groups``, which the preset
    fixes itself; each group is named as one set (``_named``)."""
    for keys in groups:
        if any(k in sources for k in keys):
            raise CliError(f"a preset cannot be combined with {_named(sources, keys)}")


def cmd_bounds_qdd(args: argparse.Namespace) -> int:
    resolved, sources = _resolve(args)
    if resolved["preset"] is not None:
        _preset_alone(sources, ("n1", "n2"), ("eta", *_ETA_KEYS))
        cells = preset_cells(resolved["preset"])
    elif resolved["n1"] is not None or resolved["n2"] is not None:
        _together(sources, "n1", "n2")
        eta = EtaVector(*_qdd_eta(resolved, sources))
        cells = ((resolved["n1"], resolved["n2"], eta),)
    else:
        raise CliError("--fig2/--fig3/--fig4 or --n1/--n2 is required")

    grid = _eps_grid(resolved, sources)
    mode = resolved["mode"]
    table = [partial(sweep_cell, n1, n2, eta, grid, mode) for n1, n2, eta in cells]
    header = _header("bounds qdd", resolved, mode=mode)
    return EXIT_NONCONVERGENCE if _table(args.out, header, QDD_SWEEP_COLUMNS, table) else EXIT_OK


def cmd_bounds_nudd(args: argparse.Namespace) -> int:
    resolved, sources = _resolve(args)
    # One cell per (m, d_min, eta); the preset rescales each cell's grid into
    # the representable window for its (eta, m).
    table = []
    if resolved["preset"] is not None:
        _preset_alone(sources, ("m", "dmin"), ("eta",))
        for m, d_min, eta in preset_nudd_cells(resolved["preset"]):
            grid = _eps_grid(resolved, sources, partial(nudd_eps_window, eta, m))
            table.append(partial(nudd_sweep_cell, m, d_min, eta, grid))
    elif resolved["m"] is not None or resolved["dmin"] is not None:
        _together(sources, "m", "dmin")
        table.append(partial(nudd_sweep_cell, resolved["m"], resolved["dmin"],
                             _scalar_eta(resolved), _eps_grid(resolved, sources)))
    else:
        raise CliError("--fig5 or --m/--dmin is required")

    header = _header("bounds nudd", resolved)
    return EXIT_NONCONVERGENCE if _table(args.out, header, NUDD_SWEEP_COLUMNS, table) else EXIT_OK


# ---------------------------------------------------------------- simulate --


def cmd_simulate(args: argparse.Namespace) -> int:
    resolved, _ = _resolve(args)
    if args.seed is not None:
        resolved["bath"] = {**resolved["bath"], "seed": args.seed}
    bath = resolved["bath"]
    unknown = sorted(set(bath) - set(_BATH_KEYS))
    if unknown:
        raise CliError(f"unknown bath keys: {', '.join(unknown)}")
    for key, (spec, domain) in _BATH_KEYS.items():
        if key not in bath:
            raise CliError(f"bath key {key!r} is required")
        _check(f"bath key {key!r}", bath[key], spec)
        _check_domain(f"bath key {key!r}", bath[key], domain)
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
        result = run_experiment(config)
    except ValueError as exc:
        raise CliError(str(exc))
    _record("simulate", resolved, config.bath.seed, config.mode, args.out, result=result)
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

#: The largest number of cells a sweep or verify-bound grid may have, the
#: product of its axes' lengths and ``seeds``.  Building the grid takes
#: 20-70 us and about 0.65 kB per cell on a shared 2-core host, before any
#: cell runs, so a grid at the limit builds in a few seconds and about 65 MB.
#: The cap bounds what the build costs, not how long the run takes: a cell at
#: total dimension 256 runs in about 95 ms, so a grid at the cap at that size
#: runs for about 2.6 h before it writes a row.
_MAX_CELLS = 10**5


def _experiment_grid(grid: dict) -> list[tuple[int, ExperimentConfig, str]]:
    """(index, config, eta label) per cell of a sweep config, in nesting order.

    Each cell's bath seed is master_seed + index, so results do not depend on
    the order the cells run in.  Cell fields the config lacks take their
    ``ExperimentConfig`` defaults.  A grid of more than ``_MAX_CELLS`` cells
    is rejected before any config is built.
    """
    axes = [grid[k] for k in ("orders", "bath_dim", "eps", "eta")]
    count = math.prod(map(len, axes)) * grid["seeds"]
    if count > _MAX_CELLS:
        raise CliError(f"the grid has {count} cells (axes times seeds), more than {_MAX_CELLS}")
    fields = {k: grid[k] for k in _CELL_FIELDS if k in grid}
    cells = []
    for orders, bath_dim, eps, eta in product(*axes):
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
    cells: Sequence[tuple[int, ExperimentConfig, str]], loosen: float = 1.0
) -> tuple[dict, np.ndarray, dict]:
    """Run the cells as stacked groups, as one part of a table (``_table``):
    its columns, converged mask and ``_cell_lines`` keywords.

    A cell is a violation (``ok`` 0) when ``loosen`` times its bound falls
    below the measured distance, a channel bound is exceeded, or the
    propagator is not unitary to ``UNITARITY_TOL``.  A cell whose run fails
    to converge is written with NaN in every column the run computes, and its
    ``# non-convergence`` line ends in the error.  A row whose check the
    floor and not a bound decides is flagged ``# unresolved``, naming its
    ``D_bound`` if that is below ``-MARGIN_FLOOR``, else each channel bound
    below it (``L_<channel>``, from the run's ``channel_bounds``).  Comment
    lines give the row's cell and seed, where the columns hold them.  No
    flag changes ``ok``.
    """
    run, done = run_experiments([cfg for _, cfg, _ in cells])
    with np.errstate(over="ignore"):  # a loosened bound beyond double range is inf
        bound = loosen * run["distance_bound"]
    margin = bound - run["distance_actual"]
    # the first of equal margins, as min() over a cell's margins takes it:
    # np.fmin's pick between 0.0 and -0.0 depends on the length of the arrays
    channel = reduce(lambda a, b: np.where(b < a, b, a), run["channel_margins"].values())
    cross = np.fmax.reduce(list(run["cross_residuals"].values()))
    ok = ((margin >= MARGIN_FLOOR) & (channel >= MARGIN_FLOOR)
          & (run["unitarity_residual"] <= UNITARITY_TOL) & (cross <= UNITARITY_TOL))
    values = {
        "cell": [index for index, _, _ in cells],
        "kind": [cfg.kind for _, cfg, _ in cells],
        "orders": ["/".join(map(str, cfg.orders)) for _, cfg, _ in cells],
        "bath_dim": [cfg.bath.dim for _, cfg, _ in cells],
        "seed": [cfg.bath.seed for _, cfg, _ in cells],
        "eta": [eta for _, _, eta in cells],
        "epsilon": run["epsilon"],
        "D_actual": run["distance_actual"],
        "D_bound": bound,
        "margin": margin,
        "channel_margin_min": channel,
        "unitarity": run["unitarity_residual"],
        "ok": np.where(done, ok, math.nan),
    }
    floor = -MARGIN_FLOOR
    unresolved = {"D_bound": bound < floor}
    for ch, low in run["channel_bounds"].items():
        unresolved[f"L_{ch}"] = (bound >= floor) & (low < floor)
    declared = {
        "key": ("cell", "seed"),
        "notes": [f" ({error})" if not d else "" for error, d in zip(run["error"], done)],
        "flags": [("unresolved", unresolved, f"below the margin floor {floor:g}")],
    }
    return values, done, declared


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved, _ = _resolve(args)
    part = partial(_run_cells, _experiment_grid(resolved))
    header = _header("sweep", resolved, seed=resolved["master_seed"], mode=resolved["mode"])
    return EXIT_NONCONVERGENCE if _table(args.out, header, _SWEEP_COLUMNS, [part]) else EXIT_OK


# ------------------------------------------------------------------ verify --


def cmd_verify_orders(args: argparse.Namespace) -> int:
    resolved, _ = _resolve(args)
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
    _record("verify orders", resolved, None, resolved["mode"], args.out,
            certification={**vars(cert), "orders": asdict(cert.orders)})
    if cert.violations:
        return EXIT_ASSERTION
    return EXIT_OK if cert.certified else EXIT_NONCONVERGENCE


def cmd_verify_bound(args: argparse.Namespace) -> int:
    resolved, sources = _resolve(args)
    kind, orders, _ = _orders(resolved)
    eps = resolved["eps"]
    if kind == "qdd":
        eta = _qdd_eta(resolved, sources)
    elif any(k in sources for k in _ETA_KEYS):
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
    try:
        run = _run_cells(_experiment_grid(grid), resolved["loosen"])
    except ValueError as exc:
        raise CliError(str(exc))
    header = _header("verify bound", meta, seed=resolved["seed"], mode=resolved["mode"])
    failures = _table(args.out, header, _VERIFY_COLUMNS, [lambda: run], append=True)
    if np.any(cell_ok(*run[:2]) & (run[0]["ok"] == 0.0)):
        return EXIT_ASSERTION
    return EXIT_NONCONVERGENCE if failures else EXIT_OK


# ------------------------------------------------------------------ parser --


_NONNEGATIVE = (">= 0", lambda v: v >= 0)
_POSITIVE = (">= 1", lambda v: v >= 1)
# A sequence order.  Wherever a tail pass converges (rates below about 710),
# the tail past order 10^4 is below 2^-1074, while the pass's cost still grows
# with the order.
_MAX_ORDER = 10_000
_ORDER = (f"in [0, {_MAX_ORDER}]", lambda v: 0 <= v <= _MAX_ORDER)
_COUPLING = ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
_DURATION = ("finite and > 0", lambda v: math.isfinite(v) and v > 0)
_BATH_DIM = ("a power of two", _is_power_of_two)
_BATH_KEYS = dict(dim=(int, _BATH_DIM), seed=(int, _NONNEGATIVE), norms=({str: float}, _COUPLING))

_MODE = Opt("mode", str, "analytic", _MODES, help="suppression-order table variant")
# A bounds cell holds each eps point's series terms for all its sectors, up to
# order d + 1: at the cap, QDD (10000, 10000) over eps in [1, 2] peaks at
# 976 MB of RSS in 2.3 s on a shared 2-core host.
_MAX_EPS_POINTS = 1000
_EPS_GRID = (
    Opt("eps_min", float, 1e-4, help="smallest epsilon", domain=_DURATION),
    Opt("eps_max", float, 1.0, help="largest epsilon", domain=_DURATION),
    Opt("eps_points", int, 41, help="log-grid size, 0 for an empty grid",
        domain=(f"0 or in [2, {_MAX_EPS_POINTS}]", lambda n: n == 0 or 2 <= n <= _MAX_EPS_POINTS)),
)
_ETA_AXES = tuple(Opt(k, float, help=f"{k[-1]} relative coupling strength", domain=_COUPLING)
                  for k in _ETA_KEYS)
_KIND = Opt("kind", str, choices=("qdd", "nudd"), flag=False, required=True)
_STATES = (
    Opt("initial_state", str, "random", _INITIAL_STATES, flag=False),
    Opt("bath_state", str, "maximally-mixed", _BATH_STATES, flag=False),
)
_QDD = Opt("qdd", int, nargs=2, metavar=("N1", "N2"),
           help="two-level sequence with inner order N1, outer N2", domain=_ORDER)
_NUDD = Opt("nudd", str, metavar="N1,N2,...",
            help=f"nested sequence orders, innermost first, each {_ORDER[0]}")
_QUBITS = Opt("qubits", int, help="protected qubit count for --nudd", domain=_POSITIVE)

_COMMANDS = {
    "sequence": Command(cmd_sequence, "emit a pulse schedule as CSV", (_QDD, _NUDD, _QUBITS)),
    "bounds qdd": Command(
        cmd_bounds_qdd,
        "two-level channel and distance bounds",
        (
            Opt("preset", str, choices=("fig2", "fig3", "fig4"), help="preset grid",
                preset=True),
            Opt("n1", int, help="inner sequence order", domain=_ORDER),
            Opt("n2", int, help="outer sequence order", domain=_ORDER),
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
            Opt("dmin", int, help="minimum suppression order", domain=_ORDER),
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
            Opt("orders", [int], flag=False, required=True, domain=_ORDER),
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
            replace(_QUBITS, domain=(f"in [1, {MAX_QUBITS}]", lambda m: 1 <= m <= MAX_QUBITS)),
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
                Opt("orders", [[int]], required=True, domain=_ORDER),
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


_CONFIG = Opt("config", str, metavar="PATH", help="JSON config (flags override)")
_OUT = Opt("out", str, metavar="PATH", help="write to PATH instead of stdout")


def _flags(spec: Command) -> list[tuple[Opt, bool]]:
    """The flag options of ``spec`` in help order, ``--config`` and ``--out``
    last, each with whether the parser requires it: a required option of a
    command that reads no config, and a required config."""
    flags = [(opt, opt.required and spec.config is None) for opt in spec.options if opt.flag]
    if spec.config is not None:
        flags.append((_CONFIG, spec.config == "required"))
    return flags + [(_OUT, False)]


def _add_option(p: argparse.ArgumentParser, opt: Opt, required: bool) -> None:
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
        required=required,
        help=f"{opt.help or ''}{note}".strip(),
    )


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser: every command, its help line and options.

    It is the one reporter of the command line: ``main`` builds it only for a
    call that the option table leaves to it (``_parse``), and lets it print
    that call's help or error, or parse it.
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
        p = parent.add_parser(leaf, help=spec.help)
        p.set_defaults(spec=spec)
        for opt, required in _flags(spec):
            _add_option(p, opt, required)
    return parser


def _read(spec: Command, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace the tree's parser of ``spec`` gives ``tokens``, read
    from the command's option table, or None to leave ``tokens`` to the tree.

    The table read takes flags spelled in full, each followed by its values
    (``nargs`` of them, none starting with ``-``) or joined to its one value
    by ``=``, and at most one preset flag.  Each value must convert with the
    option's ``type`` and lie in its ``choices``, and every flag the parser
    requires must be given.  Every flag's dest is None unless given, and the
    last of repeated flags wins, as in the parser.
    """
    table: dict[str, tuple[Opt, str | None]] = {}
    values: dict[str, Any] = {"spec": spec}
    required = []
    for opt, needed in _flags(spec):
        if opt.preset:
            table.update((f"--{name}", (opt, name)) for name in opt.choices)
        else:
            table[_flag(opt.name)] = (opt, None)
        values[opt.name] = None
        if needed:
            required.append(opt.name)
    i = 0
    while i < len(tokens):
        flag, eq, text = tokens[i].partition("=")
        opt, const = table.get(flag, (None, None))
        i += 1
        if opt is None:
            return None
        if const is not None:
            if eq or values[opt.name] is not None:
                return None
            values[opt.name] = const
            continue
        if eq:
            if opt.nargs:
                return None
            texts = [text]
        else:
            n = opt.nargs or 1
            texts, i = tokens[i : i + n], i + n
            if len(texts) < n or any(t.startswith("-") for t in texts):
                return None
        try:
            given = [opt.type(t) for t in texts]
        except (TypeError, ValueError):
            return None
        if opt.choices and any(v not in opt.choices for v in given):
            return None
        values[opt.name] = given if opt.nargs else given[0]
    if any(values[name] is None for name in required):
        return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``: from the option table of the command it names, if the
    table read accepts the rest (``_read``), else by ``build_parser()``.

    The tree takes everything else whole, so it parses or reports it as it
    always has: help, ``--``, an unknown or abbreviated flag, a value that
    starts with ``-`` (argparse's own negative-number rule decides those), a
    missing value, a failed conversion or choice, two presets, and a missing
    required flag.  Nothing is kept across calls.
    """
    for name, spec in _COMMANDS.items():
        words = name.split()
        if argv[: len(words)] == words:
            args = _read(spec, argv[len(words) :])
            if args is not None:
                return args
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
