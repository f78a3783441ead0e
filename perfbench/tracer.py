"""Per-layer spans for the traced benchmark run, recorded from outside ddbound.

The tracer replaces public functions with timing wrappers *in the namespace
that calls them*.  A name bound by ``from .x import y`` is a separate binding
in the importing module, so ``simulator.evolve`` is patched in
``ddbound.simulator`` (where ``run_experiment`` looks it up) and
``exp_series_tail`` in both ``qdd_bounds`` and ``nudd_bounds``; patching only
the defining module would miss those calls.

Each span records its layer, duration and self time (duration minus the
time covered by its child spans).  Spans stay in memory and are written as
JSONL once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


def _evolve_attrs(args, kwargs, result) -> dict:
    """Events and dimension of one ``evolve`` call, and its computed flop.

    The flop figure models the dense propagation: per event one segment
    product ``(V e^{-iwt}) V^dag`` and one update ``S @ U``, plus one pulse
    product ``P @ U``; each complex D x D product is 8 D^3 real flop.  It is
    a fixed function of (events, D), so it counts work, not the algorithm.
    """
    schedule = args[0] if args else kwargs.get("schedule")
    events = len(getattr(schedule, "events", ()))
    dim = int(getattr(result, "shape", (0,))[0])
    return {"events": events, "dim": dim, "flop": 8.0 * dim**3 * (3 * events + 2)}


def _schedule_attrs(args, kwargs, result) -> dict:
    return {"events": len(getattr(result, "events", ()))}


def _certificate_attrs(args, kwargs, result) -> dict:
    n_max = int(getattr(result, "n_max", 0))
    return {
        "backend": str(getattr(result, "backend", "")),
        "words": sum(4**k for k in range(1, n_max + 1)),
    }


# (module, attribute, layer, annotate)
PATCHES = (
    ("ddbound.cli", "sweep_row", "qdd_bounds", None),
    ("ddbound.cli", "nudd_sweep_row", "nudd_bounds", None),
    ("ddbound.cli", "verify_orders", "dyson", _certificate_attrs),
    ("ddbound.cli", "run_experiment", "simulator.run_experiment", None),
    ("ddbound.cli", "qdd_schedule", "sequences", _schedule_attrs),
    ("ddbound.cli", "nudd_schedule", "sequences", _schedule_attrs),
    ("ddbound.simulator", "nudd_schedule", "sequences", _schedule_attrs),
    ("ddbound.simulator", "build_model", "simulator.build_model", None),
    ("ddbound.simulator", "evolve", "simulator.evolve", _evolve_attrs),
    ("ddbound.simulator", "extract_channel_ops", "simulator.extract", None),
    ("ddbound.simulator", "unitarity_residuals", "simulator.residuals", None),
    ("ddbound.simulator", "trace_distance", "simulator.trace_distance", None),
    ("ddbound.simulator", "distance_bound", "qdd_bounds", None),
    ("ddbound.simulator", "nudd_distance_bound", "nudd_bounds", None),
    ("ddbound.qdd_bounds", "exp_series_tail", "series", None),
    ("ddbound.nudd_bounds", "exp_series_tail", "series", None),
)


class Tracer:
    """Span recorder.  One instance per traced run.

    Spans opened on a thread with no open span (the CLI's sweep worker
    threads) are children of the op's root span, so the root's self time
    excludes them.  With one worker thread that is exact; with several,
    overlapping children would make the root's self time an underestimate.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, fn, args=(), kwargs=None, annotate=None):
        """Run ``fn(*args, **kwargs)`` inside a span."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        frame = [next(self._ids), 0.0]
        is_root = parent is None
        if is_root:
            self._root = frame
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if parent is not None:
                with self._lock:
                    parent[1] += dur
            if is_root:
                self._root = None
            span = {
                "id": frame[0],
                "parent": None if parent is None else parent[0],
                "op": self.op,
                "layer": layer,
                "name": name,
                "start": start,
                "dur": dur,
                "self": dur - frame[1],
            }
            self.spans.append(span)
        if annotate is not None:
            span.update(annotate(args, kwargs, result))
        return result

    def wrap(self, layer: str, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, annotate)

        return traced

    @contextmanager
    def patched(self):
        """Install every wrapper in ``PATCHES``; names a module lacks are skipped."""
        saved = []
        self.missing = []
        try:
            for modname, attr, layer, annotate in PATCHES:
                module = importlib.import_module(modname)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, f"{modname}.{attr}", original, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-op layer figures from the spans of ``ops`` traced ops."""
    by_layer: dict[str, list[dict]] = {}
    for s in spans:
        by_layer.setdefault(s["layer"], []).append(s)

    def calls(layer):
        return len(by_layer.get(layer, ())) / ops

    def self_ms(layer):
        return 1e3 * sum(s["self"] for s in by_layer.get(layer, ())) / ops

    def dur_ms(layer):
        return 1e3 * sum(s["dur"] for s in by_layer.get(layer, ())) / ops

    def total(layer, key):
        return sum(s.get(key, 0) for s in by_layer.get(layer, ()))

    def us_per_word(backend):
        sel = [s for s in by_layer.get("dyson", ()) if s.get("backend") == backend]
        words = sum(s["words"] for s in sel)
        return 1e6 * sum(s["self"] for s in sel) / words if words else 0.0

    evolve_s = sum(s["dur"] for s in by_layer.get("simulator.evolve", ()))
    flop = total("simulator.evolve", "flop")
    out = {}
    for layer in ("series", "qdd_bounds", "nudd_bounds", "dyson"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_ms"] = self_ms(layer)
    out["dyson.words"] = total("dyson", "words") / ops
    out["dyson.rational.us_per_word"] = us_per_word("rational")
    out["dyson.mp.us_per_word"] = us_per_word("mp")
    out["simulator.evolve_ms"] = dur_ms("simulator.evolve")
    out["simulator.evolve_events"] = total("simulator.evolve", "events") / ops
    out["simulator.evolve_gflop"] = flop / 1e9 / ops
    out["simulator.evolve_gflops"] = flop / 1e9 / evolve_s if evolve_s else 0.0
    out["simulator.build_model_ms"] = dur_ms("simulator.build_model")
    out["simulator.run_experiment_self_ms"] = self_ms("simulator.run_experiment")
    out["simulator.extract_ms"] = dur_ms("simulator.extract")
    out["simulator.residuals_ms"] = dur_ms("simulator.residuals")
    out["simulator.trace_distance_ms"] = dur_ms("simulator.trace_distance")
    out["sequences.calls"] = calls("sequences")
    out["sequences.self_ms"] = self_ms("sequences")
    out["sequences.events"] = total("sequences", "events") / ops
    out["cli.self_ms"] = self_ms("cli")
    out["cli.emit_ms"] = dur_ms("cli.emit")
    return out
