"""Span recorder for traced benchmark runs.

The recorder wraps the public functions of nlslab's modules from outside
the package: ``install`` replaces each listed function in every nlslab
module namespace that binds it (``cli`` and ``experiments`` import many of
them by name, sometimes under another name), and each listed method on its
class.  Every call becomes a span (name, start, end, parent, command); the
spans of one ``cli_dispatch`` call share its command id.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time


def _ground_nodes(args, kwargs, result):
    return {"ground.solve_ground.nodes": result.grid.n}


def _step_nodes(args, kwargs, result):
    return {"evolve.step_values.nodes": len(args[1])}


def _evolve_counts(args, kwargs, result):
    series = result[0]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    halvings = round(math.log2(cfg.dt / series.meta["dt_final"]))
    return {"evolve.samples": int(series.t.size), "evolve.dt_halvings": halvings}


def _csv_written(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"grid.write_field_csv.mb": os.path.getsize(path) / 1e6}


def _csv_read(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"grid.read_field_csv.mb": os.path.getsize(path) / 1e6}


# (module, function or Class.method, counter of the call's work)
LAYERS = (
    ("cli", "cli_dispatch", None),
    ("config", "load_config", None),
    ("ground", "solve_ground", _ground_nodes),
    ("linearized", "compute_spectrum", None),
    ("linearized", "coercivity_min", None),
    ("linearized", "resolvent_solve", None),
    ("approx", "build_Vk", None),
    ("evolve", "evolve", _evolve_counts),
    ("evolve", "Evolver.step_values", _step_nodes),
    ("evolve", "diagnostics", None),
    ("experiments", "run_special", None),
    ("experiments", "threshold_sweep", None),
    ("experiments", "match_mass_energy", None),
    ("modulation", "track", None),
    ("modulation", "fit_parameters", None),
    ("grid", "write_field_csv", _csv_written),
    ("grid", "read_field_csv", _csv_read),
    ("manifest", "RunManifest.finalize", None),
)

COUNTS = ("ground.solve_ground.nodes", "evolve.step_values.nodes",
          "evolve.samples", "evolve.dt_halvings",
          "grid.write_field_csv.mb", "grid.read_field_csv.mb")


def layer_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


LAYER_NAMES = tuple(layer_name(m, q) for m, q, _ in LAYERS)


class SpanRecorder:
    """In-memory spans: ``[name, parent, command, start, end, counts]``.

    ``parent`` is the index of the enclosing span (None for a root span);
    each root span opens a new command id.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._open: list = []
        self._commands = 0

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if parent is None:
                command = self._commands
                self._commands += 1
            else:
                command = self.spans[parent][2]
            span = [name, parent, command, self.clock(), None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = self.clock()
                self._open.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.perfbench_layer = name
        return traced


def install(recorder: SpanRecorder) -> list:
    """Wrap every layer in every nlslab module that binds it.

    Returns the undo list that ``uninstall`` takes.
    """
    owners = {m: importlib.import_module(f"nlslab.{m}") for m, _, _ in LAYERS}
    modules = [mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "nlslab"
                                       or name.startswith("nlslab."))]
    undo = []
    for module, qualname, counter in LAYERS:
        name = layer_name(module, qualname)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owners[module], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, recorder.wrap(name, original, counter))
            undo.append((cls, attr, original))
            continue
        original = getattr(owners[module], qualname)
        wrapper = recorder.wrap(name, original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(spans) -> dict:
    """Per-layer ``calls``, ``s`` (inclusive) and ``self_s``, plus counts.

    A span's self time is its duration minus the time its child spans
    cover; calls of one span are sequential, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for key in COUNTS:
        out[key] = 0
    for i, (name, _, _, start, end, counts) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            out[key] += value
    return out


def traced_wall(spans) -> float:
    """From the first root span's start to the last root span's end."""
    roots = [s for s in spans if s[1] is None]
    return roots[-1][4] - roots[0][3] if roots else 0.0
