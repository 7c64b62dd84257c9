"""Span recorder and layer wrappers for the traced benchmark run.

Each layer is a module of ``waterline``; its boundary is the set of public
functions listed in ``TIMED``.  ``install`` wraps every name under which a
``waterline`` module (or the package itself) refers to one of those
functions, so calls are caught where the calling module looks them up, for
example ``waterline.cli.solve_box`` or ``waterline.box.solve_p1_lower``.
The objective families' ``demand``, ``rate`` and ``eval`` methods are
counted, not timed.  A missing target is an error, never a zero.

Spans hold a name, start, end (process CPU time, the clock the timed run
uses), parent span and op id.  They stay in memory
and are written out once, at the end of the run.  The untraced run installs
nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

LAYERS = ("scenario", "core", "box", "nested", "fair", "oracle", "io", "cli")

# layer -> (defining module, boundary functions)
TIMED = {
    "scenario": ("waterline.scenario", ("channel_gains", "build_instance", "generate")),
    "core": ("waterline.core", ("solve_p1_lower", "solve_water_level")),
    "box": ("waterline.box", ("solve_box",)),
    "nested": ("waterline.nested", ("solve_ascending",)),
    "fair": ("waterline.fair", ("solve_fair",)),
    "oracle": ("waterline.oracle", ("check_conditions",)),
    "io": ("waterline.io", ("load_instance", "save_instance", "instance_from_dict",
                            "instance_to_dict", "result_to_dict", "save_result",
                            "load_result")),
}
OBJECTIVE_METHODS = ("demand", "rate", "eval")
# Span names whose busy time is reported on its own.
BUSY_NAMES = ("box.order", "box.set_a", "box.set_b", "box.bisect",
              "fair.maxmin", "fair.maxmin_boxed", "fair.cluster",
              "fair.cluster_maxmin", "scenario.channel_gains")

# Counts that do not depend on the hardware; they must repeat exactly
# between two traced runs of one seed.
COUNT_KEYS = (
    "box.iterations", "box.not_optimal", "fair.iterations", "nested.splits",
    "nested.not_optimal", "oracle.checks_failed", "io.bytes_read",
    "io.bytes_written",
) + tuple(f"objectives.{m}.calls" for m in OBJECTIVE_METHODS)


class MissingTarget(RuntimeError):
    """A layer boundary the tracer must wrap does not exist."""


class Recorder:
    """In-memory spans plus the counters the wrappers update."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name id, start, end, parent, op]
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.bindings: list[str] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.process_time(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        self._stack.pop()

    def named_spans(self) -> list[tuple]:
        return [(self.names[nid], start, end, parent)
                for nid, start, end, parent, _ in self.spans]

    def dump(self, path: str, header: dict) -> None:
        doc = dict(header, bindings=self.bindings, names=self.names,
                   fields=["name", "start", "end", "parent", "op"],
                   spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def span_times(spans):
    """Calls, busy time and self time per layer and per span name.

    ``spans`` is a sequence of ``(name, start, end, parent_index)`` in the
    order they were opened, so a parent precedes its children.  A span's
    self time is its duration minus the time covered by its direct children.
    Busy time counts only spans with no ancestor of the same layer (or of
    the same name, for the per-name figure), so nesting is not counted twice.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    ancestors: list[frozenset] = [frozenset()] * n
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if parent >= 0:
            pname = spans[parent][0]
            ancestors[i] = ancestors[parent] | {pname, pname.split(".", 1)[0]}
        chain = ancestors[i]
        duration = end - start
        calls[layer] = calls.get(layer, 0) + 1
        calls[name] = calls.get(name, 0) + 1
        self_time[layer] = self_time.get(layer, 0.0) + duration - child_time[i]
        if layer not in chain:
            busy[layer] = busy.get(layer, 0.0) + duration
        if name not in chain:
            busy[name] = busy.get(name, 0.0) + duration
    return calls, busy, self_time


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _timed(rec: Recorder, fn, key, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        idx = rec.open(key(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec.counts, args, kwargs, result)
        return result
    return wrapper


def _counted(rec: Recorder, fn, key: str):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.on:
            counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _timing_digits(doc) -> int:
    """Length of the result document's wall time, the one field that varies
    from run to run; byte counts leave it out so they repeat exactly."""
    if isinstance(doc, dict) and "wall_time" in doc:
        return len(json.dumps(doc["wall_time"]))
    return 0


def _hooks(layer: str, fname: str, fn):
    """Span-name function and result hook for one boundary function."""
    if layer == "box":
        default_cfg = inspect.signature(fn).parameters["cfg"].default

        def key(a, k):
            return "box." + _arg(a, k, 1, "cfg", default_cfg).box_strategy

        def after(c, a, k, r):
            c["box.iterations"] += r.iterations
            c["box.not_optimal"] += r.status != "optimal"
        return key, after
    if layer == "fair":
        def key(a, k):
            problem = _arg(a, k, 0, "problem")
            mode = problem.mode
            if mode == "maxmin" and any(
                    math.isfinite(hi) for row in problem.upper_bounds for hi in row):
                mode = "maxmin_boxed"
            return "fair." + mode

        def after(c, a, k, r):
            c["fair.iterations"] += r.iterations
        return key, after
    name = f"{layer}.{fname}"
    after = None
    if layer == "nested":
        def after(c, a, k, r):
            c["nested.splits"] += r.splits
            c["nested.not_optimal"] += r.status != "optimal"
    elif layer == "oracle":
        def after(c, a, k, r):
            c["oracle.checks_failed"] += not r.passed
    elif fname == "load_instance":
        def after(c, a, k, r):
            c["io.bytes_read"] += os.path.getsize(_arg(a, k, 0, "path"))
    elif fname == "load_result":
        def after(c, a, k, r):
            c["io.bytes_read"] += os.path.getsize(_arg(a, k, 0, "path")) - _timing_digits(r)
    elif fname == "save_instance":
        def after(c, a, k, r):
            c["io.bytes_written"] += os.path.getsize(_arg(a, k, 1, "path"))
    elif fname == "save_result":
        def after(c, a, k, r):
            c["io.bytes_written"] += (os.path.getsize(_arg(a, k, 1, "path"))
                                      - _timing_digits(_arg(a, k, 0, "doc")))
    return (lambda a, k: name), after


class Installation:
    """The wrappers in place; ``restore`` puts every original back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def install(rec: Recorder) -> Installation:
    """Wrap every layer boundary for ``rec``; raise MissingTarget on a gap,
    with nothing left wrapped."""
    inst = Installation()
    try:
        _install(rec, inst)
    except BaseException:
        inst.restore()
        raise
    return inst


def _install(rec: Recorder, inst: Installation) -> None:
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "waterline" or name.startswith("waterline."))]
    for layer, (module_name, fnames) in TIMED.items():
        module = importlib.import_module(module_name)
        for fname in fnames:
            fn = getattr(module, fname, None)
            if not callable(fn):
                raise MissingTarget(f"{module_name}.{fname} is missing")
            key, after = _hooks(layer, fname, fn)
            wrapper = _timed(rec, fn, key, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        inst.set(mod, attr, wrapper)
                        rec.bindings.append(f"{mod.__name__}.{attr}")

    cli = importlib.import_module("waterline.cli")
    group = getattr(cli, "main", None)
    if group is None or not callable(getattr(group, "main", None)):
        raise MissingTarget("waterline.cli.main is not a command group")
    inst.set(group, "main", _timed(
        rec, group.main, lambda a, k: "cli." + _arg(a, k, 0, "args")[0]))
    rec.bindings.append("waterline.cli.main.main")

    objectives = importlib.import_module("waterline.objectives")
    families = getattr(objectives, "FAMILIES", None)
    if not families:
        raise MissingTarget("waterline.objectives.FAMILIES is missing")
    targets = []
    for cls in families.values():
        wanted = OBJECTIVE_METHODS if isinstance(cls, type) and issubclass(
            cls, objectives.Objective) else ("eval",)
        for meth in wanted:
            fn = getattr(cls, meth, None)
            if not callable(fn):
                raise MissingTarget(f"{cls.__name__}.{meth} is missing")
            targets.append((cls, meth, fn))
    for cls, meth, fn in targets:
        inst.set(cls, meth, _counted(rec, fn, f"objectives.{meth}.calls"))
        rec.bindings.append(f"waterline.objectives.{cls.__name__}.{meth}")


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metric values from the recorder's spans and counters."""
    calls, busy, self_time = span_times(rec.named_spans())
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    for name in BUSY_NAMES:
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    out.update(rec.counts)
    return out
