"""Outside-in host-time spans around the public functions of each layer.

The simulator has no host-time instrumentation of its own, so the
traced run wraps the public boundary of every ``repro`` layer from here:
each wrapper records one span ``(target, start, end, parent)`` in
memory.  A layer's self time is its spans' duration minus the time
their child spans cover, so time spent in Darshan folds under
``TraceBus.emit`` is charged to ``darshan``, not to ``trace``.

Wrappers replace every binding of a function in the loaded ``repro``
modules (functions imported by name into other modules included) and
are removed on exit; :func:`leaked_patches` proves none is left.  The
same patching injects a fixed delay for the layer-attribution self-test.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass

#: layer -> ((module, attribute path, group), ...).  Layer names follow
#: the virtual-time breakdown; a group splits a layer's operations.
LAYERS = {
    "workloads": (
        ("repro.workloads.runner", "run_openpmd_scaled", "run"),
        ("repro.workloads.runner", "run_original_scaled", "run"),
        ("repro.experiments.points", "tuning_report", "probe"),
        ("repro.experiments.serving", "serving_report", "run"),
    ),
    "openpmd": (
        ("repro.openpmd.series", "Series.__init__", "open"),
        ("repro.openpmd.series", "Series.close", "close"),
        ("repro.openpmd.series", "Iteration.close", "iteration_close"),
    ),
    "adios2.engine": (
        ("repro.adios2.engine", "BPEngineBase.end_step", "end_step"),
        ("repro.adios2.engine", "BPEngineBase.close", "close"),
    ),
    "adios2.aggregation": (
        ("repro.adios2.aggregation", "plan_aggregation", "plan"),
        ("repro.adios2.aggregation", "gather_cost_seconds", "gather"),
        ("repro.adios2.aggregation", "two_level_gather_cost", "gather"),
    ),
    "fs.posix": (
        ("repro.fs.posix", "PosixIO.open_group", "open_close"),
        ("repro.fs.posix", "PosixIO.close_group", "open_close"),
        ("repro.fs.posix", "PosixIO.write", "write"),
        ("repro.fs.posix", "PosixIO.write_group", "write"),
        ("repro.fs.posix", "PosixIO.write_aggregate", "write"),
        ("repro.fs.posix", "PosixIO.read_group", "read"),
        ("repro.fs.posix", "PosixIO.read_scheduled", "read"),
        ("repro.fs.posix", "PosixIO.read_synthetic", "read"),
        ("repro.fs.posix", "PosixIO.meta_group", "meta"),
    ),
    "fs.vfs": (
        ("repro.fs.vfs", "VirtualFS.create_many", "create_many"),
        ("repro.fs.vfs", "VirtualFS.subtree_file_sizes",
         "subtree_file_sizes"),
    ),
    "fs.perfmodel": (
        ("repro.fs.perfmodel", "StoragePerfModel.write_op_cost", "op_cost"),
        ("repro.fs.perfmodel", "StoragePerfModel.read_op_cost", "op_cost"),
        ("repro.fs.perfmodel", "StoragePerfModel.aggregate_write_rate",
         "aggregate"),
        ("repro.fs.perfmodel", "StoragePerfModel.aggregate_stream_seconds",
         "aggregate"),
        ("repro.fs.perfmodel", "StoragePerfModel.aggregate_phase_wall",
         "aggregate"),
    ),
    "trace": (
        ("repro.trace.bus", "TraceBus.emit", "emit"),
        ("repro.trace.bus", "TraceBus.emit_batch", "emit"),
    ),
    "darshan": (
        ("repro.darshan.runtime", "DarshanMonitor.on_event", "fold"),
        ("repro.darshan.runtime", "DarshanMonitor.on_batch", "fold"),
        ("repro.darshan.runtime", "DarshanMonitor.finalize", "finalize"),
    ),
    "mpi": tuple(
        ("repro.mpi.comm", f"VirtualComm.{name}", "collective")
        for name in ("barrier", "bcast", "gather", "allgather",
                     "allreduce_sum", "allreduce_max", "exscan_sum",
                     "scan_sum", "alltoall_volume")),
    "serving": (
        ("repro.serving.fleet", "ReaderFleet.run", "fleet_run"),
        ("repro.serving.cache", "ReadCache.insert", "cache_insert"),
    ),
    "experiments.sweep": (
        ("repro.experiments.sweep", "sweep_batch", "sweep_batch"),
        ("repro.experiments.sweep", "point_key", "point_key"),
    ),
    "tuning": (
        ("repro.tuning.search", "tune", "tune"),
    ),
}

#: (layer, group) pairs, in table order
GROUPS = tuple(dict.fromkeys((layer, group) for layer, targets
                             in LAYERS.items() for _, _, group in targets))


def _resolve(module: str, path: str):
    """(owner, attribute name, original object) of one target."""
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def _bindings(owner, name: str, original) -> list[tuple[object, str]]:
    """Every place the target is bound: the owner, plus, for a module
    function, each loaded ``repro`` module that imported it by name."""
    if isinstance(owner, type):
        return [(owner, name)]
    return [(mod, attr) for mod_name, mod in list(sys.modules.items())
            if mod_name == "repro" or mod_name.startswith("repro.")
            for attr, value in list(vars(mod).items()) if value is original]


class Patcher:
    """Replaces target bindings and restores every one of them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module: str, path: str, make_wrapper) -> None:
        owner, name, original = _resolve(module, path)
        wrapper = make_wrapper(original)
        wrapper.__perfbench_wrapper__ = True
        for where, attr in _bindings(owner, name, original):
            self._saved.append((where, attr, original))
            setattr(where, attr, wrapper)

    def restore(self) -> None:
        for where, attr, original in reversed(self._saved):
            setattr(where, attr, original)
        self._saved.clear()


def leaked_patches() -> list[str]:
    """Wrapper objects still bound anywhere in the loaded ``repro``."""
    leaks = []
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if getattr(value, "__perfbench_wrapper__", False):
                leaks.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                leaks += [f"{mod_name}.{attr}.{a}"
                          for a, v in vars(value).items()
                          if getattr(v, "__perfbench_wrapper__", False)]
    return leaks


class SpanRecorder:
    """In-memory spans of one traced run.

    ``spans[i] = (target index, start, end, parent index or -1)``;
    ``events`` counts trace events actually emitted.
    """

    def __init__(self):
        self.targets: list[tuple[str, str, str]] = []  # layer, group, path
        self.spans: list = []
        self.events = 0
        self._stack: list[int] = []

    def wrapper_for(self, layer: str, group: str, path: str):
        tid = len(self.targets)
        self.targets.append((layer, group, path))
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_events = layer == "trace"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (tid, t0, t1, parent)
                if counts_events and result is not None:
                    self.events += len(result) if path.endswith(
                        "emit_batch") else 1
                return result
            return wrapper
        return make


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every layer target for the duration of the block."""
    patcher = Patcher()
    try:
        for layer, targets in LAYERS.items():
            for module, path, group in targets:
                patcher.patch(module, path,
                              recorder.wrapper_for(layer, group, path))
        yield recorder
    finally:
        patcher.restore()


def _busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@contextlib.contextmanager
def delayed(module: str, path: str, seconds: float):
    """Add a fixed busy-wait to every call of one target."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _busy_wait(seconds)
            return fn(*args, **kwargs)
        return wrapper
    patcher = Patcher()
    try:
        patcher.patch(module, path, make)
        yield
    finally:
        patcher.restore()


@dataclass
class LayerTotals:
    calls: int = 0
    host_s: float = 0.0
    self_s: float = 0.0


def summarize(rec: SpanRecorder) -> dict:
    """Per-layer and per-group totals of one traced run.

    ``host_s`` (layers only) counts a layer's outermost spans, so a layer that
    calls itself is not counted twice; ``self_s`` subtracts every child.
    Also returns the per-target span durations (seconds) for the
    percentile metrics.
    """
    child_s = [0.0] * len(rec.spans)
    for tid, t0, t1, parent in rec.spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    layers = {layer: LayerTotals() for layer in LAYERS}
    groups = {key: LayerTotals() for key in GROUPS}
    durations: dict[str, list[float]] = {}
    layer_of = [layer for layer, _, _ in rec.targets]
    for i, (tid, t0, t1, parent) in enumerate(rec.spans):
        layer, group, path = rec.targets[tid]
        dur = t1 - t0
        self_s = dur - child_s[i]
        for tot in (layers[layer], groups[(layer, group)]):
            tot.calls += 1
            tot.self_s += self_s
        # outermost span of its layer: no ancestor in the same layer
        p = parent
        while p >= 0 and layer_of[rec.spans[p][0]] != layer:
            p = rec.spans[p][3]
        if p < 0:
            layers[layer].host_s += dur
        durations.setdefault(path, []).append(dur)
    return {"layers": layers, "groups": groups, "durations": durations,
            "events": rec.events}


def percentile(values, q: float) -> float:
    """``q``-th percentile (0-100) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(([min(values)] + cuts + [max(values)])[round(q)])


def spans_json(rec: SpanRecorder) -> dict:
    """Columnar dump of one traced run's spans (times relative to the
    first span's start)."""
    origin = rec.spans[0][1] if rec.spans else 0.0
    return {
        "targets": [list(t) for t in rec.targets],
        "target": [s[0] for s in rec.spans],
        "start_us": [round((s[1] - origin) * 1e6, 1) for s in rec.spans],
        "end_us": [round((s[2] - origin) * 1e6, 1) for s in rec.spans],
        "parent": [s[3] for s in rec.spans],
    }
