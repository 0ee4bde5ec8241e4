"""In-memory span tracer over the modules of ``pathcalc``.

While a tracer is installed, every public function of the pathcalc modules,
the hot kernels of ``pathcalc._kernels`` and ``Path.eval`` are replaced, in
every module namespace that binds them, by a wrapper that records one span
per call: its name, start, end and parent span.  ``qv``, ``strategies``,
``integration`` and ``cli`` import names directly, so patching only the
defining module would miss their calls.  Counts (events scanned, grid points,
partition builds, bytes of path files) are taken at the same wrappers.

Spans live in flat arrays until the run ends; a layer's self time is the sum
over its spans of the span's duration minus the durations of its direct
child spans.  A layer is a module, except that the kernels, ``Path.eval`` and
the path-file functions form layers of their own (see ``layer_of``).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

MODULES = ("paths", "simulate", "partitions", "qv", "strategies", "integration", "cli")

# Only these kernels are wrapped.  psi_eval runs once per event inside
# clip_jumps, and the *_py references are not called by the library.
KERNEL_LAYERS = {
    "partition_step": "kernels.partition_step",
    "partition_linear_count": "kernels.partition_linear",
    "partition_linear_fill": "kernels.partition_linear",
    "qv_on_grid": "kernels.qv_on_grid",
    "crossings_greedy": "kernels.crossings",
    "crossings_total_up": "kernels.crossings",
    "crossings_interval_batch": "kernels.crossings",
    "doob_positions": "kernels.doob_positions",
    "bdg_batch": "kernels.bdg",
    "bdg_core": "kernels.bdg",
    "bdg_weights": "kernels.bdg",
    "clip_jumps": "kernels.clip_jumps",
}

SUBLAYERS = {
    "paths.Path.eval": "paths.eval",
    "paths.read_path_csv": "paths.io",
    "paths.write_path_csv": "paths.io",
}


def layer_of(span_name: str) -> str:
    """Layer of a span name such as ``qv.qv_limit`` or ``_kernels.qv_on_grid``."""
    if span_name in SUBLAYERS:
        return SUBLAYERS[span_name]
    module, _, func = span_name.partition(".")
    if module == "_kernels":
        return KERNEL_LAYERS[func]
    return module


def _file_bytes(csv_file) -> int:
    csv_file = os.fspath(csv_file)
    sidecar = os.path.splitext(csv_file)[0] + ".json"
    size = os.path.getsize(csv_file)
    return size + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)


class Tracer:
    """Spans and counts of the calls made while it is installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._built: set = set()
        self._digests: dict = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, span_name: str) -> int:
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        return self._name_ids[span_name]

    def wrap(self, span_name: str, fn, after=None, before=None):
        """``fn`` recording one span per call; ``before``/``after`` take counts."""
        nid = self._name_id(span_name)
        clock, stack = self.clock, self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def begin_op(self):
        """Start a new operation: partition builds are deduplicated per operation."""
        self._built.clear()
        self._digests.clear()

    def path_digest(self, path) -> bytes:
        # Paths are immutable, so one digest per object and operation; the
        # object is kept alive in the cache so its id cannot be reused.
        key = id(path)
        if key not in self._digests:
            h = hashlib.blake2b(digest_size=16)
            h.update(path.times.tobytes())
            h.update(path.values.tobytes())
            self._digests[key] = (path, h.digest())
        return self._digests[key][1]

    # -- summary -----------------------------------------------------------

    def arrays(self):
        """(name id, parent, start, end) of every recorded span, as NumPy arrays."""
        return (np.array(self.name, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        _, parent, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def summary(self) -> dict:
        """Self time per layer, calls per span name and layer, counts, root time."""
        name, parent, start, end = self.arrays()
        own = self.self_times()
        layers: dict[str, float] = {}
        layer_calls: Counter = Counter()
        span_calls: Counter = Counter()
        per_name_self = np.bincount(name, weights=own, minlength=len(self.span_names))
        per_name_calls = np.bincount(name, minlength=len(self.span_names))
        for nid, span_name in enumerate(self.span_names):
            layer = layer_of(span_name)
            layers[layer] = layers.get(layer, 0.0) + float(per_name_self[nid])
            layer_calls[layer] += int(per_name_calls[nid])
            span_calls[span_name] += int(per_name_calls[nid])
        root = parent < 0
        return {"self_s": layers, "layer_calls": dict(layer_calls),
                "span_calls": dict(span_calls), "counts": dict(self.counts),
                "root_s": float(np.sum(end[root] - start[root])),
                "spans": int(len(start))}

    def save(self, file, phase: str):
        """Write the spans as a compressed NumPy archive."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(file, phase=np.array(phase), span_names=np.array(self.span_names),
                            name=name, parent=parent, start=start, end=end)


# ---------------------------------------------------------------------------
# Counts taken at the wrappers
# ---------------------------------------------------------------------------

def _count(metric, amount=lambda args, result: 1):
    def after(tracer, args, result):
        tracer.counts[metric] += amount(args, result)
    return after


def _after_partition(tracer, args, result):
    c = tracer.counts
    c["partitions.points"] += len(result)
    key = (tracer.path_digest(args[0]), args[0].mode, result.generation)
    if key not in tracer._built:
        tracer._built.add(key)
        c["partitions.distinct"] += 1


def _count_rule(tracer, args):
    """Count the calls into the integrand rule passed as first argument."""
    rule = args[0]
    if getattr(rule, "__counted_rule__", False):
        return args

    def counted(*a, **k):
        tracer.counts["integration.rule_calls"] += 1
        return rule(*a, **k)

    counted.__counted_rule__ = True
    return (counted,) + tuple(args[1:])


_events = lambda args, result: len(args[0])  # noqa: E731

AFTER = {
    "_kernels.partition_step": _count("kernels.partition_step.events", _events),
    "_kernels.partition_linear_count": _count("kernels.partition_linear.events", _events),
    "_kernels.partition_linear_fill": _count("kernels.partition_linear.events", _events),
    "_kernels.qv_on_grid": _count("kernels.qv_on_grid.grid_points", _events),
    "partitions.lebesgue_partition_1d": _after_partition,
    "paths.read_path_csv": _count("paths.io.bytes", lambda args, result: _file_bytes(args[0])),
    "paths.write_path_csv": _count("paths.io.bytes", lambda args, result: _file_bytes(args[1])),
}

BEFORE = {
    "integration.ito_integral": _count_rule,
    "integration.approximate_caglad": _count_rule,
}


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _targets(pathcalc) -> dict[int, tuple[object, str]]:
    """id(function) -> (function, span name) for every function to wrap."""
    targets = {}
    for modname in MODULES:
        mod = getattr(pathcalc, modname)
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                targets[id(obj)] = (obj, f"{modname}.{attr}")
    kernels = pathcalc._kernels
    for attr in KERNEL_LAYERS:
        obj = getattr(kernels, attr)
        targets[id(obj)] = (obj, f"_kernels.{attr}")
    return targets


@contextmanager
def installed(tracer: Tracer, pathcalc):
    """Wrap the pathcalc functions for the duration of the ``with`` block."""
    targets = _targets(pathcalc)
    wrappers = {key: tracer.wrap(span_name, fn, AFTER.get(span_name), BEFORE.get(span_name))
                for key, (fn, span_name) in targets.items()}
    namespaces = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "pathcalc" or name.startswith("pathcalc."))]
    patches = []
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            entry = targets.get(id(obj))
            if entry is not None and entry[0] is obj:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    path_cls = pathcalc.paths.Path
    original_eval = path_cls.__dict__["eval"]
    patches.append((path_cls, "eval", original_eval))
    path_cls.eval = tracer.wrap("paths.Path.eval", original_eval)
    try:
        yield tracer
    finally:
        for owner, attr, obj in reversed(patches):
            setattr(owner, attr, obj)
