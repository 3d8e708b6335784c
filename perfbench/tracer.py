"""Span recorder for the traced benchmark run.

The recorder replaces the public functions and methods of the
``intervalstream`` modules, from outside the package, with wrappers that
record one span per call: name, parent span, start and end.  A module-level
function is replaced in every package namespace that holds it, so that
callers which imported it by name (``cli.parse_stream``,
``estimator.relevant_segments``, ``estimator.beta_hat``) see the wrapper; a
method is replaced on its class.  Spans stay in memory until the run ends.

Helpers called once per pair of intervals or per tree node
(``core.intersects``, ``Segment.contains``, ``SegTree.children`` and the
like) are not wrapped: a span costs more than their body, so their time is
counted in the self time of the traced function that calls them.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from types import BuiltinFunctionType, FunctionType, ModuleType
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "intervalstream"

# (module, qualified name) of every traced boundary, grouped by layer.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"), ("cli", "build_parser"), ("cli", "cmd_gen"),
    ("cli", "cmd_select"), ("cli", "cmd_estimate"), ("cli", "cmd_exact"),
    ("cli", "cmd_trials"),
    ("core", "parse_stream"), ("core", "format_stream"),
    ("harness", "run_single"), ("harness", "run_trials"), ("harness", "trial_success"),
    ("harness", "TrialReport.to_json"),
    ("selector", "PartitionSelector.process"), ("selector", "PartitionSelector.solution"),
    ("selector_samelen", "ShiftedGridSelector.process"),
    ("selector_samelen", "ShiftedGridSelector.solution"),
    ("selector_samelen", "ShiftedGridSelector.best_shift"),
    ("oracle", "alpha"), ("oracle", "beta"), ("oracle", "beta_hat"), ("oracle", "gamma"),
    ("oracle", "gamma_all"), ("oracle", "active_segments"),
    ("oracle", "relevant_segments"), ("oracle", "relevant_sum"),
    ("oracle", "SegTree.segments"), ("oracle", "SegTree.containing_path"),
    ("oracle", "SegTree.minimal_container"),
    ("hashing", "HashFamily.create"), ("hashing", "make_counter"),
    ("hashing", "PolyBank.__init__"), ("hashing", "PolyBank.eval"),
    ("hashing", "PolyBank.keys"),
    ("hashing", "ExactDistinct.add"), ("hashing", "ExactDistinct.estimate"),
    ("hashing", "KMVDistinct.add"), ("hashing", "KMVDistinct.estimate"),
    ("estimator", "GeneralAlphaEstimator.__init__"), ("estimator", "GeneralAlphaEstimator.process"),
    ("estimator", "GeneralAlphaEstimator.flush"), ("estimator", "GeneralAlphaEstimator.estimate"),
    ("estimator", "estimate_oracle_mode"),
    ("estimator_samelen", "SamelenAlphaEstimator.__init__"),
    ("estimator_samelen", "SamelenAlphaEstimator.process"),
    ("estimator_samelen", "SamelenAlphaEstimator.estimate"),
    ("estimator_samelen", "samelen_estimate_oracle"),
)

_SHARED = (type, ModuleType, FunctionType, BuiltinFunctionType)

LAYERS = ("cli", "core", "harness", "selector", "selector_samelen", "oracle",
          "hashing", "estimator", "estimator_samelen")


def _count_columns(counters, result, args, kwargs):
    counters["hashing.PolyBank.keys.columns"] += len(args[1])


def _count_object_path(counters, result, args, kwargs):
    bank, xs = args[0], args[1]
    if not bank.fast:
        counters["hashing.object_path_rows"] += bank.rows * len(xs)


def _count_distinct(counters, result, args, kwargs):
    counters["hashing.distinct.add"] += 1
    counters["hashing.distinct.fresh"] += int(result)


def _track_windows(counters, result, args, kwargs):
    peak = args[0].peak_windows
    if peak > counters["selector.peak_windows"]:
        counters["selector.peak_windows"] = peak


# Counters taken at the same boundaries as the spans.
HOOKS: Dict[str, Callable] = {
    "hashing.PolyBank.keys": _count_columns,
    "hashing.PolyBank.eval": _count_object_path,
    "hashing.ExactDistinct.add": _count_distinct,
    "hashing.KMVDistinct.add": _count_distinct,
    "selector.PartitionSelector.process": _track_windows,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _patch(module_name: str, qualname: str, make_wrapper: Callable) -> None:
    """Replace one function or method with ``make_wrapper(fn)``."""
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, attr, make_wrapper(raw))
        return
    original = getattr(module, qualname)
    wrapper = make_wrapper(original)
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class SpanRecorder:
    """Records spans ``(name, parent index, start, end)`` in call order."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, perf_counter())
                stack.pop()
            if hook is not None:
                hook(counters, result, args, kwargs)
            return result

        return traced

    def install(self) -> "SpanRecorder":
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname}"
            _patch(module_name, qualname,
                   lambda fn, name=name: self.wrap(name, fn, HOOKS.get(name)))
        return self

    def summary(self) -> Dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by its child spans); per (parent, child)
        name pair: calls; per layer: self seconds; and the counters."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_name: Dict[str, List[float]] = {}
        edges: Dict[str, int] = defaultdict(int)
        layers: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for index, (name, parent, start, end) in enumerate(self.spans):
            self_s = end - start - child_time[index]
            entry = per_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
            layers[name.split(".", 1)[0]] += self_s
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            edges[f"{parent_name}>{name}"] += 1
        return {"spans": per_name, "edges": dict(edges), "layers": layers,
                "counters": dict(self.counters)}

    def dump(self, path: str, invocation: str) -> None:
        """Write every span of this invocation as one JSON object."""
        with open(path, "w") as fh:
            json.dump({"invocation": invocation,
                       "fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, fh)


def retained_bytes(root) -> int:
    """Bytes of every object reachable from ``root``, each counted once:
    ``sys.getsizeof`` per object (an ndarray that owns its buffer includes
    it), following ``gc.get_referents``, an array's base and the elements
    of object arrays.  Classes, modules and functions are shared code, not
    state, and are skipped."""
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
            if obj.dtype == object:
                stack.extend(obj.flat)
        else:
            stack.extend(gc.get_referents(obj))
    return total


class StateProbe:
    """Keeps each streaming estimator a command creates, so that the state it
    retains after its stream can be measured once the timed call returned."""

    CLASSES = (("estimator", "GeneralAlphaEstimator", "estimator.state_mb"),
               ("estimator_samelen", "SamelenAlphaEstimator", "estimator_samelen.state_mb"))

    def __init__(self):
        self._kept: List[Tuple[str, object]] = []

    def install(self) -> "StateProbe":
        for module_name, cls_name, metric in self.CLASSES:
            _patch(module_name, f"{cls_name}.__init__",
                   lambda fn, metric=metric: self._keep(fn, metric))
        return self

    def _keep(self, fn: Callable, metric: str) -> Callable:
        @functools.wraps(fn)
        def keeping(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            self._kept.append((metric, obj))

        return keeping

    def state_mb(self) -> Dict[str, float]:
        """Largest retained size per estimator class, in MiB."""
        out: Dict[str, float] = {}
        for metric, obj in self._kept:
            out[metric] = max(out.get(metric, 0.0), retained_bytes(obj) / 2 ** 20)
        return out
