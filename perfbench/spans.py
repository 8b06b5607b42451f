"""Span recorder for the traced benchmark run.

The tracer wraps gatewatch's public functions from outside the package: each
function is replaced, for the length of a session, at every place a caller
looks it up (`gatewatch.cc4.detect_surges` as well as
`gatewatch.detect.detect_surges`), so calls between modules are timed too.
A span is (name, start, end, parent, iteration); spans stay in memory and are
written out once, at exit. A span's self time is its duration minus the
durations of its direct children, which nest inside it and never overlap,
since everything runs on one thread.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import gatewatch
from gatewatch import (cc4, cli, detect, evaluate, forecast, ingest, lstm,
                       series, simulate)

MODULES = {
    "cc4": cc4, "cli": cli, "detect": detect, "evaluate": evaluate,
    "forecast": forecast, "ingest": ingest, "lstm": lstm, "series": series,
    "simulate": simulate,
}
LAYERS = tuple(sorted(MODULES))

# Public functions whose calls are timed, by the module (layer) defining them.
# Per-row helpers such as ingest.parse_timestamp stay unwrapped: their wrapper
# would cost more than they do.
WRAPPED = {
    "cc4": ("read_events_jsonl", "stream_pipeline", "symbolize",
            "cc4_classify", "cc4_train"),
    "cli": ("main",),
    "detect": ("detect_surges", "detect_dropout", "detect_identity_flood",
               "merge_alerts", "write_alerts_jsonl"),
    "evaluate": ("compare_models", "mse", "mape"),
    "forecast": ("fit",),
    "ingest": ("parse_flow_csv", "clean", "to_series"),
    "lstm": ("forward", "backward", "train_chunked", "predict"),
    "series": ("split", "impute_short_gaps", "sliding_windows", "fit_scaler"),
    "simulate": ("generate_trace", "write_trace", "score_detections",
                 "read_labels_csv", "event_schema"),
}
WRAPPED_METHODS = {"forecast": (forecast.FittedForecaster,
                                ("one_step_on", "forecast"))}


def _fit_span_name(args) -> str:
    # One span name per forecaster family, so HW grid fits and per-source
    # moving-average fits are told apart.
    return f"forecast.fit.{args[0].variant}"


def _lookup_sites(fn) -> list[tuple[object, str]]:
    """Every module attribute through which gatewatch code or the benchmark
    reaches `fn`."""
    sites = []
    for module in (gatewatch, *MODULES.values()):
        for attr, value in vars(module).items():
            if value is fn:
                sites.append((module, attr))
    return sites


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.iteration: list[int] = []
        self.errors: Counter = Counter()
        self._stack = [-1]
        self._current = -1
        self._patches = self._build_patches()

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        patches = []
        for layer, names in WRAPPED.items():
            for name in names:
                fn = getattr(MODULES[layer], name)
                name_of = _fit_span_name if fn is forecast.fit else None
                wrapper = self._wrap(fn, f"{layer}.{name}", layer, name_of)
                for owner, attr in _lookup_sites(fn):
                    patches.append((owner, attr, fn, wrapper))
        for layer, (cls, names) in WRAPPED_METHODS.items():
            for name in names:
                fn = vars(cls)[name]
                patches.append((cls, name, fn,
                                self._wrap(fn, f"{layer}.{name}", layer)))
        return patches

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.iteration.append(self._current)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_of(args) if name_of else name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(idx)
        return traced

    @contextmanager
    def session(self, iteration: int, root: str):
        """Wrap every public function, record `root` as the outermost span of
        `iteration`, and unwrap again on exit."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._current = iteration
        idx = self._open(root)
        try:
            yield
        finally:
            self._close(idx)
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def self_times(self) -> dict[int, dict[str, tuple[float, int]]]:
        """Per iteration: span name -> (self seconds, calls)."""
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child
        out: dict[int, dict[str, list]] = {}
        for idx, (nid, it) in enumerate(zip(self.name_id, self.iteration)):
            entry = out.setdefault(it, {}).setdefault(self.names[nid], [0.0, 0])
            entry[0] += self_ns[idx] / 1e9
            entry[1] += 1
        return {it: {name: (s, c) for name, (s, c) in names.items()}
                for it, names in out.items()}

    def nested_calls(self, parent: str, child: str) -> dict[int, int]:
        """Per iteration: calls of `child` made directly from `parent`."""
        out: dict[int, int] = {}
        for nid, up, it in zip(self.name_id, self.parent, self.iteration):
            if (self.names[nid] == child and up >= 0
                    and self.names[self.name_id[up]] == parent):
                out[it] = out.get(it, 0) + 1
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            iteration=np.array(self.iteration, dtype=np.int32))
