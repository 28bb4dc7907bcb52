"""Spans recorded from outside the program.

The traced run replaces module attributes that the program looks up at
call time (a module-level function, an entry of a registry dict,
`numpy.linalg.inv`) with wrappers that record one span per call: name,
start, end and the enclosing span.  Nothing under `src/` changes, and
every wrapper is removed when the traced pass ends.  A target that no
longer exists is listed as missing instead of failing the run.

Spans are held in flat arrays while the run lasts and written out once at
the end.  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np


class SpanRecorder:
    """In-memory span log for one thread: name id, start, end, parent index."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Wrappers:
    """Installs span wrappers on module attributes and dict entries; undoes them on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.missing = []
        self._undo = []

    def attr(self, obj, attr: str, name: str) -> None:
        label = f"{getattr(obj, '__name__', type(obj).__name__)}.{attr}"
        if not callable(getattr(obj, attr, None)):
            self.missing.append(label)
            return
        original = getattr(obj, attr)
        setattr(obj, attr, self.recorder.wrap(original, name))
        self._undo.append(lambda: setattr(obj, attr, original))

    def item(self, mapping: dict, key: str, name: str, label: str) -> None:
        if not callable(mapping.get(key)):
            self.missing.append(f"{label}[{key!r}]")
            return
        original = mapping[key]
        mapping[key] = self.recorder.wrap(original, name)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        return False


class SpanSummary:
    """Per-name totals derived from a recorder once the traced pass is over."""

    def __init__(self, rec: SpanRecorder):
        names = np.array(rec.names + ["<none>"])
        nid = np.frombuffer(rec.name_id, dtype=np.int32)
        parent = np.frombuffer(rec.parent, dtype=np.int32)
        start = np.frombuffer(rec.start, dtype=np.float64)
        end = np.frombuffer(rec.end, dtype=np.float64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        # the span directly below each root, so stages can be credited to
        # the detector call they ran in
        top = np.arange(dur.size)
        while True:
            up = parent[top]
            move = (up >= 0) & (parent[np.maximum(up, 0)] >= 0)
            if not move.any():
                break
            top[move] = up[move]
        top_name = np.where(has_parent, nid[top], len(rec.names))

        p = np.maximum(parent, 0)
        self.nested = bool(
            np.all(end >= start)
            and np.all((start >= start[p]) & (end <= end[p]) | ~has_parent)
        )
        self.root_time = float(dur[~has_parent].sum())
        self.below_root = float(dur[has_parent & (parent[p] < 0)].sum())
        self.count = {}
        self.inclusive = {}
        self.self_time = {}
        self.self_within = {}
        for k, name in enumerate(rec.names):
            mask = nid == k
            self.count[name] = int(mask.sum())
            self.inclusive[name] = float(dur[mask].sum())
            self.self_time[name] = float(self_time[mask].sum())
            for t in np.unique(top_name[mask]):
                sel = mask & (top_name == t)
                self.self_within[(str(names[t]), name)] = float(self_time[sel].sum())
        self.spans = int(dur.size)

    def self_by_name(self) -> dict:
        return dict(sorted(self.self_time.items(), key=lambda kv: -kv[1]))
