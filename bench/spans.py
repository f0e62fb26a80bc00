"""In-memory span tracer for the benchmark's traced runs.

A layer is traced from outside the program by replacing its public
functions, for the duration of one op, under the module attribute its
caller looks them up by: ``ajpeg.pipeline.fdct_2d`` rather than
``ajpeg.fdct.fdct_2d``, because the pipeline imported the name. Each span
records its name, start, end, parent span and op id. Spans stay in memory
and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its child spans.
Every op is one root span named ``bench.op``, so the self times of all spans
of an op add up to the op's wall time exactly.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = "bench.op"


class Tracer:
    def __init__(self, layers: dict, hooks: dict | None = None):
        """``layers`` maps a span name to the (module, attribute) pairs it
        wraps. ``hooks`` maps a span name to ``hook(counts, args, result)``,
        called after the span has closed, so its cost is not the layer's."""
        hooks = hooks or {}
        self.names = [ROOT, *layers]
        self.counts: dict[str, int] = {}
        self._patches = []
        for nid, (name, targets) in enumerate(layers.items(), start=1):
            for module, attr in targets:
                fn = getattr(module, attr)
                wrapped = self._wrap(nid, fn, hooks.get(name))
                self._patches.append((module, attr, fn, wrapped))
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, nid: int, fn, hook):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: wrap every layer, and open the op's root span."""
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)
        self._op = op_id
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())
            for module, attr, fn, _ in self._patches:
                setattr(module, attr, fn)

    def _columns(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Totals over every traced op: per span name, self and inclusive
        seconds; op count, op wall seconds, the ops' seconds outside every
        layer span, and span count."""
        c = self._columns()
        nid, parent, dur = c["name_id"], c["parent"], c["end"] - c["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        total_s = np.bincount(nid, weights=dur, minlength=k)
        roots = nid == 0
        return {
            "self_s": dict(zip(self.names, self_s.tolist())),
            "total_s": dict(zip(self.names, total_s.tolist())),
            "ops": int(roots.sum()),
            "op_s": float(dur[roots].sum()),
            "unattributed_s": float(self_s[0]),
            "spans": len(dur),
        }

    def write(self, path):
        """Write every span as arrays, with the span names, to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self._columns())
