"""In-memory span recorder that wraps qbp's layer functions from outside.

A span is (name, start, end, parent, solve id).  Spans are kept in flat
arrays while the run is going and written out once at the end.  Self time
(a span's duration minus the time its child spans cover) is accumulated as
spans close, so the per-layer totals need no second pass.

Wrapping replaces the attribute the *caller* looks up: ``from x import y``
binds ``y`` in the importing module, so ``qbp.admm.project_psd`` and the
``project_psd`` another module imported are separate names.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

import numpy as np

_COLUMNS = {
    "name": "i", "start": "d", "end": "d", "self": "d",
    "parent": "i", "solve": "i", "span_id": "i",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._cols = {key: array(code) for key, code in _COLUMNS.items()}
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 1
        self._solve_id = 0
        self._solves_opened = 0
        self._installed: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()

    def open(self, name: str, solve: bool = False):
        """Start a span; pass the returned token to :meth:`close`."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        token = (name, nid, self._solve_id)
        if solve:
            self._solves_opened += 1
            self._solve_id = self._solves_opened
        self._stack.append([self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1
        return token

    def close(self, token) -> None:
        end = time.perf_counter()
        name, nid, outer_solve = token
        span_id, start, child = self._stack.pop()
        dur = end - start
        parent = 0
        if self._stack:
            frame = self._stack[-1]
            frame[2] += dur
            parent = frame[0]
        cols = self._cols
        cols["name"].append(nid)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["self"].append(dur - child)
        cols["parent"].append(parent)
        cols["solve"].append(self._solve_id)
        cols["span_id"].append(span_id)
        self._solve_id = outer_solve
        self.counts[name] += 1

    def wrap(self, owner, attr: str, name: str, solve: bool = False, on_result=None):
        """Replace ``owner.attr`` by a traced version recorded as ``name``.

        ``on_result(result, args)`` sees each call's return value and
        arguments, for counts the program reports (iterations) rather than
        ones the spans can count.
        """
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            token = self.open(name, solve)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if on_result is not None:
                on_result(result, args)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    @staticmethod
    def span_cost(calls: int = 10000, repeats: int = 5) -> float:
        """Seconds one traced call adds to a plain call, measured on a no-op."""
        class Holder:
            @staticmethod
            def noop():
                return None

        plain = Holder.noop
        Tracer().wrap(Holder, "noop", "noop")
        traced = Holder.noop

        def per_call(fn) -> float:
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                samples.append((time.perf_counter() - start) / calls)
            return float(np.median(samples))

        return per_call(traced) - per_call(plain)

    def _column(self, key: str) -> np.ndarray:
        dtype = np.int32 if _COLUMNS[key] == "i" else np.float64
        return np.array(self._cols[key], dtype=dtype)

    @property
    def num_spans(self) -> int:
        return len(self._cols["name"])

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name span count, total seconds and self seconds."""
        ids = self._column("name")
        k = len(self.names)
        dur = self._column("end") - self._column("start")
        count = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self._column("self"), minlength=k)
        return {
            name: {"spans": int(count[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as columns of an ``.npz`` file, ordered by span id."""
        order = np.argsort(self._column("span_id"), kind="stable")
        columns = {key: self._column(key)[order] for key in _COLUMNS if key != "self"}
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **columns)


class Span:
    """``with Span(tracer, name):`` records a span; a no-op without a tracer."""

    def __init__(self, tracer: Tracer | None, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer is not None:
            self.token = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.close(self.token)
        return False
