"""Outside-in tracing of ``bend``: spans around the calls into each layer.

Functions are wrapped where their caller looks them up (``bend.pipeline
.retrieve_top_k``, ``ReferenceIndex.group_means`` on the class, ...), so the
package itself stays untouched. Each call records a span (id, name, start,
end, parent span, operation id) in memory; ``observe`` hooks add counts
computed from a call's arguments and result. A name the program no longer
has is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self.counts: dict[tuple[str | None, str], float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.absent: set[str] = set()
        self.op: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.op, name)] += amount

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, target: str, span: str, observe: Callable | None = None) -> None:
        """Wrap ``module.attr`` or ``module.Class.attr`` in a span named ``span``.

        ``observe(tracer, args, kwargs, result)`` runs after a successful call.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.add(span)
            return
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name, _MISSING)
            if owner is _MISSING:
                self.absent.add(span)
                return
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING or not callable(original):
            self.absent.add(span)
            return
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, span, start, end, parent, tracer.op))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[tuple[str | None, str], float]:
        """Self seconds per (operation, span name): span time minus the time
        its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[tuple[str | None, str], float] = defaultdict(float)
        for span_id, name, start, end, _, op in self.spans:
            out[(op, name)] += (end - start) - child_time[span_id]
        return out

    def call_counts(self) -> dict[tuple[str | None, str], int]:
        out: dict[tuple[str | None, str], int] = defaultdict(int)
        for _, name, _, _, _, op in self.spans:
            out[(op, name)] += 1
        return out

    def records(self) -> list[dict]:
        return [
            {"id": s, "name": n, "start": a, "end": b, "parent": p, "op": op}
            for s, n, a, b, p, op in self.spans
        ]
