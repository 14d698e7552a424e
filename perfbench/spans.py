"""In-memory span recorder for the traced run.

``SpanRecorder.wrap`` replaces a function attribute (on a module or a
class) with a wrapper that records one span per call: name, start, end
and the index of the enclosing span.  Nothing is wrapped unless the
traced run asks for it, so the untraced run measures the program as is.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from typing import Callable


class SpanRecorder:
    def __init__(self):
        #: (name, start, end, parent index or -1), in order of completion.
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._next_id = 0
        self._ids: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.paused = False

    def wrap(self, owner, attribute: str, name: str | Callable, after: Callable | None = None):
        """Record a span around every call of ``owner.attribute``, and count
        in ``counters[name + ".tensors"]`` the ``tensors`` counted inside it.

        ``name`` is a string or ``name(args, kwargs, result)``; ``after``,
        when given, is called as ``after(args, kwargs, result)`` so the
        caller can count what the call produced.
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if recorder.paused:
                return original(*args, **kwargs)
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = recorder._open[-1] if recorder._open else -1
            recorder._open.append(span_id)
            tensors_before = recorder.counters["tensors"]
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._open.pop()
            label = name if isinstance(name, str) else name(args, kwargs, result)
            recorder._ids[span_id] = len(recorder.spans)
            recorder.spans.append((label, start, end, parent))
            recorder.counters[label + ".tensors"] += recorder.counters["tensors"] - tensors_before
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def count_calls(self, owner, attribute: str, counter: str) -> None:
        """Count calls of ``owner.attribute`` without recording spans."""
        original = getattr(owner, attribute)
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, counted)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _parent_positions(self) -> list[int]:
        return [self._ids[parent] if parent >= 0 else -1 for _, _, _, parent in self.spans]

    def _own_times(self) -> tuple[list[float], list[int]]:
        """Per span, its duration minus the time its child spans cover
        (children of one span never overlap: the program is
        single-threaded), plus each span's parent position."""
        parents = self._parent_positions()
        own = [end - start for _, start, end, _ in self.spans]
        for duration, parent in zip(list(own), parents):
            if parent >= 0:
                own[parent] -= duration
        return own, parents

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        own, _ = self._own_times()
        totals: dict[str, float] = {}
        for (label, _, _, _), seconds in zip(self.spans, own):
            totals[label] = totals.get(label, 0.0) + seconds
        return totals

    def self_time_under(self, label: str, ancestor: str) -> float:
        """Self seconds of spans named ``label`` inside an ``ancestor`` span."""
        own, parents = self._own_times()
        total = 0.0
        for position, (name, _, _, _) in enumerate(self.spans):
            if name != label:
                continue
            parent = parents[position]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = parents[parent]
            if parent >= 0:
                total += own[position]
        return total

    def calls(self) -> Counter:
        return Counter(label for label, _, _, _ in self.spans)

    def durations(self, label: str) -> list[float]:
        return [end - start for name, start, end, _ in self.spans if name == label]

    def write_jsonl(self, path) -> None:
        parents = self._parent_positions()
        with open(path, "w", encoding="utf-8") as out:
            for position, ((label, start, end, _), parent) in enumerate(zip(self.spans, parents)):
                out.write(json.dumps({"id": position, "name": label, "start": start,
                                      "end": end, "parent": parent}) + "\n")


def percentile_ms(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of ``values`` in milliseconds."""
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0
