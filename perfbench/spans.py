"""An in-memory span recorder for the traced runs, plus the timing statistics.

A span is ``(name, start, end, parent, request)``; spans nest through a
stack, so a layer's self time is its duration minus its children's.  Spans
stay in memory during the run and are written as NDJSON at the end.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class SpanRecorder:
    """Records nested spans around calls made from the benchmark's own code."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int, **attrs: Any) -> Iterator[dict[str, Any]]:
        record: dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span["name"]] += own
        return dict(totals)

    def write_ndjson(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span, own in zip(self.spans, self.self_times()):
                out.write(json.dumps({**span, "self": own}, sort_keys=True) + "\n")


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_needed(tail: int) -> int:
    """Samples a run needs so that at least 10 lie beyond the ``tail``-th percentile."""
    return math.ceil(10 * 100 / (100 - tail))
