"""In-memory spans recorded around the benchmark's calls into ``repro``.

A span is ``(id, parent, run, name, start, end, attrs)``: *start* and *end*
are seconds since the tracer was created, *parent* is the id of the
enclosing span (``None`` at the top) and *run* identifies the pass the span
belongs to.  Spans stay in memory while a pass runs and are written out as
JSONL when the run ends; :func:`rollup` turns them into self time per span
name, where self time is a span's duration minus the time its direct
children cover.

A disabled tracer still hands out an attribute dict, so call sites attach
counters the same way whether or not spans are kept.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

__all__ = ["Tracer", "rollup", "write_jsonl"]


class Tracer:
    """Records nested spans of one pass when *enabled*."""

    def __init__(self, run: str, enabled: bool) -> None:
        self.run = run
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Time the enclosed block as span *name*; yields its attribute dict."""
        if not self.enabled:
            yield attrs
            return
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run,
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._origin


def rollup(spans: Iterable[dict]) -> dict[str, dict]:
    """Per span name: ``count``, total ``seconds`` and ``self_s``.

    Spans of different runs never nest into each other: a parent id is
    only looked up within the child's own run.
    """
    spans = list(spans)
    child_time: dict[tuple[str, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["run"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    table: dict[str, dict] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        entry = table.setdefault(span["name"], {"count": 0, "seconds": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["seconds"] += duration
        entry["self_s"] += duration - child_time.get((span["run"], span["id"]), 0.0)
    return table


def write_jsonl(spans: Iterable[dict], path) -> None:
    """Write one JSON object per span to *path*."""
    with open(path, "w", encoding="utf-8") as fp:
        for span in spans:
            fp.write(json.dumps(span, sort_keys=True) + "\n")
