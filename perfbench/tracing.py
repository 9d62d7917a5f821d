"""Spans around the benchmark's own calls into trustprop's public functions.

A span records name, start, end, parent and operation id.  Spans stay in
memory and are written out as JSON when the run ends.  A layer's self time
is the time its spans cover minus the part their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records spans when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self.op_id: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def record(self, name: str, value: float) -> None:
        """Keep a count measured at a span boundary, such as iterations."""
        if self.enabled:
            self.counts[name].append(value)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, keep=lambda span: True) -> list[float]:
        """Seconds spent in every span called ``name`` for which ``keep`` holds."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and keep(s)]

    def self_times(self, keep=lambda span: True) -> dict[str, float]:
        """Seconds of self time per span name (duration minus child cover).

        Only spans for which ``keep(span)`` is true are summed.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out: dict[str, float] = defaultdict(float)
        for s in filter(keep, self.spans):
            covered = 0.0
            last_end = s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start = max(start, last_end)
                if end > start:
                    covered += end - start
                    last_end = end
            out[s["name"]] += (s["end"] - s["start"]) - covered
        return dict(out)

    def layer_self_times(self, keep=lambda span: True) -> dict[str, float]:
        """Self time summed per layer, the span name's first dotted part."""
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_times(keep).items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": self.spans, "counts": self.counts}, indent=1) + "\n"
        )
