"""In-memory span recorder for the traced run.

A span covers one call the benchmark makes into a volatix layer: name,
start, end, parent span and the trace (one mirrored command, or the layer
sweep) it belongs to, plus counts recorded at the same boundary.  Spans stay
in memory until :meth:`Tracer.dump` writes them out at exit.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional


@dataclass
class Span:
    id: int
    trace: str
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, trace: str, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), trace, name, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span run one after another, never overlapping.
        """
        own = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def median(self, name: str) -> float:
        """Median duration of every span with this name (NaN if none ran)."""
        values = [s.seconds for s in self.spans if s.name == name]
        return statistics.median(values) if values else float("nan")

    def last(self, name: str) -> Span:
        return next(s for s in reversed(self.spans) if s.name == name)

    def dump(self, path: Path) -> None:
        own = self.self_seconds()
        records = [{**asdict(s), "self_s": own[s.id]} for s in self.spans]
        path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        tracer = cls()
        for record in json.loads(path.read_text(encoding="utf-8")):
            record.pop("self_s")
            tracer.spans.append(Span(**record))
        return tracer
