"""Spans, call counters and summary statistics for the anodens benchmark.

A `Recorder` counts calls and work at each layer boundary and, when tracing
is on, also keeps a span per call: name, start, end, parent span and the
operation (setup repetition or pipeline pass) it belongs to.  Layer
boundaries inside the package are observed by temporarily replacing public
module attributes with wrappers (`patched`); the originals are restored on
exit.  Nothing under `src/` is modified.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Candidate tail percentiles, highest last.  A percentile is reported only if
# at least MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


class TraceError(RuntimeError):
    """A public function the benchmark wraps is missing or not callable."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Recorder.spans
    op: int  # operation id: one setup repetition or one pipeline pass


class Recorder:
    """Counts calls and work per boundary name; keeps spans when `trace` is on."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()  # rows, pairs, ... per boundary name
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def reset_counts(self) -> None:
        self.calls.clear()
        self.work.clear()

    @contextmanager
    def tracing(self, on: bool):
        """Keep spans only when `on`; counting goes on either way."""
        saved, self.trace = self.trace, on
        try:
            yield
        finally:
            self.trace = saved

    @contextmanager
    def span(self, name: str, work: int = 0):
        self.calls[name] += 1
        self.work[name] += work
        if not self.trace:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), math.nan, parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            # closed even when the call raises, so no span is ever dropped
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func, work=None):
        def wrapper(*args, **kwargs):
            with self.span(name, work(*args, **kwargs) if work else 0):
                return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, record in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(record)}) + "\n")


@contextmanager
def patched(recorder: Recorder, targets):
    """Replace each (module, attribute, span name, work fn) with a recording wrapper.

    Fails loudly, naming the attribute, if any target is missing, so a
    renamed public function can never silently drop its spans.
    """
    saved = []
    try:
        for module_name, attr, name, work in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise TraceError(
                    f"cannot wrap {module_name}.{attr}: public function missing or renamed"
                )
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, work))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread with stack discipline, so the children of a
    span never overlap and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for record in spans:
        if record.parent is not None:
            covered[record.parent] += record.end - record.start
    return [record.end - record.start - c for record, c in zip(spans, covered)]


def totals_by_op(spans: list[Span], inclusive: bool = False) -> dict[int, Counter]:
    """{op: {span name: summed self (or inclusive) seconds}}."""
    times = (
        [record.end - record.start for record in spans] if inclusive else self_times(spans)
    )
    out: dict[int, Counter] = {}
    for record, seconds in zip(spans, times):
        out.setdefault(record.op, Counter())[record.name] += seconds
    return out


def _rank(p: float, n: int) -> int:
    # rounded first so that, e.g., 90% of 100 is rank 90 and not 91
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND of n samples beyond it."""
    best = None
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def summarize(values) -> dict:
    """Median, the highest well-supported tail percentile, and the sample count."""
    values = list(values)
    p = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
        "n": len(values),
    }
