"""Spans and counters recorded from outside the stylauth package.

The tracer replaces a function on the module its caller looks it up in
(``stylauth.pipeline.extract_all`` rather than the definition in
``stylauth.features``), so the spans sit at the boundaries between
layers without any change to the package. Each span holds a name, start,
end, parent span and thread; spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its children,
which always run on the span's own thread.
"""

from __future__ import annotations

import functools
import importlib
import logging
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

OnResult = Callable[["Tracer", tuple, dict, Any], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, same thread
    thread: int


class _LogCounter(logging.Handler):
    """Counts the warnings a logger emits whose message starts with a prefix."""

    def __init__(self, tracer: "Tracer", prefix: str, counter: str):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer
        self.prefix = prefix
        self.counter = counter

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith(self.prefix):
            self.tracer.count(self.counter)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.instance_ids: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._handlers: list[tuple[logging.Logger, logging.Handler]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                    threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(float(value))

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.samples.clear()
            self.instance_ids.clear()

    # -- installation --------------------------------------------------

    def wrap(self, target: str, span_name: str, on_result: OnResult | None = None) -> None:
        """Replace ``module.attr`` (given as ``"module.attr"``) by a traced copy."""
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def count_log_warnings(self, logger_name: str, prefix: str, counter: str) -> None:
        logger = logging.getLogger(logger_name)
        handler = _LogCounter(self, prefix, counter)
        logger.addHandler(handler)
        self._handlers.append((logger, handler))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        for logger, handler in self._handlers:
            logger.removeHandler(handler)
        self._handlers.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        calls: Counter[str] = Counter()
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            calls[span.name] += 1
            inclusive[span.name] += span.end - span.start
            own[span.name] += self_s
        return {name: (calls[name], inclusive[name], own[name]) for name in calls}

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "thread": s.thread}
            for s in self.spans
        ]
