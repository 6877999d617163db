"""In-memory spans and counters for the traced benchmark run.

A span has a name, a start, an end, the span that opened it and the id of
the check (request) it belongs to.  Spans are recorded from the
benchmark's own calls into the package layers; nothing inside the package
is instrumented.  ``NullTracer`` stands in for untraced passes, so the
benchmark code is the same either way and an untraced ``with`` costs one
no-op context manager.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, k: int = 1) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        root = tr._stack[0] if tr._stack else self.sid
        tr.spans.append((self.sid, self.parent, root, self.name, self.start, end))
        return False


class Tracer:
    """Records spans ``(id, parent, check id, name, start, end)`` and counts."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            out[name] += (end - start) - child_time[sid]
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[3]] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "check": root, "name": name,
                         "start": start, "end": end},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def counting(fn, tracer: Tracer, name: str):
    """Wrap fn so that each call adds one to the named counter."""
    counts = tracer.counts

    def wrapper(*args):
        counts[name] += 1
        return fn(*args)

    return wrapper


class CountQRatInit:
    """Context manager counting ``QRat.__init__`` calls into a tracer counter.

    The class attribute is swapped for the duration and restored on exit,
    so untraced passes run the unmodified constructor.
    """

    def __init__(self, qrat_cls, tracer: Tracer, name: str = "qfield.qrat_constructed"):
        self.cls = qrat_cls
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        orig = self.orig = self.cls.__init__
        box = self.box = [0]

        def counting_init(obj, *args, **kwargs):
            box[0] += 1
            orig(obj, *args, **kwargs)

        self.cls.__init__ = counting_init
        return self

    def __exit__(self, *exc):
        self.cls.__init__ = self.orig
        self.tracer.count(self.name, self.box[0])
        return False
