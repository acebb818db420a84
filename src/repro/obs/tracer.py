"""Span-based tracing: the event-recording core of ``repro.obs``.

A :class:`Tracer` records three kinds of events against one monotonic
clock (``time.perf_counter``, re-based to the tracer's construction):

* **spans** -- named intervals with a category, a thread id, a nesting
  depth, and free-form JSON-serializable ``args``.  Intervals measured
  already (a phase, or a gate of a run's gate trace, which
  :func:`repro.obs.collect.record_gate_trace` replays) are appended with
  :meth:`Tracer.record`; coarser code uses the :meth:`Tracer.span`
  context manager, which also maintains the per-thread nesting depth.
* **instants** -- point events (a GC run, a conversion trigger).
* **samples** -- ``(name, time, value)`` time series (DD size per gate,
  the EWMA value), exported as Chrome counter tracks.

Thread safety: records from concurrent threads interleave under one
lock; nesting depth is tracked per thread via ``threading.local``.

The default is :data:`NULL_TRACER`, a singleton whose methods do nothing
and allocate nothing, so instrumented code pays one attribute check
(``tracer.enabled``) per event when tracing is off.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Instant", "Sample", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(frozen=True)
class Span:
    """One completed named interval (times in seconds since tracer epoch)."""

    name: str
    category: str
    start: float
    duration: float
    thread_id: int
    depth: int = 0
    args: dict | None = None

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Instant:
    """A point event (time in seconds since tracer epoch)."""

    name: str
    category: str
    ts: float
    thread_id: int
    args: dict | None = None


@dataclass(frozen=True)
class Sample:
    """One time-series sample (Chrome 'counter' track semantics)."""

    name: str
    ts: float
    value: float


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, category: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self) -> "_SpanContext":
        self._depth = self._tracer._enter_depth()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self._tracer._exit_depth()
        self._tracer.record(
            self._name,
            self._category,
            self._start,
            end,
            depth=self._depth,
            **self._args,
        )


class _NullSpanContext:
    """Reusable no-op context manager (one shared instance, no state)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Thread-safe recorder of spans, instants, and counter samples."""

    #: Instrumented hot loops check this before building event payloads.
    enabled: bool = True

    def __init__(self) -> None:
        #: perf_counter value all event timestamps are relative to.
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.samples: list[Sample] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- nesting ------------------------------------------------------

    def _enter_depth(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _exit_depth(self) -> None:
        self._local.depth = max(getattr(self._local, "depth", 1) - 1, 0)

    @property
    def current_depth(self) -> int:
        """Nesting depth of the calling thread (0 outside any span)."""
        return getattr(self._local, "depth", 0)

    # -- recording ----------------------------------------------------

    def span(self, name: str, category: str = "span", **args) -> _SpanContext:
        """Context manager measuring a block as one span."""
        return _SpanContext(self, name, category, args)

    def record(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        thread_id: int | None = None,
        depth: int | None = None,
        **args,
    ) -> None:
        """Append a completed span measured with ``time.perf_counter``.

        ``start``/``end`` are absolute perf_counter values; they are
        re-based to the tracer epoch.  ``thread_id`` defaults to the OS
        thread ident; pass a small logical id for simulated threads.
        """
        span = Span(
            name=name,
            category=category,
            start=start - self.epoch,
            duration=end - start,
            thread_id=(
                thread_id if thread_id is not None else threading.get_ident()
            ),
            depth=depth if depth is not None else self.current_depth,
            args=args or None,
        )
        with self._lock:
            self.spans.append(span)

    def instant(
        self,
        name: str,
        category: str = "event",
        ts: float | None = None,
        thread_id: int | None = None,
        **args,
    ) -> None:
        """Record a point event (``ts`` is an absolute perf_counter value)."""
        evt = Instant(
            name=name,
            category=category,
            ts=(ts if ts is not None else time.perf_counter()) - self.epoch,
            thread_id=(
                thread_id if thread_id is not None else threading.get_ident()
            ),
            args=args or None,
        )
        with self._lock:
            self.instants.append(evt)

    def sample(self, name: str, value: float, ts: float | None = None) -> None:
        """Record one point of the ``name`` time series."""
        s = Sample(
            name=name,
            ts=(ts if ts is not None else time.perf_counter()) - self.epoch,
            value=float(value),
        )
        with self._lock:
            self.samples.append(s)

    # -- queries ------------------------------------------------------

    def wall_seconds(self) -> float:
        """Extent of recorded activity (max span end - min span start)."""
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.start for s in self.spans)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.samples)


class NullTracer:
    """Do-nothing tracer: the zero-overhead disabled default.

    Shares the :class:`Tracer` surface; every method is a no-op and
    every collection is an (immutable) empty tuple, so accidental use
    can neither record nor allocate.
    """

    enabled: bool = False
    epoch: float = 0.0
    spans: tuple = ()
    instants: tuple = ()
    samples: tuple = ()
    current_depth: int = 0

    def span(self, name: str, category: str = "span", **args) -> _NullSpanContext:
        """Return the shared no-op context manager."""
        return _NULL_SPAN

    def record(self, *a, **kw) -> None:
        """Discard the span."""

    def instant(self, *a, **kw) -> None:
        """Discard the event."""

    def sample(self, *a, **kw) -> None:
        """Discard the sample."""

    def wall_seconds(self) -> float:
        """Always 0.0 (nothing is recorded)."""
        return 0.0

    def __len__(self) -> int:
        return 0


#: Shared disabled tracer; instrumented code falls back to this when the
#: caller passes ``tracer=None``.
NULL_TRACER = NullTracer()
