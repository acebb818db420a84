"""Thread execution substrate.

FlatDD's algorithms are specified for ``t`` worker threads (t a power of
two).  :class:`TaskRunner` executes a list of per-thread thunks either
inline (deterministic, the default; see DESIGN.md substitution 1) or on
a real ``ThreadPoolExecutor``.  Both paths run the *same* partitioned
tasks, so correctness of the parallel decomposition is exercised
regardless of the execution mode.  No CLI flag or manifest key sets
``FlatDDConfig.use_thread_pool`` (``repro serve --thread-pool`` pools the
service's worker slots), so FlatDD's pooled runs come from tests and the
fuzz harness's ``execution_invariance`` oracle.

One kernel makes no tasks: an unfused gate with a qubit above the border
level is one call over the whole batch
(:func:`~repro.core.dmav.apply_tile_local`), on the calling thread
whichever mode the runner is in.  A pooled run thus loses those gates'
parallelism, an accepted loss whose cost is not measured.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.common.bits import is_power_of_two
from repro.common.errors import ParallelError

T = TypeVar("T")

__all__ = ["TaskRunner", "validate_thread_count"]


def validate_thread_count(threads: int, num_qubits: int) -> None:
    """DMAV's Assign needs t a power of two with ``log2 t < n``."""
    if not is_power_of_two(threads):
        raise ParallelError(f"thread count must be a power of two, got {threads}")
    if threads > (1 << max(num_qubits - 1, 0)):
        raise ParallelError(
            f"thread count {threads} too large for {num_qubits} qubits "
            f"(need t <= 2**(n-1))"
        )


class TaskRunner:
    """Runs per-thread task lists; owns an optional shared thread pool.

    When a :class:`~repro.obs.tracer.Tracer` is attached (``tracer``
    argument or attribute), every batch times each task: a span per task
    (category ``"pool"``, one track per logical worker) plus cumulative
    ``busy_seconds`` / ``task_counts`` per worker slot, from which the
    observability layer derives per-thread utilization.  With no tracer
    (the default) ``run`` is the bare dispatch loop.
    """

    def __init__(
        self,
        threads: int,
        use_pool: bool = False,
        tracer=None,
        cancel_pending: bool = False,
    ) -> None:
        if threads < 1:
            raise ParallelError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self.use_pool = use_pool and threads > 1
        self._pool: ThreadPoolExecutor | None = None
        #: Optional repro.obs tracer; assign any time before a run() call.
        self.tracer = tracer
        #: Default for close(): drop queued-but-unstarted tasks on shutdown
        #: instead of draining them.  __exit__ forces this on when the
        #: managed block raised, so an exception can never wedge behind a
        #: backlog of doomed tasks.
        self.cancel_pending = cancel_pending
        #: Cumulative busy time per worker slot (traced batches only).
        self.busy_seconds = [0.0] * threads
        #: Tasks executed per worker slot (traced batches only).
        self.task_counts = [0] * threads
        #: Number of traced run() batches.
        self.batches = 0

    def __enter__(self) -> "TaskRunner":
        if self.use_pool and self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.threads)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(cancel_pending=self.cancel_pending or exc_type is not None)

    def close(self, cancel_pending: bool | None = None) -> None:
        """Shut the executor down; safe to call any number of times.

        ``cancel_pending=None`` uses the runner's default; ``True`` drops
        tasks that have not started yet (running tasks always complete).
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            if cancel_pending is None:
                cancel_pending = self.cancel_pending
            pool.shutdown(wait=True, cancel_futures=cancel_pending)

    def _timed(self, slot: int, fn: Callable[[], T]) -> Callable[[], T]:
        """Wrap one task with per-slot timing and a pool span."""

        def call() -> T:
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                t1 = time.perf_counter()
                self.busy_seconds[slot] += t1 - t0
                self.task_counts[slot] += 1
                self.tracer.record(
                    f"task[{slot}]", "pool", t0, t1, thread_id=slot
                )

        return call

    def run(self, thunks: Sequence[Callable[[], T]]) -> list[T]:
        """Execute thunks "in parallel"; results keep input order.

        Exceptions propagate to the caller in both modes.
        """
        if self.tracer is not None and self.tracer.enabled:
            self.batches += 1
            thunks = [
                self._timed(u % self.threads, fn)
                for u, fn in enumerate(thunks)
            ]
        if not self.use_pool:
            return [fn() for fn in thunks]
        if self._pool is None:
            # Allow use without context manager: a transient pool per call.
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                return list(pool.map(lambda fn: fn(), thunks))
        return list(self._pool.map(lambda fn: fn(), thunks))

    def map(self, fn: Callable[[T], object], items: Iterable[T]) -> list:
        return self.run([lambda item=item: fn(item) for item in items])
