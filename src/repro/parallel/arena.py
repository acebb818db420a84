"""Persistent buffer arena for the DMAV array phase.

The array-phase hot loop needs three kinds of ``2**n`` complex128 scratch
memory per gate: the output array it writes (``w``), and -- for cached
DMAV -- the partial output buffers of Algorithm 2.  Before the plan
compiler, ``dmav_cached`` allocated (and zero-filled) ``num_buffers``
fresh arrays per gate application and the simulator zero-filled the
ping-pong output on every gate; at 20 qubits that is 16 MiB of pages
faulted and memset per buffer per gate.

:class:`BufferArena` owns this memory for the lifetime of one simulation
run:

* **output ping-pong** -- :meth:`output` hands out the next output array
  together with a ``dirty`` flag; after the gate, :meth:`retire` returns
  the *previous* state array to the arena, where it becomes the next
  gate's output buffer.  Only the very first output is allocated (and is
  clean); every later one is the recycled input of two gates ago and is
  flagged dirty so the DMAV kernels know whether a zero-fill can be
  skipped.
* **partial pool** -- :meth:`partials` returns the first ``count``
  buffers of a grow-only pool.  Buffers are never zeroed by the arena:
  the planned ``dmav_cached`` write-path assigns (rather than
  accumulates) each buffer slice exactly once, so stale contents are
  simply overwritten and unwritten slices are never read (the plan's
  writer lists say which slices each buffer actually produced).

Every buffer is *tile-major*: ``(tiles, rows, size // tiles)``, one tile
per DMAV thread chunk and one row per batch row, so every task slice is
one C-contiguous ``(rows, chunk)`` block.  ``run()`` uses one row (its
flat state viewed as ``(threads, 1, h)``); a parameter sweep uses one row
per sweep point, so the whole batch shares one arena warm-up.

The allocation counters make "zero per-gate allocations after warm-up"
an assertable property instead of a timing inference:
``partial_allocs`` can only ever reach the pool's high-water mark
(bounded by the thread count), while the per-gate churn it replaces grew
with the gate count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BufferArena"]


class BufferArena:
    """Reusable output + partial-buffer memory for one DMAV phase."""

    def __init__(self, size: int, rows: int = 1, tiles: int = 1) -> None:
        if size < 1:
            raise ValueError(f"arena size must be >= 1, got {size}")
        if rows < 1:
            raise ValueError(f"arena rows must be >= 1, got {rows}")
        if tiles < 1 or size % tiles:
            raise ValueError(
                f"arena tiles must divide size, got {tiles} for {size}"
            )
        #: Amplitudes per row (``2**n``).
        self.size = size
        #: Batch rows per buffer.
        self.rows = rows
        #: Tiles per row: one per DMAV thread chunk.
        self.tiles = tiles
        self._shape = (tiles, rows, size // tiles)
        self._output: np.ndarray | None = None
        self._output_dirty = False
        self._partials: list[np.ndarray] = []
        #: Output arrays allocated (1 after the first gate, forever).
        self.output_allocs = 0
        #: Partial buffers allocated -- the pool's high-water mark.
        self.partial_allocs = 0
        #: Partial buffers served from the pool without allocating.
        self.partial_reuses = 0

    # -- output ping-pong ----------------------------------------------

    def output(self) -> tuple[np.ndarray, bool]:
        """The next gate's output array and whether it holds stale data.

        A clean (freshly zeroed) buffer lets the DMAV kernels skip their
        defensive fills; a dirty one (a recycled former state) requires
        them only for slices no task writes.
        """
        if self._output is None:
            self._output = np.zeros(self._shape, dtype=np.complex128)
            self._output_dirty = False
            self.output_allocs += 1
        return self._output, self._output_dirty

    def retire(self, state: np.ndarray) -> None:
        """Recycle the consumed input state as the next output buffer."""
        if state.shape != self._shape:
            raise ValueError(
                f"retired array has shape {state.shape}, arena shape "
                f"{self._shape}"
            )
        self._output = state
        self._output_dirty = True

    # -- partial-buffer pool -------------------------------------------

    def partials(self, count: int) -> list[np.ndarray]:
        """The first ``count`` pool buffers, growing the pool if needed.

        Returned buffers are *not* zeroed -- callers must treat every
        slice they read as write-before-read (the planned ``dmav_cached``
        does, by construction).
        """
        have = len(self._partials)
        self.partial_reuses += min(count, have)
        while len(self._partials) < count:
            self._partials.append(np.empty(self._shape, dtype=np.complex128))
            self.partial_allocs += 1
        return self._partials[:count]

    # -- accounting ----------------------------------------------------

    @property
    def partial_bytes(self) -> int:
        """Bytes currently held by the partial pool."""
        return sum(buf.nbytes for buf in self._partials)

    @property
    def bytes_held(self) -> int:
        """Bytes held by the arena (output buffer + partial pool)."""
        out = self._output.nbytes if self._output is not None else 0
        return out + self.partial_bytes
