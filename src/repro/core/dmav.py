"""DMAV: DD-matrix x array-vector multiplication (Sections 3.2.1-3.2.2).

This is FlatDD's core contribution: the gate matrix stays a DD (constant
average indexing work, full structure sharing) while the state vector is a
flat array (no irregularity blow-up).

* :func:`assign_tasks` / :func:`dmav_nocache` -- Algorithm 1.  ``Assign``
  splits the t threads in half at each DD level down to the border level
  ``n - log2 t - 1`` (row-major: each thread owns a row block of the output
  and reads all of V), then ``Run`` evaluates each border sub-matrix.
* :func:`dmav_cached` -- Algorithm 2.  Column-major assignment: each thread
  owns a column block (a fixed slice of V), writes into shared partial
  output buffers, and caches per-thread results so repeated border nodes
  collapse to one SIMD scalar multiplication (Figure 6).  Buffers are
  summed into W at the end.

The ``Run`` recursion bottoms out on vectorized kernels instead of scalar
MACs, chosen per node by its cached shape
(:func:`~repro.dd.analysis.bottom_out`): identity subtrees pass through,
Kronecker collapses over an identity or diagonal base are elementwise
scales, a dense base is one block matmul, and a dense level over one
identity subtree is one 2x2 matmul -- see DESIGN.md substitution 2; MAC
counts for the cost model are unaffected.

Gate DDs arrive windowed (root at the gate's highest qubit, the levels
above it implicit identity).  Both descents walk those levels on the
diagonal only, and a root below the border level is one task per thread
that the kernel applies to each diagonal block of its tile.

The pipeline applies DMAV to fused gates only: the kernel and the
border-task runner (:func:`run_border_task_batch`) apply one gate DD's
plan, and ``run()`` passes its flat state as a tile-major ``(threads, 1,
2**n // threads)`` view.  The listing forms (no plans, a flat state) are
the per-gate reference.

An unfused gate needs no DD at all: the planned :func:`dmav_nocache`
takes its :class:`~repro.core.plan.TileLocalPlan` and
:func:`apply_tile_local` applies it from its matrix, at any placement,
with the same kernel shapes.  A qubit above the border level is a bit of
the tile index, so a gate on it combines tiles; rows of a parameter
sweep (:mod:`repro.core.sweep`) stack their matrices on the batch axis
(docs/PERFORMANCE.md, "Tile-local gates").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.common.config import DENSE_BLOCK_LEVEL
from repro.dd.analysis import DENSE_WINDOW_WIDTH, bottom_out
from repro.dd.node import TERMINAL, DDNode, Edge
from repro.dd.package import DDPackage
from repro.core.cost_model import CacheAssignment, assign_cache_tasks
from repro.core.plan import GatePlan, TileLocalPlan
from repro.parallel.partition import border_level
from repro.parallel.pool import TaskRunner, validate_thread_count
from repro.parallel.simd import simd_add, simd_mul_into

__all__ = [
    "DMAVStats",
    "apply_tile_local",
    "assign_tasks",
    "dmav_nocache",
    "dmav_cached",
    "run_border_task_batch",
]


@dataclass
class DMAVStats:
    """Execution statistics of one DMAV call."""

    threads: int
    tasks: int
    cache_hits: int = 0
    buffers: int = 0
    used_cache: bool = False


def assign_tasks(
    pkg: DDPackage, m: Edge, threads: int
) -> list[list[tuple[DDNode, int, complex]]]:
    """Algorithm 1's Assign: row-major border-level task lists per thread.

    Each task is ``(border_node, v_start_index, coefficient)`` where the
    coefficient is the weight product along the DD path *including* the
    border edge's own weight.  The implicit identity levels above a
    windowed root descend their diagonal only, carrying the root edge
    without multiplying their exact 1.0 weights; a root below the border
    level becomes one task per thread, spanning its diagonal block.
    """
    n = pkg.num_qubits
    validate_thread_count(threads, n)
    border = border_level(n, threads)
    tasks: list[list[tuple[DDNode, int, complex]]] = [[] for _ in range(threads)]

    def descend(e: Edge, f: complex, u: int, i_v: int, level: int) -> None:
        if e.is_zero:
            return
        if level == border:
            tasks[u].append((e.n, i_v, f * e.w))
            return
        stride = threads >> (n - level)
        if e.n.level < level:
            for i in (0, 1):
                descend(e, f, u + i * stride, i_v + (1 << level) * i, level - 1)
            return
        for i in (0, 1):
            for j in (0, 1):
                descend(
                    e.n.edges[2 * i + j],
                    f * e.w,
                    u + i * stride,
                    i_v + (1 << level) * j,
                    level - 1,
                )

    if not m.is_zero:
        descend(m, 1.0 + 0j, 0, 0, n - 1)
    return tasks


def _tile(t3: np.ndarray, off: int, h: int, node: DDNode) -> np.ndarray:
    """The ``(rows, size)`` columns a border task under ``node`` touches.

    ``t3`` is a tile-major ``(threads, rows, h)`` batch and ``off`` the
    task's column offset.  A non-terminal task spans exactly one tile:
    its node sits at the border level, or below it as a windowed root
    that repeats down the tile's diagonal.  The tile is C-contiguous
    whenever ``t3``'s rows are, as in every arena buffer, row block and
    one-row view; a terminal task touches one column.
    """
    if node is not TERMINAL:
        return t3[off // h]
    return t3[off // h][:, off % h:off % h + 1]


def _for_each_thread(runner: TaskRunner | None, threads: int, work) -> None:
    """``work(u)`` for every thread ``u``, on the pool when it has one."""
    if runner is not None and runner.use_pool:
        runner.run([lambda u=u: work(u) for u in range(threads)])
    else:
        for u in range(threads):
            work(u)


def _apply_lockstep(
    pkg: DDPackage,
    node: DDNode,
    vten: np.ndarray,
    dense_level: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a gate sub-DD to a batch of vector blocks, every row alike.

    ``vten`` has shape ``(rows, m, 2**(level+1))``: row ``b`` stacks the
    ``m`` vector blocks the sub-DD under ``node`` applies to (a windowed
    root below the dense level may arrive in wider blocks of ``I (x) W``,
    see :func:`run_border_task_batch`).  Recursion groups the four
    2x2-block children by child node, stacking their input halves into
    one call, so the call count is proportional to the gate DD's edge
    count, not to its root-to-terminal paths (the pure-Python analogue of
    the paper's constant-average-indexing claim for DMAV, Section 3.2.1).

    The branch taken is the node's cached :func:`bottom_out` shape, so a
    subtree costs what its structure needs (Fig. 8): an identity base is
    one ``d`` scale, a diagonal base one elementwise scale (plus ``d``
    unless it is all ones), only a genuinely dense base runs a block
    matmul, and a dense level over one identity subtree runs as one 2x2
    matmul.  Every operation is elementwise or a matmul over the trailing
    two axes, so each row's result is bit-identical to its one-row run.

    ``out`` is a best-effort, C-contiguous result destination of
    ``vten``'s shape that must not overlap it.  Branches whose final
    operation can target it directly do so (skipping one result-sized
    allocation); others -- notably identity subtrees, which return
    ``vten`` itself -- ignore it.  Callers must therefore always use the
    *returned* array; the values written are the same bits either way.
    """
    s0 = bottom_out(pkg, node, dense_level)
    kind = s0.kind
    if kind == "identity":
        return vten
    rows, m, size = vten.shape
    if kind == "dense" and node.level <= dense_level:
        block_t = s0.data.T
        bs = block_t.shape[-1]
        if bs != size:
            # A window root below the dense level: its block
            # (analysis._window) is narrower than the task's view, or
            # wider than a tile of fewer than DENSE_WINDOW_WIDTH columns.
            if bs > size:
                block_t = block_t[..., :size, :size]
            else:
                shape3 = vten.shape
                vten = vten.reshape(rows, m * size // bs, bs)
                res = vten @ block_t if out is None else np.matmul(
                    vten, block_t, out=out.reshape(vten.shape)
                )
                return res.reshape(shape3)
        if out is None:
            return vten @ block_t
        np.matmul(vten, block_t, out=out)
        return out
    if kind == "scale":
        # diag(d) (x) I: the d scale alone, broadcast over the identity base.
        dsize = s0.d.size
        shape4 = (rows, m, dsize, size // dsize)
        dst = None if out is None else out.reshape(shape4)
        return np.multiply(
            vten.reshape(shape4), s0.d[:, None], out=dst
        ).reshape(rows, m, size)
    if kind == "diagonal" or kind == "dense":
        # diag(d) (x) M_base over (m, len(d), bs) blocks; d is None when
        # it is all ones.
        data = s0.data
        bs = data.shape[-1]
        if bs > size:
            # A window root's diagonal (analysis._window) over a tile
            # narrower than its tiling.
            data, bs = data[..., :size], size
        shape4 = (rows, m, size // bs, bs)
        dst = None if out is None else out.reshape(shape4)
        if kind == "diagonal":
            folded = np.multiply(vten.reshape(shape4), data, out=dst)
        else:
            folded = np.matmul(vten.reshape(shape4), data.T, out=dst)
        if s0.d is not None:
            folded *= s0.d[:, None]
        return folded.reshape(rows, m, size)
    half = size // 2
    if kind == "pair":
        dst = None if out is None else out.reshape(rows, m, 2, half)
        return np.matmul(
            s0.data, vten.reshape(rows, m, 2, half), out=dst
        ).reshape(rows, m, size)
    if kind == "passthrough":
        # Pass-through level (diag block, shared child): fold the halves
        # into the batch axis as a *view* and recurse once -- zero copies
        # until a non-trivial level is reached.
        folded = _apply_lockstep(
            pkg,
            node.edges[0].n,
            vten.reshape(rows, 2 * m, half),
            dense_level,
            None if out is None or s0.d is not None
            else out.reshape(rows, 2 * m, half),
        )
        if s0.d is None:
            return folded.reshape(rows, m, size)
        f4 = folded.reshape(rows, m, 2, half)
        if out is None:
            return (f4 * s0.d[:, None]).reshape(rows, m, size)
        np.multiply(f4, s0.d[:, None], out=out.reshape(rows, m, 2, half))
        return out
    halves = (vten[:, :, :half], vten[:, :, half:])
    # Assign on first write per output half instead of accumulating onto a
    # zero-filled buffer: ``w * b`` and ``0 + w * b`` only differ in signed
    # zeros, and skipping the O(size) fill plus one temporary per first use
    # is most of this level's overhead.
    if out is None:
        out = np.empty((rows, m, size), dtype=np.complex128)
    written = [False, False]
    for first, columns, uses, identity in s0.data:
        if identity:
            # The child applies as the identity: read the input halves
            # directly instead of stacking a copy just to get it back.
            parts = halves
        else:
            if len(columns) == 1:
                stacked = halves[columns[0]]
            else:
                stacked = np.concatenate(halves, axis=1)
            res = _apply_lockstep(
                pkg, node.edges[first].n, stacked, dense_level
            )
            parts = (res,) if len(columns) == 1 else (res[:, :m], res[:, m:])
        for k, i, part in uses:
            weight = node.edges[k].w
            dst = out[:, :, i * half:(i + 1) * half]
            if written[i]:
                dst += weight * parts[part]
            else:
                np.multiply(weight, parts[part], out=dst)
                written[i] = True
    for i in (0, 1):
        if not written[i]:
            out[:, :, i * half:(i + 1) * half] = 0.0
    return out


def run_border_task_batch(
    pkg: DDPackage,
    node: DDNode,
    coeff: complex,
    vin: np.ndarray,
    wout: np.ndarray,
    dense_level: int = DENSE_BLOCK_LEVEL,
    accumulate: bool = True,
) -> None:
    """Algorithm 1's Run on one border task, for every batch row.

    Row ``b`` computes ``wout[b] += coeff * M vin[b]``, ``M`` being the
    border sub-matrix under ``node``; the scalar-MAC recursion of the
    paper's C++ is replaced by the vectorized kernel (DESIGN.md
    substitution 2).  ``vin``/``wout`` are the task's input and output
    column ranges as ``(rows, size)`` views (``(rows, 1)`` for terminal
    tasks), sliced out of tile-major buffers so that they arrive
    C-contiguous and need no gather copy; ``run()`` passes one row.  Each
    row's result is bit-identical (``np.array_equal``, the repo-wide
    replay guarantee) to a one-row call on that row alone.

    A node at the border level spans its slice.  A windowed root below
    the border (levels above it implicit identity) applies ``I (x) W``:
    the kernel sees the slice as ``(rows, size >> (level + 1),
    2**(level + 1))`` blocks.  Below ``dense_level`` the blocks are
    ``2**(dense_level + 1)`` wide (at most ``size``): such a root is
    diagonal or dense, and its bottom-out base repeats over them
    (:func:`repro.dd.analysis.bottom_out`).

    With ``accumulate=False`` the block is *assigned* instead of
    accumulated, which lets planned runs write into recycled (dirty,
    never-zeroed) buffers; the values only differ from ``0 + x`` in
    signed zeros.  Terminal tasks touch single elements and stay scalar
    Python complex arithmetic (vectorized complex ops round differently).
    """
    if node is TERMINAL:
        for b in range(len(vin)):
            if accumulate:
                wout[b, 0] += coeff * vin[b, 0]
            else:
                wout[b, 0] = coeff * vin[b, 0]
        return
    rows, size = vin.shape
    if not vin.flags.c_contiguous:
        vin = np.ascontiguousarray(vin)
    level = node.level
    width = 2 << level
    if width < size and level < dense_level:
        width = min(size, 2 << dense_level)
    shape3 = (rows, size // width, width)
    v3 = vin.reshape(shape3)
    # Operand order matters bit-for-bit: numpy's FMA-based complex
    # multiply rounds differently per order, so every path computes
    # ``coeff * res``.
    if accumulate:
        res = _apply_lockstep(pkg, node, v3, dense_level)
        wout += coeff * res.reshape(rows, size)
        return
    # Assigning tasks hand the kernel their output slice as the result
    # destination, then scale in place -- no intermediate buffer at all.
    # ``res`` either IS that slice's memory (same positions, so the
    # aliased multiply is well-defined) or an input view the kernel
    # passed through untouched.
    fwd = wout.reshape(shape3) if wout.flags.c_contiguous else None
    res = _apply_lockstep(pkg, node, v3, dense_level, fwd).reshape(rows, size)
    if coeff == 1.0 + 0j:
        # Unit coefficients: ``1 * res`` differs from ``res`` only in
        # signed zeros, and assignment (unlike accumulation, which still
        # owes an add) needs no pass at all when the kernel already
        # wrote the slice.
        if not np.may_share_memory(res, wout):
            np.copyto(wout, res)
        return
    np.multiply(coeff, res, out=wout)


def _flat_tiles(
    v: np.ndarray, out: np.ndarray | None, n: int, threads: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Listing-form operands: flat ``v``, a zeroed flat ``w`` (``out`` or
    new) and both as zero-copy ``(threads, 1, h)`` tile views."""
    if v.shape != (1 << n,):
        raise ValueError(f"state length {v.shape} != 2**{n}")
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    if out is None:
        w = np.zeros_like(v)
    else:
        w = out
        w.fill(0)
    return w, v.reshape(threads, 1, -1), w.reshape(threads, 1, -1)


def _check_batch(v: np.ndarray, out, n: int, threads: int) -> None:
    """Planned-form operands: distinct tile-major ``(threads, rows, h)``."""
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    if out is None or out.shape != v.shape or v.shape[::2] != (
        threads, (1 << n) // threads
    ):
        raise ValueError(
            f"batch shape {v.shape} is not (threads={threads}, rows, "
            f"2**{n} // threads) or differs from the output's"
        )


def dmav_nocache(
    pkg: DDPackage,
    m: Edge | None,
    v: np.ndarray,
    threads: int = 1,
    runner: TaskRunner | None = None,
    dense_level: int = DENSE_BLOCK_LEVEL,
    out: np.ndarray | None = None,
    *,
    plans: list[GatePlan | TileLocalPlan] | None = None,
    out_dirty: bool = True,
) -> tuple[np.ndarray, DMAVStats]:
    """DMAV without caching (Algorithm 1): returns (w, stats).

    The *listing* form applies ``m`` to the flat state ``v``, running the
    Assign descent afresh and accumulating every task onto a zeroed
    ``out`` -- the paper's per-gate procedure, kept as the reference the
    pipeline is tested and benchmarked against.

    The *planned* form (``m`` is unused) works on tile-major ``(threads,
    rows, 2**n // threads)`` batches ``v`` and ``out``.  ``plans`` holds
    one :class:`~repro.core.plan.TileLocalPlan` per batch row, whose gates
    :func:`apply_tile_local` applies from their matrices, or exactly one
    compiled :class:`~repro.core.plan.GatePlan`, whose row-major tasks
    every row takes alike.  ``out`` is not pre-zeroed: each thread's first
    task assigns its output tile and the rest accumulate, so a dirty
    recycled buffer only needs filling (governed by ``out_dirty``) for
    threads with no tasks.
    """
    n = pkg.num_qubits
    planned = plans is not None
    if planned:
        _check_batch(v, out, n, threads)
        if isinstance(plans[0], TileLocalPlan):
            apply_tile_local(
                [p.gate for p in plans], v, out, dense_level, runner
            )
            return out, DMAVStats(threads=threads, tasks=threads)
        if len(plans) != 1:
            raise ValueError(
                f"planned dmav_nocache applies one gate DD's plan, got "
                f"{len(plans)}"
            )
        row_tasks = plans[0].row_tasks
        w, v3, w3 = None, v, out
    else:
        row_tasks = assign_tasks(pkg, m, threads)
        w, v3, w3 = _flat_tiles(v, out, n, threads)
    h = (1 << n) // threads

    def work(u: int) -> None:
        tasks = row_tasks[u]
        if not tasks:
            if planned and out_dirty:
                w3[u].fill(0)
            return
        first = planned
        for node, i_v, coeff in tasks:
            if first and node is TERMINAL:
                # A terminal border task writes a single element, not the
                # whole tile -- fall back to zero-fill + add.
                w3[u].fill(0)
                first = False
            run_border_task_batch(
                pkg, node, coeff, _tile(v3, i_v, h, node),
                _tile(w3, u * h, h, node), dense_level,
                accumulate=not first,
            )
            first = False

    _for_each_thread(runner, threads, work)
    stats = DMAVStats(threads=threads, tasks=sum(map(len, row_tasks)))
    return (w3 if planned else w), stats


def dmav_cached(
    pkg: DDPackage,
    m: Edge | None,
    v: np.ndarray,
    threads: int = 1,
    runner: TaskRunner | None = None,
    dense_level: int = DENSE_BLOCK_LEVEL,
    out: np.ndarray | None = None,
    assignment: CacheAssignment | None = None,
    *,
    plans: list[GatePlan] | None = None,
    buffers: list[np.ndarray] | None = None,
    out_dirty: bool = True,
) -> tuple[np.ndarray, DMAVStats]:
    """DMAV with caching (Algorithm 2): returns (w, stats).

    The *listing* form applies ``m`` to the flat state ``v`` with freshly
    zeroed partial buffers; ``assignment`` may be passed in when the
    caller already ran the cost model for this gate (it computes the same
    partition).

    The *planned* form takes one compiled :class:`~repro.core.plan.GatePlan`
    (``plans`` holds exactly one; ``m`` and ``assignment`` are unused) over
    tile-major ``(threads, 1, 2**n // threads)`` views ``v`` and ``out``
    and at least ``plans[0].assignment.num_buffers`` partial ``buffers``
    of that shape (from a :class:`~repro.parallel.arena.BufferArena`):
    only fused gate DDs, which ``run()`` applies to its one row, take
    Algorithm 2.  Partial buffers arrive dirty and are never pre-zeroed --
    each buffer tile is written (assigned) by exactly one task, and the
    summation reads only each output tile's writer list instead of
    scanning every buffer.  ``out`` is likewise not pre-zeroed; writerless
    tiles are filled only when ``out_dirty``.  Direct tasks (the sole
    producer of their output tile, never a later cache hit) write W in
    place and the summation skips their tile.
    """
    n = pkg.num_qubits
    planned = plans is not None
    if planned != (buffers is not None):
        raise ValueError("planned dmav_cached needs both plans and buffers")
    h = (1 << n) // threads
    if planned:
        _check_batch(v, out, n, threads)
        if len(plans) != 1 or v.shape[1] != 1:
            raise ValueError(
                f"planned dmav_cached applies one row's plan, got "
                f"{len(plans)} plans for {v.shape[1]} rows"
            )
        p0 = plans[0]
        assignment = p0.assignment
        if len(buffers) < assignment.num_buffers:
            raise ValueError(
                f"{len(buffers)} buffers passed, assignment needs "
                f"{assignment.num_buffers}"
            )
        w, v3, w3 = None, v, out
    else:
        if assignment is None:
            assignment = assign_cache_tasks(pkg, m, threads)
        w, v3, w3 = _flat_tiles(v, out, n, threads)
        buffers = [
            np.zeros((threads, 1, h), dtype=np.complex128)
            for _ in range(assignment.num_buffers)
        ]
    hits = [0] * threads

    def work(u: int) -> None:
        tasks = assignment.tasks[u]
        buf = buffers[assignment.buffer_of[u]] if tasks else None
        direct = p0.direct[u] if planned else None
        # Per-thread result cache: border node -> task index.
        cache: dict[int, int] = {}
        for k, (node, i_p, coeff) in enumerate(tasks):
            to_w = planned and direct[k]
            src = cache.get(id(node))
            if src is not None:
                # Scale the earlier result.
                simd_mul_into(
                    (w3 if to_w else buf)[i_p // h],
                    buf[tasks[src][1] // h],
                    coeff / tasks[src][2],
                )
                hits[u] += 1
                continue
            vin = _tile(v3, u * h, h, node)
            if to_w:
                # Sole producer of output tile i_p // h, never a hit
                # source: write W in place; sum_block skips this tile.
                run_border_task_batch(
                    pkg, node, coeff, vin, _tile(w3, i_p, h, node),
                    dense_level, accumulate=False,
                )
                continue
            if planned and node is TERMINAL:
                # Terminal border tasks write one element, not the whole
                # tile -- zero it so stale data can't leak.
                buf[i_p // h].fill(0)
            run_border_task_batch(
                pkg, node, coeff, vin, _tile(buf, i_p, h, node),
                dense_level, accumulate=not planned or node is TERMINAL,
            )
            cache[id(node)] = k

    _for_each_thread(runner, threads, work)

    def sum_block(u: int) -> None:
        if not planned:
            for buf in buffers:
                simd_add(w3[u], buf[u])
            return
        ws = p0.writers[u]
        if not ws:
            if p0.direct_out[u]:
                return  # a direct task already wrote this tile in full
            if out_dirty:
                w3[u].fill(0)
            return
        np.copyto(w3[u], buffers[ws[0]][u])
        for b in ws[1:]:
            simd_add(w3[u], buffers[b][u])

    _for_each_thread(runner, threads, sum_block)
    stats = DMAVStats(
        threads=threads,
        tasks=sum(map(len, assignment.tasks)),
        cache_hits=sum(hits),
        buffers=assignment.num_buffers,
        used_cache=True,
    )
    return (w3 if planned else w), stats


# ---------------------------------------------------------------------------
# Unfused gates: applied from the gate matrix, no gate DD.


def apply_tile_local(
    gates: list,
    v: np.ndarray,
    out: np.ndarray,
    dense_level: int = DENSE_BLOCK_LEVEL,
    runner: TaskRunner | None = None,
) -> np.ndarray:
    """Write ``G v`` into ``out`` for one gate, from its matrix.

    ``gates`` holds one bound gate per row of the tile-major ``(threads,
    rows, h)`` batches ``v`` and ``out``, or one gate for every row.  The
    rows' gates share kind and qubits and differ at most in parameters;
    each row's matrix comes from its own ``gate.matrix()``, and rows whose
    parameters agree share one operand.  No gate DD, plan or bottom-out
    classification is made.  ``out`` must not overlap ``v`` and may arrive
    dirty: every element is written.

    Qubits up to the border level ``n - log2 t - 1`` index amplitudes
    within a tile; a qubit above it is a bit of the tile index.  The
    branch is picked from the gate's kind and qubits, never from its
    parameter values, and takes the DMAV kernel's shapes
    (:func:`_apply_lockstep`), ``top`` being the highest qubit within a
    tile:

    * a diagonal kind (:attr:`~repro.circuits.gates.Gate.is_diagonal`) is
      one elementwise scale by its diagonal, tiled to
      ``2**(dense_level+1)`` over a window that reaches below the dense
      level, else broadcast over the untouched bits under its lowest
      qubit (the ``diagonal`` and ``scale`` shapes); its tile-index bits
      pick each tile's diagonal;
    * a window at or below ``dense_level`` is one GEMM with the gate's
      window matrix, ``2**(top+1)`` wide (``DENSE_WINDOW_WIDTH`` for a
      one-qubit window), the ``dense`` width of
      :func:`~repro.dd.analysis.bottom_out`;
    * one target above it, with no control below the target, is a 2x2
      ``pair`` matmul over ``(2, 2**target)`` runs;
    * controls are slice views on either axis: a tile whose control bit
      is 0 is copied, and within a tile every slice with a control at 0
      is copied;
    * swap kinds are permutation copies, and every other gate is the sum
      ``out_i = sum_j x_j * U[i, j]`` over its target patterns, one
      elementwise term at a time, with ``x_j`` read from the partner
      tile when a target is a tile-index bit (the 2x2 combination of
      tile pairs for one target).

    Every GEMM runs per tile and per row (``M = h // width``): per-row
    matrices stack on the batch axis and tiles are never merged, so a
    batch row is bit-identical to a one-row call, and ``runner``'s pool,
    on which each thread writes one output tile reading its partner
    tiles, changes no bits.
    """
    threads, _, h = v.shape
    border = h.bit_length() - 2
    g0 = gates[0]
    if max(g0.qubits) > border:
        _for_each_thread(
            runner, threads, _cross_tile(gates, border, v, out, dense_level)
        )
    elif runner is not None and runner.use_pool:
        runner.run([
            lambda u=u: _tile_local(
                gates, g0.targets, g0.controls, v[u:u + 1], out[u:u + 1],
                dense_level,
            )
            for u in range(threads)
        ])
    else:
        _tile_local(gates, g0.targets, g0.controls, v, out, dense_level)
    return out


def _tile_local(gates: list, targets, controls, v, out, dense_level) -> None:
    """The branch for ``gates`` on ``targets`` and ``controls``, every
    one a qubit within each tile of ``v``."""
    g0 = gates[0]
    qubits = sorted((*targets, *controls), reverse=True)
    if g0.is_diagonal:
        _tile_diagonal(
            _row_operand(gates, _entries, 1), targets, controls, v, out,
            dense_level,
        )
    elif qubits[0] <= dense_level:
        _tile_gemm(gates, targets, controls, v, out)
    elif len(targets) > 1 or (controls and min(controls) < targets[0]):
        _tile_sum(gates, controls, v, out)(None)
    elif controls:
        vs, os_ = _split(v, qubits), _split(out, qubits)
        _copy_control_off(vs, os_, qubits, controls)
        on = _select(vs.ndim, qubits, dict.fromkeys(controls, 1))
        # Below the lowest control, the all-ones slice is contiguous.
        lead = vs.ndim - 2 * len(qubits) - 1 + len(controls)
        chunk = 1 << min(controls)
        _tile_uncontrolled(
            gates, targets[0], _view(vs[on], lead, chunk),
            _view(os_[on], lead, chunk), dense_level,
        )
    else:
        _tile_uncontrolled(gates, targets[0], v, out, dense_level)


def _cross_tile(gates: list, border: int, v, out, dense_level):
    """The work on output tile ``u`` of a gate with a qubit above
    ``border``: qubit ``q`` above it is bit ``q - border - 1`` of the tile
    index.  A tile with a control bit at 0 is copied; otherwise a gate
    whose targets all lie within the tile applies to it alone, a
    diagonal scales it by its own diagonal, and any other gate sums over
    its partner tiles (:func:`_tile_sum`)."""
    g0 = gates[0]
    high = {q: 1 << (q - border - 1) for q in g0.qubits if q > border}
    controls = tuple(c for c in g0.controls if c not in high)
    on = sum(high[c] for c in g0.controls if c in high)
    targets = {t: high[t] for t in g0.targets if t in high}
    if not targets:
        def tile(u):
            _tile_local(
                gates, g0.targets, controls, v[u:u + 1], out[u:u + 1],
                dense_level,
            )
    elif g0.is_diagonal:
        entries = _row_operand(gates, _entries, 1)

        def tile(u):
            _tile_diagonal(
                entries, g0.targets, controls, v[u:u + 1], out[u:u + 1],
                dense_level, base=u << (border + 1),
            )
    else:
        tile = _tile_sum(gates, controls, v, out, targets)

    def work(u: int) -> None:
        if u & on == on:
            tile(u)
        else:
            np.copyto(out[u], v[u])

    return work


def _tile_sum(gates: list, controls, v, out, high=None):
    """``out_i = sum_j x_j * U[i, j]`` over the gate's target patterns.

    ``x_j`` is the slice with target pattern ``j`` and every control in
    ``controls`` at 1; every slice with one of them at 0 is copied.
    Swap kinds copy the one ``x_j`` of their permutation.  Returns the
    work on one output tile: ``u``, whose partner tiles -- ``u`` with
    the bits of the targets in ``high`` (target -> tile-index bit) set
    to ``j``'s -- hold the ``x_j``; or, for ``None``, every tile of
    ``v`` at once, each its own partner.
    """
    g0 = gates[0]
    targets, high = g0.targets, high or {}
    k = len(targets)
    qubits = sorted(
        (*(t for t in targets if t not in high), *controls), reverse=True
    )
    on = dict.fromkeys(controls, 1)
    mask = sum(high.values())

    def place(i: int) -> tuple:
        """Pattern ``i``'s tile-index bits and its slice within a tile of
        a :func:`_split` ``(tiles, rows, h)`` view."""
        bits = {t: (i >> (k - 1 - m)) & 1 for m, t in enumerate(targets)}
        low = {t: b for t, b in bits.items() if t not in high}
        return (
            sum(m for t, m in high.items() if bits[t]),
            _select(3 + 2 * len(qubits), qubits, {**on, **low}),
        )

    places = [place(i) for i in range(1 << k)]
    if g0.base_name == "swap":
        terms = [(i, [(((i & 1) << 1) | (i >> 1), None)]) for i in range(4)]
    else:
        # Coefficients broadcast like a slice with every split qubit
        # fixed: (tiles, rows) and the untouched bits' axes.
        coef = _row_operand(gates, lambda g: g.matrix(), 2 + len(qubits))
        terms = [
            (i, [(j, coef[..., i, j]) for j in range(1 << k)])
            for i in range(1 << k)
        ]

    def work(u: int | None) -> None:
        rest, mine = (0, 0) if u is None else (u & ~mask, u & mask)
        views: dict = {}

        def source(bits: int) -> np.ndarray:
            view = views.get(bits)
            if view is None:
                tile = rest | bits
                view = views[bits] = _split(
                    v if u is None else v[tile:tile + 1], qubits
                )
            return view

        dst = _split(out if u is None else out[u:u + 1], qubits)
        _copy_control_off(source(mine), dst, qubits, controls)
        for i, sums in terms:
            bits, index = places[i]
            if bits != mine:
                continue
            o = dst[index]
            for n, (j, c) in enumerate(sums):
                x = source(places[j][0])[places[j][1]]
                if c is None:
                    np.copyto(o, x)
                elif n == 0:
                    np.multiply(x, c, out=o)
                else:
                    o += x * c

    return work


def _tile_uncontrolled(gates, target, v, out, dense_level: int) -> None:
    """The gate's one target alone, on contiguous runs along ``v``'s last
    axis: the dense-window GEMM, or the 2x2 pair above it."""
    if target <= dense_level:
        _tile_gemm(gates, (target,), (), v, out)
        return
    lead, half = v.ndim - 1, 1 << target
    np.matmul(
        _row_operand(gates, lambda g: g.matrix(), lead),
        v.reshape(*v.shape[:-1], -1, 2, half),
        out=_view(out, lead, -1, 2, half),
    )


def _view(x: np.ndarray, lead: int, *tail: int) -> np.ndarray:
    """``x``'s first ``lead`` axes with the rest reshaped to ``tail``, as
    a view (raises rather than copy, so writes always land in ``x``)."""
    view = x.view()
    view.shape = (*x.shape[:lead], *tail)
    return view


def _row_operand(gates: list, build, batch_dims: int) -> np.ndarray:
    """``build(gate)`` once when every row's parameters agree, else stacked
    per row on the batch axis with ``batch_dims - 1`` singleton axes
    after it, to broadcast against ``(tiles, rows, ...)``."""
    g0 = gates[0]
    if all(g.params == g0.params for g in gates[1:]):
        return build(g0)
    stacked = np.stack([build(g) for g in gates])
    return stacked.reshape(
        stacked.shape[:1] + (1,) * (batch_dims - 1) + stacked.shape[1:]
    )


def _split(x: np.ndarray, qubits: list[int]) -> np.ndarray:
    """``x`` with its last axis split into one size-2 axis per qubit.

    ``qubits`` is descending; axis ``lead + 1 + 2 * i`` (``lead`` being
    ``x.ndim - 1``) is ``qubits[i]``'s bit, and the axes around them hold
    the untouched bits, highest first.
    """
    shape = []
    above = x.shape[-1].bit_length() - 1
    for q in qubits:
        shape += [1 << (above - q - 1), 2]
        above = q
    shape.append(1 << above)
    return _view(x, x.ndim - 1, *shape)


def _select(ndim: int, qubits: list[int], bits: dict) -> tuple:
    """Index into an ``ndim``-axis :func:`_split` view fixing ``bits``."""
    index = [slice(None)] * ndim
    lead = ndim - 2 * len(qubits) - 1
    for q, b in bits.items():
        index[lead + 1 + 2 * qubits.index(q)] = b
    return tuple(index)


def _copy_control_off(vs, os_, qubits, controls) -> None:
    """Copy every slice of a :func:`_split` view with a control at 0."""
    for i, c in enumerate(controls):
        off = _select(
            vs.ndim, qubits, {**dict.fromkeys(controls[:i], 1), c: 0}
        )
        np.copyto(os_[off], vs[off])


def _tile_diagonal(
    entries, targets, controls, v, out, dense_level: int, base: int = 0
) -> None:
    """Diagonal kinds: ``out = v * diag`` in one elementwise pass.

    ``entries`` is the gate's :func:`_entries`, or one row of them per
    batch row.  The diagonal spans bits ``lo .. top`` of the qubits
    within a tile.  When every one of them sits above ``dense_level``,
    ``lo`` is the lowest and the scale broadcasts over runs of ``2**lo``
    (the DMAV ``scale`` shape); otherwise ``lo = 0`` and a window
    narrower than ``2**(dense_level+1)`` is tiled to that width (the
    ``diagonal`` shape).  A target above the tile is read from ``base``,
    the tile's first amplitude; with no qubit within the tile the
    diagonal is one scalar per tile.
    """
    tiles, rows, h = v.shape
    qubits = sorted(
        (*(t for t in targets if 1 << t < h), *controls), reverse=True
    )
    if not qubits:
        lo, width = h.bit_length() - 1, 1
    elif qubits[-1] > dense_level:
        lo = qubits[-1]
        width = 2 << qubits[0] >> lo
    else:
        lo = 0
        width = max(2 << qubits[0], min(h, 2 << dense_level))
    index = _gather_index(
        tuple(targets), tuple(controls), width, lo, True, base
    )
    diag = entries[..., index]
    if diag.ndim == 2:
        diag = diag[:, None]  # per row: broadcast over (tiles, rows, ...)
    shape = (tiles, rows, h // (width << lo), width)
    if lo:
        shape += (1 << lo,)
        diag = diag[..., None]
    np.multiply(v.reshape(shape), diag, out=_view(out, 0, *shape))


def _tile_gemm(gates, targets, controls, v, out) -> None:
    """A window at or below the dense level: one GEMM per tile and row.

    The width is the window's, or ``DENSE_WINDOW_WIDTH`` for a one-qubit
    window when ``v``'s runs are that long.
    """
    width = max(
        2 << max((*targets, *controls)),
        min(DENSE_WINDOW_WIDTH, v.shape[-1]),
    )
    # Gathered transposed, so the GEMM's right operand is contiguous.
    index = _gather_index(tuple(targets), tuple(controls), width, 0, False).T
    block_t = _row_operand(gates, lambda g: _entries(g)[index], v.ndim - 2)
    np.matmul(
        v.reshape(*v.shape[:-1], -1, width),
        block_t,
        out=_view(out, v.ndim - 1, -1, width),
    )


_ZERO_ONE = np.array([0.0, 1.0], dtype=np.complex128)


def _entries(gate) -> np.ndarray:
    """``gate.matrix()`` flattened, then a 0 and a 1: what
    :func:`_gather_index` indexes."""
    return np.concatenate((gate.matrix().reshape(-1), _ZERO_ONE))


@functools.lru_cache(maxsize=1024)
def _gather_index(
    targets, controls, width: int, lo: int, diagonal: bool, base: int = 0
):
    """Where each entry of a gate's window operand comes from.

    The operand covers ``width`` amplitudes from bit ``lo`` (its position
    ``r`` is amplitude ``base | r << lo``): the window matrix (``width``
    square), or with ``diagonal`` only its diagonal.  Entry ``(r, c)``
    is ``U[p(r), p(c)]`` where every control bit is 1 and the untouched
    bits agree, ``p`` being the target-bit pattern (``targets[0]`` most
    significant), the identity's 1 or 0 elsewhere.  Each is an index into
    :func:`_entries`: ``p(r) * 2**k + p(c)`` for ``U``, ``4**k`` for 0
    and ``4**k + 1`` for 1.  Structure only, so cached.
    """
    k = len(targets)
    pos = base | (np.arange(width) << lo)
    pattern = sum(
        ((pos >> t) & 1) << (k - 1 - i) for i, t in enumerate(targets)
    )
    on = np.ones(width, dtype=bool)
    for c in controls:
        on &= ((pos >> c) & 1).astype(bool)
    if diagonal:
        index = np.where(on, pattern * ((1 << k) + 1), 4 ** k + 1)
    else:
        rest = pos & ~sum(1 << t for t in targets)
        same = rest[:, None] == rest[None, :]
        ident = pattern[:, None] == pattern[None, :]
        index = np.where(
            same & on[:, None],
            (pattern << k)[:, None] + pattern[None, :],
            np.where(same & ident, 4 ** k + 1, 4 ** k),
        )
    index.setflags(write=False)
    return index
