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

One kernel and one border-task runner (:func:`run_border_task_batch`)
serve every caller.  They work on ``rows`` state vectors at once, each
row with its own gate DD, and ``run()`` is the one-row case.  The planned
forms of both algorithms take one compiled plan per row over tile-major
``(threads, rows, 2**n // threads)`` buffers: ``run()`` passes its flat
state as a ``(threads, 1, h)`` view, a parameter sweep
(:mod:`repro.core.sweep`) a block of rows.  A row's result never depends
on the other rows, so sweep rows stay bit-identical to ``run()``.  The
listing forms (no plans, a flat state) are the per-gate reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.config import DENSE_BLOCK_LEVEL
from repro.dd.analysis import BottomOut, bottom_out
from repro.dd.node import TERMINAL, DDNode, Edge
from repro.dd.package import DDPackage
from repro.core.cost_model import CacheAssignment, assign_cache_tasks
from repro.core.plan import GatePlan
from repro.parallel.partition import border_level
from repro.parallel.pool import TaskRunner, validate_thread_count
from repro.parallel.simd import simd_add, simd_mul_into

__all__ = [
    "DMAVStats",
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
    border edge's own weight.
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
    task's column offset.  A non-terminal border node sits at the border
    level, so its task spans exactly one tile -- C-contiguous whenever
    ``t3``'s rows are, as in every arena buffer, row block and one-row
    view; a terminal task touches one column.
    """
    if node is not TERMINAL:
        return t3[off // h]
    return t3[off // h][:, off % h:off % h + 1]


def _column(row_tasks: list, u: int, k: int) -> tuple[list, list]:
    """Every row's node and coefficient of thread ``u``'s ``k``-th task."""
    return (
        [tasks[u][k][0] for tasks in row_tasks],
        [tasks[u][k][2] for tasks in row_tasks],
    )


def _for_each_thread(runner: TaskRunner | None, threads: int, work) -> None:
    """``work(u)`` for every thread ``u``, on the pool when it has one."""
    if runner is not None and runner.use_pool:
        runner.run([lambda u=u: work(u) for u in range(threads)])
    else:
        for u in range(threads):
            work(u)


def _rows_agree(shapes: list[BottomOut]) -> bool:
    """Whether one batched branch serves every row's bottom-out shape.

    Rows at one recursion point share their level by construction; they
    must also share the kind, whether ``d`` is skipped, and the kind's
    operand sizes: the ``d`` length of a scale, the base block size of a
    diagonal or dense base, the child grouping of a descend.
    """
    s0 = shapes[0]
    kind = s0.kind
    unit = s0.d is None
    for s in shapes[1:]:
        if s.kind != kind or (s.d is None) != unit:
            return False
        if kind == "scale" and s.d.size != s0.d.size:
            return False
        if kind in ("diagonal", "dense") and s.data.shape != s0.data.shape:
            return False
        if kind == "descend" and s.data != s0.data:
            return False
    return True


def _row_scales(shapes: list[BottomOut]) -> np.ndarray:
    """Per-row ``d`` scales, broadcastable over ``(rows, m, len(d), bs)``."""
    return np.stack([s.d for s in shapes])[:, None, :, None]


def _apply_lockstep(
    pkg: DDPackage,
    nodes: list[DDNode],
    vten: np.ndarray,
    dense_level: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply gate sub-DDs to a batch of vector blocks, all rows in lockstep.

    ``vten`` has shape ``(rows, m, 2**(level+1))``: row ``b`` stacks the
    ``m`` vector blocks its sub-DD applies to.  ``nodes`` holds either one
    node shared by every row (``run()``'s one-row case, or rows whose
    sub-DDs are the same object) or one node per row (rows of a parameter
    sweep share structure but differ in edge weights, so the node
    *objects* usually differ).  Recursion groups the four 2x2-block
    children by child node, stacking their input halves into one call, so
    the call count is proportional to the gate DD's edge count, not to
    its root-to-terminal paths (the pure-Python analogue of the paper's
    constant-average-indexing claim for DMAV, Section 3.2.1).

    The branch taken is the node's cached :func:`bottom_out` shape, so a
    subtree costs what its structure needs (Fig. 8): an identity base is
    one ``d`` scale, a diagonal base one elementwise scale (plus ``d``
    unless it is all ones), only a genuinely dense base runs a block
    matmul, and a dense level over one identity subtree runs as one 2x2
    matmul.  A shared node applies with scalar weights and its own
    operands; per-row nodes stack theirs along a leading batch axis, so
    each gemm becomes a broadcast matmul whose trailing two dimensions
    equal the one-row gemm (numpy evaluates broadcast matmuls
    slice-by-slice with the same kernel) and every scale or accumulate
    stays elementwise with the same operand order: each row's result is
    bit-identical to its one-row run.  Whenever per-row nodes disagree
    structurally (:func:`_rows_agree`) the level replays one row at a
    time, exact by construction, just not batched.

    ``out`` is a best-effort, C-contiguous result destination of
    ``vten``'s shape that must not overlap it.  Branches whose final
    operation can target it directly do so (skipping one result-sized
    allocation); others -- notably identity subtrees, which return
    ``vten`` itself -- ignore it.  Callers must therefore always use the
    *returned* array; the values written are the same bits either way.
    """
    n0 = nodes[0]
    s0 = bottom_out(pkg, n0, dense_level)
    shapes = None
    if len(nodes) > 1:
        if all(nd is n0 for nd in nodes):
            nodes = [n0]
        else:
            shapes = [bottom_out(pkg, nd, dense_level) for nd in nodes]
            if not _rows_agree(shapes):
                if out is None:
                    out = np.empty(vten.shape, dtype=np.complex128)
                for b, node in enumerate(nodes):
                    out[b:b + 1] = _apply_lockstep(
                        pkg, [node], vten[b:b + 1], dense_level
                    )
                return out
    kind = s0.kind
    if kind == "identity":
        return vten
    rows, m, size = vten.shape
    if kind == "dense" and n0.level <= dense_level:
        if shapes is None:
            block_t = s0.data.T
        else:
            block_t = np.stack([s.data for s in shapes]).transpose(0, 2, 1)
        if out is None:
            return vten @ block_t
        np.matmul(vten, block_t, out=out)
        return out
    if kind == "scale":
        # diag(d) (x) I: the d scale alone, broadcast over the identity base.
        dsize = s0.d.size
        shape4 = (rows, m, dsize, size // dsize)
        dst = None if out is None else out.reshape(shape4)
        d = s0.d[:, None] if shapes is None else _row_scales(shapes)
        return np.multiply(vten.reshape(shape4), d, out=dst).reshape(
            rows, m, size
        )
    if kind == "diagonal" or kind == "dense":
        # diag(d) (x) M_base over (m, len(d), bs) blocks; d is None when
        # it is all ones.
        bs = s0.data.shape[0]
        shape4 = (rows, m, size // bs, bs)
        dst = None if out is None else out.reshape(shape4)
        if kind == "diagonal":
            diag = (
                s0.data
                if shapes is None
                else np.stack([s.data for s in shapes])[:, None, None, :]
            )
            folded = np.multiply(vten.reshape(shape4), diag, out=dst)
        else:
            if shapes is None:
                block_t = s0.data.T
            else:
                block_t = np.stack(
                    [s.data for s in shapes]
                ).transpose(0, 2, 1)[:, None]
            folded = np.matmul(vten.reshape(shape4), block_t, out=dst)
        if s0.d is not None:
            folded *= s0.d[:, None] if shapes is None else _row_scales(shapes)
        return folded.reshape(rows, m, size)
    half = size // 2
    if kind == "pair":
        u = (
            s0.data
            if shapes is None
            else np.stack([s.data for s in shapes])[:, None]
        )
        dst = None if out is None else out.reshape(rows, m, 2, half)
        return np.matmul(
            u, vten.reshape(rows, m, 2, half), out=dst
        ).reshape(rows, m, size)
    if kind == "passthrough":
        # Pass-through level (diag block, shared child): fold the halves
        # into the batch axis as a *view* and recurse once -- zero copies
        # until a non-trivial level is reached.
        children = (
            [n0.edges[0].n] if shapes is None
            else [nd.edges[0].n for nd in nodes]
        )
        folded = _apply_lockstep(
            pkg,
            children,
            vten.reshape(rows, 2 * m, half),
            dense_level,
            None if out is None or s0.d is not None
            else out.reshape(rows, 2 * m, half),
        )
        if s0.d is None:
            return folded.reshape(rows, m, size)
        f4 = folded.reshape(rows, m, 2, half)
        d = s0.d[:, None] if shapes is None else _row_scales(shapes)
        if out is None:
            return (f4 * d).reshape(rows, m, size)
        np.multiply(f4, d, out=out.reshape(rows, m, 2, half))
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
            children = (
                [n0.edges[first].n] if shapes is None
                else [nd.edges[first].n for nd in nodes]
            )
            res = _apply_lockstep(pkg, children, stacked, dense_level)
            parts = (res,) if len(columns) == 1 else (res[:, :m], res[:, m:])
        for k, i, part in uses:
            if shapes is None:
                weight = n0.edges[k].w
            else:
                weight = np.array(
                    [nd.edges[k].w for nd in nodes], dtype=np.complex128
                )[:, None, None]
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
    nodes: list[DDNode],
    coeffs,
    vin: np.ndarray,
    wout: np.ndarray,
    dense_level: int = DENSE_BLOCK_LEVEL,
    accumulate: bool = True,
) -> None:
    """Algorithm 1's Run on one border task of every batch row.

    Row ``b`` computes ``wout[b] += coeffs[b] * M_b vin[b]``, ``M_b``
    being the border sub-matrix under ``nodes[b]``; the scalar-MAC
    recursion of the paper's C++ is replaced by the vectorized kernel
    (DESIGN.md substitution 2).  ``vin``/``wout`` are the task's input and
    output column ranges as ``(rows, size)`` views (``(rows, 1)`` for
    terminal tasks), sliced out of tile-major batch buffers so that they
    arrive C-contiguous and need no gather copy; ``run()`` is the
    one-row case.  Each row's result is bit-identical (``np.array_equal``,
    the repo-wide replay guarantee) to a one-row call on that row alone.

    With ``accumulate=False`` the block is *assigned* instead of
    accumulated, which lets planned runs write into recycled (dirty,
    never-zeroed) buffers; the values only differ from ``0 + x`` in
    signed zeros.  The caller guarantees structural congruence of the
    rows' tasks: all rows' nodes are terminal together or not.  Terminal
    tasks touch single elements and stay scalar Python complex arithmetic
    (vectorized complex ops round differently).
    """
    if nodes[0] is TERMINAL:
        if accumulate:
            for b, c in enumerate(coeffs):
                wout[b, 0] += c * vin[b, 0]
        else:
            for b, c in enumerate(coeffs):
                wout[b, 0] = c * vin[b, 0]
        return
    rows, size = vin.shape
    if not vin.flags.c_contiguous:
        vin = np.ascontiguousarray(vin)
    v3 = vin.reshape(rows, 1, size)
    # Operand order matters bit-for-bit: numpy's FMA-based complex
    # multiply rounds differently per order, so every path computes
    # ``coeff * res``.
    if rows == 1:
        coeff = coeffs[0]
        unit = coeff == 1.0 + 0j
    else:
        coeff = np.asarray(coeffs, dtype=np.complex128)[:, None]
        unit = all(c == 1.0 + 0j for c in coeffs)
    if accumulate:
        res = _apply_lockstep(pkg, nodes, v3, dense_level)
        wout += coeff * res.reshape(rows, size)
        return
    # Assigning tasks hand the kernel their output slice as the result
    # destination, then scale in place -- no intermediate buffer at all.
    # ``res`` either IS that slice's memory (same positions, so the
    # aliased multiply is well-defined) or an input view the kernel
    # passed through untouched.
    fwd = wout.reshape(rows, 1, size) if wout.flags.c_contiguous else None
    res = _apply_lockstep(pkg, nodes, v3, dense_level, fwd).reshape(rows, size)
    if unit:
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
    plans: list[GatePlan] | None = None,
    out_dirty: bool = True,
) -> tuple[np.ndarray, DMAVStats]:
    """DMAV without caching (Algorithm 1): returns (w, stats).

    The *listing* form applies ``m`` to the flat state ``v``, running the
    Assign descent afresh and accumulating every task onto a zeroed
    ``out`` -- the paper's per-gate procedure, kept as the reference the
    pipeline is tested and benchmarked against.

    The *planned* form takes one compiled :class:`~repro.core.plan.GatePlan`
    per batch row in ``plans`` (``m`` is unused): the rows' ``row_tasks``,
    congruent in task counts, offsets and terminal classes, over
    tile-major ``(threads, rows, 2**n // threads)`` batches ``v`` and
    ``out``.  ``out`` is not pre-zeroed: each thread's first task assigns
    its output tile and the rest accumulate, so a dirty recycled buffer
    only needs filling (governed by ``out_dirty``) for threads with no
    tasks.
    """
    n = pkg.num_qubits
    planned = plans is not None
    if planned:
        _check_batch(v, out, n, threads)
        row_tasks = [p.row_tasks for p in plans]
        w, v3, w3 = None, v, out
    else:
        row_tasks = [assign_tasks(pkg, m, threads)]
        w, v3, w3 = _flat_tiles(v, out, n, threads)
    h = (1 << n) // threads
    one_row = len(row_tasks) == 1

    def work(u: int) -> None:
        tasks = row_tasks[0][u]
        if not tasks:
            if planned and out_dirty:
                w3[u].fill(0)
            return
        first = planned
        for k, (node, i_v, coeff) in enumerate(tasks):
            if first and node is TERMINAL:
                # A terminal border task writes a single element, not the
                # whole tile -- fall back to zero-fill + add.
                w3[u].fill(0)
                first = False
            nodes, coeffs = (
                ((node,), (coeff,)) if one_row else _column(row_tasks, u, k)
            )
            run_border_task_batch(
                pkg, nodes, coeffs, _tile(v3, i_v, h, node),
                _tile(w3, u * h, h, node), dense_level,
                accumulate=not first,
            )
            first = False

    _for_each_thread(runner, threads, work)
    stats = DMAVStats(threads=threads, tasks=sum(map(len, row_tasks[0])))
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
    per batch row in ``plans`` (``m`` and ``assignment`` are unused) over
    tile-major ``(threads, rows, 2**n // threads)`` batches ``v`` and
    ``out`` and at least ``plans[0].assignment.num_buffers`` partial
    ``buffers`` of that shape (from a
    :class:`~repro.parallel.arena.BufferArena`).  The rows' plans are
    congruent: their column tasks differ only in nodes and coefficients,
    and row 0's buffer sharing, writer lists and direct-write flags serve
    every row.  Partial buffers arrive dirty and are never pre-zeroed --
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
        p0 = plans[0]
        assignment = p0.assignment
        if len(buffers) < assignment.num_buffers:
            raise ValueError(
                f"{len(buffers)} buffers passed, assignment needs "
                f"{assignment.num_buffers}"
            )
        row_tasks = [p.assignment.tasks for p in plans]
        w, v3, w3 = None, v, out
    else:
        if assignment is None:
            assignment = assign_cache_tasks(pkg, m, threads)
        row_tasks = [assignment.tasks]
        w, v3, w3 = _flat_tiles(v, out, n, threads)
        buffers = [
            np.zeros((threads, 1, h), dtype=np.complex128)
            for _ in range(assignment.num_buffers)
        ]
    hits = [0] * threads
    one_row = len(row_tasks) == 1

    def work(u: int) -> None:
        tasks = row_tasks[0][u]
        buf = buffers[assignment.buffer_of[u]] if tasks else None
        direct = p0.direct[u] if planned else None
        # Per-thread result cache: border node -> task index.
        cache: dict[int, int] = {}
        for k, (node, i_p, coeff) in enumerate(tasks):
            to_w = planned and direct[k]
            src = cache.get(id(node))
            if src is not None:
                # Scale the earlier result.  Ratios divide per row in
                # scalar arithmetic: scalar and vectorized complex
                # division round differently.
                if one_row:
                    ratio = coeff / tasks[src][2]
                else:
                    ratio = np.array(
                        [t[u][k][2] / t[u][src][2] for t in row_tasks],
                        dtype=np.complex128,
                    )[:, None]
                simd_mul_into(
                    (w3 if to_w else buf)[i_p // h],
                    buf[tasks[src][1] // h],
                    ratio,
                )
                hits[u] += 1
                continue
            nodes, coeffs = (
                ((node,), (coeff,)) if one_row else _column(row_tasks, u, k)
            )
            vin = _tile(v3, u * h, h, node)
            if to_w:
                # Sole producer of output tile i_p // h, never a hit
                # source: write W in place; sum_block skips this tile.
                run_border_task_batch(
                    pkg, nodes, coeffs, vin, _tile(w3, i_p, h, node),
                    dense_level, accumulate=False,
                )
                continue
            if planned and node is TERMINAL:
                # Terminal border tasks write one element, not the whole
                # tile -- zero it so stale data can't leak.
                buf[i_p // h].fill(0)
            run_border_task_batch(
                pkg, nodes, coeffs, vin, _tile(buf, i_p, h, node),
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
