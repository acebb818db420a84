"""DMAV: DD-matrix x array-vector multiplication (Sections 3.2.1-3.2.2).

This is FlatDD's core contribution: the gate matrix stays a DD (constant
average indexing work, full structure sharing) while the state vector is a
flat array (no irregularity blow-up).

* :func:`assign_tasks` / :func:`dmav_nocache` -- Algorithm 1.  ``Assign``
  splits the t threads in half at each DD level down to the border level
  ``n - log2 t - 1`` (row-major: each thread owns a row block of the output
  and reads all of V), then ``Run`` evaluates each border sub-matrix.
  Both descents live beside the cost model that prices them
  (:mod:`repro.core.cost_model`); ``assign_tasks`` is re-exported here.
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

The pipeline applies DMAV to fused gates only, and only to ``run()``'s
one row: the kernel and the border-task runner
(:func:`run_border_task_batch`) apply one gate DD's plan to that row,
viewed as ``threads`` tiles of ``2**n // threads`` amplitudes.  The
listing forms (no plans, a flat state) are the per-gate reference.

An unfused gate needs no DD at all, neither to apply nor to price: the
planned :func:`dmav_nocache` takes its
:class:`~repro.core.plan.TileLocalPlan` (its closed-form MACs and C1)
and :func:`apply_tile_local` applies it from its matrix to the row-major
``(rows, 2**n)`` batch, at any placement: every qubit is a bit of the
amplitude axis, and rows of a parameter sweep
(:mod:`repro.core.sweep`) stack their matrices on the rows axis
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
from repro.core.cost_model import (
    CacheAssignment,
    assign_cache_tasks,
    assign_tasks,
)
from repro.core.plan import GatePlan, TileLocalPlan
from repro.parallel.pool import TaskRunner
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


def _tile(tiles: np.ndarray, off: int, h: int, node: DDNode) -> np.ndarray:
    """The amplitudes a border task under ``node`` touches.

    ``tiles`` is a row viewed as ``(threads, h)`` and ``off`` the task's
    offset.  A non-terminal task spans exactly one tile: its node sits at
    the border level, or below it as a windowed root that repeats down
    the tile's diagonal.  A terminal task touches one amplitude.
    """
    if node is not TERMINAL:
        return tiles[off // h]
    return tiles[off // h][off % h:off % h + 1]


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
    """Apply a gate sub-DD to a stack of vector blocks.

    ``vten`` has shape ``(m, 2**(level+1))``: the ``m`` vector blocks the
    sub-DD under ``node`` applies to (a windowed root below the dense
    level may arrive in wider blocks of ``I (x) W``, see
    :func:`run_border_task_batch`).  Recursion groups the four 2x2-block
    children by child node, stacking their input halves into one call, so
    the call count is proportional to the gate DD's edge count, not to
    its root-to-terminal paths (the pure-Python analogue of the paper's
    constant-average-indexing claim for DMAV, Section 3.2.1).

    The branch taken is the node's cached :func:`bottom_out` shape, so a
    subtree costs what its structure needs (Fig. 8): an identity base is
    one ``d`` scale, a diagonal base one elementwise scale (plus ``d``
    unless it is all ones), only a genuinely dense base runs a block
    matmul, and a dense level over one identity subtree runs as one 2x2
    matmul.

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
    m, size = vten.shape
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
                vten = vten.reshape(m * size // bs, bs)
                res = vten @ block_t if out is None else np.matmul(
                    vten, block_t, out=out.reshape(vten.shape)
                )
                return res.reshape(m, size)
        if out is None:
            return vten @ block_t
        np.matmul(vten, block_t, out=out)
        return out
    if kind == "scale":
        # diag(d) (x) I: the d scale alone, broadcast over the identity base.
        dsize = s0.d.size
        shape3 = (m, dsize, size // dsize)
        dst = None if out is None else out.reshape(shape3)
        return np.multiply(
            vten.reshape(shape3), s0.d[:, None], out=dst
        ).reshape(m, size)
    if kind == "diagonal" or kind == "dense":
        # diag(d) (x) M_base over (m, len(d), bs) blocks; d is None when
        # it is all ones.
        data = s0.data
        bs = data.shape[-1]
        if bs > size:
            # A window root's diagonal (analysis._window) over a tile
            # narrower than its tiling.
            data, bs = data[..., :size], size
        shape3 = (m, size // bs, bs)
        dst = None if out is None else out.reshape(shape3)
        if kind == "diagonal":
            folded = np.multiply(vten.reshape(shape3), data, out=dst)
        else:
            folded = np.matmul(vten.reshape(shape3), data.T, out=dst)
        if s0.d is not None:
            folded *= s0.d[:, None]
        return folded.reshape(m, size)
    half = size // 2
    if kind == "pair":
        dst = None if out is None else out.reshape(m, 2, half)
        return np.matmul(
            s0.data, vten.reshape(m, 2, half), out=dst
        ).reshape(m, size)
    if kind == "passthrough":
        # Pass-through level (diag block, shared child): fold the halves
        # into the stack axis as a *view* and recurse once -- zero copies
        # until a non-trivial level is reached.
        folded = _apply_lockstep(
            pkg,
            node.edges[0].n,
            vten.reshape(2 * m, half),
            dense_level,
            None if out is None or s0.d is not None
            else out.reshape(2 * m, half),
        )
        if s0.d is None:
            return folded.reshape(m, size)
        f3 = folded.reshape(m, 2, half)
        if out is None:
            return (f3 * s0.d[:, None]).reshape(m, size)
        np.multiply(f3, s0.d[:, None], out=out.reshape(m, 2, half))
        return out
    halves = (vten[:, :half], vten[:, half:])
    # Assign on first write per output half instead of accumulating onto a
    # zero-filled buffer: ``w * b`` and ``0 + w * b`` only differ in signed
    # zeros, and skipping the O(size) fill plus one temporary per first use
    # is most of this level's overhead.
    if out is None:
        out = np.empty((m, size), dtype=np.complex128)
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
                stacked = np.concatenate(halves)
            res = _apply_lockstep(
                pkg, node.edges[first].n, stacked, dense_level
            )
            parts = (res,) if len(columns) == 1 else (res[:m], res[m:])
        for k, i, part in uses:
            weight = node.edges[k].w
            dst = out[:, i * half:(i + 1) * half]
            if written[i]:
                dst += weight * parts[part]
            else:
                np.multiply(weight, parts[part], out=dst)
                written[i] = True
    for i in (0, 1):
        if not written[i]:
            out[:, i * half:(i + 1) * half] = 0.0
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
    """Algorithm 1's Run on one border task: ``wout += coeff * M vin``.

    ``M`` is the border sub-matrix under ``node``; the scalar-MAC
    recursion of the paper's C++ is replaced by the vectorized kernel
    (DESIGN.md substitution 2).  ``vin``/``wout`` are the task's input and
    output amplitudes, a tile of ``run()``'s row (one amplitude for a
    terminal task), C-contiguous views that need no gather copy.

    A node at the border level spans its slice.  A windowed root below
    the border (levels above it implicit identity) applies ``I (x) W``:
    the kernel sees the slice as ``(size >> (level + 1), 2**(level +
    1))`` blocks.  Below ``dense_level`` the blocks are ``2**(dense_level
    + 1)`` wide (at most ``size``): such a root is diagonal or dense, and
    its bottom-out base repeats over them
    (:func:`repro.dd.analysis.bottom_out`).

    With ``accumulate=False`` the block is *assigned* instead of
    accumulated, which lets planned runs write into recycled (dirty,
    never-zeroed) buffers; the values only differ from ``0 + x`` in
    signed zeros.  Terminal tasks touch single elements and stay scalar
    Python complex arithmetic (vectorized complex ops round differently).
    """
    if node is TERMINAL:
        if accumulate:
            wout[0] += coeff * vin[0]
        else:
            wout[0] = coeff * vin[0]
        return
    size = vin.size
    if not vin.flags.c_contiguous:
        vin = np.ascontiguousarray(vin)
    level = node.level
    width = 2 << level
    if width < size and level < dense_level:
        width = min(size, 2 << dense_level)
    shape2 = (size // width, width)
    v2 = vin.reshape(shape2)
    # Operand order matters bit-for-bit: numpy's FMA-based complex
    # multiply rounds differently per order, so every path computes
    # ``coeff * res``.
    if accumulate:
        res = _apply_lockstep(pkg, node, v2, dense_level)
        wout += coeff * res.reshape(size)
        return
    # Assigning tasks hand the kernel their output slice as the result
    # destination, then scale in place -- no intermediate buffer at all.
    # ``res`` either IS that slice's memory (same positions, so the
    # aliased multiply is well-defined) or an input view the kernel
    # passed through untouched.
    fwd = wout.reshape(shape2) if wout.flags.c_contiguous else None
    res = _apply_lockstep(pkg, node, v2, dense_level, fwd).reshape(size)
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
    new) and both as zero-copy ``(threads, h)`` tile views."""
    if v.shape != (1 << n,):
        raise ValueError(f"state length {v.shape} != 2**{n}")
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    if out is None:
        w = np.zeros_like(v)
    else:
        w = out
        w.fill(0)
    return w, v.reshape(threads, -1), w.reshape(threads, -1)


def _check_batch(v: np.ndarray, out, n: int) -> None:
    """Planned-form operands: distinct row-major ``(rows, 2**n)`` batches
    of one shape."""
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    if out is None or out.shape != v.shape or v.ndim != 2 or (
        v.shape[1] != 1 << n
    ):
        raise ValueError(
            f"batch shape {v.shape} is not (rows, 2**{n}) or differs from "
            f"the output's"
        )


def _one_row(plans: list, v: np.ndarray, algorithm: str) -> None:
    """A gate DD's plan applies to ``run()``'s one row only."""
    if len(plans) != 1 or len(v) != 1:
        raise ValueError(
            f"planned {algorithm} applies one row's gate-DD plan, got "
            f"{len(plans)} plans for {len(v)} rows"
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

    The *planned* form (``m`` is unused) works on row-major ``(rows,
    2**n)`` batches ``v`` and ``out``.  ``plans`` holds one
    :class:`~repro.core.plan.TileLocalPlan` per batch row, whose gates
    :func:`apply_tile_local` applies from their matrices, or, for a
    one-row batch, exactly one compiled
    :class:`~repro.core.plan.GatePlan`, whose row-major tasks run over
    the row's ``threads`` tiles.  ``out`` is not pre-zeroed: each
    thread's first task assigns its output tile and the rest accumulate,
    so a dirty recycled buffer only needs filling (governed by
    ``out_dirty``) for threads with no tasks.
    """
    n = pkg.num_qubits
    h = (1 << n) // threads
    planned = plans is not None
    if planned:
        _check_batch(v, out, n)
        if isinstance(plans[0], TileLocalPlan):
            apply_tile_local(
                [p.gate for p in plans], v, out, threads, runner, dense_level
            )
            return out, DMAVStats(threads=threads, tasks=threads)
        _one_row(plans, v, "dmav_nocache")
        row_tasks = plans[0].row_tasks
        w, v2, w2 = out, v.reshape(threads, h), _view(out, 0, threads, h)
    else:
        row_tasks = assign_tasks(pkg, m, threads)
        w, v2, w2 = _flat_tiles(v, out, n, threads)

    def work(u: int) -> None:
        tasks = row_tasks[u]
        if not tasks:
            if planned and out_dirty:
                w2[u].fill(0)
            return
        first = planned
        for node, i_v, coeff in tasks:
            if first and node is TERMINAL:
                # A terminal border task writes a single element, not the
                # whole tile -- fall back to zero-fill + add.
                w2[u].fill(0)
                first = False
            run_border_task_batch(
                pkg, node, coeff, _tile(v2, i_v, h, node),
                _tile(w2, u * h, h, node), dense_level,
                accumulate=not first,
            )
            first = False

    _for_each_thread(runner, threads, work)
    stats = DMAVStats(threads=threads, tasks=sum(map(len, row_tasks)))
    return w, stats


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
    one-row ``(1, 2**n)`` batches ``v`` and ``out`` and at least
    ``plans[0].assignment.num_buffers`` partial ``buffers`` of that shape
    (from a :class:`~repro.parallel.arena.BufferArena`): only fused gate
    DDs, which ``run()`` applies to its one row, take Algorithm 2.
    Partial buffers arrive dirty and are never pre-zeroed -- each buffer
    tile is written (assigned) by exactly one task, and the summation
    reads only each output tile's writer list instead of scanning every
    buffer.  ``out`` is likewise not pre-zeroed; writerless tiles are
    filled only when ``out_dirty``.  The plan's tasks are
    :func:`~repro.core.cost_model.assign_cache_tasks`' own, so a planned
    call does the listing form's work in its order and lands on its bits
    (``0 + x`` and an assigned ``x`` differ in signed zeros only).
    """
    n = pkg.num_qubits
    planned = plans is not None
    if planned != (buffers is not None):
        raise ValueError("planned dmav_cached needs both plans and buffers")
    h = (1 << n) // threads
    if planned:
        _check_batch(v, out, n)
        _one_row(plans, v, "dmav_cached")
        assignment = plans[0].assignment
        if len(buffers) < assignment.num_buffers:
            raise ValueError(
                f"{len(buffers)} buffers passed, assignment needs "
                f"{assignment.num_buffers}"
            )
        w, v2, w2 = out, v.reshape(threads, h), _view(out, 0, threads, h)
        buffers = [_view(b, 0, threads, h) for b in buffers]
    else:
        if assignment is None:
            assignment = assign_cache_tasks(pkg, m, threads)
        w, v2, w2 = _flat_tiles(v, out, n, threads)
        buffers = [
            np.zeros((threads, h), dtype=np.complex128)
            for _ in range(assignment.num_buffers)
        ]
    hits = [0] * threads

    def work(u: int) -> None:
        tasks = assignment.tasks[u]
        buf = buffers[assignment.buffer_of[u]] if tasks else None
        # Per-thread result cache: border node -> task index.
        cache: dict[int, int] = {}
        for k, (node, i_p, coeff) in enumerate(tasks):
            src = cache.get(id(node))
            if src is not None:
                # Scale the earlier result.
                simd_mul_into(
                    buf[i_p // h], buf[tasks[src][1] // h],
                    coeff / tasks[src][2],
                )
                hits[u] += 1
                continue
            if planned and node is TERMINAL:
                # Terminal border tasks write one element, not the whole
                # tile -- zero it so stale data can't leak.
                buf[i_p // h].fill(0)
            run_border_task_batch(
                pkg, node, coeff, _tile(v2, u * h, h, node),
                _tile(buf, i_p, h, node), dense_level,
                accumulate=not planned or node is TERMINAL,
            )
            cache[id(node)] = k

    _for_each_thread(runner, threads, work)

    def sum_block(u: int) -> None:
        if not planned:
            for buf in buffers:
                simd_add(w2[u], buf[u])
            return
        ws = plans[0].writers[u]
        if not ws:
            if out_dirty:
                w2[u].fill(0)
            return
        np.copyto(w2[u], buffers[ws[0]][u])
        for b in ws[1:]:
            simd_add(w2[u], buffers[b][u])

    _for_each_thread(runner, threads, sum_block)
    stats = DMAVStats(
        threads=threads,
        tasks=sum(map(len, assignment.tasks)),
        cache_hits=sum(hits),
        buffers=assignment.num_buffers,
        used_cache=True,
    )
    return w, stats


# ---------------------------------------------------------------------------
# Unfused gates: applied from the gate matrix, no gate DD.


def apply_tile_local(
    gates: list,
    v: np.ndarray,
    out: np.ndarray,
    threads: int = 1,
    runner: TaskRunner | None = None,
    dense_level: int = DENSE_BLOCK_LEVEL,
) -> np.ndarray:
    """Write ``G v`` into ``out`` for one gate, from its matrix.

    ``gates`` holds one bound gate per row of the row-major ``(rows,
    2**n)`` batches ``v`` and ``out``, or one gate for every row.  The
    rows' gates share kind and qubits and differ at most in parameters;
    each row's matrix comes from its own ``gate.matrix()``, and rows whose
    parameters agree share one operand.  No gate DD, plan or bottom-out
    classification is made.  ``out`` must not overlap ``v`` and may arrive
    dirty: every element is written.

    Every qubit is a bit of the amplitude axis, and a gate is the
    identity off its own qubits, so every placement is one call over the
    batch.  The branch is picked from the gate's kind and qubits, never
    from its parameter values, and takes the DMAV kernel's shapes
    (:func:`_apply_lockstep`), ``top`` being the gate's highest qubit:

    * a diagonal kind (:attr:`~repro.circuits.gates.Gate.is_diagonal`) is
      one elementwise scale: each qubit above ``dense_level`` is an axis
      the scale broadcasts around (the ``scale`` shape), and the qubits
      at or below it span a window tiled to ``2**(dense_level+1)`` (the
      ``diagonal`` shape); the slices with a control above the border
      at 0 are copied, not scaled by 1;
    * a window at or below ``dense_level`` is one GEMM with the gate's
      window matrix, ``2**(top+1)`` wide (``DENSE_WINDOW_WIDTH`` for a
      one-qubit window), the ``dense`` width of
      :func:`~repro.dd.analysis.bottom_out`;
    * one target above it, with no control below the target, is a 2x2
      ``pair`` matmul over ``(2, 2**target)`` runs;
    * controls are slice views: every slice with a control at 0 is
      copied;
    * swap kinds are permutation copies, and every other gate is the sum
      ``out_i = sum_j x_j * U[i, j]`` over its target patterns, one
      elementwise term at a time, skipping entries that are 0 in every
      row (:func:`_tile_sum`).

    A gate whose qubits all sit within a tile of ``h = 2**n // threads``
    amplitudes (at or below the border level ``n - log2 t - 1``) runs on
    ``(rows, threads, h)`` views, one task per tile on ``runner``'s pool,
    so its GEMMs run per tile and per row (``M = h // width``).  A gate
    with a qubit above the border is one call over the whole batch, on
    the calling thread whether or not ``runner`` has a pool.  Per-row
    matrices stack on the rows axis and no GEMM merges rows, so a batch
    row is bit-identical to a one-row call, and the pool changes no bits.
    """
    rows, size = v.shape
    h = size // threads
    border = h.bit_length() - 2
    if max(gates[0].qubits) > border:
        _apply_gate(gates, v, out, dense_level, border)
        return out
    vt, ot = v.reshape(rows, threads, h), _view(out, 1, threads, h)
    if runner is not None and runner.use_pool:
        runner.run([
            lambda u=u: _apply_gate(
                gates, vt[:, u], ot[:, u], dense_level, border
            )
            for u in range(threads)
        ])
    else:
        _apply_gate(gates, vt, ot, dense_level, border)
    return out


def _apply_gate(gates: list, v, out, dense_level: int, border: int) -> None:
    """The branch for ``gates``, every qubit a bit of ``v``'s last axis."""
    g0 = gates[0]
    targets, controls = g0.targets, g0.controls
    qubits = sorted((*targets, *controls), reverse=True)
    if g0.is_diagonal:
        _tile_diagonal(
            _row_operand(gates, _entries, v.ndim), targets, controls, v,
            out, dense_level, border,
        )
    elif qubits[0] <= dense_level:
        _tile_gemm(gates, targets, controls, v, out)
    elif len(targets) > 1 or (controls and min(controls) < targets[0]):
        _tile_sum(gates, v, out)
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


def _tile_sum(gates: list, v, out) -> None:
    """``out_i = sum_j x_j * U[i, j]`` over the gate's target patterns.

    ``x_j`` is the slice of ``v`` with target pattern ``j`` and every
    control at 1; every slice with a control at 0 is copied.  Swap kinds
    copy the one ``x_j`` of their permutation.  Only the terms whose
    ``U[i, j]`` is nonzero in some row are summed, in ``j`` order, so a
    cx sums one term per pattern, not two.
    """
    g0 = gates[0]
    targets, controls = g0.targets, g0.controls
    k = len(targets)
    qubits = sorted((*targets, *controls), reverse=True)
    vs, os_ = _split(v, qubits), _split(out, qubits)
    _copy_control_off(vs, os_, qubits, controls)
    on = dict.fromkeys(controls, 1)
    slices = [
        _select(vs.ndim, qubits, {
            **on, **{t: (i >> (k - 1 - m)) & 1 for m, t in enumerate(targets)}
        })
        for i in range(1 << k)
    ]
    if g0.base_name == "swap":
        for i in range(4):
            np.copyto(os_[slices[i]], vs[slices[((i & 1) << 1) | (i >> 1)]])
        return
    # Coefficients broadcast like a slice with every split qubit fixed.
    coef = _row_operand(gates, lambda g: g.matrix(), v.ndim + len(qubits))
    # A term whose coefficient is 0 in every row would only add a signed
    # zero, so it is skipped (a unitary's row has a nonzero entry).
    live = np.any(coef != 0, axis=tuple(range(coef.ndim - 2)))
    for i in range(1 << k):
        o = os_[slices[i]]
        first, *rest = np.flatnonzero(live[i])
        np.multiply(vs[slices[first]], coef[..., i, first], out=o)
        for j in rest:
            o += vs[slices[j]] * coef[..., i, j]


def _tile_uncontrolled(gates, target, v, out, dense_level: int) -> None:
    """The gate's one target alone, on contiguous runs along ``v``'s last
    axis: the dense-window GEMM, or the 2x2 pair above it."""
    if target <= dense_level:
        _tile_gemm(gates, (target,), (), v, out)
        return
    half = 1 << target
    np.matmul(
        _row_operand(gates, lambda g: g.matrix(), v.ndim),
        v.reshape(*v.shape[:-1], -1, 2, half),
        out=_view(out, v.ndim - 1, -1, 2, half),
    )


def _view(x: np.ndarray, lead: int, *tail: int) -> np.ndarray:
    """``x``'s first ``lead`` axes with the rest reshaped to ``tail``, as
    a view (raises rather than copy, so writes always land in ``x``)."""
    view = x.view()
    view.shape = (*x.shape[:lead], *tail)
    return view


def _row_operand(gates: list, build, batch_dims: int) -> np.ndarray:
    """``build(gate)`` once when every row's parameters agree, else stacked
    per row on the rows axis with ``batch_dims - 1`` singleton axes after
    it, to broadcast against ``batch_dims`` axes led by the rows axis."""
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
    entries, targets, controls, v, out, dense_level: int, border: int
) -> None:
    """Diagonal kinds: ``out = v * diag`` in one elementwise pass.

    ``entries`` is the gate's :func:`_entries`, or one row of them per
    batch row.  Each of the gate's qubits above ``dense_level`` gets its
    own axis (:func:`_split`), and the scale broadcasts over the
    untouched bits around it (the DMAV ``scale`` shape); the qubits at or
    below it span a window at the bottom of the amplitude axis, tiled to
    ``2**(dense_level+1)`` (the ``diagonal`` shape).  The operand thus
    holds two entries per split qubit times the window, however far
    apart the gate's qubits are.  Off a control above ``border`` the
    gate is the identity: the slices with one at 0, whole tiles, are
    copied, and only the rest is scaled.
    """
    qubits = sorted((*targets, *controls), reverse=True)
    split = [q for q in qubits if q > dense_level]
    below = 1 << split[-1] if split else v.shape[-1]
    width = 1
    if len(split) < len(qubits):
        width = max(2 << qubits[len(split)], min(below, 2 << dense_level))
    diag = entries[..., _gather_index(
        tuple(targets), tuple(controls), width, True, tuple(split)
    )]
    vs, os_ = _split(v, split), _split(out, split)
    above = [c for c in controls if c > max(border, dense_level)]
    if above:
        _copy_control_off(vs, os_, split, above)
        on = dict.fromkeys(above, 1)
        vs = vs[_select(vs.ndim, split, on)]
        os_ = os_[_select(os_.ndim, split, on)]
        # The operand's axes are the view's with its last split in two.
        diag = diag[_select(diag.ndim - 1, split, on)]
    shape = (below // width, width)
    np.multiply(
        _view(vs, vs.ndim - 1, *shape), diag,
        out=_view(os_, os_.ndim - 1, *shape),
    )


def _tile_gemm(gates, targets, controls, v, out) -> None:
    """A window at or below the dense level: one GEMM per row, and per
    tile when ``v`` has a tile axis.

    The width is the window's, or ``DENSE_WINDOW_WIDTH`` for a one-qubit
    window when ``v``'s runs are that long.
    """
    width = max(
        2 << max((*targets, *controls)),
        min(DENSE_WINDOW_WIDTH, v.shape[-1]),
    )
    # Gathered transposed, so the GEMM's right operand is contiguous.
    index = _gather_index(tuple(targets), tuple(controls), width, False).T
    block_t = _row_operand(gates, lambda g: _entries(g)[index], v.ndim - 1)
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
def _gather_index(targets, controls, width: int, diagonal: bool, split=()):
    """Where each entry of a gate's window operand comes from.

    The operand covers the ``width`` lowest amplitudes: the window matrix
    (``width`` square), or with ``diagonal`` only its diagonal.  A
    diagonal operand also spans the qubits in ``split`` (descending, all
    above the window), each a size-2 axis followed by a size-1 one,
    before the window's axis: the layout of :func:`_tile_diagonal`'s
    view.  Entry ``(r, c)`` is ``U[p(r), p(c)]`` where every control bit
    is 1 and the untouched bits agree, ``p`` being the target-bit pattern
    (``targets[0]`` most significant), the identity's 1 or 0 elsewhere.
    Each is an index into :func:`_entries`: ``p(r) * 2**k + p(c)`` for
    ``U``, ``4**k`` for 0 and ``4**k + 1`` for 1.  Structure only, so
    cached.
    """
    k = len(targets)
    pos = np.arange(width)
    for i, q in enumerate(split):
        shape = [1] * (2 * len(split) + 1)
        shape[2 * i] = 2
        pos = pos + (np.arange(2) << q).reshape(shape)
    pattern = sum(
        ((pos >> t) & 1) << (k - 1 - i) for i, t in enumerate(targets)
    )
    on = np.ones(pos.shape, dtype=bool)
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
