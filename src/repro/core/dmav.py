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
counts for the cost model are unaffected.  The single-shot kernel
(:func:`run_border_task`) and its batched lockstep mirror
(:func:`run_border_task_batch`, used by sweeps) take the same operations
per row, so sweep rows stay bit-identical to ``run()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.config import DENSE_BLOCK_LEVEL
from repro.dd.analysis import BottomOut, bottom_out, is_identity
from repro.dd.node import TERMINAL, DDNode, Edge
from repro.dd.package import DDPackage
from repro.core.cost_model import CacheAssignment, assign_cache_tasks
from repro.parallel.partition import border_level
from repro.parallel.pool import TaskRunner, validate_thread_count
from repro.parallel.simd import simd_add, simd_mul_into

__all__ = [
    "DMAVStats",
    "assign_tasks",
    "dmav_nocache",
    "dmav_cached",
    "run_border_task",
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


def _apply_batched(
    pkg: DDPackage,
    node: DDNode,
    vmat: np.ndarray,
    dense_level: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the normalized subtree under ``node`` to a batch of vectors.

    ``vmat`` has shape ``(batch, 2**(level+1))`` (C-contiguous); the result
    has the same shape.  Recursion groups the four 2x2-block children by
    child *node*, stacking their input halves into one call -- so the call
    count is proportional to the gate DD's edge count, not to the number of
    root-to-terminal paths (the pure-Python analogue of the paper's
    constant-average-indexing claim for DMAV, Section 3.2.1).

    ``out`` is a best-effort, contiguous result destination of ``vmat``'s
    shape that must not overlap ``vmat``.  Branches whose final operation
    can target it directly do so (skipping one result-sized allocation);
    others -- notably identity subtrees, which return ``vmat`` itself --
    ignore it.  Callers must therefore always use the *returned* array.
    The values written are the same bits either way.

    The branch taken is the node's cached :func:`bottom_out` shape, so a
    subtree costs what its structure needs (Fig. 8): an identity base is
    one ``d`` scale, a diagonal base one elementwise scale (plus ``d``
    unless it is all ones), only a genuinely dense base runs a block
    matmul, and a dense level over one identity subtree runs as one 2x2
    matmul.  :func:`_apply_lockstep` mirrors every branch operation for
    operation.
    """
    shape = bottom_out(pkg, node, dense_level)
    kind = shape.kind
    if kind == "identity":
        return vmat
    m, size = vmat.shape
    if kind == "dense" and node.level <= dense_level:
        block = shape.data
        if out is None:
            return vmat @ block.T
        np.matmul(vmat, block.T, out=out)
        return out
    if kind == "scale":
        # diag(d) (x) I: the d scale alone, broadcast over the identity base.
        d = shape.d
        shape3 = (m, d.size, size // d.size)
        dst = None if out is None else out.reshape(shape3)
        return np.multiply(vmat.reshape(shape3), d[:, None], out=dst).reshape(
            m, size
        )
    if kind == "diagonal" or kind == "dense":
        # diag(d) (x) M_base over (m, len(d), bs) blocks; d is None when
        # it is all ones.
        bs = shape.data.shape[0]
        shape3 = (m, size // bs, bs)
        dst = None if out is None else out.reshape(shape3)
        if kind == "diagonal":
            folded = np.multiply(vmat.reshape(shape3), shape.data, out=dst)
        else:
            folded = np.matmul(vmat.reshape(shape3), shape.data.T, out=dst)
        if shape.d is not None:
            folded *= shape.d[:, None]
        return folded.reshape(m, size)
    half = size // 2
    if kind == "pair":
        dst = None if out is None else out.reshape(m, 2, half)
        return np.matmul(
            shape.data, vmat.reshape(m, 2, half), out=dst
        ).reshape(m, size)
    if kind == "passthrough":
        # Pass-through level (diag block, shared child): fold the halves
        # into the batch axis as a *view* and recurse once -- zero copies
        # until a non-trivial level is reached.
        e00, e11 = node.edges[0], node.edges[3]
        if e00.w == 1 and e11.w == 1:
            folded = _apply_batched(
                pkg,
                e00.n,
                vmat.reshape(2 * m, half),
                dense_level,
                None if out is None else out.reshape(2 * m, half),
            )
            return folded.reshape(m, size)
        folded = _apply_batched(
            pkg, e00.n, vmat.reshape(2 * m, half), dense_level
        )
        scale = np.array([e00.w, e11.w], dtype=np.complex128)
        if out is None:
            return (
                folded.reshape(m, 2, half) * scale[None, :, None]
            ).reshape(m, size)
        np.multiply(
            folded.reshape(m, 2, half),
            scale[None, :, None],
            out=out.reshape(m, 2, half),
        )
        return out
    halves = (vmat[:, :half], vmat[:, half:])
    # Group the (up to four) child applications by child node: a child that
    # appears under several (i, j) positions runs once on a stacked batch.
    groups: dict[int, tuple[DDNode, list[tuple[int, int, complex]]]] = {}
    for k, child in enumerate(node.edges):
        if child.is_zero:
            continue
        i, j = divmod(k, 2)
        entry = groups.get(id(child.n))
        if entry is None:
            groups[id(child.n)] = (child.n, [(i, j, child.w)])
        else:
            entry[1].append((i, j, child.w))
    # Assign on first write per output half instead of accumulating onto a
    # zero-filled buffer: ``w * b`` and ``0 + w * b`` only differ in signed
    # zeros, and skipping the O(size) fill plus one temporary per first use
    # is most of this level's overhead.
    if out is None:
        out = np.empty_like(vmat)
    written = [False, False]
    for child_node, uses in groups.values():
        if child_node is TERMINAL or is_identity(pkg, child_node):
            # The child applies as the identity: read the input halves
            # directly instead of stacking a copy just to get it back.
            result = halves
            slot = {0: 0, 1: 1}
        else:
            js = sorted({j for _, j, _ in uses})
            if len(js) == 1:
                stacked = halves[js[0]]
            else:
                stacked = np.concatenate([halves[j] for j in js], axis=0)
            res = _apply_batched(pkg, child_node, stacked, dense_level)
            slot = {j: pos for pos, j in enumerate(js)}
            result = [
                res[pos * m:(pos + 1) * m] for pos in range(len(js))
            ]
        for i, j, weight in uses:
            block = result[slot[j]]
            dst = out[:, i * half:(i + 1) * half]
            if written[i]:
                dst += weight * block
            else:
                np.multiply(weight, block, out=dst)
                written[i] = True
    for i in (0, 1):
        if not written[i]:
            out[:, i * half:(i + 1) * half] = 0.0
    return out


def _lockstep_rowwise(
    pkg: DDPackage,
    nodes: list[DDNode],
    vten: np.ndarray,
    dense_level: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-row fallback: the single-shot kernel on each batch row."""
    if out is None:
        out = np.empty(vten.shape, dtype=np.complex128)
    for b, node in enumerate(nodes):
        out[b] = _apply_batched(pkg, node, vten[b], dense_level)
    return out


def _partition_sig(node: DDNode) -> tuple[int, ...]:
    """Child-grouping signature of one node's four 2x2-block edges.

    Position ``k`` maps to ``-1`` (zero edge) or the first-occurrence
    index of its child node within this node's edges.  Two nodes with
    equal signatures group their children identically, which is what the
    lockstep generic branch needs to run one stacked recursion per group.
    """
    seen: dict[int, int] = {}
    sig = []
    for child in node.edges:
        if child.is_zero:
            sig.append(-1)
        else:
            sig.append(seen.setdefault(id(child.n), len(seen)))
    return tuple(sig)


def _row_scales(shapes: list[BottomOut], shared: bool) -> np.ndarray:
    """The rows' ``d`` scales, broadcastable over ``(rows, m, len(d), bs)``."""
    if shared:
        return shapes[0].d[:, None]
    return np.stack([s.d for s in shapes])[:, None, :, None]


def _apply_lockstep(
    pkg: DDPackage,
    nodes: list[DDNode],
    vten: np.ndarray,
    dense_level: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply per-row gate sub-DDs to a batch of vector blocks in lockstep.

    ``vten`` has shape ``(rows, m, 2**(level+1))``: row ``b``'s
    ``(m, size)`` slice is exactly the ``vmat`` the single-shot kernel
    (:func:`_apply_batched`) sees for that row at this recursion point,
    and ``nodes[b]`` is that row's sub-DD (rows of a parameter sweep share
    structure but differ in edge weights, so the node *objects* usually
    differ).  Every branch mirrors ``_apply_batched`` with the batch as a
    leading broadcast axis: each gemm (block or 2x2) becomes a broadcast
    matmul whose trailing two dimensions equal the single-shot gemm shape
    (numpy evaluates broadcast matmuls slice-by-slice with the same
    kernel, so each row's result is bit-identical to its single-shot run),
    and every scale/accumulate stays elementwise with the same operand
    order.  Whenever the rows' DDs disagree structurally -- different
    bottom-out shape, block size or unit-ness of ``d``, different child
    partition -- the whole level drops to :func:`_lockstep_rowwise`, which
    is exact by construction, just not batched.  ``out`` follows
    ``_apply_batched``'s best-effort contract (must be C-contiguous here;
    callers pass None or a buffer this module allocated).
    """
    shapes = [bottom_out(pkg, nd, dense_level) for nd in nodes]
    s0 = shapes[0]
    kind = s0.kind
    if any(s.kind != kind for s in shapes[1:]):
        return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
    if kind == "identity":
        return vten
    n0 = nodes[0]
    level = n0.level
    if any(nd.level != level for nd in nodes):
        return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
    rows, m, size = vten.shape
    shared = all(nd is n0 for nd in nodes)
    if kind == "dense" and level <= dense_level:
        if shared:
            block_t = s0.data.T
        else:
            block_t = np.stack([s.data for s in shapes]).transpose(0, 2, 1)
        if out is None:
            return vten @ block_t
        np.matmul(vten, block_t, out=out)
        return out
    if kind == "scale":
        dsize = s0.d.size
        if any(s.d.size != dsize for s in shapes):
            return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
        shape4 = (rows, m, dsize, size // dsize)
        dst = None if out is None else out.reshape(shape4)
        return np.multiply(
            vten.reshape(shape4), _row_scales(shapes, shared), out=dst
        ).reshape(rows, m, size)
    if kind == "diagonal" or kind == "dense":
        bs = s0.data.shape[0]
        unit = s0.d is None
        if any(s.data.shape[0] != bs or (s.d is None) != unit for s in shapes):
            return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
        shape4 = (rows, m, size // bs, bs)
        dst = None if out is None else out.reshape(shape4)
        if kind == "diagonal":
            diag = (
                s0.data
                if shared
                else np.stack([s.data for s in shapes])[:, None, None, :]
            )
            folded = np.multiply(vten.reshape(shape4), diag, out=dst)
        else:
            if shared:
                block_t = s0.data.T
            else:
                block_t = np.stack(
                    [s.data for s in shapes]
                ).transpose(0, 2, 1)[:, None]
            folded = np.matmul(vten.reshape(shape4), block_t, out=dst)
        if not unit:
            folded *= _row_scales(shapes, shared)
        return folded.reshape(rows, m, size)
    half = size // 2
    if kind == "pair":
        u = s0.data if shared else np.stack([s.data for s in shapes])[:, None]
        dst = None if out is None else out.reshape(rows, m, 2, half)
        return np.matmul(
            u, vten.reshape(rows, m, 2, half), out=dst
        ).reshape(rows, m, size)
    if kind == "passthrough":
        children = [nd.edges[0].n for nd in nodes]
        units = [nd.edges[0].w == 1 and nd.edges[3].w == 1 for nd in nodes]
        if all(units):
            folded = _apply_lockstep(
                pkg,
                children,
                vten.reshape(rows, 2 * m, half),
                dense_level,
                None if out is None else out.reshape(rows, 2 * m, half),
            )
            return folded.reshape(rows, m, size)
        if any(units):
            # Single-shot takes the scaled branch only for non-unit
            # weights; mixed rows would diverge in signed zeros -- stay
            # strict and replay per row.
            return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
        folded = _apply_lockstep(
            pkg, children, vten.reshape(rows, 2 * m, half), dense_level
        )
        scale = np.array(
            [[nd.edges[0].w, nd.edges[3].w] for nd in nodes],
            dtype=np.complex128,
        )[:, None, :, None]
        f4 = folded.reshape(rows, m, 2, half)
        if out is None:
            return (f4 * scale).reshape(rows, m, size)
        np.multiply(f4, scale, out=out.reshape(rows, m, 2, half))
        return out
    sig = _partition_sig(n0)
    if any(_partition_sig(nd) != sig for nd in nodes[1:]):
        return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
    # Group positions exactly like the single-shot kernel: by child node,
    # insertion order.  Equal signatures make the grouping identical for
    # every row, so one stacked lockstep recursion serves each group.
    positions: list[list[int]] = []
    for k, gid in enumerate(sig):
        if gid < 0:
            continue
        if gid == len(positions):
            positions.append([k])
        else:
            positions[gid].append(k)
    group_nodes = [
        [nd.edges[ks[0]].n for nd in nodes] for ks in positions
    ]
    group_idn = []
    for gnodes in group_nodes:
        gf = [gn is TERMINAL or is_identity(pkg, gn) for gn in gnodes]
        if any(gf) and not all(gf):
            return _lockstep_rowwise(pkg, nodes, vten, dense_level, out)
        group_idn.append(all(gf))
    halves = (vten[:, :, :half], vten[:, :, half:])
    if out is None:
        out = np.empty((rows, m, size), dtype=np.complex128)
    written = [False, False]
    for ks, gnodes, idn in zip(positions, group_nodes, group_idn):
        uses = [divmod(k, 2) for k in ks]
        if idn:
            result = halves
            slot = {0: 0, 1: 1}
        else:
            js = sorted({j for _i, j in uses})
            if len(js) == 1:
                stacked = halves[js[0]]
            else:
                stacked = np.concatenate([halves[j] for j in js], axis=1)
            res = _apply_lockstep(pkg, gnodes, stacked, dense_level)
            slot = {j: pos for pos, j in enumerate(js)}
            result = [
                res[:, pos * m:(pos + 1) * m, :] for pos in range(len(js))
            ]
        for i, j in uses:
            wts = np.array(
                [nd.edges[2 * i + j].w for nd in nodes], dtype=np.complex128
            )[:, None, None]
            block = result[slot[j]]
            dst = out[:, :, i * half:(i + 1) * half]
            if written[i]:
                dst += wts * block
            else:
                np.multiply(wts, block, out=dst)
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
    """Batched Run: per-row border sub-matrices over pre-sliced batch views.

    ``vin``/``wout`` are the task's input and output column ranges as
    ``(rows, size)`` views (``(rows, 1)`` for terminal tasks); the caller
    (:mod:`repro.core.sweep`) slices them out of tile-major batch buffers
    so that chunk-aligned tasks arrive C-contiguous and need no gather
    copy.  Row ``b`` reproduces ``run_border_task(pkg, nodes[b],
    coeffs[b], ...)`` on its own state -- bit-identical up to signed
    zeros (``np.array_equal``), the repo-wide replay guarantee.  The
    caller guarantees structural congruence of the per-row plans: all
    rows' nodes at one task index are terminal together or not, and
    offsets match.  Terminal tasks touch single elements and must stay
    scalar Python complex arithmetic (vectorized complex ops round
    differently); everything else goes through the lockstep kernel.
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
    carr = np.asarray(coeffs, dtype=np.complex128)[:, None]
    if accumulate:
        res = _apply_lockstep(pkg, nodes, v3, dense_level)[:, 0, :]
        wout += carr * res
        return
    # Assigning tasks forward their output slice as the kernel's result
    # destination exactly like the single-shot path: the kernel either
    # writes it in place (same bits as returning a fresh array, per its
    # contract) or ignores it, in which case the scale/copy below lands
    # the values.  Aliased multiplies are element-aligned, hence defined.
    fwd = wout.reshape(rows, 1, size) if wout.flags.c_contiguous else None
    res = _apply_lockstep(pkg, nodes, v3, dense_level, fwd)[:, 0, :]
    if all(c == 1.0 + 0j for c in coeffs):
        if not np.may_share_memory(res, wout):
            np.copyto(wout, res)
        return
    np.multiply(carr, res, out=wout)


def run_border_task(
    pkg: DDPackage,
    node: DDNode,
    coeff: complex,
    v: np.ndarray,
    w: np.ndarray,
    i_v: int,
    i_w: int,
    dense_level: int = DENSE_BLOCK_LEVEL,
    accumulate: bool = True,
) -> None:
    """Algorithm 1's Run on one border sub-matrix: w-block += coeff * M v.

    The scalar-MAC recursion of the paper's C++ is replaced by the batched
    vectorized kernel (DESIGN.md substitution 2).  With
    ``accumulate=False`` the block is *assigned* instead of accumulated,
    which lets planned runs write into recycled (dirty, never-zeroed)
    buffers; the values only differ from ``0 + x`` in signed zeros.
    """
    if node is TERMINAL:
        if accumulate:
            w[i_w] += coeff * v[i_v]
        else:
            w[i_w] = coeff * v[i_v]
        return
    size = 2 << node.level
    vin = np.ascontiguousarray(v[i_v:i_v + size]).reshape(1, size)
    if accumulate:
        res = _apply_batched(pkg, node, vin, dense_level)[0]
        w[i_w:i_w + size] += coeff * res
    else:
        # Assigning tasks hand the kernel their output slice as the result
        # destination, then scale in place -- no intermediate buffer at
        # all.  ``res`` either IS that slice's memory (same positions, so
        # the aliased multiply is well-defined) or an input view the
        # kernel passed through untouched.  Operand order matters
        # bit-for-bit: numpy's FMA-based complex multiply rounds
        # differently per order, and the accumulate path computes
        # ``coeff * res``.
        wslice = w[i_w:i_w + size]
        res = _apply_batched(
            pkg, node, vin, dense_level, wslice.reshape(1, size)
        )[0]
        if coeff == 1.0 + 0j:
            # Unit coefficient: ``1 * res`` differs from ``res`` only in
            # signed zeros, and assignment (unlike accumulation, which
            # still owes an add) needs no pass at all when the kernel
            # already wrote the slice.
            if not np.may_share_memory(res, wslice):
                np.copyto(wslice, res)
            return
        np.multiply(coeff, res, out=wslice)


def dmav_nocache(
    pkg: DDPackage,
    m: Edge,
    v: np.ndarray,
    threads: int = 1,
    runner: TaskRunner | None = None,
    dense_level: int = DENSE_BLOCK_LEVEL,
    out: np.ndarray | None = None,
    *,
    tasks: list[list[tuple[DDNode, int, complex]]] | None = None,
    out_dirty: bool = True,
) -> tuple[np.ndarray, DMAVStats]:
    """DMAV without caching (Algorithm 1): returns (w, stats).

    ``tasks`` may be passed from a compiled :class:`~repro.core.plan.GatePlan`
    (``row_tasks``) to skip the per-call Assign descent.  In that *planned*
    mode ``out`` is not pre-zeroed: each thread's first task assigns its
    output slice and the rest accumulate, so a dirty recycled buffer only
    needs filling (governed by ``out_dirty``) for threads with no tasks.
    """
    n = pkg.num_qubits
    if v.shape != (1 << n,):
        raise ValueError(f"state length {v.shape} != 2**{n}")
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    planned = tasks is not None
    w = out if out is not None else np.zeros_like(v)
    if out is not None and not planned:
        w.fill(0)
    if tasks is None:
        tasks = assign_tasks(pkg, m, threads)
    h = (1 << n) // threads

    def work(u: int) -> None:
        if planned:
            if not tasks[u]:
                if out_dirty:
                    w[u * h:(u + 1) * h].fill(0)
                return
            first = True
            for node, i_v, coeff in tasks[u]:
                if first and node is TERMINAL:
                    # A terminal border task writes a single element, not
                    # the whole slice -- fall back to zero-fill + add.
                    w[u * h:(u + 1) * h].fill(0)
                    first = False
                run_border_task(
                    pkg, node, coeff, v, w, i_v, u * h, dense_level,
                    accumulate=not first,
                )
                first = False
            return
        for node, i_v, coeff in tasks[u]:
            run_border_task(pkg, node, coeff, v, w, i_v, u * h, dense_level)

    if runner is not None and runner.use_pool:
        runner.run([lambda u=u: work(u) for u in range(threads)])
    else:
        for u in range(threads):
            work(u)
    stats = DMAVStats(threads=threads, tasks=sum(map(len, tasks)))
    return w, stats


def dmav_cached(
    pkg: DDPackage,
    m: Edge,
    v: np.ndarray,
    threads: int = 1,
    runner: TaskRunner | None = None,
    dense_level: int = DENSE_BLOCK_LEVEL,
    out: np.ndarray | None = None,
    assignment: CacheAssignment | None = None,
    *,
    buffers: list[np.ndarray] | None = None,
    writers: list[list[int]] | None = None,
    out_dirty: bool = True,
    direct: list[list[bool]] | None = None,
    direct_out: list[bool] | None = None,
) -> tuple[np.ndarray, DMAVStats]:
    """DMAV with caching (Algorithm 2): returns (w, stats).

    ``assignment`` may be passed in when the caller already ran the cost
    model for this gate (it computes the same partition).

    ``buffers``/``writers`` (from a :class:`~repro.parallel.arena.BufferArena`
    and a compiled :class:`~repro.core.plan.GatePlan`) switch on *planned*
    mode: partial buffers arrive dirty and are never pre-zeroed -- each
    buffer slice is written (assigned) by exactly one task, and the
    summation reads only each output slice's writer list instead of
    scanning every buffer.  ``out`` is likewise not pre-zeroed; writerless
    slices are filled only when ``out_dirty``.

    ``direct``/``direct_out`` (also plan-compiled) flag tasks that are the
    sole producer of their output slice and never feed a later cache hit:
    they write W in place and the summation skips their slice.
    """
    n = pkg.num_qubits
    if v.shape != (1 << n,):
        raise ValueError(f"state length {v.shape} != 2**{n}")
    if out is v:
        raise ValueError("DMAV cannot write its output over the input state")
    if assignment is None:
        assignment = assign_cache_tasks(pkg, m, threads)
    planned = buffers is not None
    if planned and writers is None:
        raise ValueError("planned dmav_cached requires writer lists")
    if planned and len(buffers) < assignment.num_buffers:
        raise ValueError(
            f"{len(buffers)} buffers passed, assignment needs "
            f"{assignment.num_buffers}"
        )
    h = (1 << n) // threads
    if buffers is None:
        buffers = [
            np.zeros(1 << n, dtype=np.complex128)
            for _ in range(assignment.num_buffers)
        ]
    hits = [0] * threads
    w = out if out is not None else np.zeros_like(v)
    if out is not None and not planned:
        w.fill(0)

    def work(u: int) -> None:
        # Per-thread result cache: border node -> (coefficient, offset).
        cache: dict[int, tuple[complex, int]] = {}
        buf = buffers[assignment.buffer_of[u]] if assignment.tasks[u] else None
        flags = direct[u] if direct is not None else None
        for i, (node, i_p, coeff) in enumerate(assignment.tasks[u]):
            to_w = flags is not None and flags[i]
            hit = cache.get(id(node))
            if hit is not None:
                prev_coeff, prev_off = hit
                dst = w if to_w else buf
                simd_mul_into(
                    dst[i_p:i_p + h],
                    buf[prev_off:prev_off + h],
                    coeff / prev_coeff,
                )
                hits[u] += 1
            elif to_w:
                # Sole producer of output slice i_p // h, never a hit
                # source: write W in place; sum_block skips this slice.
                run_border_task(
                    pkg, node, coeff, v, w, u * h, i_p, dense_level,
                    accumulate=False,
                )
            else:
                if planned and node is TERMINAL:
                    # Terminal border tasks write one element, not the
                    # whole slice -- zero it so stale data can't leak.
                    buf[i_p:i_p + h].fill(0)
                run_border_task(
                    pkg, node, coeff, v, buf, u * h, i_p, dense_level,
                    accumulate=not planned or node is TERMINAL,
                )
                cache[id(node)] = (coeff, i_p)

    if runner is not None and runner.use_pool:
        runner.run([lambda u=u: work(u) for u in range(threads)])
    else:
        for u in range(threads):
            work(u)

    def sum_block(u: int) -> None:
        lo, hi = u * h, (u + 1) * h
        if not planned:
            for buf in buffers:
                simd_add(w[lo:hi], buf[lo:hi])
            return
        ws = writers[u]
        if not ws:
            if direct_out is not None and direct_out[u]:
                return  # a direct task already wrote this slice in full
            if out_dirty:
                w[lo:hi].fill(0)
            return
        np.copyto(w[lo:hi], buffers[ws[0]][lo:hi])
        for b in ws[1:]:
            simd_add(w[lo:hi], buffers[b][lo:hi])

    if runner is not None and runner.use_pool:
        runner.run([lambda u=u: sum_block(u) for u in range(threads)])
    else:
        for u in range(threads):
            sum_block(u)
    stats = DMAVStats(
        threads=threads,
        tasks=sum(map(len, assignment.tasks)),
        cache_hits=sum(hits),
        buffers=assignment.num_buffers,
        used_cache=True,
    )
    return w, stats
