"""Batched parameter-sweep execution over the compiled DMAV plans.

The paper's core observation (Fig. 2) is that flat-array matrix x matrix
work vastly outperforms repeated matrix x vector work.  Variational
workloads (VQE/QAOA) evaluate one circuit *template* at many parameter
points; re-running the full DD -> plan -> array pipeline per point repeats
work that does not depend on the angles at all.  ``run_sweep`` amortizes
it three ways:

1. **Dedup + prefix grouping.**  Rows are bound
   (:meth:`~repro.circuits.circuit.Circuit.bind`), deduplicated by
   fingerprint, then greedily grouped: a row joins a group when its bound
   gates ``[0 .. convert_at]`` equal the group leader's *exactly*
   (``float.hex`` parameters).  The EWMA trigger, GC cadence, and memory
   guard only see that prefix, so an identical prefix provably reaches the
   identical conversion point -- the group shares ONE DD phase (the same
   :func:`~repro.core.simulator.dd_phase` ``run()`` calls), ONE
   conversion, and ONE leader :class:`~repro.dd.package.DDPackage`.
2. **Plan compile-once.**  One :class:`~repro.core.plan.PlanCache` per
   group compiles each gate root once; rows of a sweep share whole plans
   for parameterless gates and share the structural border-path memo for
   per-row rotation roots.
3. **Batched replay.**  The remaining gates replay over a *tile-major*
   ``(threads, rows, 2**n / threads)`` batch -- DMAV task slices are
   chunk-aligned, so each becomes one C-contiguous ``(rows, chunk)``
   block -- through the lockstep kernels of :mod:`repro.core.dmav`
   (every bottom-out shape of the single-shot kernel -- scale, diagonal,
   block and 2x2 matmuls -- as a broadcast op whose per-row slices are
   bit-identical to the single-shot one), row-blocked
   (``ROW_BLOCK_BYTES``) so task slices stay cache-resident.  The array
   phase becomes batched matrix x matrix work.

**Bit-identity contract.**  Every batch row equals (``np.array_equal``,
the repo-wide replay standard: signed zeros aside) the state of
``FlatDDSimulator.run`` on the equivalently bound circuit with the same
config -- enforced by the ``sweep_consistency`` fuzz oracle and
``tests/test_sweep.py``.  Gate-DD weight arithmetic is history-dependent
(add-memo hits and creation-index tie-breaks), so each row's tail gate
DDs are built where its own run builds them: on the group leader's
package right after conversion and
:func:`~repro.core.simulator.release_dd_phase`, rewound to a
:meth:`~repro.dd.package.DDPackage.build_mark` between rows so no row
sees another's entries or creation indices.  Any structural incongruence
between per-row plans drops that gate (or recursion level) to an exact
per-row replay through :func:`~repro.core.simulator.apply_plan`, the
per-gate dispatch ``run()`` uses.

Fusion modes are root-specific and not batched yet: ``fusion != "none"``
falls back to deduplicated per-row ``run()`` calls (noted in metadata).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends.gatecache import GateDDCache
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.common.config import config_digest
from repro.common.errors import SimulationError
from repro.core.conversion import convert_parallel
from repro.core.cost_model import CostModel
from repro.core.dmav import run_border_task_batch
from repro.core.ewma import EWMAMonitor
from repro.core.plan import GatePlan, PlanCache
from repro.core.reorder import (
    permute_circuit,
    plan_qubit_order,
    unpermute_axes,
)
from repro.core.simulator import (
    apply_plan,
    dd_phase,
    plan_uses_cache,
    release_dd_phase,
)
from repro.dd.node import TERMINAL
from repro.dd.package import DDPackage
from repro.dd.vector import zero_state
from repro.metrics.memory import MemoryMeter, dd_bytes
from repro.obs.metrics import MetricsRegistry
from repro.parallel.arena import BufferArena
from repro.parallel.pool import TaskRunner, validate_thread_count
from repro.parallel.simd import simd_add, simd_mul_into
from repro.resilience.guard import MemoryGuard
from repro.resilience.snapshot import snapshot_sweep_phase, write_snapshot

# Not called here -- the DD phase and the per-row fallback reach them
# through repro.core.simulator -- but bound because perfbench/layers.py
# names them as this module's per-layer attribution points.
from repro.core.dmav import dmav_cached, dmav_nocache  # noqa: F401
from repro.dd.operations import mv_multiply  # noqa: F401
from repro.dd.vector import node_count  # noqa: F401

__all__ = ["SweepResult", "run_sweep"]


@dataclass
class SweepResult:
    """Stacked result of one parameter sweep."""

    backend: str
    circuit_name: str
    num_qubits: int
    #: Parameter rows requested (duplicates included, original order).
    num_rows: int
    #: ``(num_rows, 2**n)`` complex128; row ``i`` is the final state of
    #: the template bound with ``param_sets[i]``.
    states: np.ndarray
    runtime_seconds: float
    peak_memory_bytes: int
    metadata: dict = field(default_factory=dict)


def _gate_key(g: Gate) -> tuple:
    """Exact (float.hex) identity of one bound gate for prefix grouping."""
    return (
        g.base_name,
        g.targets,
        g.controls,
        tuple(float(p).hex() for p in g.params),
    )


def _hit_pattern(tasks) -> tuple:
    """Per-thread first-miss-occurrence pattern of ``id(node)`` reuse.

    Mirrors ``dmav_cached``'s per-thread result cache: entry ``k`` is the
    index of the task that would serve task ``k``'s cache hit (or None
    for a miss).  Congruent batching requires every row to hit and miss
    at the same task indices.
    """
    pats = []
    for tlist in tasks:
        seen: dict[int, int] = {}
        pat = []
        for k, (node, _ip, _c) in enumerate(tlist):
            prev = seen.get(id(node))
            pat.append(prev)
            if prev is None:
                seen[id(node)] = k
        pats.append(tuple(pat))
    return tuple(pats)


def _tasks_congruent(tasks0, tasks) -> bool:
    """Same shape: per-thread counts, offsets, and terminality classes."""
    for t0, t in zip(tasks0, tasks):
        if len(t0) != len(t):
            return False
        for (n0, i0, _c0), (n1, i1, _c1) in zip(t0, t):
            if i0 != i1 or ((n0 is TERMINAL) != (n1 is TERMINAL)):
                return False
    return True


def _plans_congruent(plans: list[GatePlan], use_cache: bool) -> bool:
    """Whether one batched replay can serve every row's plan.

    Rows of a sweep share gate *structure* but not weights, so their
    plans normally agree in everything but coefficients; anything else
    (pathological cancellation producing a zero edge in one row only,
    say) is handled by falling back to per-row execution.
    """
    p0 = plans[0]
    if all(p is p0 for p in plans):
        return True
    if not use_cache:
        return all(
            _tasks_congruent(p0.row_tasks, p.row_tasks) for p in plans[1:]
        )
    a0 = p0.assignment
    pat0 = _hit_pattern(a0.tasks)
    for p in plans[1:]:
        a = p.assignment
        if (
            a.num_buffers != a0.num_buffers
            or a.buffer_of != a0.buffer_of
            or p.writers != p0.writers
            or p.direct != p0.direct
            or p.direct_out != p0.direct_out
            or not _tasks_congruent(a0.tasks, a.tasks)
            or _hit_pattern(a.tasks) != pat0
        ):
            return False
    return True


#: Target bytes of one task slice per executor row block.  The batched
#: kernels make several elementwise passes (scale, accumulate, fold) over
#: each task slice; blocking the batch into row groups whose slice fits
#: the CPU cache keeps those passes cache-resident the way single-shot
#: 1-D slices are, instead of streaming the whole ``rows x 2**n`` batch
#: through DRAM once per pass.  Blocking never changes per-row
#: arithmetic -- rows are independent in every kernel branch -- so the
#: bit-identity contract is unaffected by the split.
ROW_BLOCK_BYTES = 1 << 22


def _block_step(h: int, rows: int) -> int:
    """Rows per executor block for chunk size ``h`` (at least 1)."""
    return max(1, min(rows, ROW_BLOCK_BYTES // (h * 16)))


def _tile_cols(t3, off, size):
    """View of logical columns ``[off, off+size)`` of a tile-major batch.

    ``t3`` has shape ``(tiles, rows, h)``; the caller guarantees the
    range lies within one tile (`_plan_tileable`), so chunk-sized ranges
    come back as the C-contiguous ``(rows, h)`` tile itself.
    """
    h = t3.shape[2]
    t, lo = divmod(off, h)
    if lo == 0 and size == h:
        return t3[t]
    return t3[t][:, lo:lo + size]


def _untile(t3):
    """Copy a ``(tiles, rows, h)`` batch back to logical ``(rows, 2**n)``."""
    rows = t3.shape[1]
    return np.ascontiguousarray(t3.transpose(1, 0, 2)).reshape(rows, -1)


def _retile(t3, flat2):
    """Scatter logical ``(rows, 2**n)`` states into a tile-major batch."""
    tiles, rows, h = t3.shape
    t3[:] = flat2.reshape(rows, tiles, h).transpose(1, 0, 2)


def _plan_tileable(plan: GatePlan, use_cache: bool, h: int) -> bool:
    """Whether every task slice of ``plan`` stays within one ``h`` tile.

    Row-major task reads are size-aligned power-of-two blocks and cached
    column offsets are chunk multiples, so real plans always pass; the
    check guards the tile-view executors against any exotic plan shape by
    dropping the gate to the exact per-row path instead.
    """
    if use_cache:
        for tlist in plan.assignment.tasks:
            for node, i_p, _c in tlist:
                if i_p % h:
                    return False
                if node is not TERMINAL and 2 << node.level > h:
                    return False
        return True
    for tlist in plan.row_tasks:
        for node, i_v, _c in tlist:
            if node is TERMINAL:
                continue
            size = 2 << node.level
            if size > h or (i_v % h) + size > h:
                return False
    return True


def _batched_nocache(pkg, plans, v3, w3, threads, dense_level, out_dirty):
    """Planned ``dmav_nocache`` replayed over a tile-major batch."""
    h = v3.shape[2]
    for u in range(threads):
        tasks0 = plans[0].row_tasks[u]
        if not tasks0:
            if out_dirty:
                w3[u].fill(0)
            continue
        first = True
        for k, (node0, i_v, _c) in enumerate(tasks0):
            if first and node0 is TERMINAL:
                w3[u].fill(0)
                first = False
            nodes = [p.row_tasks[u][k][0] for p in plans]
            coeffs = [p.row_tasks[u][k][2] for p in plans]
            size = 1 if node0 is TERMINAL else 2 << node0.level
            run_border_task_batch(
                pkg, nodes, coeffs,
                _tile_cols(v3, i_v, size), _tile_cols(w3, u * h, size),
                dense_level, accumulate=not first,
            )
            first = False


def _batched_cached(pkg, plans, v3, w3, threads, dense_level, bufs, out_dirty):
    """Planned ``dmav_cached`` replayed over a tile-major batch.

    Cache-hit ratios are divided per row in scalar arithmetic before
    being assembled into a column vector: scalar and vectorized complex
    division round differently, and the single-shot path divides scalars.
    """
    h = v3.shape[2]
    a0 = plans[0].assignment
    for u in range(threads):
        tasks0 = a0.tasks[u]
        buf = bufs[a0.buffer_of[u]] if tasks0 else None
        flags = plans[0].direct[u]
        seen: dict[int, int] = {}
        for k, (node0, i_p, _c) in enumerate(tasks0):
            to_w = flags[k]
            src = seen.get(id(node0))
            if src is not None:
                prev_off = tasks0[src][1]
                ratios = np.array(
                    [
                        p.assignment.tasks[u][k][2]
                        / p.assignment.tasks[u][src][2]
                        for p in plans
                    ],
                    dtype=np.complex128,
                )[:, None]
                dst = w3 if to_w else buf
                simd_mul_into(dst[i_p // h], buf[prev_off // h], ratios)
                continue
            nodes = [p.assignment.tasks[u][k][0] for p in plans]
            coeffs = [p.assignment.tasks[u][k][2] for p in plans]
            size = 1 if node0 is TERMINAL else 2 << node0.level
            vin = _tile_cols(v3, u * h, size)
            if to_w:
                run_border_task_batch(
                    pkg, nodes, coeffs, vin, _tile_cols(w3, i_p, size),
                    dense_level, accumulate=False,
                )
            else:
                if node0 is TERMINAL:
                    buf[i_p // h].fill(0)
                run_border_task_batch(
                    pkg, nodes, coeffs, vin, _tile_cols(buf, i_p, size),
                    dense_level, accumulate=node0 is TERMINAL,
                )
                seen[id(node0)] = k
    for u in range(threads):
        ws = plans[0].writers[u]
        if not ws:
            if plans[0].direct_out[u]:
                continue
            if out_dirty:
                w3[u].fill(0)
            continue
        np.copyto(w3[u], bufs[ws[0]][u])
        for b in ws[1:]:
            simd_add(w3[u], bufs[b][u])


def run_sweep(
    sim,
    circuit: Circuit,
    param_sets,
    tracer=None,
    checkpoint_path: str | None = None,
) -> SweepResult:
    """Execute ``circuit`` bound with every row of ``param_sets``.

    ``sim`` is the :class:`~repro.core.simulator.FlatDDSimulator` whose
    config governs the run (and whose ``run`` serves the fusion
    fallback).  ``param_sets`` is a sequence of parameter rows, one per
    sweep point, each of length ``circuit.num_param_slots``
    (:class:`~repro.common.errors.CircuitError` on width mismatch,
    :class:`~repro.common.errors.SimulationError` when empty).

    ``checkpoint_path`` receives a diagnostic sweep-phase snapshot when a
    memory-guard breach aborts the replay (carried on the raised
    :class:`~repro.common.errors.ResourceExhaustedError`); sweep
    snapshots cannot resume a single-shot run.
    """
    cfg = sim.config
    n = circuit.num_qubits
    validate_thread_count(cfg.threads, n)
    if param_sets is None or len(param_sets) == 0:
        raise SimulationError(
            "simulate_sweep needs at least one parameter set"
        )
    start = time.perf_counter()
    bound = [circuit.bind(row) for row in param_sets]
    num_rows = len(bound)
    fps = [b.fingerprint() for b in bound]
    first_of: dict[str, int] = {}
    uniq: list[Circuit] = []
    for i, fp in enumerate(fps):
        if fp not in first_of:
            first_of[fp] = len(uniq)
            uniq.append(bound[i])

    # One reorder plan for the whole sweep: the selector is structure-only
    # (qubits, not parameter values), so the template and every bound row
    # produce the same plan -- prefix grouping below stays valid because
    # identical canonical prefixes map to identical permuted prefixes.
    reorder = plan_qubit_order(circuit, cfg.qubit_order)
    dd_order = None if reorder.is_natural else reorder.order
    unperm = None if reorder.is_natural else unpermute_axes(reorder.order)

    registry = MetricsRegistry()
    registry.counter("dmav.sweep.rows").inc(num_rows)
    registry.counter("dmav.sweep.unique_rows").inc(len(uniq))
    meter = MemoryMeter()
    guard = MemoryGuard(cfg.memory_budget_bytes)
    cfg_digest = config_digest(cfg)
    metadata: dict = {
        "threads": cfg.threads,
        "cache_policy": cfg.cache_policy,
        "fusion": cfg.fusion,
        "rows": num_rows,
        "unique_rows": len(uniq),
        "identity_skip": cfg.identity_skip,
        "qubit_order": cfg.qubit_order,
        "reorder_applied": not reorder.is_natural,
    }

    if cfg.fusion != "none":
        # Fusion emits per-run gate groupings the lockstep replay does
        # not model; dedup still pays, batching does not apply.
        metadata["mode"] = "fallback-fusion"
        ustates = []
        peak = 0
        for c in uniq:
            r = sim.run(c, tracer=tracer)
            ustates.append(r.state)
            peak = max(peak, r.peak_memory_bytes)
        states = np.empty((num_rows, 1 << n), dtype=np.complex128)
        for i, fp in enumerate(fps):
            states[i] = ustates[first_of[fp]]
        snap = registry.snapshot()
        metadata["obs"] = {
            "counters": snap["counters"], "gauges": snap["gauges"],
        }
        return SweepResult(
            backend=sim.name,
            circuit_name=circuit.name,
            num_qubits=n,
            num_rows=num_rows,
            states=states,
            runtime_seconds=time.perf_counter() - start,
            peak_memory_bytes=peak,
            metadata=metadata,
        )

    metadata["mode"] = "batched"
    # ---- greedy prefix grouping over the unique rows -----------------
    groups: list[dict] = []
    for ui, bc in enumerate(uniq):
        placed = False
        for g in groups:
            ca = g["convert_at"]
            if ca is None:
                continue
            if g["prefix"] == [_gate_key(x) for x in bc.gates[:ca + 1]]:
                g["members"].append(ui)
                placed = True
                break
        if not placed:
            pkg = DDPackage(n)
            gates = GateDDCache(pkg)
            dd_circ = (
                bc if dd_order is None else permute_circuit(bc, dd_order)
            )
            state_dd, convert_at, _, _ = dd_phase(
                cfg, pkg, gates,
                EWMAMonitor(beta=cfg.beta, epsilon=cfg.epsilon),
                zero_state(pkg), dd_circ.gates, 0, guard, meter, metadata,
                sim.GC_THRESHOLD,
            )
            groups.append({
                "pkg": pkg,
                "gates": gates,
                "state_dd": state_dd,
                "convert_at": convert_at,
                "prefix": (
                    [_gate_key(x) for x in bc.gates[:convert_at + 1]]
                    if convert_at is not None
                    else None
                ),
                "members": [ui],
            })
    registry.counter("dmav.sweep.groups").inc(len(groups))

    gates_batched = 0
    gates_rowloop = 0
    row_rewinds = 0
    plan_totals = {
        "hits": 0, "misses": 0, "gate_hits": 0, "compiles": 0,
        "invalidations": 0,
    }
    arena_totals = {"output_allocs": 0, "partial_allocs": 0,
                    "partial_reuses": 0}
    ustates: list[np.ndarray | None] = [None] * len(uniq)
    conversions = []

    for g in groups:
        pkg: DDPackage = g["pkg"]
        gates: GateDDCache = g["gates"]
        convert_at = g["convert_at"]
        members: list[int] = g["members"]
        rows = len(members)
        with TaskRunner(cfg.threads, cfg.use_thread_pool) as runner:
            conv, report = convert_parallel(
                pkg, g["state_dd"], cfg.threads, runner,
                dense_level=cfg.dense_block_level,
                unpermute=unperm,
            )
            conversions.append(report.seconds)
            if convert_at is None:
                # The whole (deduplicated) circuit stayed regular: the
                # conversion IS the final state, exactly like a run that
                # never triggers -- and such groups are singletons.
                meter.sample(dd_bytes(pkg) + conv.nbytes)
                ustates[members[0]] = conv
                continue
            release_dd_phase(pkg, gates, guard, barrier=False)
            # Per-row tail gate DDs on the leader package, rewound after
            # each row (O(row's own nodes)).  Evicted nodes stay alive,
            # and structurally valid, through the kept edges, so the
            # batch below sees every row's DD at once and the per-node
            # DMAV caches never see colliding ids.
            build_mark = pkg.build_mark()
            gate_mark = gates.mark()
            edges_rows = []
            for ui in members:
                edges_rows.append([
                    gates.get(gt)
                    for gt in uniq[ui].gates[convert_at + 1:]
                ])
                pkg.rewind_to_mark(build_mark)
                gates.rewind(gate_mark)
                row_rewinds += 1
            h = conv.size // cfg.threads
            v3 = np.repeat(
                conv.reshape(cfg.threads, 1, h), rows, axis=1
            )
            meter.sample(dd_bytes(pkg) + v3.nbytes)
            guard.check_array(
                meter.last_bytes, convert_at,
                checkpoint=lambda s=v3, c=0: _write_sweep_checkpoint(
                    checkpoint_path, pkg, _untile(s), convert_at, c,
                    circuit, cfg_digest,
                ),
                phase="sweep",
            )
            model = CostModel(cfg.threads, cfg.simd_width)
            plan_cache = PlanCache(
                pkg, cfg.threads, model, cfg.dense_block_level
            )
            arena = BufferArena(conv.size, rows=rows, tiles=cfg.threads)
            n_remaining = len(uniq[members[0]].gates) - convert_at - 1
            for j in range(n_remaining):
                plans = [plan_cache.get(er[j]) for er in edges_rows]
                verdicts = [
                    plan_uses_cache(cfg.cache_policy, p) for p in plans
                ]
                uc = verdicts[0]
                congruent = (
                    all(v == uc for v in verdicts)
                    and _plan_tileable(plans[0], uc, h)
                    and _plans_congruent(plans, uc)
                )
                w_buf, w_dirty = arena.output()
                step = _block_step(h, rows)
                if congruent and uc:
                    bufs = arena.partials(plans[0].assignment.num_buffers)
                    for b0 in range(0, rows, step):
                        b1 = min(b0 + step, rows)
                        _batched_cached(
                            pkg, plans[b0:b1], v3[:, b0:b1],
                            w_buf[:, b0:b1], cfg.threads,
                            cfg.dense_block_level,
                            [bf[:, b0:b1] for bf in bufs], w_dirty,
                        )
                    gates_batched += 1
                elif congruent:
                    for b0 in range(0, rows, step):
                        b1 = min(b0 + step, rows)
                        _batched_nocache(
                            pkg, plans[b0:b1], v3[:, b0:b1],
                            w_buf[:, b0:b1], cfg.threads,
                            cfg.dense_block_level, w_dirty,
                        )
                    gates_batched += 1
                else:
                    # Exact per-row replay on logical (rows, 2**n) views;
                    # the tile-major invariant is restored by scattering
                    # the produced states back into the arena buffer.
                    v2 = _untile(v3)
                    w2 = np.empty_like(v2)
                    for r, (plan, v) in enumerate(zip(plans, verdicts)):
                        apply_plan(
                            pkg, edges_rows[r][j], plan, v, v2[r], w2[r],
                            cfg.threads, None, cfg.dense_block_level,
                            buffers=[
                                np.empty(conv.size, dtype=np.complex128)
                                for _ in range(plan.assignment.num_buffers)
                            ] if v else None,
                        )
                    _retile(w_buf, w2)
                    gates_rowloop += 1
                arena.retire(v3)
                v3 = w_buf
                # Per-row rotation roots each cache full diagonals/dense
                # blocks; over a big batch that accumulates to hundreds
                # of MB of dead entries.  Recomputation is deterministic,
                # so drop them every gate column (identity flags stay).
                pkg.kron_cache.clear()
                pkg.dense_cache.clear()
                meter.sample(
                    dd_bytes(pkg) + 2 * v3.nbytes + arena.partial_bytes
                )
                guard.check_array(
                    meter.last_bytes, convert_at + 1 + j,
                    checkpoint=lambda s=v3, c=j + 1: (
                        _write_sweep_checkpoint(
                            checkpoint_path, pkg, _untile(s), convert_at, c,
                            circuit, cfg_digest,
                        )
                    ),
                    phase="sweep",
                )
            final = _untile(v3)
            for pos, ui in enumerate(members):
                ustates[ui] = final[pos]
            plan_totals["hits"] += plan_cache.hits
            plan_totals["misses"] += plan_cache.misses
            plan_totals["gate_hits"] += plan_cache.gate_hits
            plan_totals["compiles"] += plan_cache.compiles
            plan_totals["invalidations"] += plan_cache.invalidations
            arena_totals["output_allocs"] += arena.output_allocs
            arena_totals["partial_allocs"] += arena.partial_allocs
            arena_totals["partial_reuses"] += arena.partial_reuses

    states = np.empty((num_rows, 1 << n), dtype=np.complex128)
    for i, fp in enumerate(fps):
        states[i] = ustates[first_of[fp]]

    registry.counter("dmav.sweep.gates_batched").inc(gates_batched)
    registry.counter("dmav.sweep.gates_rowloop").inc(gates_rowloop)
    registry.counter("dmav.sweep.row_rewinds").inc(row_rewinds)
    for key, val in plan_totals.items():
        registry.counter(f"dmav.plan.{key}").inc(val)
    for key, val in arena_totals.items():
        registry.counter(f"dmav.arena.{key}").inc(val)
    total_planned = plan_totals["hits"] + plan_totals["misses"]
    registry.gauge("dmav.plan.hit_rate").set(
        plan_totals["hits"] / total_planned if total_planned else 0.0
    )
    registry.gauge("sim.mem.peak_bytes").set(meter.peak_bytes)
    metadata["groups"] = len(groups)
    metadata["gates_batched"] = gates_batched
    metadata["gates_rowloop"] = gates_rowloop
    metadata["conversion_seconds"] = sum(conversions)
    snap = registry.snapshot()
    metadata["obs"] = {
        "counters": snap["counters"], "gauges": snap["gauges"],
    }
    return SweepResult(
        backend=sim.name,
        circuit_name=circuit.name,
        num_qubits=n,
        num_rows=num_rows,
        states=states,
        runtime_seconds=time.perf_counter() - start,
        peak_memory_bytes=meter.peak_bytes,
        metadata=metadata,
    )


def _write_sweep_checkpoint(
    checkpoint_path, pkg, states, convert_at, cursor, template, cfg_digest
):
    """Guard-breach snapshot writer (None when no path is configured)."""
    if checkpoint_path is None:
        return None
    write_snapshot(
        checkpoint_path,
        snapshot_sweep_phase(
            pkg, states, convert_at, cursor, template, cfg_digest
        ),
    )
    return checkpoint_path
