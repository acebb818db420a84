"""The FlatDD simulator (Figure 3's pipeline).

Phases:

1. **DD phase** -- simulate exactly like DDSIM (DD state, DD gates, compute
   tables) while feeding the state DD's node count to the EWMA monitor
   (Section 3.1.1).
2. **Conversion** -- on trigger, convert the DD state to a flat array with
   the parallel algorithm of Section 3.1.2.
3. **DMAV phase** -- optionally fuse the remaining gates (Section 3.3),
   then apply each gate matrix DD to the array state with Algorithm 1/2,
   choosing caching per gate via the Section 3.2.3 cost model.

Circuits that stay regular never trigger and finish entirely in the DD
phase (which is why FlatDD matches DDSIM on Adder/GHZ in Table 1).

Each phase is one plain function that every entry point composes:
:func:`dd_phase` (from gate 0, or from a snapshot's cursor on resume, and
once per :func:`repro.core.sweep.run_sweep` group), :func:`release_dd_phase`
after conversion, and :func:`dmav_phase`, which applies emitted gate
columns to a row-major ``(rows, 2**n)`` batch: ``run()`` and its
array-phase resume pass their flat state as one row, each sweep group
its rows.  Unfused, every step is the gate itself (:func:`dmav_steps`),
which the plan cache prices by its closed-form MACs (Eq. 5 only) and
``dmav_nocache`` applies from its matrix, without a gate DD; with fusion
on, ``run()`` builds and fuses gate DDs for DMAV before calling it, and
each takes the algorithm of its Eq. 5-6 verdict.  The phases reach the
DD-package and kernel entry points through this module's namespace, so
patching one name here (as ``perfbench/layers.py`` does for per-layer
attribution) sees every call.
"""

from __future__ import annotations

import logging
import time

from repro.backends.base import GateRecord, SimulationResult, Simulator
from repro.backends.gatecache import GateDDCache
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.common.config import FlatDDConfig, config_digest
from repro.core.conversion import convert_parallel
from repro.core.cost_model import CostModel
from repro.core.dmav import dmav_cached, dmav_nocache
from repro.core.ewma import EWMAMonitor
from repro.core.plan import GatePlan, PlanCache, TileLocalPlan
from repro.core.fusion import (
    K_OPERATIONS,
    FusionResult,
    fuse_cost_aware,
    fuse_k_operations,
)
from repro.core.reorder import (
    permute_circuit,
    plan_qubit_order,
    unpermute_axes,
)
from repro.dd.io import deserialize_vector_dd
from repro.dd.operations import mv_multiply
from repro.dd.package import DDPackage
from repro.dd.vector import node_count, zero_state
from repro.metrics.memory import MemoryMeter, dd_bytes
from repro.obs.collect import build_obs, record_gate_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.parallel.arena import BufferArena
from repro.parallel.pool import TaskRunner, validate_thread_count
from repro.resilience.guard import MemoryGuard
from repro.common.errors import CheckpointError
from repro.resilience.snapshot import (
    Snapshot,
    decode_array_state,
    read_snapshot,
    snapshot_array_phase,
    snapshot_dd_phase,
    validate_snapshot,
    write_snapshot,
)

__all__ = [
    "FlatDDSimulator",
    "apply_plan",
    "dd_phase",
    "dmav_phase",
    "dmav_steps",
    "release_dd_phase",
]

_log = logging.getLogger("repro.core.simulator")


def dd_phase(
    cfg: FlatDDConfig,
    pkg: DDPackage,
    gates: GateDDCache,
    monitor: EWMAMonitor,
    state_dd,
    dd_gates: list,
    start: int,
    guard: MemoryGuard,
    meter: MemoryMeter,
    metadata: dict,
    gc_threshold: int,
    *,
    trace: list[GateRecord],
    tracer=NULL_TRACER,
    checkpoint_every: int | None = None,
    write_checkpoint=None,
    deadline: float | None = None,
):
    """Apply ``dd_gates[start:]`` to ``state_dd`` until conversion is due.

    Returns ``(state_dd, convert_at, applied, timed_out)``.  ``convert_at``
    is the gate after which the EWMA trigger, ``cfg.force_convert_at`` or
    a memory-guard breach (which also sets
    ``metadata["guard_forced_conversion"]``) asks for conversion; it is
    None when the gates run out or the ``time.perf_counter()`` value
    ``deadline`` passes first (``timed_out``).  ``applied`` counts every
    gate applied since gate 0, a resumed prefix included.

    Each gate is applied as its windowed DD, ``gates.get(gate,
    windowed=True)``: it spans only the gate's active-qubit window, and
    ``mv_multiply`` crosses the levels above its root as implicit
    identity.

    Every decision -- trigger, guard, the ``gc_threshold`` GC cadence --
    reads only this package's DD working set, so a single-shot run, a
    resume entering at its snapshot cursor and each sweep group all
    convert at the gate the uninterrupted run would.

    ``trace`` receives one :class:`GateRecord` per gate (its DD size and
    EWMA value).  When the phase ends, a raise included, ``tracer`` gets
    those records as per-gate spans and samples, then (unless it raised)
    the "dd_phase" span; the trigger, guard, GC and checkpoint events are
    its instants.  Every ``checkpoint_every`` gates (never after the
    last) the package passes a checkpoint barrier and
    ``write_checkpoint(state_dd, cursor)`` persists it, counted in
    ``metadata["checkpoints_written"]``.
    """
    force_at = cfg.force_convert_at
    total = len(dd_gates)
    first = len(trace)
    convert_at = None
    timed_out = False
    d0 = time.perf_counter()
    try:
        for i in range(start, total):
            gate = dd_gates[i]
            g0 = time.perf_counter()
            state_dd = mv_multiply(
                pkg, gates.get(gate, windowed=True), state_dd
            )
            size = node_count(state_dd)
            triggered = monitor.update(size)
            if force_at is not None:
                triggered = i == force_at
            g1 = time.perf_counter()
            trace.append(GateRecord(
                index=i, name=gate.name, seconds=g1 - g0, phase="dd",
                dd_size=size, start=g0, ewma=monitor.value,
            ))
            meter.sample(dd_bytes(pkg))
            if not triggered and guard.check_dd(meter.last_bytes, i):
                # Budget breach while still in the DD phase: degrade
                # gracefully by converting to the flat array early.
                triggered = True
                metadata["guard_forced_conversion"] = True
                tracer.instant(
                    "guard_breach", "dd", ts=g1,
                    gate_index=i, observed_bytes=meter.last_bytes,
                    budget_bytes=guard.budget_bytes,
                )
                _log.warning(
                    "memory budget breached at gate %d (%d > %d bytes); "
                    "forcing DD-to-array conversion",
                    i, meter.last_bytes, guard.budget_bytes,
                )
            if triggered:
                tracer.instant(
                    "ewma_trigger", "dd", ts=g1,
                    gate_index=i, dd_size=size, ewma=monitor.value,
                )
                _log.info(
                    "EWMA triggered at gate %d (dd_size=%d, ewma=%.1f)",
                    i, size, monitor.value,
                )
                convert_at = i
                break
            if (
                checkpoint_every is not None
                and (i + 1) % checkpoint_every == 0
                and i + 1 < total
            ):
                # Barrier *before* the dump: the snapshot must capture the
                # exact state (unique tables = live state DD, caches cold)
                # that both the continuation and any resume evolve from.
                gates.clear()
                pkg.checkpoint_barrier([state_dd])
                write_checkpoint(state_dd, i + 1)
                metadata["checkpoints_written"] += 1
                tracer.instant("checkpoint", "dd", gate_index=i)
            if pkg.unique_node_count > gc_threshold:
                removed = pkg.collect_garbage([state_dd, *gates.roots()])
                tracer.instant("gc", "dd", gate_index=i, reclaimed=removed)
                _log.debug("GC at gate %d reclaimed %d nodes", i, removed)
            if deadline is not None and time.perf_counter() > deadline:
                timed_out = True
                break
    finally:
        record_gate_trace(tracer, trace[first:])
    applied = len(trace) - first
    tracer.record(
        "dd_phase", "phase", d0, time.perf_counter(),
        gates=applied, converted=convert_at is not None,
    )
    return state_dd, convert_at, start + applied, timed_out


def release_dd_phase(
    pkg: DDPackage, gates: GateDDCache, guard: MemoryGuard, barrier: bool
) -> None:
    """Post-conversion cleanup of the DD-phase package.

    The gate-DD cache is kept: the DMAV tail takes the same windowed
    gate DDs the DD phase built, so its repeated gates are cache hits.
    ``barrier`` (set by a run that may write, or has read, a snapshot)
    resets the package to the cold state in which an array-phase resume
    rebuilds the DMAV gate list, so the fused edges cannot drift by ulps
    between writer and resume.  Without a barrier, under a memory
    budget, the dead state DD is reclaimed so a forced conversion
    actually shrinks the working set (value-neutral: GC only frees dead
    nodes and clears caches).

    Conversion mutates none of the state gate builds read, so afterwards
    the package is exactly where the DMAV phase's gate builds start --
    for ``run()`` and for every row a sweep group builds on its leader
    package.
    """
    if barrier:
        gates.clear()
        pkg.checkpoint_barrier([])
    elif guard.enabled:
        pkg.collect_garbage(gates.roots())


def apply_plan(
    pkg: DDPackage,
    plans: list[GatePlan],
    v,
    out,
    threads: int,
    runner: TaskRunner | None,
    dense_level: int,
    *,
    buffers=None,
    out_dirty: bool = True,
):
    """One planned DMAV step: write ``v`` times the gate DD of ``plans``'
    one :class:`~repro.core.plan.GatePlan` into ``out``.

    ``v`` and ``out`` are ``run()``'s flat state as zero-copy ``(1,
    2**n)`` views.  The plan takes the kernel of its Eq. 5-6 verdict
    (Section 3.2.3): Algorithm 2 (its cache assignment and writer lists,
    over ``buffers``: at least ``plans[0].assignment.num_buffers``
    partials of ``v``'s shape and any contents), else Algorithm 1 (its
    row-major tasks).  ``out_dirty`` says whether ``out`` may hold stale
    data.  Returns ``(out, stats)``.
    """
    if plans[0].cost.use_cache:
        return dmav_cached(
            pkg, None, v, threads, runner, dense_level, out=out,
            plans=plans, buffers=buffers, out_dirty=out_dirty,
        )
    return dmav_nocache(
        pkg, None, v, threads, runner, dense_level, out=out,
        plans=plans, out_dirty=out_dirty,
    )


def dmav_steps(
    cfg: FlatDDConfig, gates: GateDDCache, tail: list[Gate]
) -> list:
    """The DMAV phase's step for each gate of ``tail``.

    Unfused (``cfg.fusion == "none"``), every gate is its own step,
    applied from its matrix by the array kernel
    (:func:`~repro.core.dmav.apply_tile_local`).  Fusion multiplies gate
    DDs, so under it every gate is its windowed gate DD, built (or found)
    in ``gates``, in tail order: ``run()`` and its resume build the same
    gate DDs.
    """
    if cfg.fusion == "none":
        return list(tail)
    return [gates.get(g, windowed=True) for g in tail]


#: Target bytes of one tile of a row block (``block x 2**n / threads``
#: amplitudes), the slice one pool task of a within-tile gate touches.
#: The kernels make several elementwise passes (scale, accumulate, fold)
#: over it; blocking a multi-row batch into row groups whose tile fits
#: the CPU cache keeps those passes cache-resident the way one-row tiles
#: are, instead of streaming the whole ``rows x 2**n`` batch through DRAM
#: once per pass.  Rows are independent in every kernel branch, so the
#: split never changes a row's arithmetic.
ROW_BLOCK_BYTES = 1 << 22


def dmav_phase(
    cfg: FlatDDConfig,
    pkg: DDPackage,
    runner: TaskRunner,
    state,
    steps_rows: list[list],
    convert_at: int,
    start: int,
    guard: MemoryGuard,
    meter: MemoryMeter,
    registry: MetricsRegistry,
    metadata: dict,
    write_checkpoint,
    *,
    labels: list[str],
    trace: list[GateRecord],
    tracer=NULL_TRACER,
    checkpoint_every: int | None = None,
    deadline: float | None = None,
    phase: str = "array",
):
    """Apply gate columns ``start:`` of ``steps_rows`` to the batch ``state``.

    ``state`` is a row-major ``(rows, 2**n)`` batch and row ``b`` applies
    ``steps_rows[b]``, whose entry ``j`` is emitted gate
    ``j`` after ``convert_at``: ``run()`` passes its flat state as one row,
    a sweep group its repeated conversion.  A step is an unfused
    :class:`Gate` (:func:`dmav_steps`), the same kind and qubits in every
    row, or, in a one-row batch, a fused gate DD.  Every column looks up
    its rows' plans and writes between recycled
    :class:`~repro.parallel.arena.BufferArena` buffers: tile-local steps
    (a :class:`~repro.core.plan.TileLocalPlan`, priced by its closed-form
    K1 and C1 alone) go to ``dmav_nocache``, which applies them from
    their matrices in ``ROW_BLOCK_BYTES`` row blocks, and a gate DD's
    :class:`~repro.core.plan.GatePlan` to :func:`apply_plan`.

    After every column the memory guard may raise (labelled ``phase``),
    checkpointing through ``write_checkpoint(batch, cursor)`` first; every
    ``checkpoint_every`` columns (never after the last) a snapshot is
    written the same way and counted in ``metadata``.  ``trace`` gets one
    :class:`GateRecord` per column, named by ``labels`` and priced for
    row 0's step (``cached``: the step ran Algorithm 2; a tile-local step
    has no ``cost_cache``).  When the phase
    ends, a raise included, ``tracer`` gets those records as per-gate
    spans, then (unless it raised) the "dmav_phase" span.  The ``dmav.*``
    counters, summed over rows, land in ``registry``.

    Returns ``(state, timed_out)``: the final batch and whether
    ``deadline`` (a ``time.perf_counter()`` value) passed.
    """
    threads = cfg.threads
    dense = cfg.dense_block_level
    rows, size = state.shape
    d0 = time.perf_counter()
    plans = PlanCache(pkg, threads, CostModel(threads))
    arena = BufferArena(size, rows=rows)
    block = max(1, min(rows, ROW_BLOCK_BYTES // (size // threads * 16)))
    columns = len(steps_rows[0])
    first = len(trace)
    macs = cached_steps = cache_hits = tile_steps = 0
    timed_out = False
    try:
        for j in range(start, columns):
            g0 = time.perf_counter()
            w_buf, w_dirty = arena.output()
            row_plans = [plans.get(sr[j]) for sr in steps_rows]
            plan = row_plans[0]
            # A column is all tile-local steps or one gate DD's plan.  A
            # tile-local step takes the array kernel, which writes every
            # element and has no cache, so it is never counted as cached.
            if isinstance(plan, TileLocalPlan):
                use_cache, hits = False, 0
                for b0 in range(0, rows, block):
                    b1 = min(b0 + block, rows)
                    dmav_nocache(
                        pkg, None, state[b0:b1], threads, runner, dense,
                        out=w_buf[b0:b1], plans=row_plans[b0:b1],
                    )
                tile_steps += rows
            else:
                use_cache = plan.cost.use_cache
                _, stats = apply_plan(
                    pkg, row_plans, state, w_buf, threads, runner, dense,
                    buffers=arena.partials(
                        plan.assignment.num_buffers if use_cache else 0
                    ),
                    out_dirty=w_dirty,
                )
                hits = stats.cache_hits
            macs += sum(p.cost.macs_total for p in row_plans)
            cached_steps += rows if use_cache else 0
            arena.retire(state)
            state = w_buf
            cache_hits += hits
            cost = plan.cost
            g1 = time.perf_counter()
            index = convert_at + 1 + j
            trace.append(GateRecord(
                index=index, name=labels[j], seconds=g1 - g0, phase="dmav",
                macs=cost.macs_total, cached=use_cache, start=g0,
                cost_nocache=cost.cost_nocache, cost_cache=cost.cost_cache,
                cache_hits=hits,
            ))
            meter.sample(
                dd_bytes(pkg) + 2 * state.nbytes + arena.partial_bytes
            )
            guard.check_array(
                meter.last_bytes,
                index,
                checkpoint=lambda s=state, c=j + 1: write_checkpoint(s, c),
                phase=phase,
            )
            if (
                checkpoint_every is not None
                and (j + 1) % checkpoint_every == 0
                and j + 1 < columns
            ):
                write_checkpoint(state, j + 1)
                metadata["checkpoints_written"] += 1
                tracer.instant("checkpoint", "dmav", gate_index=index)
            if deadline is not None and time.perf_counter() > deadline:
                timed_out = True
                break
    finally:
        record_gate_trace(tracer, trace[first:])
    tracer.record(
        "dmav_phase", "phase", d0, time.perf_counter(),
        gates=columns, macs=macs,
    )
    steps = rows * (len(trace) - first)
    registry.counter("dmav.gates_cached").inc(cached_steps)
    registry.counter("dmav.gates_uncached").inc(
        steps - cached_steps - tile_steps
    )
    registry.counter("dmav.gates_tile_local").inc(tile_steps)
    registry.counter("dmav.gates").inc(steps)
    registry.counter("dmav.macs").inc(macs)
    registry.counter("dmav.cache_hits").inc(cache_hits)
    for key in ("hits", "compiles", "invalidations"):
        registry.counter(f"dmav.plan.{key}").inc(getattr(plans, key))
    for key in ("partial_allocs", "partial_reuses", "output_allocs"):
        registry.counter(f"dmav.arena.{key}").inc(getattr(arena, key))
    registry.gauge("dmav.arena.bytes").set(arena.bytes_held)
    return state, timed_out


class FlatDDSimulator(Simulator):
    """Hybrid DD / flat-array simulator with parallel DMAV."""

    GC_THRESHOLD = 200_000

    def __init__(self, config: FlatDDConfig | None = None, **overrides) -> None:
        if config is None:
            config = FlatDDConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides")
        self.config = config
        self.name = f"flatdd[t={config.threads}]"

    # ------------------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        max_seconds: float | None = None,
        keep_internals: bool = False,
        tracer=None,
        checkpoint_every: int | None = None,
        checkpoint_path: str | None = None,
        resume_from: "str | Snapshot | None" = None,
    ) -> SimulationResult:
        """Simulate ``circuit``; see class docstring for the phases.

        ``keep_internals=True`` stores the DD package and the DMAV phase's
        steps in the result metadata, so benches can replay the tail or
        re-evaluate the cost model at other thread counts without
        re-simulating; the run itself is the same either way.
        ``metadata["dmav_steps"]`` holds each step as applied (an unfused
        gate is its :class:`~repro.circuits.gates.Gate`, see
        :func:`dmav_steps`), and ``metadata["dmav_edges"]`` each step as a
        gate DD, unfused gates' windowed DDs built after the run.

        ``tracer`` (a :class:`repro.obs.Tracer`) records phase spans
        ("dd_phase", "conversion", "fusion", "dmav_phase") and, read off
        the result's ``gate_trace``, per-gate spans with DD-size/EWMA (DD
        phase) and MACs/cache-decision (DMAV phase) args and dd_size/ewma
        counter samples, those of a run that raises included.  Counters
        are collected into ``metadata["obs"]`` regardless.

        ``checkpoint_every=N`` writes a resumable snapshot to
        ``checkpoint_path`` every N applied gates (rolling: each write
        atomically replaces the previous one).  The cadence counts circuit
        gates in the DD phase and emitted (post-fusion) gates in the DMAV
        phase; no snapshot is written at the gate where the conversion
        trigger fires, nor after the final gate.  ``resume_from`` (a path
        or a :class:`~repro.resilience.snapshot.Snapshot`) continues such
        a run *bit-identically* in a fresh process; the snapshot is pinned
        to the circuit fingerprint and semantic config digest
        (:class:`~repro.common.errors.CheckpointError` on mismatch).

        With ``config.memory_budget_bytes`` set, a
        :class:`~repro.resilience.guard.MemoryGuard` watches every memory
        sample: a DD-phase breach forces early conversion, an array-phase
        breach checkpoints (when ``checkpoint_path`` is set) and raises
        :class:`~repro.common.errors.ResourceExhaustedError`.
        """
        cfg = self.config
        n = circuit.num_qubits
        validate_thread_count(cfg.threads, n)
        # DD-phase variable order (the Reorder Trick).  The plan depends
        # only on gate structure, so it is recomputed identically on
        # resume (the config digest pins cfg.qubit_order).  The permuted
        # circuit drives *only* the DD phase; conversion un-permutes, and
        # the DMAV tail below always uses the canonical circuit.
        reorder = plan_qubit_order(circuit, cfg.qubit_order)
        dd_circuit = (
            circuit
            if reorder.is_natural
            else permute_circuit(circuit, reorder.order)
        )
        unperm = None if reorder.is_natural else unpermute_axes(reorder.order)
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        cfg_digest = config_digest(cfg)
        resume: Snapshot | None = None
        if resume_from is not None:
            if isinstance(resume_from, Snapshot):
                resume = resume_from
                resume_path = None
            else:
                resume_path = str(resume_from)
                resume = read_snapshot(resume_path)
            validate_snapshot(resume, circuit, cfg_digest, path=resume_path)
            if resume.phase == "sweep":
                # Sweep snapshots are diagnostic batch dumps; a sweep row
                # is not a single-shot run and cannot be resumed as one.
                raise CheckpointError(
                    "cannot resume a single-shot run from a sweep-phase "
                    "snapshot (sweep snapshots preserve batch contents "
                    "for diagnosis only)",
                    path=resume_path,
                )
        guard = MemoryGuard(cfg.memory_budget_bytes)
        tr = tracer if tracer is not None else NULL_TRACER
        first_span = len(tr.spans)
        registry = MetricsRegistry()
        pkg = DDPackage(n)
        gates = GateDDCache(pkg)
        monitor = EWMAMonitor(beta=cfg.beta, epsilon=cfg.epsilon)
        meter = MemoryMeter()
        trace: list[GateRecord] = []
        metadata: dict = {
            "threads": cfg.threads,
            "beta": cfg.beta,
            "epsilon": cfg.epsilon,
            "fusion": cfg.fusion,
            "converted": False,
            "conversion_gate_index": None,
            "forced_conversion": cfg.force_convert_at is not None,
            "resumed": resume is not None,
            "resume_phase": resume.phase if resume is not None else None,
            "qubit_order": cfg.qubit_order,
            "reorder": {
                "mode": reorder.mode,
                "applied": not reorder.is_natural,
                "order": list(reorder.order),
                "cost_natural": reorder.cost_natural,
                "cost_selected": reorder.cost_selected,
                "sift_moves": reorder.sift_moves,
            },
            "checkpoints_written": 0,
        }
        start = time.perf_counter()
        deadline = None if max_seconds is None else start + max_seconds

        def write_dd_checkpoint(state_dd, cursor):
            write_snapshot(
                checkpoint_path,
                snapshot_dd_phase(
                    pkg, state_dd, monitor, cursor, circuit, cfg_digest
                ),
            )

        def write_array_checkpoint(arr, cursor):
            """Array-phase snapshot writer shared by cadence and guard."""
            if checkpoint_path is None:
                return None
            write_snapshot(
                checkpoint_path,
                snapshot_array_phase(
                    pkg, arr.reshape(-1), convert_at, cursor, circuit,
                    cfg_digest,
                ),
            )
            return checkpoint_path

        # ---------------- Phase 1: DD simulation with EWMA monitoring ----
        timed_out = False
        state_dd = steps = None
        if resume is not None:
            # Canonicalization is history-dependent: restoring the full
            # complex table makes every post-resume weight lookup resolve
            # exactly as it would have in the uninterrupted run.
            pkg.ctable.restore(resume.data["ctable"])
        if resume is not None and resume.phase == "array":
            convert_at = int(resume.data["convert_at"])
            dd_gates_applied = convert_at + 1
        else:
            dd_start = 0
            if resume is None:
                state_dd = zero_state(pkg)
            else:
                state_dd = deserialize_vector_dd(pkg, resume.data["dd"])
                monitor.restore_state(resume.data["monitor"])
                dd_start = resume.gate_cursor
            state_dd, convert_at, dd_gates_applied, timed_out = dd_phase(
                cfg, pkg, gates, monitor, state_dd, dd_circuit.gates,
                dd_start, guard, meter, metadata, self.GC_THRESHOLD,
                trace=trace, tracer=tr, checkpoint_every=checkpoint_every,
                write_checkpoint=write_dd_checkpoint, deadline=deadline,
            )
            registry.gauge("dd.size").set(node_count(state_dd))
        registry.gauge("ewma").set(monitor.value)

        with TaskRunner(
            cfg.threads, cfg.use_thread_pool, tracer=tr if tr.enabled else None
        ) as runner:
            # ---------------- Phase 2: parallel DD-to-array ---------------
            c0 = time.perf_counter()
            if state_dd is None:
                # Array-phase resume: the snapshot carries the exact
                # post-conversion (and post-applied-DMAV-gates) array.
                state = decode_array_state(resume)
                meter.sample(dd_bytes(pkg) + state.nbytes)
            else:
                # Without a trigger the whole circuit stayed regular and
                # this finishes the run like DDSIM.
                state, report = convert_parallel(
                    pkg, state_dd, cfg.threads, runner,
                    dense_level=cfg.dense_block_level, tracer=tr,
                    unpermute=unperm,
                )
                metadata["conversion_report"] = report
                if convert_at is not None:
                    release_dd_phase(
                        pkg, gates, guard,
                        barrier=(
                            checkpoint_every is not None or resume is not None
                        ),
                    )
                meter.sample(dd_bytes(pkg) + state.nbytes)
                tr.record(
                    "conversion", "phase", c0, time.perf_counter(),
                    triggered=convert_at is not None,
                    gate_index=convert_at, tasks=report.num_tasks,
                    scalar_fills=report.num_scalar_fills,
                )
            if convert_at is not None:
                metadata["converted"] = True
                metadata["conversion_gate_index"] = convert_at
                dmav_start = 0 if state_dd is not None else resume.gate_cursor
                guard.check_array(
                    meter.last_bytes,
                    convert_at,
                    checkpoint=lambda: write_array_checkpoint(
                        state, dmav_start
                    ),
                )
                # ---------------- Phase 3: (fusion +) DMAV ---------------
                # The emitted list is rebuilt deterministically on resume.
                f0 = time.perf_counter()
                tail = circuit.gates[convert_at + 1:]
                steps = dmav_steps(cfg, gates, tail)
                labels = [g.name for g in tail]
                if cfg.fusion != "none" and steps:
                    model = CostModel(cfg.threads)
                    fused = (
                        fuse_cost_aware(pkg, steps, model)
                        if cfg.fusion == "cost"
                        else fuse_k_operations(
                            pkg, steps, K_OPERATIONS, model
                        )
                    )
                    steps = fused.gates
                    labels = _fused_labels(labels, fused)
                    metadata["fusion_result"] = _fusion_summary(fused)
                    tr.record(
                        "fusion", "phase", f0, time.perf_counter(),
                        mode=cfg.fusion, emitted=len(steps),
                    )
                state, timed_out = dmav_phase(
                    cfg, pkg, runner, state.reshape(1, -1),
                    [steps], convert_at, dmav_start, guard, meter, registry,
                    metadata, write_array_checkpoint, labels=labels,
                    trace=trace, tracer=tr,
                    checkpoint_every=checkpoint_every, deadline=deadline,
                )
                state = state.reshape(-1)
                dmav = [r for r in trace if r.phase == "dmav"]
                metadata["dmav_macs_total"] = sum(r.macs for r in dmav)
                metadata["dmav_gate_costs"] = [
                    (r.macs, r.cost_nocache, r.cost_cache, r.cached)
                    for r in dmav
                ]

        runtime = time.perf_counter() - start
        metadata["timed_out"] = timed_out
        metadata["dd_phase_gates"] = dd_gates_applied
        metadata["gate_dd_cache_hits"] = gates.hits
        metadata["gate_dd_cache_misses"] = gates.misses
        if guard.enabled:
            metadata["guard"] = guard.report.to_dict()
        registry.gauge("sim.mem.peak_bytes").set(meter.peak_bytes)
        metadata["obs"] = build_obs(
            tracer=tr,
            registry=registry,
            package=pkg,
            gate_cache=gates,
            runner=runner,
            wall_seconds=runtime,
            first_span=first_span,
        )
        if keep_internals:
            metadata["package"] = pkg
            if steps is not None:
                metadata["dmav_steps"] = steps
                metadata["dmav_edges"] = [
                    gates.get(s, windowed=True) if isinstance(s, Gate) else s
                    for s in steps
                ]
        return SimulationResult(
            backend=self.name,
            circuit_name=circuit.name,
            num_qubits=n,
            num_gates=len(circuit.gates),
            state=state,
            runtime_seconds=runtime,
            peak_memory_bytes=meter.peak_bytes,
            gate_trace=trace,
            metadata=metadata,
        )

    # ------------------------------------------------------------------

    def simulate_sweep(
        self,
        circuit: Circuit,
        param_sets,
        tracer=None,
        checkpoint_path: str | None = None,
    ):
        """Run ``circuit`` bound with every parameter row of ``param_sets``.

        Returns a :class:`~repro.core.sweep.SweepResult` whose
        ``states[i]`` is bit-identical (``np.array_equal``) to
        ``self.run(circuit.bind(param_sets[i])).state``.  The sweep
        deduplicates identical rows, shares one DD phase and conversion
        across rows with a common gate prefix, and replays the remaining
        gates as batched matrix x matrix kernels; see
        :func:`repro.core.sweep.run_sweep` for the full contract.

        ``checkpoint_path`` receives a diagnostic sweep-phase snapshot on
        a memory-guard breach in the batched replay; such snapshots
        cannot seed ``run(resume_from=...)``.  With fusion on there is
        no batched replay: each unique row runs through :meth:`run`, so
        a breach there writes that row's array-phase snapshot and raises
        with ``phase="array"``.
        """
        from repro.core.sweep import run_sweep

        return run_sweep(
            self, circuit, param_sets, tracer=tracer,
            checkpoint_path=checkpoint_path,
        )


def _fused_labels(labels: list[str], fused: FusionResult) -> list[str]:
    """Human-readable names for fused groups ('fused[x12]')."""
    out = []
    pos = 0
    for size in fused.group_sizes:
        group = labels[pos:pos + size]
        pos += size
        if size == 1:
            out.append(group[0])
        else:
            out.append(f"fused[x{size}]")
    return out


def _fusion_summary(fused: FusionResult) -> dict:
    return {
        "emitted_gates": len(fused.gates),
        "absorbed_gates": fused.fused_away,
        "total_cost": fused.total_cost,
        "ddmm_calls": fused.ddmm_calls,
        "group_sizes": fused.group_sizes,
    }
