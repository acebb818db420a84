"""Batched parameter-sweep execution over a row-major state batch.

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
2. **Price once.**  Each group's DMAV phase prices each distinct bound
   gate once (:class:`~repro.core.plan.PlanCache`, which compiles no
   plan for an unfused gate); rows share the prices of their
   parameterless gates.
3. **Batched replay.**  Each group's rows replay their remaining gates
   through :func:`~repro.core.simulator.dmav_phase`, the DMAV phase
   ``run()`` calls with one row, over a row-major ``(rows, 2**n)``
   batch.  Unfused, every remaining gate is one call of the array kernel
   (:func:`~repro.core.dmav.apply_tile_local`) on the whole batch, the
   rows' matrices stacked on its rows axis, whose per-row slices are
   bit-identical to the one-row call.  The array phase becomes batched
   matrix x matrix work.

**Bit-identity contract.**  Every batch row equals (``np.array_equal``,
the repo-wide replay standard: signed zeros aside) the state of
``FlatDDSimulator.run`` on the equivalently bound circuit with the same
config -- enforced by the ``sweep_consistency`` fuzz oracle and
``tests/test_sweep.py``.  The shared prefix makes the DD phase and the
conversion the row's own; the tail builds no gate DD, and the kernel's
arithmetic on a row never reads another row.

Fusion modes are root-specific and not batched yet: ``fusion != "none"``
falls back to deduplicated per-row ``run()`` calls (noted in metadata),
each counted as one group and its counters merged into the sweep's.
A ``tracer`` gets each batched group's phase and per-gate spans as
``run()``'s, its DMAV gates named for the template's tail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.backends.gatecache import GateDDCache
from repro.circuits.circuit import Circuit
from repro.common.config import config_digest
from repro.common.errors import SimulationError
from repro.core.conversion import convert_parallel
from repro.core.ewma import EWMAMonitor
from repro.core.reorder import (
    permute_circuit,
    plan_qubit_order,
    unpermute_axes,
)
from repro.core.simulator import (
    dd_phase,
    dmav_phase,
    dmav_steps,
    release_dd_phase,
)
from repro.dd.package import DDPackage
from repro.dd.vector import zero_state
from repro.metrics.memory import MemoryMeter, dd_bytes
from repro.obs.collect import build_obs, package_counters
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.parallel.pool import TaskRunner, validate_thread_count
from repro.resilience.guard import MemoryGuard
from repro.resilience.snapshot import snapshot_sweep_phase, write_snapshot

# Not called here -- the DD phase and every DMAV step reach them through
# repro.core.simulator -- but bound because perfbench/layers.py names them
# as this module's per-layer attribution points.
from repro.core.dmav import (  # noqa: F401
    dmav_cached,
    dmav_nocache,
    run_border_task_batch,
)
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
    memory-guard breach aborts the batched replay (carried on the raised
    :class:`~repro.common.errors.ResourceExhaustedError`); sweep
    snapshots cannot resume a single-shot run.  A fused sweep has no
    batched replay: it runs each unique row through ``sim.run``, which
    gets ``checkpoint_path`` too, so a breach there writes that row's
    array-phase snapshot (of the bound row, not the template) and raises
    with ``phase="array"``.
    """
    cfg = sim.config
    tr = tracer if tracer is not None else NULL_TRACER
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
        "fusion": cfg.fusion,
        "rows": num_rows,
        "unique_rows": len(uniq),
        "qubit_order": cfg.qubit_order,
        "reorder_applied": not reorder.is_natural,
    }

    if cfg.fusion != "none":
        # Fusion emits per-run gate groupings the lockstep replay does
        # not model; dedup still pays, batching does not apply.  Each
        # unique row's run is its own group.
        metadata["mode"] = "fallback-fusion"
        registry.counter("dmav.sweep.groups").inc(len(uniq))
        runs = [
            sim.run(c, tracer=tracer, checkpoint_path=checkpoint_path)
            for c in uniq
        ]
        states = np.empty((num_rows, 1 << n), dtype=np.complex128)
        for i, fp in enumerate(fps):
            states[i] = runs[first_of[fp]].state
        obs = metadata["obs"] = build_obs(tracer=tracer, registry=registry)
        for r in runs:
            _merge_counters(obs["counters"], r.metadata["obs"]["counters"])
        return SweepResult(
            backend=sim.name,
            circuit_name=circuit.name,
            num_qubits=n,
            num_rows=num_rows,
            states=states,
            runtime_seconds=time.perf_counter() - start,
            peak_memory_bytes=max(r.peak_memory_bytes for r in runs),
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
            if g["prefix"] == [x.key for x in bc.gates[:ca + 1]]:
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
                sim.GC_THRESHOLD, trace=[], tracer=tr,
            )
            groups.append({
                "pkg": pkg,
                "gates": gates,
                "state_dd": state_dd,
                "convert_at": convert_at,
                "prefix": (
                    [x.key for x in bc.gates[:convert_at + 1]]
                    if convert_at is not None
                    else None
                ),
                "members": [ui],
            })
    registry.counter("dmav.sweep.groups").inc(len(groups))

    gates_batched = 0
    ustates: list[np.ndarray | None] = [None] * len(uniq)
    conversions = []

    for g in groups:
        pkg: DDPackage = g["pkg"]
        gates: GateDDCache = g["gates"]
        convert_at = g["convert_at"]
        members: list[int] = g["members"]
        with TaskRunner(
            cfg.threads, cfg.use_thread_pool,
            tracer=tr if tr.enabled else None,
        ) as runner:
            c0 = time.perf_counter()
            conv, report = convert_parallel(
                pkg, g["state_dd"], cfg.threads, runner,
                dense_level=cfg.dense_block_level, tracer=tr,
                unpermute=unperm,
            )
            conversions.append(report.seconds)
            tr.record(
                "conversion", "phase", c0, time.perf_counter(),
                triggered=convert_at is not None, gate_index=convert_at,
                tasks=report.num_tasks, scalar_fills=report.num_scalar_fills,
            )
            if convert_at is None:
                # The whole (deduplicated) circuit stayed regular: the
                # conversion IS the final state, exactly like a run that
                # never triggers -- and such groups are singletons.
                meter.sample(dd_bytes(pkg) + conv.nbytes)
                ustates[members[0]] = conv
                continue
            release_dd_phase(pkg, gates, guard, barrier=False)
            steps_rows = [
                dmav_steps(cfg, gates, uniq[ui].gates[convert_at + 1:])
                for ui in members
            ]
            write_checkpoint = partial(
                _write_sweep_checkpoint, checkpoint_path, pkg, convert_at,
                circuit, cfg_digest,
            )
            batch = np.tile(conv, (len(members), 1))
            meter.sample(dd_bytes(pkg) + batch.nbytes)
            guard.check_array(
                meter.last_bytes, convert_at,
                checkpoint=lambda: write_checkpoint(batch, 0), phase="sweep",
            )
            batch, _ = dmav_phase(
                cfg, pkg, runner, batch, steps_rows, convert_at, 0, guard,
                meter, registry, metadata, write_checkpoint,
                labels=[x.name for x in circuit.gates[convert_at + 1:]],
                trace=[], tracer=tr, phase="sweep",
            )
            gates_batched += len(steps_rows[0])
            for pos, ui in enumerate(members):
                ustates[ui] = batch[pos]

    states = np.empty((num_rows, 1 << n), dtype=np.complex128)
    for i, fp in enumerate(fps):
        states[i] = ustates[first_of[fp]]

    registry.counter("dmav.sweep.gates_batched").inc(gates_batched)
    registry.gauge("sim.mem.peak_bytes").set(meter.peak_bytes)
    metadata["conversion_seconds"] = sum(conversions)
    obs = metadata["obs"] = build_obs(tracer=tracer, registry=registry)
    for g in groups:
        _merge_counters(obs["counters"], package_counters(g["pkg"]))
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


def _merge_counters(counters: dict, group: dict) -> None:
    """Fold one group's counters into the sweep's ``counters``.

    A group is a batched group's leader package or one fallback run.
    Work counts add up; node populations (``dd.unique_nodes``,
    ``dd.peak_nodes``) are the largest group's.
    """
    for key, val in group.items():
        if key in ("dd.unique_nodes", "dd.peak_nodes"):
            counters[key] = max(counters.get(key, 0), val)
        else:
            counters[key] = counters.get(key, 0) + val


def _write_sweep_checkpoint(
    checkpoint_path, pkg, convert_at, template, cfg_digest, batch, cursor
):
    """Guard-breach snapshot writer for a ``(rows, 2**n)`` ``batch`` (None
    when no path is configured)."""
    if checkpoint_path is None:
        return None
    write_snapshot(
        checkpoint_path,
        snapshot_sweep_phase(
            pkg, batch, convert_at, cursor, template, cfg_digest
        ),
    )
    return checkpoint_path
