"""Plan-cache ablation: compiled DMAV plans + arena vs per-gate re-planning.

The plan compiler (``repro.core.plan``) lifts the array-phase bookkeeping
-- cost-model verdicts, Algorithm 1/2 task partitions, writer lists --
out of the hot loop, and the buffer arena (``repro.parallel.arena``)
replaces the per-gate output/partial allocations with recycled dirty
buffers.  This experiment measures what that saves.  An unfused run
applies every tail gate with the array kernel and compiles no plan, so
its tail is replayed as gate DDs (``metadata["dmav_edges"]``) twice from
the converted array: through the DMAV phase (array-phase seconds are the
sum of its per-gate ``dmav`` trace records), and through the paper's
listing -- per gate the cost model, the Assign descent, and the unplanned
``dmav_cached`` / ``dmav_nocache`` kernels with their own buffers -- on
two workload shapes: QFT (no repeated gate roots: every gate compiles
its plan once, so the planned side saves the listing's second descent
per gate, its freshly zeroed output and partial buffers and its
every-buffer summation) and supremacy (repeated roots: whole plans are
served from cache as well).  The listing must land on the DMAV phase's bits,
so both sides do the same work.

The same comparison on a fused run (``fusion="koperations"``), whose
fused gate DDs are the traffic the plan cache serves in a run, is
reported beside it and not gated: its speedup and whole-plan hits are
what the plan cache earns in practice.  (``fusion="cost"`` on qft-20
takes minutes per run, so the k-operations grouping stands in.)

Runs interleave the two variants and take per-variant minima so slow
drifting machine load cancels out of the ratio.

Shape targets: >= 1.3x array-phase speedup on both workloads at 4
threads, and zero arena allocations after warm-up (one output ping-pong
pair, a partial pool that grows once).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.tables import render_table
from repro.circuits import get_circuit
from repro.common.config import DENSE_BLOCK_LEVEL, FlatDDConfig
from repro.core import FlatDDSimulator
from repro.core.cost_model import CostModel, assign_cache_tasks
from repro.core.dmav import dmav_cached, dmav_nocache
from repro.core.simulator import dmav_phase
from repro.metrics.memory import MemoryMeter
from repro.obs.metrics import MetricsRegistry
from repro.resilience.guard import MemoryGuard

from conftest import emit, record

WORKLOADS = [
    ("qft", 20),
    ("supremacy", 20),
]
REPEATS = 4
MIN_SPEEDUP = 1.3
#: The reported fused variant (not gated).
FUSED = "koperations"


def _planned_run(circuit, threads, fusion="none"):
    """Array-phase seconds of a run's tail replayed as gate DDs through
    the DMAV phase (conversion after gate 0).

    Returns ``(seconds, state, obs, result)``: the replay's final array
    and its counters and gauges, and the run (whose package holds the
    gate DDs).
    """
    cfg = FlatDDConfig(threads=threads, force_convert_at=0, fusion=fusion)
    result = FlatDDSimulator(cfg).run(circuit, keep_internals=True)
    edges = result.metadata["dmav_edges"]
    start = FlatDDSimulator(cfg).run(circuit[:1]).state
    registry = MetricsRegistry()
    trace = []
    state, _, _ = dmav_phase(
        cfg, result.metadata["package"], None,
        start.reshape(1, -1), [edges], 0, 0, MemoryGuard(None),
        MemoryMeter(), registry, {}, None,
        labels=[str(j) for j in range(len(edges))], trace=trace,
    )
    seconds = sum(g.seconds for g in trace)
    return seconds, state.reshape(-1), registry.snapshot(), result


def _listing_replay(circuit, threads, result, planned, fusion="none"):
    """Array-phase seconds of ``result``'s tail gate DDs through the
    listing kernels, which must land on ``planned``, the DMAV phase's
    final array.

    Starts from the same converted array (a run of gate 0 alone) in the
    run's own package.  The DMAV phase warmed that package's per-node
    analysis caches, so they are dropped first: the listing starts as
    cold as the phase did (recomputing them is deterministic).
    """
    cfg = FlatDDConfig(threads=threads, force_convert_at=0, fusion=fusion)
    state = FlatDDSimulator(cfg).run(circuit[:1]).state
    pkg = result.metadata["package"]
    for cache in (
        pkg.dense_cache, pkg.kron_cache, pkg.mac_counts, pkg.identity_flags
    ):
        cache.clear()
    model = CostModel(threads)
    out = np.zeros_like(state)
    seconds = 0.0
    for edge in result.metadata["dmav_edges"]:
        g0 = time.perf_counter()
        if model.evaluate(pkg, edge).use_cache:
            out, _ = dmav_cached(
                pkg, edge, state, threads, None, DENSE_BLOCK_LEVEL, out=out,
                assignment=assign_cache_tasks(pkg, edge, threads),
            )
        else:
            out, _ = dmav_nocache(
                pkg, edge, state, threads, None, DENSE_BLOCK_LEVEL, out=out
            )
        state, out = out, state
        seconds += time.perf_counter() - g0
    assert np.array_equal(state, planned), circuit.name
    return seconds


def _measure(circuit, threads, fusion):
    """Min listing and planned seconds over interleaved repeats, and the
    last replay's counters and gauges."""
    on_times, off_times = [], []
    for _ in range(REPEATS):
        on_s, planned, obs, result = _planned_run(circuit, threads, fusion)
        off_times.append(
            _listing_replay(circuit, threads, result, planned, fusion)
        )
        on_times.append(on_s)
    return {
        "off": min(off_times),
        "on": min(on_times),
        "speedup": min(off_times) / min(on_times),
        "counters": obs["counters"],
        "gauges": obs["gauges"],
    }


def run_experiment(threads: int = 4):
    rows = []
    measured, fused = {}, {}
    for family, n in WORKLOADS:
        circuit = get_circuit(family, n)
        name = f"{family}-{n}"
        measured[name] = _measure(circuit, threads, "none")
        fused[name] = _measure(circuit, threads, FUSED)
        for label, m in ((name, measured[name]),
                         (f"{name} fused ({FUSED})", fused[name])):
            counters = m["counters"]
            rows.append([
                label,
                f"{m['off']:.3f}",
                f"{m['on']:.3f}",
                f"{m['speedup']:.2f}x",
                str(counters["dmav.plan.hits"]),
                str(counters["dmav.plan.compiles"]),
                str(counters["dmav.arena.partial_allocs"]),
            ])
    text = render_table(
        "Plan-cache ablation: array-phase seconds, plans on vs off "
        f"(min of {REPEATS} interleaved runs, {threads} threads, "
        "force_convert_at=0; fused rows reported, not gated)",
        ["workload", "no-plan s", "plan s", "speedup",
         "plan hits", "compiles", "partial allocs"],
        rows,
    )
    return text, measured, fused


@pytest.mark.benchmark(group="plan-cache")
def test_plan_cache_speedup(benchmark, threads):
    text, measured, fused = benchmark.pedantic(
        lambda: run_experiment(threads), rounds=1, iterations=1
    )
    emit("plan_cache", text)

    def fields(m):
        return {
            "array_phase_speedup": m["speedup"],
            "plan_hits": m["counters"]["dmav.plan.hits"],
            "plan_compiles": m["counters"]["dmav.plan.compiles"],
            "arena_partial_allocs": (
                m["counters"]["dmav.arena.partial_allocs"]
            ),
        }

    record(
        "plan_cache",
        {
            **{name: fields(m) for name, m in measured.items()},
            **{f"{name}-fused-{FUSED}": fields(m)
               for name, m in fused.items()},
        },
        config_digest=f"threads={threads};repeats={REPEATS}",
    )
    for name, m in measured.items():
        assert m["speedup"] >= MIN_SPEEDUP, (
            f"{name}: plan cache speedup {m['speedup']:.2f}x "
            f"below the {MIN_SPEEDUP}x floor"
        )
        counters = m["counters"]
        # The arena stopped allocating after warm-up (one ping-pong
        # output pair; the partial pool grows once to the widest gate's
        # needs, bounded by the thread count).
        assert counters["dmav.arena.output_allocs"] == 1, name
        assert counters["dmav.arena.partial_allocs"] <= threads, name
        assert m["gauges"]["dmav.arena.bytes"]["value"] > 0, name
