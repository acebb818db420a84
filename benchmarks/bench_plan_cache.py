"""Plan-cache ablation: compiled DMAV plans + arena vs per-gate re-planning.

The plan compiler (``repro.core.plan``) lifts the array-phase bookkeeping
-- cost-model verdicts, Algorithm 1/2 task partitions, writer lists --
out of the hot loop, and the buffer arena (``repro.parallel.arena``)
replaces the per-gate output/partial allocations with recycled dirty
buffers.  This experiment measures what that saves: array-phase seconds
of the pipeline (the sum of per-gate ``dmav`` trace records) against the
same emitted gates replayed here through the paper's listing -- per gate
the cost model, the Assign descent, and the unplanned ``dmav_cached`` /
``dmav_nocache`` kernels with their own buffers -- on the two workload
shapes the plans target: QFT (no repeated gate roots: amortization comes
from the structural memo sharing border tasks across distinct roots) and
supremacy (repeated roots: whole plans are served from cache).  The
replay must land on the pipeline's bits, so both sides do the same work.

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

from conftest import emit, record

WORKLOADS = [
    ("qft", 20),
    ("supremacy", 20),
]
REPEATS = 4
MIN_SPEEDUP = 1.3


def _planned_run(circuit, threads):
    """Array-phase seconds of the pipeline (conversion after gate 0)."""
    cfg = FlatDDConfig(threads=threads, force_convert_at=0)
    result = FlatDDSimulator(cfg).run(circuit, keep_internals=True)
    seconds = sum(
        g.seconds for g in result.gate_trace if g.phase == "dmav"
    )
    return seconds, result


def _listing_replay(circuit, threads, result):
    """Array-phase seconds of ``result``'s gates through the listing kernels.

    Starts from the same converted array (a run of gate 0 alone) in the
    run's own package.  The run warmed that package's per-node analysis
    caches, so they are dropped first: the listing starts as cold as the
    pipeline's array phase did (recomputing them is deterministic).
    """
    cfg = FlatDDConfig(threads=threads, force_convert_at=0)
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
    assert np.array_equal(state, result.state), circuit.name
    return seconds


def run_experiment(threads: int = 4):
    rows = []
    measured = {}
    for family, n in WORKLOADS:
        circuit = get_circuit(family, n)
        on_times, off_times = [], []
        counters = gauges = None
        for _ in range(REPEATS):
            on_s, result = _planned_run(circuit, threads)
            off_times.append(_listing_replay(circuit, threads, result))
            on_times.append(on_s)
            obs = result.metadata["obs"]
            counters, gauges = obs["counters"], obs["gauges"]
        speedup = min(off_times) / min(on_times)
        hit_rate = gauges["dmav.plan.hit_rate"]["value"]
        rows.append([
            f"{family}-{n}",
            f"{min(off_times):.3f}",
            f"{min(on_times):.3f}",
            f"{speedup:.2f}x",
            f"{100.0 * hit_rate:.1f}%",
            str(counters["dmav.plan.compiles"]),
            str(counters["dmav.arena.partial_allocs"]),
        ])
        measured[f"{family}-{n}"] = {
            "speedup": speedup,
            "counters": counters,
            "gauges": gauges,
        }
    text = render_table(
        "Plan-cache ablation: array-phase seconds, plans on vs off "
        f"(min of {REPEATS} interleaved runs, {threads} threads, "
        "force_convert_at=0)",
        ["workload", "no-plan s", "plan s", "speedup",
         "task hit rate", "compiles", "partial allocs"],
        rows,
    )
    return text, measured


@pytest.mark.benchmark(group="plan-cache")
def test_plan_cache_speedup(benchmark, threads):
    text, measured = benchmark.pedantic(
        lambda: run_experiment(threads), rounds=1, iterations=1
    )
    emit("plan_cache", text)
    record(
        "plan_cache",
        {
            name: {
                "array_phase_speedup": m["speedup"],
                "plan_hits": m["counters"]["dmav.plan.hits"],
                "plan_compiles": m["counters"]["dmav.plan.compiles"],
                "arena_partial_allocs": (
                    m["counters"]["dmav.arena.partial_allocs"]
                ),
                "plan_hit_rate": m["gauges"]["dmav.plan.hit_rate"]["value"],
            }
            for name, m in measured.items()
        },
        config_digest=f"threads={threads};repeats={REPEATS}",
    )
    for name, m in measured.items():
        assert m["speedup"] >= MIN_SPEEDUP, (
            f"{name}: plan cache speedup {m['speedup']:.2f}x "
            f"below the {MIN_SPEEDUP}x floor"
        )
        counters = m["counters"]
        # Amortization actually happened: tasks were served from the
        # structural memo, and the arena stopped allocating after
        # warm-up (one ping-pong output pair; the partial pool grows
        # once to the widest gate's needs, bounded by the thread count).
        assert counters["dmav.plan.hits"] > 0, name
        assert counters["dmav.arena.output_allocs"] == 1, name
        assert counters["dmav.arena.partial_allocs"] <= threads, name
        assert m["gauges"]["dmav.arena.bytes"]["value"] > 0, name
