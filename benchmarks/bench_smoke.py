"""Plan-cache and sweep smoke records: DMAV amortization counters.

Asserts two smokes' counters and writes ``BENCH_plan_cache_smoke.json``
and ``BENCH_sweep_smoke.json`` to OUTDIR for ``repro bench-compare``
against ``benchmarks/baselines``::

    PYTHONPATH=src python benchmarks/bench_smoke.py /tmp/bench

* qft-16 at 4 threads with conversion after gate 0: an unfused run
  compiles no plan, so its tail is replayed as gate DDs
  (``metadata["dmav_edges"]``) through the DMAV phase, and the arena
  allocates one output buffer.  The same circuit's fused runs
  (``fusion="cost"`` and ``"koperations"``), the traffic the plan cache
  serves in a run, are recorded beside it.  QFT repeats no gate root, so
  each of its gates compiles one plan.  supremacy-12's fused runs at the
  same settings repeat roots and take Algorithm 2: some lookups are
  whole-plan hits, and some steps run cached.
* On every replayed and fused run each gate lookup is a compile or a
  whole-plan hit (``hits + compiles == gates``).
* ``repro sweep --family qft --qubits 10 --points 16 --threads 4
  --force-convert-at 0 --sweep-seed 1 --json``: one prefix group, every
  gate column batched, no plan compiled, and one DMAV gate per unique row
  and gate column.

A failed assert exits non-zero; the recorded counters are
deterministic, so a baseline mismatch is a behaviour change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import numpy as np

from repro import FlatDDConfig, FlatDDSimulator, get_circuit
from repro.bench.registry import write_bench_record
from repro.cli import main as repro_main
from repro.core.simulator import dmav_phase
from repro.metrics.memory import MemoryMeter
from repro.obs.metrics import MetricsRegistry
from repro.resilience.guard import MemoryGuard

SWEEP_ARGS = [
    "sweep", "--family", "qft", "--qubits", "10", "--points", "16",
    "--threads", "4", "--force-convert-at", "0", "--sweep-seed", "1",
    "--json",
]


def _cli_json(argv: list[str]) -> dict:
    """The JSON payload ``python -m repro ARGV`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro_main(argv)
    if code != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())


def _replayed_tail_counters(circuit, cfg) -> dict:
    """The ``dmav.*`` counters of ``circuit``'s tail replayed as gate DDs
    through the DMAV phase (counters only: any start state will do)."""
    meta = FlatDDSimulator(cfg).run(circuit, keep_internals=True).metadata
    registry = MetricsRegistry()
    state = np.zeros((1, 1 << circuit.num_qubits), dtype=np.complex128)
    dmav_phase(
        cfg, meta["package"], None, state, [meta["dmav_edges"]],
        meta["conversion_gate_index"], 0, MemoryGuard(None), MemoryMeter(),
        registry, {}, None,
    )
    return registry.snapshot()["counters"]


def _plan_counts(counters: dict, label: str) -> dict:
    """Assert that every gate lookup compiled or hit a whole plan; print
    and return the plan counts."""
    hits = counters["dmav.plan.hits"]
    compiles = counters["dmav.plan.compiles"]
    assert hits + compiles == counters["dmav.gates"], (label, counters)
    print(f"plan smoke, {label}: {counters['dmav.gates']} gates, {hits} "
          f"hits, {compiles} compiles, "
          f"{counters['dmav.gates_cached']} cached steps")
    return counters


def _fused_plan_counts(family: str, n: int) -> dict:
    """Plan counts of ``family``-``n``'s fused runs, by fusion mode."""
    counts = {}
    prefix = "fused" if family == "qft" else f"{family}{n}_fused"
    for fusion in ("cost", "koperations"):
        cfg = FlatDDConfig(threads=4, force_convert_at=0, fusion=fusion)
        counters = _plan_counts(
            FlatDDSimulator(cfg).run(get_circuit(family, n)).metadata["obs"][
                "counters"
            ],
            f"{family}-{n} fused ({fusion})",
        )
        if family != "qft":
            # Repeated roots take their compiled plan, and Algorithm 2
            # runs on its own verdict.
            assert counters["dmav.plan.hits"] > 0, counters
            assert counters["dmav.gates_cached"] > 0, counters
            counts[f"{prefix}_{fusion}_cached_steps"] = (
                counters["dmav.gates_cached"]
            )
        counts[f"{prefix}_{fusion}_plan_hits"] = counters["dmav.plan.hits"]
        counts[f"{prefix}_{fusion}_plan_compiles"] = (
            counters["dmav.plan.compiles"]
        )
    return counts


def plan_cache_smoke(directory: str) -> str:
    """Assert and record the plan-cache smoke; returns the record path."""
    circuit = get_circuit("qft", 16)
    counters = _plan_counts(
        _replayed_tail_counters(
            circuit, FlatDDConfig(threads=4, force_convert_at=0)
        ),
        "qft-16 replay",
    )
    assert counters["dmav.arena.output_allocs"] == 1, counters
    return write_bench_record(
        "plan_cache_smoke",
        {
            "plan_hits": counters["dmav.plan.hits"],
            "plan_compiles": counters["dmav.plan.compiles"],
            "arena_output_allocs": counters["dmav.arena.output_allocs"],
            "dmav_gates": counters["dmav.gates"],
            "dmav_macs": counters["dmav.macs"],
            **_fused_plan_counts("qft", 16),
            **_fused_plan_counts("supremacy", 12),
        },
        directory=directory,
        config_digest="qft-16;supremacy-12;threads=4;force_convert_at=0",
    )


def sweep_smoke(directory: str) -> str:
    """Assert and record the sweep smoke; returns the record path."""
    payload = _cli_json(SWEEP_ARGS)
    counters = payload["obs"]["counters"]
    assert payload["mode"] == "batched", payload["mode"]
    assert payload["rows"] == 16, payload
    assert counters["dmav.sweep.groups"] == 1, counters
    assert counters["dmav.sweep.gates_batched"] > 0, counters
    # Every tail column runs batched, and none holds a gate DD to plan.
    assert counters["dmav.sweep.gates_batched"] == (
        len(get_circuit("qft", 10).gates) - 1
    ), counters
    assert counters["dmav.plan.compiles"] == 0, counters
    assert counters["dmav.gates"] == payload["unique_rows"] * (
        counters["dmav.sweep.gates_batched"]
    ), counters
    print(f"sweep smoke: {payload['rows']} rows, "
          f"{counters['dmav.sweep.gates_batched']} batched gate columns")
    return write_bench_record(
        "sweep_smoke",
        {
            "rows": payload["rows"],
            "unique_rows": payload["unique_rows"],
            "groups": counters["dmav.sweep.groups"],
            "gates_batched": counters["dmav.sweep.gates_batched"],
            "plan_compiles": counters["dmav.plan.compiles"],
        },
        directory=directory,
        config_digest="qft-10;points=16;threads=4;force_convert_at=0;seed=1",
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: bench_smoke.py OUTDIR")
    for path in (plan_cache_smoke(sys.argv[1]), sweep_smoke(sys.argv[1])):
        print(f"bench record: {path}")
