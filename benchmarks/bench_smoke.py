"""Plan-cache and sweep smoke records: DMAV amortization counters.

Runs two CLI invocations, asserts the counters they print, and writes
``BENCH_plan_cache_smoke.json`` and ``BENCH_sweep_smoke.json`` to OUTDIR
for ``repro bench-compare`` against ``benchmarks/baselines``::

    PYTHONPATH=src python benchmarks/bench_smoke.py /tmp/bench

* ``repro simulate --family qft --qubits 16 --threads 4
  --force-convert-at 0 --json``: the plan cache serves at least half of
  the planned border tasks, and the arena allocates one output buffer.
* ``repro sweep --family qft --qubits 10 --points 16 --threads 4
  --force-convert-at 0 --sweep-seed 1 --json``: one prefix group, every
  gate column batched, one package rewind per unique row, and one DMAV
  gate per unique row and gate column.

A failed assert exits non-zero; the recorded counters are
deterministic, so a baseline mismatch is a behaviour change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from repro.bench.registry import write_bench_record
from repro.cli import main as repro_main

PLAN_ARGS = [
    "simulate", "--family", "qft", "--qubits", "16", "--threads", "4",
    "--force-convert-at", "0", "--json",
]
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


def plan_cache_smoke(directory: str) -> str:
    """Assert and record the plan-cache smoke; returns the record path."""
    counters = _cli_json(PLAN_ARGS)["obs"]["counters"]
    hits = counters["dmav.plan.hits"]
    misses = counters["dmav.plan.misses"]
    rate = hits / (hits + misses)
    assert hits > 0, counters
    assert rate >= 0.5, f"plan task hit rate {rate:.2%} below 50%"
    assert counters["dmav.arena.output_allocs"] == 1, counters
    print(f"plan smoke: {hits} task hits, {misses} misses "
          f"({rate:.1%}), compiles={counters['dmav.plan.compiles']}")
    return write_bench_record(
        "plan_cache_smoke",
        {
            "plan_hits": hits,
            "plan_misses": misses,
            "plan_hit_rate": rate,
            "plan_compiles": counters["dmav.plan.compiles"],
            "arena_output_allocs": counters["dmav.arena.output_allocs"],
            "dmav_gates": counters["dmav.gates"],
            "dmav_macs": counters["dmav.macs"],
        },
        directory=directory,
        config_digest="qft-16;threads=4;force_convert_at=0",
    )


def sweep_smoke(directory: str) -> str:
    """Assert and record the sweep smoke; returns the record path."""
    payload = _cli_json(SWEEP_ARGS)
    counters = payload["obs"]["counters"]
    assert payload["mode"] == "batched", payload["mode"]
    assert payload["rows"] == 16, payload
    assert counters["dmav.sweep.groups"] == 1, counters
    assert counters["dmav.sweep.gates_batched"] > 0, counters
    assert counters["dmav.sweep.gates_rowloop"] == 0, counters
    assert (
        counters["dmav.sweep.row_rewinds"] == payload["unique_rows"]
    ), counters
    assert counters["dmav.gates"] == payload["unique_rows"] * (
        counters["dmav.sweep.gates_batched"]
        + counters["dmav.sweep.gates_rowloop"]
    ), counters
    print(f"sweep smoke: {payload['rows']} rows, "
          f"{counters['dmav.sweep.gates_batched']} batched gate "
          f"columns, {counters['dmav.sweep.row_rewinds']} row rewinds")
    return write_bench_record(
        "sweep_smoke",
        {
            "rows": payload["rows"],
            "unique_rows": payload["unique_rows"],
            "groups": counters["dmav.sweep.groups"],
            "gates_batched": counters["dmav.sweep.gates_batched"],
            "gates_rowloop": counters["dmav.sweep.gates_rowloop"],
            "row_rewinds": counters["dmav.sweep.row_rewinds"],
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
