"""Serving-layer throughput: batch jobs/sec and cache-hit leverage.

The serving subsystem's pitch is that duplicate-heavy batches cost one
simulation per unique circuit.  This bench runs the same 60-job batch
(20 unique circuits, 3 copies each) twice -- once with the result cache
disabled and once enabled -- so the table shows both raw service
overhead (jobs/sec with no dedup help) and the cache's multiplier.

Run as a script, it writes the process-scaling record
``BENCH_serve_procs.json`` to OUTDIR (see :func:`run_smoke`)::

    PYTHONPATH=src:benchmarks python benchmarks/bench_serve_throughput.py /tmp/bench
"""

from __future__ import annotations

import os

import pytest

from repro.bench.tables import render_table
from repro.circuits import get_circuit
from repro.cluster.broker import ClusterService
from repro.common.config import ServeConfig
from repro.serve import SimulationService

from conftest import emit, record

UNIQUE = 20
COPIES = 3
QUBITS = 6
GATES = 30

#: Fleet sizes for the process-scaling study (threads vs processes).
PROC_COUNTS = (1, 2, 4)
#: Thread count of the process-scaling record :func:`run_smoke` writes.
SMOKE_THREADS = 4


def _jobs():
    circuits = [
        get_circuit("random", QUBITS, gates=GATES, seed=s)
        for s in range(UNIQUE)
    ]
    return [c for c in circuits for _ in range(COPIES)]


def run_experiment(threads: int):
    rows = []
    reports = {}
    for label, cache_entries in (("no cache", 0), ("cached", 512)):
        config = ServeConfig(
            threads=threads, cache_max_entries=cache_entries
        )
        with SimulationService(config) as svc:
            svc.submit_many(_jobs())
            report = svc.drain()
        reports[label] = report
        rows.append(
            [
                label,
                str(report.jobs),
                f"{report.elapsed_seconds * 1e3:.1f}",
                f"{report.jobs_per_second:.1f}",
                f"{100.0 * report.cache['hit_rate']:.0f}%",
                str(report.groups),
            ]
        )
    base = reports["no cache"].elapsed_seconds
    cached = reports["cached"].elapsed_seconds
    rows.append(
        [
            "speedup",
            "",
            f"{base / cached:.2f}x" if cached else "-",
            "",
            "",
            "",
        ]
    )
    table = render_table(
        f"Serve throughput, {UNIQUE * COPIES} jobs "
        f"({UNIQUE} unique x{COPIES}), random n={QUBITS}, {threads} threads",
        ["mode", "jobs", "wall (ms)", "jobs/s", "hit rate", "groups"],
        rows,
    )
    return table, reports


def run_process_scaling(threads: int):
    """Same 60-job batch through thread-pool vs process-fleet dispatch.

    One row per execution engine: the in-process thread pool at the
    session thread count, then the :class:`ClusterService` fleet at
    1/2/4 worker processes.  Both paths share the dedup scheduler and
    result cache, so the comparison isolates dispatch cost: GIL-shared
    threads vs wire-serialized jobs to separate interpreters.  Numbers
    are recorded as measured -- on a single-core host the fleet pays
    spawn + serialization overhead and will *not* beat threads; the
    point of the baseline is tracking that overhead, not proving a
    speedup the hardware cannot deliver.
    """
    rows = []
    metrics = {}

    def run(label, service, procs_key):
        with service as svc:
            svc.submit_many(_jobs())
            report = svc.drain()
        cluster = report.cluster or {}
        rows.append(
            [
                label,
                str(report.jobs),
                f"{report.elapsed_seconds * 1e3:.1f}",
                f"{report.jobs_per_second:.1f}",
                f"{100.0 * report.cache['hit_rate']:.0f}%",
                str(cluster.get("dispatched", "-")),
            ]
        )
        metrics[f"{procs_key}_jobs_per_second"] = report.jobs_per_second
        metrics[f"{procs_key}_elapsed_seconds"] = report.elapsed_seconds
        return report

    reports = {
        "threads": run(
            f"threads x{threads}",
            SimulationService(ServeConfig(threads=threads)),
            "threads",
        )
    }
    for procs in PROC_COUNTS:
        reports[f"procs{procs}"] = run(
            f"procs x{procs}",
            ClusterService(ServeConfig(threads=1), processes=procs),
            f"procs{procs}",
        )
    base = metrics["procs1_elapsed_seconds"]
    for procs in PROC_COUNTS[1:]:
        elapsed = metrics[f"procs{procs}_elapsed_seconds"]
        metrics[f"procs{procs}_scaling_speedup"] = (
            base / elapsed if elapsed else 0.0
        )
    table = render_table(
        f"Serve process scaling, {UNIQUE * COPIES} jobs "
        f"({UNIQUE} unique x{COPIES}), random n={QUBITS}, "
        f"{os.cpu_count() or 0} cores",
        ["engine", "jobs", "wall (ms)", "jobs/s", "hit rate", "dispatched"],
        rows,
    )
    return table, reports, metrics


def _procs_digest(threads: int) -> str:
    """Config digest of a ``serve_procs`` record."""
    return (
        f"threads={threads};procs={','.join(map(str, PROC_COUNTS))};"
        f"unique={UNIQUE};copies={COPIES};qubits={QUBITS};gates={GATES}"
    )


def run_smoke(directory: str | None = None) -> str:
    """Write ``BENCH_serve_procs.json`` from the process-scaling study.

    Prints the table and asserts that every engine finished the batch
    clean.  The timings are host-dependent, so compare the record with
    ``benchmarks/baselines`` report-only.
    """
    from repro.bench.registry import write_bench_record

    table, reports, metrics = run_process_scaling(SMOKE_THREADS)
    print(table)
    for report in reports.values():
        assert report.ok and report.internal_errors == 0
    path = write_bench_record(
        "serve_procs",
        metrics,
        directory=directory,
        config_digest=_procs_digest(SMOKE_THREADS),
    )
    print(f"bench record: {path}")
    return path


@pytest.mark.benchmark(group="serve-throughput")
def test_serve_throughput(benchmark, threads):
    table, reports = benchmark.pedantic(
        run_experiment, args=(threads,), rounds=1, iterations=1
    )
    emit("serve_throughput", table)
    record(
        "serve_throughput",
        {
            label.replace(" ", "_"): {
                "jobs_per_second": report.jobs_per_second,
                "elapsed_seconds": report.elapsed_seconds,
                "cache_hit_rate": report.cache["hit_rate"],
            }
            for label, report in reports.items()
        },
        config_digest=(
            f"threads={threads};unique={UNIQUE};copies={COPIES};"
            f"qubits={QUBITS};gates={GATES}"
        ),
    )
    for report in reports.values():
        assert report.ok and report.internal_errors == 0
    # 2 of every 3 jobs are duplicates; the cache must convert them.
    assert reports["cached"].cache["hit_rate"] >= 0.4
    assert reports["no cache"].cache["hits"] == 0


@pytest.mark.benchmark(group="serve-throughput")
def test_serve_process_scaling(benchmark, threads):
    table, reports, metrics = benchmark.pedantic(
        run_process_scaling, args=(threads,), rounds=1, iterations=1
    )
    emit("serve_procs", table)
    record("serve_procs", metrics, config_digest=_procs_digest(threads))
    # Correctness invariants only: every engine finishes the batch clean
    # and the fleet actually dispatched work over the wire.  There is no
    # speedup assertion -- scaling is whatever the host's cores allow,
    # and the recorded baseline tracks it across commits instead.
    for report in reports.values():
        assert report.ok and report.internal_errors == 0
        # Every duplicate fans out from one simulation.  (Raw cache
        # counters would mislead here: the broker probes per *group*
        # while the thread pool probes per job, so hit rates differ
        # even though both serve the same 40 duplicates without
        # re-simulating.)
        assert report.deduped_jobs == UNIQUE * (COPIES - 1)
    for procs in PROC_COUNTS:
        cluster = reports[f"procs{procs}"].cluster
        assert cluster is not None and cluster["dispatched"] >= 1
        assert cluster["worker_deaths"] == 0


if __name__ == "__main__":
    import sys

    # A real file as __main__: the fleet's spawned workers re-import it.
    run_smoke(sys.argv[1] if len(sys.argv) > 1 else None)
