"""Ablation: ``dense_block_level`` on an unfused run (dnn n=12).

The run is unfused, so its tail applies no DMAV: every tail gate is one
array-kernel call from its matrix (``core/dmav.py::apply_tile_local``).
There the level sets the dense window: a gate whose qubits all sit at or
below it is one GEMM with its window matrix, and a diagonal gate scales a
window tiled to ``2**(level+1)`` amplitudes; a gate above it takes the
``pair``, slice and elementwise-sum branches.  The level also sets
conversion's Kronecker-collapse base (``vector_kron_collapse``): a
subtree at or below it is expanded as one dense block.  This bench
sweeps the level to show the trade-off: too low and more gates leave the
GEMM window for per-branch numpy passes; too high and the dense windows
and blocks grow.
"""

from __future__ import annotations

import pytest

from repro.bench.tables import render_series
from repro.circuits import get_circuit
from repro.core import FlatDDSimulator

from conftest import emit

LEVELS = [0, 2, 5, 8]


def run_experiment(threads: int):
    circuit = get_circuit("dnn", 12, layers=6)
    times = []
    states = []
    for level in LEVELS:
        r = FlatDDSimulator(
            threads=threads, dense_block_level=level
        ).run(circuit)
        times.append(r.runtime_seconds)
        states.append(r.state)
    # All levels compute the same state.
    import numpy as np

    for s in states[1:]:
        assert abs(np.vdot(states[0], s)) ** 2 == pytest.approx(
            1.0, abs=1e-8
        )
    text = render_series(
        "Ablation: dense window / collapse level (dnn n=12, unfused)",
        "dense_block_level",
        LEVELS,
        {"runtime_s": times},
    )
    return text, times


@pytest.mark.benchmark(group="ablation-block")
def test_ablation_block_level(benchmark, threads):
    text, times = benchmark.pedantic(
        run_experiment, args=(threads,), rounds=1, iterations=1
    )
    emit("ablation_block_level", text)
    # Every level is correct (asserted inside); the default (5) must be
    # within 1.5x of the best sampled level.
    default_idx = LEVELS.index(5)
    assert times[default_idx] <= 1.5 * min(times)
