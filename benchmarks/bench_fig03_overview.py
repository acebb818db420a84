"""Figure 3: the FlatDD pipeline overview (per-gate runtime + trigger point).

Reproduces the figure's content as a per-gate trace: DD-phase gate times
rise as the state DD grows; the EWMA monitor fires; conversion runs once;
and the DMAV phase settles at a stable per-gate time.  Every series is read
off the run's gate trace: each DD record carries its state-DD size and
EWMA value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.tables import render_series
from repro.circuits import get_circuit
from repro.core import FlatDDSimulator

from conftest import emit


def run_experiment(threads: int):
    circuit = get_circuit("dnn", 10, layers=4)
    result = FlatDDSimulator(threads=threads).run(circuit)
    trace = result.gate_trace
    xs = [g.index for g in trace]
    series = {
        "gate_seconds": [g.seconds for g in trace],
        "dd_size": [float(g.dd_size or 0) for g in trace],
        "ewma": [g.ewma or 0.0 for g in trace],
    }
    text = render_series(
        "Figure 3: FlatDD per-gate trace on DNN n=10 "
        f"(converted at gate {result.metadata['conversion_gate_index']})",
        "gate",
        xs,
        series,
    )
    return text, result


@pytest.mark.benchmark(group="fig03")
def test_fig03_overview(benchmark, threads):
    text, result = benchmark.pedantic(
        run_experiment, args=(threads,), rounds=1, iterations=1
    )
    emit("fig03_overview", text)

    assert result.metadata["converted"]
    idx = result.metadata["conversion_gate_index"]
    trace = result.gate_trace
    dd_sizes = [g.dd_size for g in trace if g.phase == "dd"]
    dmav_times = [g.seconds for g in trace if g.phase == "dmav"]
    # The figure's story: the state DD blows up right before the trigger
    # (that is what makes DD gates expensive), while the DMAV phase's
    # per-gate cost stays flat afterwards.
    assert dd_sizes[-1] > 4 * dd_sizes[max(idx // 2, 0)]
    # Flatness via robust statistics (immune to scheduler spikes): the
    # 90th-percentile DMAV gate costs within a few x of the median.
    assert float(np.percentile(dmav_times, 90)) < 6.0 * float(
        np.median(dmav_times)
    )
    # The EWMA trace ends at the trigger gate, which meets Eq. 4's test.
    last = [g for g in trace if g.phase == "dd"][-1]
    assert last.index == idx
    assert result.metadata["epsilon"] * last.ewma < last.dd_size
