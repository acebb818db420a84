"""Figure 12: runtime vs thread count for FlatDD and Quantum++.

Real threads lose on the two-core container: pooled FlatDD runs take
1.3-2.4x their inline pass time at t = 2 and 4 (DESIGN.md substitution 1),
so the thread curves come from the paper's own cost model applied to the
run's actual DMAV gate DDs (see repro.bench.model).  The real partitioned execution at
each t is also run and verified for correctness, so the modeled curve sits
on top of executed code, not a paper abstraction.

Paper shape: FlatDD runtime falls with t (7.26x at 8 threads on KNN) and
saturates around 16 threads; Quantum++ shows the same trend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import StatevectorSimulator
from repro.bench.model import ThreadScalingModel
from repro.bench.tables import render_series
from repro.circuits import get_circuit
from repro.core import FlatDDSimulator

from conftest import emit

THREADS = [1, 2, 4, 8, 16]
PANELS = [
    ("supremacy", 14, {"cycles": 10}),
    ("knn", 15, {}),
]


def run_panel(family: str, n: int, kwargs: dict):
    circuit = get_circuit(family, n, **kwargs)
    reference = FlatDDSimulator(threads=4).run(circuit, keep_internals=True)
    model = ThreadScalingModel.from_result(reference, THREADS)
    flat_curve = [model.runtime(t) for t in THREADS]

    # Execute the real partitioned code paths at each t and verify states.
    for t in THREADS:
        check = FlatDDSimulator(threads=t).run(circuit)
        fid = abs(np.vdot(check.state, reference.state)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-8), (family, t)

    # Quantum++ model: per-gate work is (gather + 4 axpy) over 2**n/t
    # amplitudes plus a fixed dispatch term, calibrated the same way.
    qpp = StatevectorSimulator(threads=1).run(circuit)
    per_gate = [g.seconds for g in qpp.gate_trace]
    kappa = min(per_gate)
    work = qpp.runtime_seconds - kappa * len(per_gate)
    qpp_curve = [work / t + kappa * len(per_gate) for t in THREADS]

    text = render_series(
        f"Figure 12 ({family} n={n}): modeled runtime (s) vs threads",
        "threads",
        THREADS,
        {"flatdd": flat_curve, "quantumpp": qpp_curve},
    )
    return text, flat_curve, qpp_curve


@pytest.mark.benchmark(group="fig12")
@pytest.mark.parametrize(
    "family,n,kwargs", PANELS, ids=[p[0] for p in PANELS]
)
def test_fig12_scalability(benchmark, family, n, kwargs):
    text, flat_curve, qpp_curve = benchmark.pedantic(
        run_panel, args=(family, n, kwargs), rounds=1, iterations=1
    )
    emit(f"fig12_scalability_{family}", text)

    # Monotone non-increasing runtime in t.
    assert all(
        flat_curve[i + 1] <= flat_curve[i] * 1.01
        for i in range(len(flat_curve) - 1)
    )
    # Meaningful speed-up by 8 threads...
    assert flat_curve[0] / flat_curve[3] > 2.0
    # ...but saturating: the 8->16 step gains far less than the 1->2 step.
    gain_12 = flat_curve[0] / flat_curve[1]
    gain_816 = flat_curve[3] / flat_curve[4]
    assert gain_816 < gain_12
    # Quantum++ scales too (same trend, as in the paper; its gather-based
    # kernel carries a larger serial dispatch fraction in this substrate).
    assert qpp_curve[0] / qpp_curve[3] > 1.5
