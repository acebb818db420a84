"""Array-based statevector simulator (the paper's Quantum++ baseline [19]).

Gate matrices stay 2x2 / 4x4; the state is one flat complex array updated
in place per gate (Equations 2-3 of the paper).  Two apply modes:

* ``indexed`` (default, the faithful Quantum++ model): for every gate the
  simulator materializes the index sets of the touched amplitude pairs via
  bit arithmetic, then gathers/updates/scatters.  This reproduces the O(n)
  per-amplitude indexing work the paper contrasts DMAV against
  (Section 3.2.1).
* ``reshape``: a view-based einsum fast path for uncontrolled gates,
  included as the "best-case array simulator" ablation.

Multi-threading chunks the gathered index ranges across a
:class:`~repro.parallel.pool.TaskRunner` (OpenMP-style data parallelism,
like Quantum++'s Eigen/OpenMP backend).
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import GateRecord, SimulationResult, Simulator
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.common.errors import SimulationError
from repro.common.bits import indices_matching
from repro.metrics.memory import MemoryMeter, array_bytes
from repro.obs.collect import build_obs, record_gate_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.parallel.partition import chunk_bounds
from repro.parallel.pool import TaskRunner

__all__ = ["StatevectorSimulator", "apply_gate_array"]


def _gate_index_sets(gate: Gate, n: int) -> list[np.ndarray]:
    """Index arrays for the amplitude groups a gate mixes.

    Returns ``2**k`` arrays (k = target count) where position ``b`` holds
    the indices whose target bits spell ``b`` and whose control bits are 1.
    """
    fixed = {c: 1 for c in gate.controls}
    for t in gate.targets:
        fixed[t] = 0
    base = indices_matching(n, fixed)
    sets = []
    for b in range(1 << len(gate.targets)):
        idx = base.copy()
        # targets[0] is the most significant bit of the gate-matrix index.
        for pos, t in enumerate(reversed(gate.targets)):
            if (b >> pos) & 1:
                idx |= 1 << t
        sets.append(idx)
    return sets


def apply_gate_array(
    state: np.ndarray,
    gate: Gate,
    runner: TaskRunner | None = None,
) -> None:
    """In-place indexed application of ``gate`` to ``state``.

    This is the library-level kernel (also used by FlatDD's examples for
    spot checks); the simulator class adds instrumentation around it.
    """
    n = state.size.bit_length() - 1
    u = gate.matrix()
    sets = _gate_index_sets(gate, n)
    amps = [state[idx] for idx in sets]

    def update(lo: int, hi: int) -> None:
        for i, idx in enumerate(sets):
            acc = u[i, 0] * amps[0][lo:hi]
            for j in range(1, len(sets)):
                acc += u[i, j] * amps[j][lo:hi]
            state[idx[lo:hi]] = acc

    size = sets[0].size
    if runner is None or runner.threads == 1 or size < 1024:
        update(0, size)
    else:
        bounds = chunk_bounds(size, runner.threads)
        runner.run([lambda b=b: update(*b) for b in bounds])


def _apply_reshape(state: np.ndarray, gate: Gate) -> np.ndarray:
    """View-based fast path for uncontrolled gates; returns the new array."""
    n = state.size.bit_length() - 1
    u = gate.matrix()
    if gate.controls:
        raise SimulationError("reshape path does not take controlled gates")
    if len(gate.targets) == 1:
        k = gate.targets[0]
        view = state.reshape(1 << (n - k - 1), 2, 1 << k)
        return np.einsum("ab,ibk->iak", u, view, optimize=True).reshape(-1)
    # Two targets: expose both qubit axes with one reshape, contract, fold.
    t0, t1 = gate.targets
    a, b = max(t0, t1), min(t0, t1)
    view = state.reshape(1 << (n - a - 1), 2, 1 << (a - b - 1), 2, 1 << b)
    # u4 axes: [t0_out, t1_out, t0_in, t1_in]; reorder so axis pairs match
    # (bit a, bit b) of the state index.
    u4 = u.reshape(2, 2, 2, 2)
    if (t0, t1) != (a, b):
        u4 = u4.transpose(1, 0, 3, 2)
    out = np.einsum("acbd,ibjdk->iajck", u4, view, optimize=True)
    return out.reshape(-1)


class StatevectorSimulator(Simulator):
    """Quantum++-style flat-array simulator."""

    def __init__(
        self,
        threads: int = 1,
        mode: str = "indexed",
        use_thread_pool: bool = False,
    ) -> None:
        if mode not in ("indexed", "reshape"):
            raise SimulationError(f"unknown apply mode {mode!r}")
        self.threads = threads
        self.mode = mode
        self.use_thread_pool = use_thread_pool
        self.name = f"quantumpp[{mode},t={threads}]"

    def run(self, circuit: Circuit, tracer=None) -> SimulationResult:
        """Simulate ``circuit`` gate by gate on a flat amplitude array.

        ``tracer`` (a :class:`repro.obs.Tracer`) records one
        "array_phase" span plus each ``gate_trace`` record's span.
        """
        n = circuit.num_qubits
        tr = tracer if tracer is not None else NULL_TRACER
        registry = MetricsRegistry()
        state = np.zeros(1 << n, dtype=np.complex128)
        state[0] = 1.0
        meter = MemoryMeter()
        meter.sample(array_bytes(state))
        trace: list[GateRecord] = []
        start = time.perf_counter()
        with TaskRunner(
            self.threads, self.use_thread_pool,
            tracer=tr if tr.enabled else None,
        ) as runner:
            try:
                for i, gate in enumerate(circuit.gates):
                    g0 = time.perf_counter()
                    if self.mode == "reshape" and not gate.controls:
                        state = _apply_reshape(state, gate)
                    else:
                        apply_gate_array(state, gate, runner)
                    trace.append(GateRecord(
                        index=i, name=gate.name,
                        seconds=time.perf_counter() - g0, start=g0,
                    ))
                    # Working set: the state plus the gathered amplitude
                    # groups (2**k index+value arrays of half/quarter
                    # length each).
                    k = len(gate.targets)
                    scratch = (1 << k) * (state.size >> k) * (16 + 8)
                    meter.sample(array_bytes(state) + scratch)
            finally:
                record_gate_trace(tr, trace)
        runtime = time.perf_counter() - start
        tr.record(
            "array_phase", "phase", start, start + runtime, gates=len(trace)
        )
        registry.counter("array.gates").inc(len(trace))
        registry.gauge("array.state_bytes").set(state.nbytes)
        registry.gauge("sim.mem.peak_bytes").set(meter.peak_bytes)
        metadata = {
            "threads": self.threads,
            "mode": self.mode,
            "obs": build_obs(
                tracer=tr,
                registry=registry,
                runner=runner,
                wall_seconds=runtime,
            ),
        }
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
