"""Pure decision-diagram simulator (the paper's DDSIM baseline [99]).

The state is a vector DD; each gate is a DD matrix-vector multiplication
(Section 2.2), memoized through the package's compute tables.  DDSIM is
single-threaded -- the paper runs it on one thread because "DDSIM does not
support multithreading" -- and that inherent seriality is exactly what
FlatDD's DMAV phase removes.

Instrumentation records the per-gate DD size (the ``s_i`` signal of the
EWMA monitor) and per-gate runtime, which is what Figures 1, 3 and 11 plot.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import GateRecord, SimulationResult, Simulator
from repro.backends.gatecache import GateDDCache
from repro.circuits.circuit import Circuit
from repro.dd.operations import mv_multiply
from repro.dd.package import DDPackage
from repro.dd.vector import node_count, vector_to_array, zero_state
from repro.metrics.memory import MemoryMeter, dd_bytes
from repro.obs.collect import build_obs, record_gate_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER

__all__ = ["DDSimulator"]


class DDSimulator(Simulator):
    """DDSIM-equivalent: sequential DD-based strong simulation."""

    #: Run garbage collection when the unique tables exceed this many nodes.
    GC_THRESHOLD = 200_000

    def __init__(self, gc_threshold: int | None = None) -> None:
        self.name = "ddsim"
        if gc_threshold is not None:
            self.GC_THRESHOLD = gc_threshold

    def run(
        self,
        circuit: Circuit,
        max_seconds: float | None = None,
        keep_dd: bool = False,
        tracer=None,
    ) -> SimulationResult:
        """Simulate; ``max_seconds`` mimics the paper's 24 h timeout.

        On timeout the result's metadata has ``timed_out=True`` and the
        state is the (converted) partial state reached so far.

        ``keep_dd=True`` skips the final DD-to-array export and returns the
        state as a DD (``metadata["state_dd"]`` + ``metadata["package"]``,
        with ``result.state`` a zero-length array).  This is how DD
        simulation reaches qubit counts whose 2**n amplitude vector could
        never be materialized -- e.g. a 64-qubit GHZ state: query it with
        :func:`repro.dd.amplitude` or sample it with
        :func:`repro.sampling.sample_from_dd`.

        ``tracer`` (a :class:`repro.obs.Tracer`) records the "dd_phase"
        and "conversion" phase spans and each ``gate_trace`` record's
        span (with the DD size) and dd_size sample.
        """
        n = circuit.num_qubits
        tr = tracer if tracer is not None else NULL_TRACER
        registry = MetricsRegistry()
        pkg = DDPackage(n)
        gates = GateDDCache(pkg)
        state = zero_state(pkg)
        meter = MemoryMeter()
        trace: list[GateRecord] = []
        timed_out = False
        start = time.perf_counter()
        try:
            for i, gate in enumerate(circuit.gates):
                g0 = time.perf_counter()
                state = mv_multiply(pkg, gates.get(gate), state)
                size = node_count(state)
                trace.append(GateRecord(
                    index=i, name=gate.name, seconds=time.perf_counter() - g0,
                    phase="dd", dd_size=size, start=g0,
                ))
                meter.sample(dd_bytes(pkg))
                if pkg.unique_node_count > self.GC_THRESHOLD:
                    removed = pkg.collect_garbage([state, *gates.roots()])
                    tr.instant("gc", "dd", gate_index=i, reclaimed=removed)
                if (
                    max_seconds is not None
                    and time.perf_counter() - start > max_seconds
                ):
                    timed_out = True
                    break
        finally:
            record_gate_trace(tr, trace)
        tr.record(
            "dd_phase", "phase", start, time.perf_counter(), gates=len(trace)
        )
        final_size = node_count(state)
        registry.gauge("dd.size").set(final_size)
        metadata = {
            "timed_out": timed_out,
            "gates_applied": len(trace),
            "final_dd_size": final_size,
            "gate_dd_cache_hits": gates.hits,
            "gate_dd_cache_misses": gates.misses,
        }
        if keep_dd:
            array = np.empty(0, dtype=np.complex128)
            metadata["state_dd"] = state
            metadata["package"] = pkg
        else:
            # Final DD-to-array conversion so results are comparable across
            # backends (DDSIM's sequential exporter; Figure 13's baseline).
            c0 = time.perf_counter()
            array = vector_to_array(pkg, state)
            c1 = time.perf_counter()
            metadata["convert_seconds"] = c1 - c0
            tr.record("conversion", "phase", c0, c1, sequential=True)
            meter.sample(dd_bytes(pkg) + array.nbytes)
        runtime = time.perf_counter() - start
        registry.gauge("sim.mem.peak_bytes").set(meter.peak_bytes)
        metadata["obs"] = build_obs(
            tracer=tr,
            registry=registry,
            package=pkg,
            gate_cache=gates,
            wall_seconds=runtime,
        )
        return SimulationResult(
            backend=self.name,
            circuit_name=circuit.name,
            num_qubits=n,
            num_gates=len(circuit.gates),
            state=array,
            runtime_seconds=runtime,
            peak_memory_bytes=meter.peak_bytes,
            gate_trace=trace,
            metadata=metadata,
        )
