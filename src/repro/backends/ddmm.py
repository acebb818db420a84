"""Matrix-matrix DD simulation (Zulehner & Wille, DATE 2019 -- ref [100]).

Instead of applying each gate to the state (matrix-vector), this backend
multiplies the circuit's gates into a single DD operator and applies it
once.  Reference [100] -- the paper's k-operations baseline -- studies
exactly this trade-off: matrix-matrix pays off when the accumulated
operator stays compact (narrow or structured circuits) and loses badly
when it becomes dense.  Exposed as a backend so the trade-off can be
measured directly against :class:`~repro.backends.ddsim.DDSimulator`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import GateRecord, SimulationResult, Simulator
from repro.backends.gatecache import GateDDCache
from repro.circuits.circuit import Circuit
from repro.dd.operations import mm_multiply, mv_multiply
from repro.dd.package import DDPackage
from repro.dd.vector import node_count, vector_to_array, zero_state
from repro.dd.matrix import matrix_node_count
from repro.metrics.memory import MemoryMeter, dd_bytes

__all__ = ["DDMatrixSimulator"]


class DDMatrixSimulator(Simulator):
    """Accumulate the whole circuit as one DD operator, then apply it."""

    GC_THRESHOLD = 200_000

    def __init__(self) -> None:
        self.name = "ddmm"

    def run(
        self,
        circuit: Circuit,
        max_seconds: float | None = None,
        keep_dd: bool = False,
    ) -> SimulationResult:
        n = circuit.num_qubits
        pkg = DDPackage(n)
        gates = GateDDCache(pkg)
        meter = MemoryMeter()
        trace: list[GateRecord] = []
        timed_out = False
        start = time.perf_counter()
        operator = pkg.identity_edge(n - 1)
        for i, gate in enumerate(circuit.gates):
            g0 = time.perf_counter()
            operator = mm_multiply(pkg, gates.get(gate), operator)
            trace.append(
                GateRecord(
                    index=i,
                    name=gate.name,
                    seconds=time.perf_counter() - g0,
                    start=g0,
                    phase="ddmm",
                    dd_size=matrix_node_count(operator),
                )
            )
            meter.sample(dd_bytes(pkg))
            if pkg.unique_node_count > self.GC_THRESHOLD:
                pkg.collect_garbage([operator, *gates.roots()])
            if (
                max_seconds is not None
                and time.perf_counter() - start > max_seconds
            ):
                timed_out = True
                break
        state_dd = mv_multiply(pkg, operator, zero_state(pkg))
        metadata = {
            "timed_out": timed_out,
            "gates_applied": len(trace),
            "operator_dd_size": matrix_node_count(operator),
            "final_dd_size": node_count(state_dd),
        }
        if keep_dd:
            state = np.empty(0, dtype=np.complex128)
            metadata["state_dd"] = state_dd
            metadata["operator_dd"] = operator
            metadata["package"] = pkg
        else:
            state = vector_to_array(pkg, state_dd)
            meter.sample(dd_bytes(pkg) + state.nbytes)
        return SimulationResult(
            backend=self.name,
            circuit_name=circuit.name,
            num_qubits=n,
            num_gates=len(circuit.gates),
            state=state,
            runtime_seconds=time.perf_counter() - start,
            peak_memory_bytes=meter.peak_bytes,
            gate_trace=trace,
            metadata=metadata,
        )
