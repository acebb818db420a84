"""Common backend interfaces: results, per-gate traces, simulator protocol.

All three simulators (array-based "Quantum++", DD-based "DDSIM", and FlatDD)
return a :class:`SimulationResult` so the benches can compare them with the
same code paths the paper's tables use (runtime, memory, per-gate traces).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Circuit

__all__ = ["GateRecord", "SimulationResult", "Simulator"]


@dataclass
class GateRecord:
    """One applied gate, what Figures 3 and 11 plot: a run's only
    per-gate record, from which its tracer spans and samples are derived
    (:func:`repro.obs.collect.record_gate_trace`).

    ``start`` is the gate's ``time.perf_counter()`` value; ``phase``
    ("dd", "dmav", "array", "ddmm") is its span's category.  ``dd_size``
    is the state DD's node count after the gate and ``ewma`` FlatDD's
    Eq. 4 average; a DMAV step carries its Eq. 5-6 price (``macs``, C1
    ``cost_nocache``, C2 ``cost_cache``, ``cached``: it ran Algorithm 2)
    and its kernel's ``cache_hits``.
    """

    index: int
    name: str
    seconds: float
    phase: str = "array"
    dd_size: int | None = None
    macs: int | None = None
    cached: bool | None = None
    start: float = 0.0
    ewma: float | None = None
    cost_nocache: float | None = None
    cost_cache: float | None = None
    cache_hits: int | None = None


@dataclass
class SimulationResult:
    """Outcome of simulating one circuit on one backend."""

    backend: str
    circuit_name: str
    num_qubits: int
    num_gates: int
    state: np.ndarray
    runtime_seconds: float
    peak_memory_bytes: int
    gate_trace: list[GateRecord] = field(default_factory=list)
    #: Backend-specific extras (conversion point, thread count, fusion
    #: statistics, modeled parallel runtime, ...).
    metadata: dict = field(default_factory=dict)

    @property
    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes / (1024.0 * 1024.0)

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 distribution of the final state."""
        return np.abs(self.state) ** 2

    def fidelity(self, other: "SimulationResult | np.ndarray") -> float:
        """|<a|b>|^2 against another result/state (1.0 = same state)."""
        other_state = other.state if isinstance(other, SimulationResult) else other
        return float(abs(np.vdot(self.state, other_state)) ** 2)


class Simulator(abc.ABC):
    """A strong simulator: computes the full final state of a circuit."""

    name: str = "simulator"

    @abc.abstractmethod
    def run(self, circuit: Circuit) -> SimulationResult:
        """Simulate ``circuit`` from |0...0> and return the final state."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
