"""Gate-matrix DD construction and caching shared by DDSIM and FlatDD.

Gate DDs depend only on the gate's signature (base name, qubits, params),
so repeated gates -- ubiquitous in the benchmark circuits -- reuse one DD.
The cached edges also act as garbage-collection roots for the package.

FlatDD builds every gate *windowed* (root at the gate's highest qubit,
levels above it implicit identity): its DD phase applies them with the
identity-skipping ``mv`` rules and its DMAV tail plans, prices and
applies them over their active window, so one cache entry serves both
phases.  ``windowed=False`` (full height) serves the DDSIM and DDMM
baselines, equivalence checking and the density-matrix noise helper.
"""

from __future__ import annotations

from repro.circuits.gates import Gate
from repro.dd.matrix import controlled_gate
from repro.dd.node import Edge
from repro.dd.package import DDPackage

__all__ = ["GateDDCache", "build_gate_dd"]


def build_gate_dd(pkg: DDPackage, gate: Gate, windowed: bool = False) -> Edge:
    """Construct the matrix DD of one circuit gate.

    ``windowed=True`` builds only the gate's active-qubit window (root at
    ``max(gate.qubits)``; levels above it are implicit identity), which is
    what FlatDD's DD phase and DMAV tail consume.  ``windowed=False`` wraps
    the same window subtree in weight-1 pass-through levels to full
    height.  Every gate kind is one direct, level-by-level build.
    """
    top = max(gate.qubits) if windowed else None
    return controlled_gate(
        pkg, gate.matrix(), gate.targets, gate.controls, top=top
    )


class GateDDCache:
    """Signature-keyed cache of gate matrix DDs for one package."""

    def __init__(self, pkg: DDPackage) -> None:
        self.pkg = pkg
        self._cache: dict[tuple, Edge] = {}
        self.hits = 0
        self.misses = 0

    def get(self, gate: Gate, windowed: bool = False) -> Edge:
        key = (gate.signature, windowed)
        edge = self._cache.get(key)
        if edge is None:
            self.misses += 1
            edge = build_gate_dd(self.pkg, gate, windowed=windowed)
            self._cache[key] = edge
        else:
            self.hits += 1
        return edge

    def roots(self) -> list[Edge]:
        """All cached edges (keep-alive roots for garbage collection)."""
        return list(self._cache.values())

    def clear(self) -> None:
        """Drop all cached gate DDs (checkpoint barrier support)."""
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
