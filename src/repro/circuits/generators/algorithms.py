"""Textbook algorithm circuits (QASMBench / MQT Bench families).

These extend the benchmark suite beyond the paper's twelve circuits with
families whose outputs are *checkable*: Grover search peaks on the marked
item, Bernstein-Vazirani reveals the hidden string deterministically,
Deutsch-Jozsa distinguishes constant from balanced oracles, quantum phase
estimation reads out a known eigenphase, and the hidden-shift circuit
returns its shift.  ``quantum_volume`` adds the square random-SU(4) model
circuit used for hardware benchmarking (irregular, like supremacy).
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import CircuitError
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate

__all__ = [
    "grover",
    "bernstein_vazirani",
    "deutsch_jozsa",
    "qpe",
    "quantum_volume",
    "hidden_shift",
]


def _multi_controlled_z(c: Circuit, qubits: list[int]) -> None:
    """Z on qubits[-1] controlled on all others.

    The gate record supports any number of controls natively (both the DD
    construction and the array backend handle multi-controls), so no
    ancilla-based decomposition is needed.
    """
    *controls, target = qubits
    c.append(Gate("z", (target,), tuple(controls)))


def grover(n: int, marked: int | None = None, iterations: int | None = None) -> Circuit:
    """Grover search over n qubits for a single marked item.

    Uses phase oracles (marked-state Z and the |0..0> reflection) built
    from multi-controlled Z, so no ancilla is needed.  The default
    iteration count is the optimal floor(pi/4 * sqrt(2**n)).
    """
    if n < 2:
        raise CircuitError("grover needs at least 2 qubits")
    if marked is None:
        marked = (1 << n) - 2
    if not 0 <= marked < (1 << n):
        raise CircuitError(f"marked item {marked} out of range")
    if iterations is None:
        iterations = max(1, int(math.floor(math.pi / 4 * math.sqrt(2 ** n))))
    c = Circuit(n, name=f"grover_n{n}")
    for q in range(n):
        c.h(q)
    zeros = [q for q in range(n) if not (marked >> q) & 1]
    all_qubits = list(range(n))
    for _ in range(iterations):
        # Oracle: flip the phase of |marked>.
        for q in zeros:
            c.x(q)
        _multi_controlled_z(c, all_qubits)
        for q in zeros:
            c.x(q)
        # Diffusion: reflect about the uniform superposition.
        for q in range(n):
            c.h(q)
            c.x(q)
        _multi_controlled_z(c, all_qubits)
        for q in range(n):
            c.x(q)
            c.h(q)
    return c


def bernstein_vazirani(n: int, secret: int | None = None) -> Circuit:
    """Bernstein-Vazirani: recover an n-bit secret in one oracle query.

    Data qubits 0..n-1, oracle ancilla at qubit n (so the circuit has
    n + 1 qubits).  The final state has the data register equal to the
    secret with certainty.
    """
    if n < 1:
        raise CircuitError("bernstein-vazirani needs at least 1 data qubit")
    if secret is None:
        secret = (0b1011010110 % (1 << n)) | 1
    if not 0 <= secret < (1 << n):
        raise CircuitError(f"secret {secret} out of range")
    c = Circuit(n + 1, name=f"bv_n{n + 1}")
    anc = n
    c.x(anc)
    c.h(anc)
    for q in range(n):
        c.h(q)
    for q in range(n):
        if (secret >> q) & 1:
            c.cx(q, anc)
    for q in range(n):
        c.h(q)
    return c


def deutsch_jozsa(n: int, balanced: bool = True, seed: int = 17) -> Circuit:
    """Deutsch-Jozsa with a constant or an inner-product balanced oracle.

    Data qubits 0..n-1, ancilla at n.  Constant oracle: identity (f = 0).
    Balanced oracle: f(x) = s.x for a random non-zero mask s.
    """
    if n < 1:
        raise CircuitError("deutsch-jozsa needs at least 1 data qubit")
    c = Circuit(n + 1, name=f"dj_{'bal' if balanced else 'const'}_n{n + 1}")
    anc = n
    c.x(anc)
    c.h(anc)
    for q in range(n):
        c.h(q)
    if balanced:
        rng = np.random.default_rng(seed)
        mask = int(rng.integers(1, 1 << n))
        for q in range(n):
            if (mask >> q) & 1:
                c.cx(q, anc)
    for q in range(n):
        c.h(q)
    return c


def qpe(n_counting: int, phase: float = 0.3125) -> Circuit:
    """Quantum phase estimation of a phase gate's eigenphase.

    ``n_counting`` counting qubits estimate ``phase`` (in turns) of the
    eigenvalue exp(2*pi*i*phase) of P(2*pi*phase) on the target qubit
    (prepared in |1>, its eigenstate).  With a phase representable in
    ``n_counting`` bits the readout is exact.
    """
    if n_counting < 1:
        raise CircuitError("qpe needs at least 1 counting qubit")
    if not 0.0 <= phase < 1.0:
        raise CircuitError(f"phase must be in [0, 1), got {phase}")
    n = n_counting + 1
    target = n_counting
    c = Circuit(n, name=f"qpe_n{n}")
    c.x(target)
    for q in range(n_counting):
        c.h(q)
    for q in range(n_counting):
        # Controlled-P(2^q * 2*pi*phase) from counting qubit q.
        angle = 2 * math.pi * phase * (1 << q)
        c.cp(angle, q, target)
    # Inverse QFT on the counting register (without the final swaps; the
    # counting bits come out reversed and we account for that here by
    # running the textbook iQFT with swaps).
    for i in range(n_counting // 2):
        c.swap(i, n_counting - 1 - i)
    for i in range(n_counting):
        for j in range(i):
            c.cp(-math.pi / (1 << (i - j)), j, i)
        c.h(i)
    return c


def quantum_volume(n: int, depth: int | None = None, seed: int = 23) -> Circuit:
    """Quantum-volume model circuit: layers of random SU(4) on qubit pairs.

    Each layer permutes the qubits randomly and applies an independent
    Haar-random SU(4) to each adjacent pair -- maximally irregular, like
    the supremacy workloads.
    """
    if n < 2:
        raise CircuitError("quantum volume needs at least 2 qubits")
    depth = depth if depth is not None else n
    rng = np.random.default_rng(seed)
    c = Circuit(n, name=f"qvolume_n{n}")
    for _ in range(depth):
        perm = rng.permutation(n)
        for k in range(0, n - 1, 2):
            a, b = int(perm[k]), int(perm[k + 1])
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, _ = np.linalg.qr(m)
            q = q / np.linalg.det(q) ** 0.25
            c.append(UnitaryGate(q, (a, b)))
    return c


class UnitaryGate(Gate):
    """A Gate subclass carrying an explicit matrix (for QV circuits)."""

    _MATRICES: dict[int, np.ndarray] = {}
    _counter = [0]

    def __new__(cls, u: np.ndarray, targets: tuple[int, ...]):
        # Gate is a frozen dataclass; stash the matrix out of band keyed by
        # a unique parameter so signatures stay hashable and distinct.
        key = cls._counter[0]
        cls._counter[0] += 1
        cls._MATRICES[key] = np.asarray(u, dtype=np.complex128)
        self = Gate.__new__(cls)
        object.__setattr__(self, "name", "unitary")
        object.__setattr__(self, "targets", tuple(targets))
        object.__setattr__(self, "controls", ())
        object.__setattr__(self, "params", (float(key),))
        return self

    def __init__(self, *args, **kwargs):  # dataclass __init__ bypassed
        pass

    def __post_init__(self):  # pragma: no cover - not called
        pass

    @property
    def base_name(self) -> str:
        return "unitary"

    def matrix(self) -> np.ndarray:
        return self._MATRICES[int(self.params[0])]

    @property
    def signature(self) -> tuple:
        return ("unitary", self.targets, self.controls, self.params)


def hidden_shift(n: int, shift: int | None = None) -> Circuit:
    """Hidden-shift circuit for bent functions (QASMBench 'hs' family).

    Uses the Maiorana-McFarland bent function f(x, y) = x . y on n = 2m
    qubits: H column, shifted-f phase oracle, f~ oracle, H column; the
    output equals the shift deterministically.
    """
    if n < 2 or n % 2:
        raise CircuitError(f"hidden shift needs even n >= 2, got {n}")
    if shift is None:
        shift = (0b0110110101 % (1 << n)) | 1
    if not 0 <= shift < (1 << n):
        raise CircuitError(f"shift {shift} out of range")
    m = n // 2
    c = Circuit(n, name=f"hiddenshift_n{n}")
    for q in range(n):
        c.h(q)
    # Oracle for f(x + s): X-conjugated phase function.
    for q in range(n):
        if (shift >> q) & 1:
            c.x(q)
    for k in range(m):
        c.cz(k, m + k)
    for q in range(n):
        if (shift >> q) & 1:
            c.x(q)
    for q in range(n):
        c.h(q)
    # Dual bent function (same CZ pattern for Maiorana-McFarland).
    for k in range(m):
        c.cz(k, m + k)
    for q in range(n):
        c.h(q)
    return c
