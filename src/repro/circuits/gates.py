"""Gate library: names, parameterized matrix builders, and the Gate record.

The library covers what the paper's benchmark circuits need (QASMBench /
MQT Bench / Google-supremacy gate sets): Pauli family, Hadamard, phase
family (s/t/p/rz), rotations, sqrt-gates used by supremacy circuits
(sx, sy, sw), u2/u3, and the controlled/two-qubit forms (cx, cz, cp, crx,
cry, crz, cu1, swap, iswap, fsim, ccx, ccz, cswap).

A :class:`Gate` is immutable and hashable; ``signature`` is the cache key
used by the simulators to reuse gate matrix DDs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.errors import CircuitError

__all__ = [
    "DIAGONAL_GATES",
    "Gate",
    "UnitaryGate",
    "gate_matrix",
    "known_gates",
    "GATE_BUILDERS",
]

_SQ2 = 1.0 / math.sqrt(2.0)


def _mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -s], [s, c]])


def _rz(theta: float) -> np.ndarray:
    return _mat([[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]])


def _phase(lam: float) -> np.ndarray:
    return _mat([[1, 0], [0, cmath.exp(1j * lam)]])


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([
        [c, -cmath.exp(1j * lam) * s],
        [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
    ])


def _u2(phi: float, lam: float) -> np.ndarray:
    return _u3(math.pi / 2, phi, lam)


def _fsim(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return _mat([
        [1, 0, 0, 0],
        [0, c, -1j * s, 0],
        [0, -1j * s, c, 0],
        [0, 0, 0, cmath.exp(-1j * phi)],
    ])


def _rzz(theta: float) -> np.ndarray:
    p = cmath.exp(-0.5j * theta)
    m = cmath.exp(0.5j * theta)
    return np.diag([p, m, m, p]).astype(np.complex128)


def _rxx(theta: float) -> np.ndarray:
    # RXX(t) = cos(t/2) I - i sin(t/2) X(x)X.
    xx = np.zeros((4, 4), dtype=np.complex128)
    for i in range(4):
        xx[i, 3 - i] = 1
    return math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * xx


# sqrt(X), sqrt(Y), sqrt(W) -- the one-qubit gates of Google's quantum
# supremacy experiment [7].  W = (X + Y) / sqrt(2).
_SX = 0.5 * _mat([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_SY = 0.5 * _mat([[1 + 1j, -1 - 1j], [1 + 1j, 1 + 1j]])
_SW = _mat([
    [(1 + 1j) / 2, -1j * _SQ2],
    [_SQ2, (1 + 1j) / 2],
])

#: name -> (number of target qubits, number of parameters, builder).
GATE_BUILDERS: dict[str, tuple[int, int, Callable[..., np.ndarray]]] = {
    "id": (1, 0, lambda: np.eye(2, dtype=np.complex128)),
    "x": (1, 0, lambda: _mat([[0, 1], [1, 0]])),
    "y": (1, 0, lambda: _mat([[0, -1j], [1j, 0]])),
    "z": (1, 0, lambda: _mat([[1, 0], [0, -1]])),
    "h": (1, 0, lambda: _mat([[_SQ2, _SQ2], [_SQ2, -_SQ2]])),
    "s": (1, 0, lambda: _mat([[1, 0], [0, 1j]])),
    "sdg": (1, 0, lambda: _mat([[1, 0], [0, -1j]])),
    "t": (1, 0, lambda: _phase(math.pi / 4)),
    "tdg": (1, 0, lambda: _phase(-math.pi / 4)),
    "sx": (1, 0, lambda: _SX.copy()),
    "sy": (1, 0, lambda: _SY.copy()),
    "sw": (1, 0, lambda: _SW.copy()),
    "sxdg": (1, 0, lambda: _SX.conj().T.copy()),
    "sydg": (1, 0, lambda: _SY.conj().T.copy()),
    "swdg": (1, 0, lambda: _SW.conj().T.copy()),
    "rx": (1, 1, _rx),
    "ry": (1, 1, _ry),
    "rz": (1, 1, _rz),
    "p": (1, 1, _phase),
    "u1": (1, 1, _phase),
    "u2": (1, 2, _u2),
    "u3": (1, 3, _u3),
    "u": (1, 3, _u3),
    "swap": (2, 0, lambda: _mat([
        [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])),
    "iswap": (2, 0, lambda: _mat([
        [1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])),
    "fsim": (2, 2, _fsim),
    "rzz": (2, 1, _rzz),
    "rxx": (2, 1, _rxx),
}

#: Aliases that are controlled versions of base gates: name -> (base, extra
#: implicit controls taken from the front of the qubit list).
CONTROLLED_ALIASES: dict[str, tuple[str, int]] = {
    "cx": ("x", 1),
    "cnot": ("x", 1),
    "cy": ("y", 1),
    "cz": ("z", 1),
    "ch": ("h", 1),
    "cp": ("p", 1),
    "cu1": ("p", 1),
    "crx": ("rx", 1),
    "cry": ("ry", 1),
    "crz": ("rz", 1),
    "ccx": ("x", 2),
    "toffoli": ("x", 2),
    "ccz": ("z", 2),
    "cswap": ("swap", 1),
    "fredkin": ("swap", 1),
}


#: Base gates whose matrix is diagonal for every parameter value; a
#: controlled alias resolves to its base (cz, cp, cu1, crz, ccz).
DIAGONAL_GATES = frozenset(
    {"id", "z", "s", "sdg", "t", "tdg", "rz", "p", "u1", "rzz"}
)


def known_gates() -> list[str]:
    """All gate names accepted by :meth:`Gate` / the QASM parser."""
    return sorted(set(GATE_BUILDERS) | set(CONTROLLED_ALIASES))


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """The unitary acting on the *target* qubits of gate ``name``.

    For controlled aliases this is the base matrix (controls are handled
    structurally by the simulators, not by expanding the matrix).
    """
    base = name
    if name in CONTROLLED_ALIASES:
        base = CONTROLLED_ALIASES[name][0]
    if base not in GATE_BUILDERS:
        raise CircuitError(f"unknown gate {name!r}")
    _, nparams, builder = GATE_BUILDERS[base]
    if len(params) != nparams:
        raise CircuitError(
            f"gate {name!r} takes {nparams} parameter(s), got {len(params)}"
        )
    return builder(*params)


@dataclass(frozen=True)
class Gate:
    """One circuit operation: a (possibly controlled) unitary on targets.

    ``targets`` order matters for multi-target gates: ``targets[0]`` is the
    most significant bit of the gate matrix index.  ``controls`` all trigger
    on |1>.
    """

    name: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        base = self.name
        extra = 0
        if base in CONTROLLED_ALIASES:
            base, extra = CONTROLLED_ALIASES[base]
        if base not in GATE_BUILDERS:
            raise CircuitError(f"unknown gate {self.name!r}")
        ntargets, nparams, _ = GATE_BUILDERS[base]
        if len(self.targets) != ntargets:
            raise CircuitError(
                f"gate {self.name!r} needs {ntargets} target(s), "
                f"got {self.targets}"
            )
        if len(self.params) != nparams:
            raise CircuitError(
                f"gate {self.name!r} takes {nparams} parameter(s), "
                f"got {self.params}"
            )
        if not all(math.isfinite(p) for p in self.params):
            raise CircuitError(
                f"gate {self.name!r} has a non-finite parameter: {self.params}"
            )
        touched = (*self.targets, *self.controls)
        if len(set(touched)) != len(touched):
            raise CircuitError(f"gate {self.name!r} repeats a qubit: {touched}")
        if any(q < 0 for q in touched):
            raise CircuitError(f"negative qubit index in {self.name!r}")

    @property
    def base_name(self) -> str:
        """Gate name with controlled aliases resolved (``cx`` -> ``x``)."""
        if self.name in CONTROLLED_ALIASES:
            return CONTROLLED_ALIASES[self.name][0]
        return self.name

    @property
    def qubits(self) -> tuple[int, ...]:
        return (*self.controls, *self.targets)

    def matrix(self) -> np.ndarray:
        """The unitary on the target qubits (2x2 or 4x4)."""
        return gate_matrix(self.base_name, self.params)

    @property
    def signature(self) -> tuple:
        """Hashable key identifying this gate's full-circuit unitary."""
        return (self.base_name, self.targets, self.controls, self.params)

    @property
    def key(self) -> tuple:
        """Exact identity of this bound gate: kind, qubits and ``float.hex``
        parameters (so ``-0.0`` and ``0.0`` differ)."""
        return (
            self.base_name,
            self.targets,
            self.controls,
            tuple(float(p).hex() for p in self.params),
        )

    @property
    def is_diagonal(self) -> bool:
        """True when the gate's kind is diagonal for every parameter value
        (:data:`DIAGONAL_GATES`).

        Decided by kind alone, never by parameter values, so every row of
        a parameter sweep takes the same fast path: ``rx(0)`` is not
        diagonal.
        """
        return self.base_name in DIAGONAL_GATES

    def __str__(self) -> str:
        parts = [self.name]
        if self.params:
            parts.append("(" + ", ".join(f"{p:g}" for p in self.params) + ")")
        qubits = ", ".join(map(str, self.qubits))
        return f"{''.join(parts)} {qubits}"


class UnitaryGate(Gate):
    """A gate given by an explicit unitary on its targets (quantum-volume
    circuits' random SU(4) blocks).

    It has no parameter slot (:meth:`~repro.circuits.circuit.Circuit.bind`
    leaves it alone), and its matrix is part of its equality, hash,
    :attr:`signature` and :attr:`key`, so two unitaries on the same
    qubits are two gates to every cache.
    """

    def __new__(cls, u: np.ndarray, targets: tuple[int, ...]):
        targets = tuple(int(q) for q in targets)
        matrix = np.array(u, dtype=np.complex128)
        dim = 1 << len(targets)
        if matrix.shape != (dim, dim) or not 1 <= len(targets) <= 2:
            raise CircuitError(
                f"unitary on {targets} needs a {dim}x{dim} matrix, "
                f"got shape {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise CircuitError("unitary gate has a non-finite entry")
        if len(set(targets)) != len(targets) or min(targets) < 0:
            raise CircuitError(f"unitary gate has bad targets {targets}")
        matrix.setflags(write=False)
        self = Gate.__new__(cls)
        object.__setattr__(self, "name", "unitary")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", ())
        object.__setattr__(self, "params", ())
        object.__setattr__(self, "_matrix", matrix)
        return self

    def __init__(self, *args, **kwargs):  # fields are set by __new__
        pass

    @property
    def base_name(self) -> str:
        return "unitary"

    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def signature(self) -> tuple:
        return ("unitary", self.targets, self._matrix.tobytes())

    @property
    def key(self) -> tuple:
        return self.signature

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnitaryGate)
            and self.signature == other.signature
        )

    def __hash__(self) -> int:
        return hash(self.signature)
