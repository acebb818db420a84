"""Quantum circuit container with a fluent gate-append API.

A :class:`Circuit` is an ordered list of :class:`~repro.circuits.gates.Gate`
objects over ``num_qubits`` qubits.  The simulators consume circuits by
iterating over ``circuit.gates``; everything else here (builders, stats,
slicing) is convenience for the generators, examples, and benches.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import CircuitError
from repro.circuits.gates import Gate, UnitaryGate

__all__ = ["Circuit"]

#: Decimal places gate parameters are rounded to before hashing.  Two
#: parameters that agree to 12 decimals build gate matrices identical far
#: below the complex-table tolerance (1e-10), so they are the same gate
#: for every consumer of the fingerprint.
FINGERPRINT_DECIMALS = 12


def _matrix_entries(g: Gate) -> list[float]:
    """An explicit-matrix gate's entries, real and imaginary parts
    interleaved row by row; none for a library gate."""
    if not isinstance(g, UnitaryGate):
        return []
    return g.matrix().view(np.float64).reshape(-1).tolist()


def _canonical_param(value: float) -> str:
    """Stable text form of one gate parameter.

    Rounds to :data:`FINGERPRINT_DECIMALS` so float-formatting noise
    (``0.1 + 0.2`` vs ``0.3``) collapses, and normalizes ``-0.0`` to
    ``0.0`` so sign-of-zero never splits a cache key.
    """
    v = round(float(value), FINGERPRINT_DECIMALS)
    if v == 0.0:  # collapses -0.0 too
        v = 0.0
    return repr(v)


class Circuit:
    """An ordered sequence of gates on ``num_qubits`` qubits."""

    def __init__(
        self,
        num_qubits: int,
        gates: Iterable[Gate] = (),
        name: str = "circuit",
    ) -> None:
        if num_qubits < 1:
            raise CircuitError(f"need at least 1 qubit, got {num_qubits}")
        self.num_qubits = num_qubits
        self.name = name
        self.gates: list[Gate] = []
        for g in gates:
            self.append(g)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        """Append a gate after validating its qubits fit this circuit."""
        for q in gate.qubits:
            if q >= self.num_qubits:
                raise CircuitError(
                    f"gate {gate} uses qubit {q} but circuit has "
                    f"{self.num_qubits} qubits"
                )
        self.gates.append(gate)
        return self

    def add(
        self,
        name: str,
        *qubits: int,
        params: tuple[float, ...] = (),
        controls: tuple[int, ...] = (),
    ) -> "Circuit":
        """Append gate ``name``; alias controls are split off automatically.

        ``add("cx", 0, 1)`` means control 0, target 1 (OpenQASM order).
        """
        from repro.circuits.gates import CONTROLLED_ALIASES

        extra = CONTROLLED_ALIASES.get(name, (None, 0))[1]
        ctrl = tuple(qubits[:extra]) + tuple(controls)
        targets = tuple(qubits[extra:])
        return self.append(
            Gate(name=name, targets=targets, controls=ctrl, params=params)
        )

    # Fluent single-gate helpers used pervasively by generators/examples.
    def h(self, q: int) -> "Circuit":
        return self.add("h", q)

    def x(self, q: int) -> "Circuit":
        return self.add("x", q)

    def y(self, q: int) -> "Circuit":
        return self.add("y", q)

    def z(self, q: int) -> "Circuit":
        return self.add("z", q)

    def s(self, q: int) -> "Circuit":
        return self.add("s", q)

    def t(self, q: int) -> "Circuit":
        return self.add("t", q)

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add("rx", q, params=(theta,))

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add("ry", q, params=(theta,))

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.add("rz", q, params=(theta,))

    def p(self, lam: float, q: int) -> "Circuit":
        return self.add("p", q, params=(lam,))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", control, target)

    def cz(self, control: int, target: int) -> "Circuit":
        return self.add("cz", control, target)

    def cp(self, lam: float, control: int, target: int) -> "Circuit":
        return self.add("cp", control, target, params=(lam,))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add("swap", a, b)

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.add("ccx", c1, c2, target)

    def cswap(self, control: int, a: int, b: int) -> "Circuit":
        return self.add("cswap", control, a, b)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Circuit(self.num_qubits, self.gates[idx], name=self.name)
        return self.gates[idx]

    @property
    def gate_counts(self) -> Counter:
        """Histogram of gate names."""
        return Counter(g.name for g in self.gates)

    @property
    def two_qubit_gate_count(self) -> int:
        return sum(1 for g in self.gates if len(g.qubits) >= 2)

    def depth(self) -> int:
        """Circuit depth: longest chain of gates sharing qubits."""
        frontier = [0] * self.num_qubits
        for g in self.gates:
            layer = 1 + max(frontier[q] for q in g.qubits)
            for q in g.qubits:
                frontier[q] = layer
        return max(frontier, default=0)

    def used_qubits(self) -> set[int]:
        return {q for g in self.gates for q in g.qubits}

    # ------------------------------------------------------------------
    # Parameter binding (sweep support)
    # ------------------------------------------------------------------

    @property
    def num_param_slots(self) -> int:
        """Total gate-parameter slots, in gate order.

        This is the row width :meth:`bind` expects -- *not* necessarily an
        ansatz's logical parameter count (one logical parameter may feed
        several gate slots; see ``repro.algorithms.ansatz``).
        """
        return sum(len(g.params) for g in self.gates)

    def extract_params(self) -> tuple[float, ...]:
        """All gate parameters flattened in gate order (``bind``'s inverse)."""
        return tuple(p for g in self.gates for p in g.params)

    def bind(self, values) -> "Circuit":
        """A new circuit with every gate-parameter slot replaced in order.

        ``values`` supplies one float per slot, consumed sequentially in
        gate order (``len(values)`` must equal :attr:`num_param_slots`;
        :class:`~repro.common.errors.CircuitError` otherwise).
        Parameterless gates are reused as-is.  ``circuit.bind(
        circuit.extract_params())`` reproduces the circuit exactly.
        """
        import dataclasses

        values = tuple(float(v) for v in values)
        if len(values) != self.num_param_slots:
            raise CircuitError(
                f"bind() got {len(values)} values for "
                f"{self.num_param_slots} parameter slots"
            )
        bound = Circuit(self.num_qubits, name=self.name)
        pos = 0
        for g in self.gates:
            k = len(g.params)
            if k:
                bound.append(
                    dataclasses.replace(g, params=values[pos:pos + k])
                )
                pos += k
            else:
                bound.gates.append(g)
        return bound

    def to_wire(self) -> dict:
        """JSON-serializable form of the circuit (see :meth:`from_wire`).

        Gates are ``[name, targets, controls, params]`` rows; a
        :class:`~repro.circuits.gates.UnitaryGate` row adds its matrix
        entries (real and imaginary parts interleaved row by row).
        Floats survive exactly (JSON doubles round-trip bit-for-bit), so
        the rebuilt circuit has an identical :meth:`fingerprint`.  This is
        the job payload the cluster wire protocol ships to worker
        processes.
        """
        return {
            "num_qubits": self.num_qubits,
            "name": self.name,
            "gates": [
                [
                    g.name,
                    list(g.targets),
                    list(g.controls),
                    [float(p) for p in g.params],
                    *([entries] if (entries := _matrix_entries(g)) else []),
                ]
                for g in self.gates
            ],
        }

    @classmethod
    def from_wire(cls, data: dict) -> "Circuit":
        """Rebuild a circuit from :meth:`to_wire` output.

        Gate validation reruns on every row, so a malformed payload
        raises :class:`~repro.common.errors.CircuitError` instead of
        constructing an unrunnable circuit.
        """
        try:
            circuit = cls(
                int(data["num_qubits"]), name=str(data.get("name", "circuit"))
            )
            rows = list(data["gates"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CircuitError(f"bad wire circuit {data!r}: {exc}") from exc
        for row in rows:
            try:
                name, targets, controls, params, *matrix = row
                name = str(name)
                targets = tuple(int(q) for q in targets)
                controls = tuple(int(q) for q in controls)
                params = tuple(float(p) for p in params)
                if (name == "unitary") != (len(matrix) == 1) or (
                    name == "unitary" and (controls or params)
                ):
                    raise ValueError("a matrix belongs to a bare unitary row")
                if matrix:
                    dim = 1 << len(targets)
                    entries = np.array(matrix[0], dtype=np.float64)
                    if entries.shape != (2 * dim * dim,):
                        raise ValueError(
                            f"{entries.size} matrix entries for {dim}x{dim}"
                        )
                    gate = UnitaryGate(
                        entries.view(np.complex128).reshape(dim, dim),
                        targets,
                    )
                else:
                    gate = Gate(name, targets, controls, params)
            except (TypeError, ValueError) as exc:
                raise CircuitError(
                    f"bad wire gate row {row!r}: {exc}"
                ) from exc
            circuit.append(gate)
        return circuit

    def fingerprint(self, params=None) -> str:
        """Stable SHA-256 content hash of the circuit's semantics.

        The digest covers the qubit count and, per gate in sequence, the
        *base* gate name (so aliases like ``cx``/``cnot`` hash alike),
        target and control qubit tuples, and parameters (and an explicit
        matrix's entries) rounded to :data:`FINGERPRINT_DECIMALS` decimals
        via :func:`_canonical_param`.
        The circuit ``name`` is deliberately excluded: two circuits with
        the same gates are the same workload.

        ``params``, when given, is a parameter row for :meth:`bind`: the
        digest is that of the *bound* circuit, so a sweep row keys caches
        exactly like the equivalent single-shot circuit
        (``c.fingerprint(params=row) == c.bind(row).fingerprint()``).

        This is the content-address used by the serving layer's result
        cache (:mod:`repro.serve.cache`) and handy standalone for
        deduplicating fuzz corpora.  The leading ``v1`` tag versions the
        encoding so a future change cannot silently alias old keys.
        """
        if params is not None:
            return self.bind(params).fingerprint()
        h = hashlib.sha256()
        h.update(f"v1;n={self.num_qubits}".encode("ascii"))
        for g in self.gates:
            entries = _matrix_entries(g)
            h.update(
                ";{}|t{}|c{}|p{}{}".format(
                    g.base_name,
                    ",".join(map(str, g.targets)),
                    ",".join(map(str, g.controls)),
                    ",".join(_canonical_param(p) for p in g.params),
                    "|m" + ",".join(map(_canonical_param, entries))
                    if entries else "",
                ).encode("ascii")
            )
        return h.hexdigest()

    def inverse(self) -> "Circuit":
        """Adjoint circuit (gates reversed and individually inverted).

        Only gates with simple inverses in the library are supported; this
        covers the benchmark generators (used for echo-verification tests).
        """
        inv_name = {
            "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t",
            "sx": "sxdg", "sxdg": "sx", "sy": "sydg", "sydg": "sy",
            "sw": "swdg", "swdg": "sw",
        }
        self_inverse = {"id", "x", "y", "z", "h", "swap", "cx", "cnot", "cy",
                        "cz", "ch", "ccx", "toffoli", "ccz", "cswap",
                        "fredkin"}
        out = Circuit(self.num_qubits, name=f"{self.name}_dg")
        for g in reversed(self.gates):
            if g.name in self_inverse:
                out.append(g)
            elif g.name in inv_name:
                out.append(Gate(inv_name[g.name], g.targets, g.controls))
            elif g.base_name in ("rx", "ry", "rz", "p", "u1", "rzz", "rxx",
                                 "fsim"):
                out.append(
                    Gate(g.name, g.targets, g.controls,
                         tuple(-p for p in g.params))
                )
            elif g.base_name in ("u3", "u"):
                theta, phi, lam = g.params
                out.append(
                    Gate("u3", g.targets, g.controls, (-theta, -lam, -phi))
                )
            elif g.base_name == "u2":
                phi, lam = g.params
                out.append(
                    Gate(
                        "u3", g.targets, g.controls,
                        (-math.pi / 2, -lam, -phi),
                    )
                )
            elif g.base_name == "iswap":
                # iswap^-1 = fsim(pi/2, 0) (fsim(-pi/2, 0) is iswap).
                out.append(
                    Gate("fsim", g.targets, g.controls, (math.pi / 2, 0.0))
                )
            else:
                raise CircuitError(f"no inverse rule for gate {g.name!r}")
        return out

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self.gates)}, depth={self.depth()})"
        )
