"""Seeded workloads of the FlatDD benchmark.

Every circuit, operand and parameter row is drawn from the benchmark's
``--seed`` alone, so one seed always yields the same inputs (and the same
``Circuit.fingerprint()`` values, which every record stores).  The
simulators only ever see the generated circuits.

Four workloads separate the layers the paper's claims rest on:

* ``dd_regular``      -- circuits that never convert; the DD package and
  the gate-DD cache do all the work, DMAV is bypassed.  Baseline: DDSIM.
* ``irregular_small`` -- Table 1's irregular families at n=12-13, where
  per-gate dispatch outweighs multiply-accumulates.  Baseline: array.
* ``irregular_large`` -- n=16-17 irregular circuits where DMAV work
  dominates.  Baseline: array.
* ``sweep``           -- one ``simulate_sweep`` over seeded parameter rows
  of a hardware-efficient ansatz.  Baseline: the same rows looped through
  single-shot ``run()``.

References are computed once per seed, outside every timed pass:
analytically for the regular circuits, with the array simulator for the
irregular ones, and with single-shot ``run()`` for sweep rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from repro import (
    Circuit,
    DDSimulator,
    FlatDDConfig,
    FlatDDSimulator,
    StatevectorSimulator,
    get_circuit,
)
from repro.algorithms.ansatz import HardwareEfficientAnsatz

__all__ = [
    "WORKLOADS",
    "TIMEOUT_S",
    "THREADS",
    "SWEEP_ROWS",
    "Case",
    "Workload",
    "build",
    "compute_references",
    "flatdd_pass",
    "baseline_pass",
    "flatdd_error",
    "baseline_error",
    "state_error",
]

#: Per-run cap standing in for the paper's 24 h timeout (Table 1 uses the
#: same 20 s in ``repro.bench.workloads``).
TIMEOUT_S = 20.0
#: FlatDD partitions and array-baseline tasks; with the default
#: ``use_thread_pool=False`` both run inline on one OS thread.
THREADS = 4
#: Parameter rows per sweep pass.
SWEEP_ROWS = 8
#: Largest accepted norm error and infidelity ``1 - |<ref|state>|^2`` of a
#: single-shot run.
FIDELITY_TOL = 1e-6

WORKLOADS = ("dd_regular", "irregular_small", "irregular_large", "sweep")


@dataclass
class Case:
    """One circuit of a workload (or, for ``sweep``, one template + rows)."""

    name: str
    circuit: Circuit
    #: Sweep parameter rows; ``None`` for single-shot cases.
    rows: list | None = None
    #: Reference final state (single-shot) or per-row states (sweep).
    reference: object = None

    def fingerprints(self) -> list[str]:
        if self.rows is None:
            return [self.circuit.fingerprint()]
        return [self.circuit.fingerprint(params=r) for r in self.rows]


@dataclass
class Workload:
    name: str
    seed: int
    #: Which system ``baseline_pass`` runs: "ddsim", "array" or "loop".
    baseline: str
    cases: list[Case] = field(default_factory=list)
    sim: FlatDDSimulator = field(
        default_factory=lambda: FlatDDSimulator(FlatDDConfig(threads=THREADS))
    )

    def provenance(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "circuits": {c.name: c.fingerprints() for c in self.cases},
        }


def _seeds(rng, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def _qft_on_basis(n: int, x: int) -> Circuit:
    c = Circuit(n, name=f"qft-{n}")
    for q in range(n):
        if (x >> q) & 1:
            c.x(q)
    for g in get_circuit("qft", n).gates:
        c.append(g)
    return c


def _named(c: Circuit, name: str) -> Case:
    c.name = name
    return Case(name, c)


def _dd_regular(rng) -> list[Case]:
    marked = int(rng.integers(0, 1 << 12))
    x = int(rng.integers(0, 1 << 18))
    a, b = (int(v) for v in rng.integers(0, 1 << 9, size=2))
    return [
        _named(get_circuit("grover", 12, marked=marked), "grover-12"),
        _named(_qft_on_basis(18, x), "qft-18"),
        _named(get_circuit("adder", 20, a_value=a, b_value=b), "adder-20"),
        _named(get_circuit("ghz", 20), "ghz-20"),
        _named(get_circuit("wstate", 20), "wstate-20"),
    ]


def _irregular_small(rng) -> list[Case]:
    s = _seeds(rng, 5)
    return [
        _named(get_circuit("supremacy", 12, cycles=14, seed=s[0]), "supremacy-12"),
        _named(get_circuit("dnn", 12, layers=8, seed=s[1]), "dnn-12"),
        _named(get_circuit("vqe", 12, layers=2, seed=s[2]), "vqe-12"),
        _named(get_circuit("knn", 13, seed=s[3]), "knn-13"),
        _named(get_circuit("swaptest", 13, seed=s[4]), "swaptest-13"),
    ]


def _irregular_large(rng) -> list[Case]:
    s = _seeds(rng, 3)
    return [
        _named(get_circuit("supremacy", 16, cycles=16, seed=s[0]), "supremacy-16"),
        _named(get_circuit("dnn", 16, layers=12, seed=s[1]), "dnn-16"),
        _named(get_circuit("knn", 17, seed=s[2]), "knn-17"),
    ]


def _sweep(rng) -> list[Case]:
    """3-layer HEA at n=14; rows share layers 1-2 and vary the last layer."""
    n = 14
    ansatz = HardwareEfficientAnsatz(n, layers=3)
    base = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
    template = ansatz.build(base)
    rows = []
    for _ in range(SWEEP_ROWS):
        row = base.copy()
        row[-2 * n:] = rng.uniform(-np.pi, np.pi, 2 * n)
        rows.append(tuple(float(v) for v in row))
    template.name = f"hea-{n}x3"
    return [Case(template.name, template, rows=rows)]


_BUILDERS = {
    "dd_regular": ("ddsim", _dd_regular),
    "irregular_small": ("array", _irregular_small),
    "irregular_large": ("array", _irregular_large),
    "sweep": ("loop", _sweep),
}


def build(name: str, seed: int) -> Workload:
    """Generate workload ``name`` from ``seed`` (no simulation)."""
    try:
        baseline, make = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        ) from None
    rng = np.random.default_rng(seed)
    return Workload(name, seed, baseline, make(rng))


# ---------------------------------------------------------------- references


def _classical_output(c: Circuit) -> int:
    """Basis-state output of a circuit of X/CX/CCX gates on |0...0>."""
    x = 0
    for g in c.gates:
        if g.base_name != "x":
            raise ValueError(f"{c.name}: gate {g.name!r} is not classical")
        if all((x >> q) & 1 for q in g.controls):
            x ^= 1 << g.targets[0]
    return x


def _analytic_reference(case: Case) -> np.ndarray:
    c = case.circuit
    n = c.num_qubits
    dim = 1 << n
    ref = np.zeros(dim, dtype=np.complex128)
    family = case.name.split("-")[0]
    if family == "ghz":
        ref[0] = ref[-1] = math.sqrt(0.5)
    elif family == "wstate":
        ref[[1 << q for q in range(n)]] = math.sqrt(1.0 / n)
    elif family == "adder":
        ref[_classical_output(c)] = 1.0
    elif family == "qft":
        leading_x = takewhile(lambda g: g.name == "x", c.gates)
        x = sum(1 << g.targets[0] for g in leading_x)
        k = np.arange(dim)
        ref[:] = np.exp(2j * np.pi * ((x * k) % dim) / dim) / math.sqrt(dim)
    elif family == "grover":
        marked = _grover_marked(c)
        iterations = sum(1 for g in c.gates if g.controls) // 2
        theta = math.asin(1.0 / math.sqrt(dim))
        ref[:] = math.cos((2 * iterations + 1) * theta) / math.sqrt(dim - 1)
        ref[marked] = math.sin((2 * iterations + 1) * theta)
    else:
        raise ValueError(f"no analytic reference for {case.name}")
    return ref


def _grover_marked(c: Circuit) -> int:
    """The marked item: the oracle's X sandwich flips exactly its 0 bits."""
    n = c.num_qubits
    first_mcz = next(i for i, g in enumerate(c.gates) if g.controls)
    zeros = {g.targets[0] for g in c.gates[n:first_mcz]}
    return sum(1 << q for q in range(n) if q not in zeros)


def compute_references(wl: Workload) -> None:
    """Fill every case's reference state (once per seed, never timed)."""
    for case in wl.cases:
        if case.rows is not None:
            case.reference = [
                wl.sim.run(case.circuit.bind(r)).state for r in case.rows
            ]
        elif wl.name == "dd_regular":
            case.reference = _analytic_reference(case)
        else:
            case.reference = StatevectorSimulator().run(case.circuit).state


# ------------------------------------------------------------------- passes


def flatdd_pass(wl: Workload, case: Case):
    """One pass through FlatDD's public entry point for ``case``."""
    if case.rows is not None:
        return wl.sim.simulate_sweep(case.circuit, case.rows)
    return wl.sim.run(case.circuit, max_seconds=TIMEOUT_S)


def baseline_pass(wl: Workload, case: Case):
    """One pass of the workload's baseline system over ``case``."""
    if wl.baseline == "ddsim":
        return DDSimulator().run(case.circuit, max_seconds=TIMEOUT_S)
    if wl.baseline == "array":
        return StatevectorSimulator(threads=THREADS).run(case.circuit)
    return [wl.sim.run(case.circuit.bind(r)) for r in case.rows]


def state_error(state: np.ndarray, ref: np.ndarray) -> str | None:
    """Why ``state`` is off ``ref`` (``None`` when within tolerance)."""
    if state.shape != ref.shape:
        return f"state shape {state.shape} != reference {ref.shape}"
    norm_error = abs(np.vdot(state, state).real - 1.0)
    if not norm_error <= FIDELITY_TOL:
        return f"norm error {norm_error:.3e} > {FIDELITY_TOL:g}"
    infidelity = 1.0 - abs(np.vdot(ref, state)) ** 2
    if not infidelity <= FIDELITY_TOL:
        return f"infidelity {infidelity:.3e} > {FIDELITY_TOL:g}"
    return None


def _rows_error(states, refs) -> str | None:
    for i, (s, r) in enumerate(zip(states, refs)):
        if not np.array_equal(s, r):
            return f"row {i} differs from its single-shot run()"
    if len(states) != len(refs):
        return f"{len(states)} rows returned, {len(refs)} expected"
    return None


def _timed_out(result, seconds: float) -> bool:
    return bool(result.metadata.get("timed_out")) or seconds > TIMEOUT_S


def flatdd_error(case: Case, result, seconds: float) -> str | None:
    """Correctness verdict of one FlatDD pass."""
    if _timed_out(result, seconds):
        return f"timed out ({seconds:.1f} s)"
    if case.rows is not None:
        return _rows_error(result.states, case.reference)
    return state_error(result.state, case.reference)


def baseline_error(case: Case, result, seconds: float) -> str | None:
    """Correctness verdict of one baseline pass."""
    if isinstance(result, list):
        if seconds > TIMEOUT_S * len(result):
            return f"timed out ({seconds:.1f} s)"
        return _rows_error([r.state for r in result], case.reference)
    if _timed_out(result, seconds):
        return f"timed out ({seconds:.1f} s)"
    return state_error(result.state, case.reference)
