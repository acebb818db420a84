"""Correctness oracles for the fuzz harness.

Two families, both cheap relative to writing amplitude-level golden data:

* **differential** -- run the same circuit through independent simulator
  implementations (FlatDD, the DDSIM-role pure-DD backend, the flat-array
  statevector backend) and demand identical final states up to one global
  phase, within a tolerance *ladder* (an oracle violation reports the
  loosest tier it failed).
* **metamorphic** -- properties that must hold regardless of the circuit
  drawn: norm preservation, ``C . C^-1 = I`` round-trips, execution
  invariance (one fixed table of thread counts, conversion points, fusion
  modes, qubit orders, dense block levels and a pooled run, each against
  the default run), bit-identical sweep rows against single-shot runs,
  and bit-identical checkpoint/resume (a run interrupted at a
  fingerprint-derived gate and resumed from its snapshot must reproduce
  the uninterrupted run's amplitudes *exactly*, see docs/RESILIENCE.md).

Every oracle is a pure function ``(circuit, ctx) -> OracleOutcome``;
``run_oracles`` shares simulated states across oracles through the
:class:`OracleContext` cache, so the default FlatDD run and the two
baselines are simulated once per circuit.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends.ddsim import DDSimulator
from repro.backends.statevector import StatevectorSimulator
from repro.circuits.circuit import Circuit
from repro.common.config import FlatDDConfig
from repro.common.errors import CircuitError
from repro.core.simulator import FlatDDSimulator

__all__ = [
    "OracleContext",
    "OracleOutcome",
    "ORACLES",
    "ORACLE_FAMILIES",
    "TOLERANCE_LADDER",
    "execution_table",
    "phase_aligned_error",
    "run_oracles",
]

#: (tier name, max |amplitude| deviation) from strict to permissive.  An
#: oracle *violation* means even the loosest tier failed; the achieved
#: tier is reported either way so drift shows up before it breaks.
TOLERANCE_LADDER: tuple[tuple[str, float], ...] = (
    ("tight", 1e-9),
    ("standard", 1e-7),
    ("loose", 1e-5),
)


@dataclass(frozen=True)
class OracleOutcome:
    """Result of one oracle on one circuit."""

    oracle: str
    family: str
    passed: bool
    #: Largest amplitude deviation observed (None for skipped oracles).
    max_error: float | None
    #: Tolerance tier achieved ("tight"/"standard"/"loose"), or "violation".
    tier: str | None
    detail: str
    seconds: float = 0.0
    skipped: bool = False


def phase_aligned_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max amplitude deviation between two states up to one global phase.

    The aligning phase is taken from the inner product, which is the
    least-squares-optimal global phase; exactly equal states (up to phase)
    give 0 regardless of which phase each backend happened to produce.
    """
    if a.shape != b.shape:
        return float("inf")
    overlap = np.vdot(a, b)
    if abs(overlap) < 1e-300:
        return float(np.max(np.abs(a - b)))
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(a * phase - b)))


def _tier(err: float) -> str:
    for name, tol in TOLERANCE_LADDER:
        if err <= tol:
            return name
    return "violation"


def _ladder_outcome(
    oracle: str, family: str, err: float, detail: str, t0: float
) -> OracleOutcome:
    tier = _tier(err)
    return OracleOutcome(
        oracle=oracle,
        family=family,
        passed=tier != "violation",
        max_error=err,
        tier=tier,
        detail=detail,
        seconds=time.perf_counter() - t0,
    )


def _skip(oracle: str, family: str, reason: str, t0: float) -> OracleOutcome:
    return OracleOutcome(
        oracle=oracle,
        family=family,
        passed=True,
        max_error=None,
        tier=None,
        detail=reason,
        seconds=time.perf_counter() - t0,
        skipped=True,
    )


@dataclass
class OracleContext:
    """Shared state for one circuit's oracle sweep.

    Final states are memoized by backend and config.  ``flatdd()`` with
    no arguments is the default run (EWMA-timed conversion, ``threads``
    threads, every other knob at its default): the differential oracles,
    ``norm_preserved`` and ``execution_invariance`` share it, and each
    row of :func:`execution_table` is ``flatdd(**row)``, so a row equal
    to another config (a pooled row's inline twin) is simulated once.
    """

    circuit: Circuit
    threads: int = 2
    _states: dict = field(default_factory=dict)

    def _effective_threads(self, threads: int | None) -> int:
        t = self.threads if threads is None else threads
        # DMAV's Assign needs t a power of two with t <= 2**(n-1).
        limit = 1 << max(self.circuit.num_qubits - 1, 0)
        while t > limit:
            t //= 2
        return max(t, 1)

    def statevector(self) -> np.ndarray:
        key = ("sv",)
        if key not in self._states:
            sim = StatevectorSimulator(mode="indexed")
            self._states[key] = sim.run(self.circuit).state
        return self._states[key]

    def ddsim(self) -> np.ndarray:
        key = ("ddsim",)
        if key not in self._states:
            self._states[key] = DDSimulator().run(self.circuit).state
        return self._states[key]

    def flatdd(self, threads: int | None = None, **knobs) -> np.ndarray:
        """FlatDD's final state under ``FlatDDConfig(**knobs)``, at
        ``threads`` (the context's by default) capped to the circuit."""
        cfg = FlatDDConfig(threads=self._effective_threads(threads), **knobs)
        key = ("flatdd", cfg)
        if key not in self._states:
            self._states[key] = FlatDDSimulator(cfg).run(self.circuit).state
        return self._states[key]


# ---------------------------------------------------------------------------
# Differential oracles
# ---------------------------------------------------------------------------


def oracle_flatdd_vs_statevector(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """FlatDD's hybrid pipeline must match the flat-array baseline."""
    t0 = time.perf_counter()
    err = phase_aligned_error(ctx.flatdd(), ctx.statevector())
    return _ladder_outcome(
        "flatdd_vs_statevector", "differential", err,
        "flatdd (EWMA-timed conversion) vs indexed statevector", t0,
    )


def oracle_flatdd_vs_ddsim(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """FlatDD must match the pure-DD baseline it claims to be identical to."""
    t0 = time.perf_counter()
    err = phase_aligned_error(ctx.flatdd(), ctx.ddsim())
    return _ladder_outcome(
        "flatdd_vs_ddsim", "differential", err,
        "flatdd (EWMA-timed conversion) vs pure-DD DDSIM", t0,
    )


def oracle_ddsim_vs_statevector(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """The two baselines must agree with each other (closes the triangle)."""
    t0 = time.perf_counter()
    err = phase_aligned_error(ctx.ddsim(), ctx.statevector())
    return _ladder_outcome(
        "ddsim_vs_statevector", "differential", err,
        "pure-DD DDSIM vs indexed statevector", t0,
    )


# ---------------------------------------------------------------------------
# Metamorphic oracles
# ---------------------------------------------------------------------------


def oracle_norm_preserved(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """Unitary evolution keeps the state normalized on every backend."""
    t0 = time.perf_counter()
    errs = [
        abs(float(np.linalg.norm(state)) - 1.0)
        for state in (ctx.flatdd(), ctx.statevector())
    ]
    return _ladder_outcome(
        "norm_preserved", "metamorphic", max(errs),
        "| ||state|| - 1 | on flatdd and statevector", t0,
    )


def oracle_inverse_roundtrip(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """Simulating ``C`` then ``C^-1`` must return to |0...0>."""
    t0 = time.perf_counter()
    try:
        inverse = circuit.inverse()
    except CircuitError as exc:
        return _skip(
            "inverse_roundtrip", "metamorphic", f"no inverse rule: {exc}", t0
        )
    echo = Circuit(
        circuit.num_qubits,
        list(circuit.gates) + list(inverse.gates),
        name=f"{circuit.name}_echo",
    )
    # Force a mid-circuit conversion so the round-trip crosses the
    # DD -> array boundary (the handoff is exactly what we distrust).
    cfg = FlatDDConfig(
        threads=ctx._effective_threads(None),
        force_convert_at=max(len(echo.gates) // 2 - 1, 0),
    )
    state = FlatDDSimulator(cfg).run(echo).state
    expected = np.zeros_like(state)
    expected[0] = 1.0
    err = phase_aligned_error(state, expected)
    return _ladder_outcome(
        "inverse_roundtrip", "metamorphic", err,
        "C . C^-1 |0> vs |0> with conversion forced mid-echo", t0,
    )


def execution_table(gates: int) -> tuple[dict, ...]:
    """The configurations :func:`oracle_execution_invariance` runs on a
    circuit of ``gates`` gates, as ``FlatDDConfig`` overrides.

    Every value of every execution knob appears in some row: threads 1
    and 4 (and the context's 2 elsewhere), conversion at gate 0, mid-way,
    at the last gate and never, each fusion mode and qubit order, the
    thread pool, and a dense block level of 1, which sends fuzz-sized
    gates through the array kernel's branches above the dense window.  A
    new knob is a new row, or a new value in one.  The pooled row is its
    inline twin plus ``use_thread_pool``.
    """
    low = {"threads": 4, "force_convert_at": 0, "dense_block_level": 1}
    return (
        low,
        {**low, "use_thread_pool": True},
        {"threads": 4, "force_convert_at": 0, "fusion": "cost"},
        {"threads": 1, "force_convert_at": gates // 2,
         "fusion": "koperations"},
        {"force_convert_at": gates - 1, "qubit_order": "interaction"},
        {"force_convert_at": gates, "qubit_order": "sift"},
    )


def oracle_execution_invariance(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """Execution knobs must not change the state.

    Each row of :func:`execution_table` is compared with the default
    EWMA-timed run on the tolerance ladder: another conversion point,
    thread count, fusion mode, qubit order or dense block level changes
    the floating-point contraction order, which may perturb amplitudes
    at the ulp level but no further.  The pooled row must equal its
    inline twin byte for byte, the pool's contract.  The table is fixed,
    so the shrinker and the regression replayer re-run exactly the
    configurations that fired.
    """
    t0 = time.perf_counter()
    gates = len(circuit.gates)
    if gates < 2:
        return _skip(
            "execution_invariance", "metamorphic", "needs >= 2 gates", t0
        )
    base = ctx.flatdd()
    table = execution_table(gates)
    errs, failed = [], []
    for knobs in table:
        state = ctx.flatdd(**knobs)
        label = ", ".join(f"{k}={v}" for k, v in knobs.items())
        if knobs.get("use_thread_pool"):
            twin = ctx.flatdd(**{**knobs, "use_thread_pool": False})
            if not np.array_equal(state, twin):
                failed.append(f"{label} differs from its inline twin")
                errs.append(float(np.max(np.abs(state - twin))))
            continue
        errs.append(phase_aligned_error(base, state))
        if _tier(errs[-1]) == "violation":
            failed.append(f"{label} (err {errs[-1]:.3g})")
    err = float(np.max(errs))
    return OracleOutcome(
        oracle="execution_invariance",
        family="metamorphic",
        passed=not failed,
        max_error=err,
        tier="violation" if failed else _tier(err),
        detail=(
            f"{len(table)} execution configurations vs EWMA-timed, pooled "
            "row bit-exact against its inline twin"
            + ("; failed: " + "; ".join(failed) if failed else "")
        ),
        seconds=time.perf_counter() - t0,
    )


def oracle_checkpoint_resume(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """Checkpoint + resume must be *bit-identical* to the clean run.

    The checkpoint cadence is derived from the circuit fingerprint so the
    cut point (and hence the phase -- DD or flat array -- being
    snapshotted) varies across the fuzz corpus without any randomness in
    the oracle itself.  Equality is ``np.array_equal``, not a tolerance:
    the snapshot captures the full complex table so resume replays the
    very same canonicalization decisions (docs/RESILIENCE.md).
    """
    t0 = time.perf_counter()
    gates = len(circuit.gates)
    if gates < 2:
        return _skip(
            "checkpoint_resume", "metamorphic", "needs >= 2 gates", t0
        )
    # Deterministic cadence in [1, min(gates-1, 32)]: always at least one
    # checkpoint opportunity strictly before the final gate, and small
    # enough that long circuits overwrite DD-phase snapshots with
    # DMAV-phase ones (covering both snapshot kinds across the corpus).
    every = int(circuit.fingerprint()[:8], 16) % min(gates - 1, 32) + 1
    threads = ctx._effective_threads(None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ckpt")
        full = FlatDDSimulator(FlatDDConfig(threads=threads)).run(
            circuit, checkpoint_every=every, checkpoint_path=path
        )
        if not os.path.exists(path):
            return _skip(
                "checkpoint_resume", "metamorphic",
                f"no checkpoint emitted (checkpoint_every={every}, "
                "cadence landed only on suppressed boundaries)", t0,
            )
        resumed = FlatDDSimulator(FlatDDConfig(threads=threads)).run(
            circuit, resume_from=path
        )
    identical = bool(np.array_equal(full.state, resumed.state))
    err = (
        0.0 if identical
        else float(np.max(np.abs(full.state - resumed.state)))
    )
    phase = resumed.metadata.get("resume_phase", "?")
    return OracleOutcome(
        oracle="checkpoint_resume",
        family="metamorphic",
        passed=identical,
        max_error=err,
        tier="tight" if identical else "violation",
        detail=(
            f"resume from {phase}-phase snapshot "
            f"(checkpoint_every={every}) vs uninterrupted run, "
            "bit-exact comparison"
        ),
        seconds=time.perf_counter() - t0,
    )


def oracle_sweep_consistency(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """Every batched-sweep row must be *bit-identical* to its own run.

    Builds a small sweep from the fuzzed circuit's own parameters:
    deterministic per-slot perturbations (no randomness in the oracle)
    plus a duplicate row to exercise deduplication, swept twice -- once
    EWMA-timed and once with conversion forced at gate 0 so the batched
    DMAV replay is guaranteed to run.  Each distinct row's reference
    ``run()`` is taken once per sweep.  Equality is ``np.array_equal``,
    not a tolerance: the lockstep kernels replay the single-shot gemm
    shapes per row (:mod:`repro.core.sweep`), so any drift is a real
    batching bug, not float noise.
    """
    t0 = time.perf_counter()
    if len(circuit.gates) < 2:
        return _skip(
            "sweep_consistency", "metamorphic", "needs >= 2 gates", t0
        )
    base = circuit.extract_params()
    rows = [
        base,
        tuple(p + 0.1 + 0.01 * j for j, p in enumerate(base)),
        tuple(p - 0.2 + 0.03 * j for j, p in enumerate(base)),
        base,  # duplicate: must come back via the dedup fan-out
    ]
    threads = ctx._effective_threads(None)
    err = 0.0
    identical = True
    for fca in (None, 0):
        sim = FlatDDSimulator(
            FlatDDConfig(threads=threads, force_convert_at=fca)
        )
        result = sim.simulate_sweep(circuit, rows)
        refs = {}
        for i, row in enumerate(rows):
            if row not in refs:
                refs[row] = sim.run(circuit.bind(row)).state
            ref = refs[row]
            if not np.array_equal(result.states[i], ref):
                identical = False
                err = max(
                    err, float(np.max(np.abs(result.states[i] - ref)))
                )
    return OracleOutcome(
        oracle="sweep_consistency",
        family="metamorphic",
        passed=identical,
        max_error=err,
        tier="tight" if identical else "violation",
        detail=(
            f"simulate_sweep over {len(rows)} parameter rows "
            "(EWMA-timed and force_convert_at=0) vs per-row run(), "
            "bit-exact comparison"
        ),
        seconds=time.perf_counter() - t0,
    )


#: name -> (family, oracle function).  Iteration order is cheap-first so a
#: budgeted campaign still covers the differential core on every circuit.
ORACLES: dict[str, tuple[str, callable]] = {
    "flatdd_vs_statevector": ("differential", oracle_flatdd_vs_statevector),
    "flatdd_vs_ddsim": ("differential", oracle_flatdd_vs_ddsim),
    "ddsim_vs_statevector": ("differential", oracle_ddsim_vs_statevector),
    "norm_preserved": ("metamorphic", oracle_norm_preserved),
    "execution_invariance": ("metamorphic", oracle_execution_invariance),
    "inverse_roundtrip": ("metamorphic", oracle_inverse_roundtrip),
    "checkpoint_resume": ("metamorphic", oracle_checkpoint_resume),
    "sweep_consistency": ("metamorphic", oracle_sweep_consistency),
}

ORACLE_FAMILIES: tuple[str, ...] = ("differential", "metamorphic")


def run_oracles(
    circuit: Circuit,
    oracles: list[str] | tuple[str, ...] | None = None,
    threads: int = 2,
    tracer=None,
) -> list[OracleOutcome]:
    """Run the named oracles (default: all) against one circuit.

    Returns one :class:`OracleOutcome` per oracle; failures do not stop
    the sweep, so one circuit can surface several independent violations.
    """
    names = list(oracles) if oracles is not None else list(ORACLES)
    unknown = [n for n in names if n not in ORACLES]
    if unknown:
        raise ValueError(
            f"unknown oracles {unknown}; known: {sorted(ORACLES)}"
        )
    ctx = OracleContext(circuit, threads=threads)
    outcomes = []
    for name in names:
        family, fn = ORACLES[name]
        if tracer is not None and tracer.enabled:
            with tracer.span(f"oracle:{name}", "fuzz", circuit=circuit.name):
                outcomes.append(fn(circuit, ctx))
        else:
            outcomes.append(fn(circuit, ctx))
    return outcomes
