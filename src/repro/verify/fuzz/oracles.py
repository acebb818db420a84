"""Correctness oracles for the fuzz harness.

Two families, both cheap relative to writing amplitude-level golden data:

* **differential** -- run the same circuit through independent simulator
  implementations (FlatDD, the DDSIM-role pure-DD backend, the flat-array
  statevector backend) and demand identical final states up to one global
  phase, within a tolerance *ladder* (an oracle violation reports the
  loosest tier it failed).
* **metamorphic** -- properties that must hold regardless of the circuit
  drawn: norm preservation, ``C . C^-1 = I`` round-trips, gate-fusion
  on/off equivalence, forced early/late conversion-point equivalence,
  thread-count invariance of the parallel conversion + DMAV kernels,
  bit-identical identity-skip on/off equivalence, qubit-reorder
  equivalence (any variable order un-permutes back to the natural-order
  state), and bit-identical checkpoint/resume (a run interrupted at a
  fingerprint-derived gate and resumed from its snapshot must reproduce
  the uninterrupted run's amplitudes *exactly*, see docs/RESILIENCE.md).

Every oracle is a pure function ``(circuit, ctx) -> OracleOutcome``;
``run_oracles`` shares simulated states across oracles through the
:class:`OracleContext` cache so a full check costs ~10 simulations, not
~20.
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

    Final states are memoized by backend/config key, so e.g. the
    conversion-point and fusion oracles reuse the differential oracles'
    FlatDD run instead of re-simulating.
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

    def flatdd(
        self,
        threads: int | None = None,
        fusion: str = "none",
        force_convert_at: int | None = None,
        identity_skip: bool = True,
        qubit_order: str = "natural",
    ) -> np.ndarray:
        t = self._effective_threads(threads)
        key = (
            "flatdd", t, fusion, force_convert_at, identity_skip,
            qubit_order,
        )
        if key not in self._states:
            cfg = FlatDDConfig(
                threads=t, fusion=fusion, force_convert_at=force_convert_at,
                identity_skip=identity_skip, qubit_order=qubit_order,
            )
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


def oracle_fusion_equivalence(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """Gate fusion is a performance knob; it must not change the state.

    Conversion is forced after the first gate so (almost) the whole
    circuit runs in the DMAV phase, where fusion actually applies.
    """
    t0 = time.perf_counter()
    if len(circuit.gates) < 2:
        return _skip(
            "fusion_equivalence", "metamorphic", "needs >= 2 gates", t0
        )
    base = ctx.flatdd(fusion="none", force_convert_at=0)
    errs = [
        phase_aligned_error(base, ctx.flatdd(fusion=mode, force_convert_at=0))
        for mode in ("cost", "koperations")
    ]
    return _ladder_outcome(
        "fusion_equivalence", "metamorphic", max(errs),
        "fusion none vs cost vs koperations (conversion forced at gate 0)",
        t0,
    )


def oracle_conversion_point_equivalence(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """The DD -> array handoff must be semantically invisible wherever it
    happens: first gate, mid-circuit, last gate, never, or EWMA-timed."""
    t0 = time.perf_counter()
    gates = len(circuit.gates)
    if gates < 2:
        return _skip(
            "conversion_point_equivalence", "metamorphic",
            "needs >= 2 gates", t0,
        )
    base = ctx.flatdd()  # EWMA-timed (the production path)
    points = sorted({0, gates // 2, gates - 1, gates})
    errs = [
        phase_aligned_error(base, ctx.flatdd(force_convert_at=p))
        for p in points
    ]
    return _ladder_outcome(
        "conversion_point_equivalence", "metamorphic", max(errs),
        f"forced conversion at {points} vs EWMA-timed", t0,
    )


def oracle_thread_invariance(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """convert_parallel and DMAV must not depend on the thread count."""
    t0 = time.perf_counter()
    n = circuit.num_qubits
    counts = [t for t in (1, 2, 4) if t <= (1 << max(n - 1, 0))]
    if len(counts) < 2 or len(circuit.gates) < 2:
        return _skip(
            "thread_invariance", "metamorphic",
            "needs >= 2 usable thread counts and >= 2 gates", t0,
        )
    # Forced early conversion exercises both the parallel conversion and
    # the multi-threaded DMAV task assignment at every count.
    states = [ctx.flatdd(threads=t, force_convert_at=0) for t in counts]
    errs = [phase_aligned_error(states[0], s) for s in states[1:]]
    return _ladder_outcome(
        "thread_invariance", "metamorphic", max(errs),
        f"flatdd at threads={counts} (conversion forced at gate 0)", t0,
    )


def oracle_identity_skip_equivalence(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """Identity-skipped gate DDs must be a pure performance optimization.

    Runs the pipeline with ``identity_skip`` on and off.  Equality is
    ``np.array_equal``, not a tolerance: windowed and full-height gate
    DDs share the active-window subtree through hash-consing and the
    pass-through levels carry exact ``1.0`` weights, so the two modes
    multiply exactly the same complex values in exactly the same order
    (:mod:`repro.dd.operations`).  Any drift is a real skip-rule bug,
    not float noise.
    """
    t0 = time.perf_counter()
    skipped = ctx.flatdd(identity_skip=True)
    full = ctx.flatdd(identity_skip=False)
    identical = bool(np.array_equal(skipped, full))
    err = (
        0.0 if identical
        else float(np.max(np.abs(skipped - full)))
    )
    return OracleOutcome(
        oracle="identity_skip",
        family="metamorphic",
        passed=identical,
        max_error=err,
        tier="tight" if identical else "violation",
        detail=(
            "identity_skip on vs off (EWMA-timed conversion), "
            "bit-exact comparison"
        ),
        seconds=time.perf_counter() - t0,
    )


def oracle_reorder_equivalence(
    circuit: Circuit, ctx: OracleContext
) -> OracleOutcome:
    """Qubit reordering must be semantically invisible.

    The DD phase runs on a relabeled circuit and conversion un-permutes
    the amplitudes back to canonical order, so any variable order must
    reproduce the natural-order state.  The comparison goes through the
    tolerance ladder (not bit-exact): a different order changes the
    floating-point contraction order inside the DD phase, which is
    allowed to perturb amplitudes at the ulp level but no further.
    """
    t0 = time.perf_counter()
    base = ctx.flatdd(qubit_order="natural")
    errs = [
        phase_aligned_error(base, ctx.flatdd(qubit_order=mode))
        for mode in ("interaction", "sift")
    ]
    return _ladder_outcome(
        "reorder_equivalence", "metamorphic", max(errs),
        "qubit_order interaction/sift vs natural (un-permuted at "
        "conversion)", t0,
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
    DMAV replay is guaranteed to run.  Equality is ``np.array_equal``,
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
        for i, row in enumerate(rows):
            ref = sim.run(circuit.bind(row)).state
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
    "conversion_point_equivalence": (
        "metamorphic", oracle_conversion_point_equivalence
    ),
    "thread_invariance": ("metamorphic", oracle_thread_invariance),
    "fusion_equivalence": ("metamorphic", oracle_fusion_equivalence),
    "inverse_roundtrip": ("metamorphic", oracle_inverse_roundtrip),
    "identity_skip": ("metamorphic", oracle_identity_skip_equivalence),
    "reorder_equivalence": ("metamorphic", oracle_reorder_equivalence),
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
