"""Numeric and modeling constants shared across the library.

These mirror the constants the paper fixes for its evaluation:

* ``DEFAULT_BETA`` / ``DEFAULT_EPSILON`` -- the EWMA conversion trigger
  (Section 3.1.1; the paper uses beta = 0.9, epsilon = 2 for every run).
* ``SIMD_WIDTH`` -- the ``d`` of Equation 6.  The paper uses AVX2 on
  ``double complex`` (d = 2); we keep the same default for the cost model
  even though the arithmetic here is batched through numpy.
* ``TOLERANCE`` -- the complex-table tolerance used to canonicalize edge
  weights, as in DDSIM's complex-number package [98].
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

#: Tolerance for treating two complex numbers as identical in the complex
#: table, and for treating an edge weight as exactly zero.
TOLERANCE: float = 1e-10

#: Decimal places used to bucket complex values in the complex table.  Chosen
#: so that ``round(x, CTABLE_DECIMALS)`` collapses values within TOLERANCE.
CTABLE_DECIMALS: int = 10

#: EWMA smoothing factor (beta in Equation 4).
DEFAULT_BETA: float = 0.9

#: Conversion threshold (epsilon in Section 3.1.1).
DEFAULT_EPSILON: float = 2.0

#: SIMD lane count d in the cost model (Equation 6). AVX2 fits two
#: double-precision complex numbers per register.
SIMD_WIDTH: int = 2

#: Default number of worker threads (the paper evaluates FlatDD at t = 16).
DEFAULT_THREADS: int = 4

#: Level at or below which the DMAV/conversion kernels bottom out on dense
#: cached blocks instead of recursing (pure-Python substitution for the
#: per-scalar MAC loop; see DESIGN.md substitution 2).  A node at level l
#: spans 2**(l+1) amplitudes, so level 5 means 64-element blocks.
DENSE_BLOCK_LEVEL: int = 5

# ---------------------------------------------------------------------------
# Memory-model constants (bytes), used by repro.metrics.memory to reproduce
# the paper's RSS comparison analytically (DESIGN.md substitution 5). Sizes
# are taken from DDSIM's C++ structs rather than CPython object overheads so
# the *ratios* between simulators match what the paper measures.
# ---------------------------------------------------------------------------

#: A vector DD node: 2 edges (pointer + complex-pair pointer) + level + ref.
VNODE_BYTES: int = 2 * 24 + 16

#: A matrix DD node: 4 edges + bookkeeping.
MNODE_BYTES: int = 4 * 24 + 16

#: One canonical complex-table entry (two doubles + hash bucket overhead).
CTABLE_ENTRY_BYTES: int = 32

#: One complex128 amplitude in a flat array.
AMPLITUDE_BYTES: int = 16


@dataclass(frozen=True)
class FlatDDConfig:
    """Tunable knobs of the FlatDD pipeline, bundled for the orchestrator.

    Defaults reproduce the paper's evaluation settings.  The DMAV variant
    of each gate is not a knob: the Eq. 5-6 cost model picks Algorithm 1
    or 2 per gate (Section 3.2.3) at ``SIMD_WIDTH``, and the k-operations
    baseline groups ``repro.core.fusion.K_OPERATIONS`` qubits.
    """

    beta: float = DEFAULT_BETA
    epsilon: float = DEFAULT_EPSILON
    threads: int = DEFAULT_THREADS
    #: "cost" = Algorithm 3; "koperations" = the k-operations baseline [100];
    #: "none" = no fusion (Table 2 configurations).
    fusion: str = "none"
    #: Dense bottom-out level for the Python kernels.
    dense_block_level: int = DENSE_BLOCK_LEVEL
    #: If False, thread tasks run inline (deterministic, used by tests);
    #: if True they run on a ThreadPoolExecutor.
    use_thread_pool: bool = False
    #: Deterministic conversion override for testing/verification: ``None``
    #: keeps the EWMA trigger; an int forces DD-to-array conversion right
    #: after that gate index (0 = convert after the first gate).  An index
    #: at or past the end of the circuit means "never convert early" (the
    #: run finishes in the DD phase like DDSIM).  The fuzz harness uses
    #: this to check that early/late conversion points are semantically
    #: equivalent.
    force_convert_at: int | None = None
    #: Variable (qubit) order for the DD phase: "natural" keeps circuit
    #: order; "interaction" places strongly interacting qubits adjacently
    #: (greedy linear arrangement over the qubit-interaction graph);
    #: "sift" refines that placement by single-qubit repositioning.  The
    #: permutation is local to the DD phase -- conversion un-permutes, so
    #: the array phase and all consumers see canonical amplitude order --
    #: but it changes the conversion point and weight rounding, so it is
    #: part of the config digest.
    qubit_order: str = "natural"
    #: Memory budget for the whole run (None = unbounded).  Enforced by
    #: :class:`repro.resilience.guard.MemoryGuard`: a DD-phase breach forces
    #: early DD-to-array conversion (graceful degradation along the paper's
    #: own escape hatch); an array-phase breach checkpoints (when a
    #: checkpoint path is configured) and raises
    #: :class:`~repro.common.errors.ResourceExhaustedError`.
    memory_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.fusion not in ("cost", "koperations", "none"):
            raise ValueError(f"unknown fusion mode {self.fusion!r}")
        if self.qubit_order not in ("natural", "interaction", "sift"):
            raise ValueError(f"unknown qubit_order {self.qubit_order!r}")
        if self.force_convert_at is not None and self.force_convert_at < 0:
            raise ValueError(
                f"force_convert_at must be >= 0 or None, "
                f"got {self.force_convert_at}"
            )
        if (
            self.memory_budget_bytes is not None
            and self.memory_budget_bytes < 1
        ):
            raise ValueError(
                f"memory_budget_bytes must be >= 1 or None, "
                f"got {self.memory_budget_bytes}"
            )


#: FlatDDConfig fields that only affect *how* the simulation executes,
#: never the final state -- excluded from the cache-key config digest.
#: ``memory_budget_bytes`` stays *in* the digest: a guardrail-forced early
#: conversion changes the conversion point, which is bit-level visible.
#: ``qubit_order`` stays in the digest: permuting the DD phase moves the
#: conversion point.
_EXECUTION_ONLY_FIELDS = ("use_thread_pool",)


def config_digest(config: "FlatDDConfig | None") -> str:
    """Short stable digest of the semantically relevant config fields.

    Used both as the result-cache key component in :mod:`repro.serve` and
    as the config fingerprint stamped into resilience snapshots (resuming
    under a semantically different config would silently change results,
    so snapshot restore rejects digest mismatches).
    """
    if config is None:
        return "default"
    fields = dataclasses.asdict(config)
    for name in _EXECUTION_ONLY_FIELDS:
        fields.pop(name, None)
    blob = ";".join(f"{k}={fields[k]!r}" for k in sorted(fields))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the batch simulation service (:mod:`repro.serve`).

    Groups the queue's admission limits, the worker pool's retry policy,
    and the result cache's bounds so a whole service deployment is one
    value (and one line in a manifest runner or test).
    """

    #: Default backend for jobs that do not name one.
    backend: str = "flatdd"
    #: Simulator threads *per job* (FlatDD/statevector backends).
    threads: int = DEFAULT_THREADS
    #: Concurrent worker slots in the pool (batch groups in flight).
    workers: int = 1
    #: Run worker slots on a real ThreadPoolExecutor (False = inline,
    #: deterministic -- same semantics as FlatDDConfig.use_thread_pool).
    use_thread_pool: bool = False
    #: Queue capacity; submissions beyond it are rejected (backpressure).
    queue_capacity: int = 256
    #: Admission control: reject circuits bigger than this outright.
    max_qubits: int = 26
    max_gates: int = 200_000
    #: Per-job wall-clock budget when the job does not set its own
    #: (None = unlimited).
    default_deadline_seconds: float | None = None
    #: Default retry budget for transient faults (per job).
    max_retries: int = 2
    #: Exponential backoff between retries: base * 2**attempt, capped.
    retry_base_delay: float = 0.01
    retry_max_delay: float = 1.0
    #: Result-cache bounds; entries are whole final states.
    cache_max_entries: int = 512
    cache_max_bytes: int = 256 * 1024 * 1024
    #: Socket send/recv deadline for cluster connections (seconds).  A
    #: peer that neither produces bytes nor accepts them within this
    #: window raises ``ProtocolError("timeout", ...)`` instead of
    #: blocking forever.  None restores the old fully blocking sockets.
    io_deadline_seconds: float | None = 120.0
    #: Respawn backoff for dead worker slots: the n-th consecutive death
    #: of a slot delays its replacement by ``base * 2**n`` seconds
    #: (jittered, capped at ``max``) instead of respawning in a hot loop.
    respawn_backoff_base: float = 0.25
    respawn_backoff_max: float = 10.0
    #: Per-slot circuit breaker: a slot whose worker dies this many times
    #: within ``breaker_window_seconds`` is quarantined -- no further
    #: respawns, and its capacity is subtracted from admission control.
    breaker_failures: int = 3
    breaker_window_seconds: float = 60.0
    #: Brownout threshold: when the fraction of healthy (non-quarantined)
    #: worker slots falls below this, new submissions are shed with a
    #: reject-with-reason instead of queuing unboundedly.  0 disables.
    brownout_min_alive_fraction: float = 0.5
    #: Journal durability: fsync the WAL after every append (survives
    #: power loss, not just process death).  Off by default -- flush-only
    #: matches the historic behavior and the crash-only test matrix.
    journal_fsync: bool = False

    def __post_init__(self) -> None:
        if self.backend not in ("flatdd", "ddsim", "quantumpp"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.max_qubits < 1 or self.max_gates < 1:
            raise ValueError("admission limits must be >= 1")
        if (
            self.default_deadline_seconds is not None
            and self.default_deadline_seconds <= 0
        ):
            raise ValueError("default_deadline_seconds must be positive")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_base_delay < 0 or self.retry_max_delay < 0:
            raise ValueError("retry delays must be non-negative")
        if self.cache_max_entries < 0 or self.cache_max_bytes < 0:
            raise ValueError("cache bounds must be non-negative")
        if (
            self.io_deadline_seconds is not None
            and self.io_deadline_seconds <= 0
        ):
            raise ValueError("io_deadline_seconds must be positive or None")
        if self.respawn_backoff_base < 0 or self.respawn_backoff_max < 0:
            raise ValueError("respawn backoff delays must be non-negative")
        if self.breaker_failures < 1:
            raise ValueError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.breaker_window_seconds <= 0:
            raise ValueError("breaker_window_seconds must be positive")
        if not 0.0 <= self.brownout_min_alive_fraction <= 1.0:
            raise ValueError(
                "brownout_min_alive_fraction must be in [0, 1], got "
                f"{self.brownout_min_alive_fraction}"
            )
