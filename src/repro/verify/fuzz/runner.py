"""Fuzz campaign driver: generate -> check -> shrink -> persist.

A campaign is fully determined by its seed: iteration ``i`` derives its
circuit spec via SeedSequence spawning, runs the configured oracles, and
on a violation shrinks the circuit (re-checking the violated oracle at
every reduction step) and writes a replayable regression file.

Observability rides the PR-1 layer: pass a
:class:`~repro.obs.tracer.Tracer` and every iteration/oracle becomes a
span, violations become instants, and the returned
:class:`CampaignResult` carries the same ``obs`` payload the simulators
attach to their results.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from repro.circuits.circuit import Circuit
from repro.obs.collect import build_obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.verify.fuzz.faults import plant_fault
from repro.verify.fuzz.generate import (
    REGIMES,
    FuzzSpec,
    generate_circuit,
    spec_for_iteration,
)
from repro.verify.fuzz.oracles import ORACLES, OracleOutcome, run_oracles
from repro.verify.fuzz.shrink import shrink_circuit, write_regression

__all__ = ["CampaignResult", "FuzzViolation", "run_campaign"]

_log = logging.getLogger("repro.verify.fuzz")


@dataclass(frozen=True)
class FuzzViolation:
    """One oracle violation, with its shrunk reproduction."""

    iteration: int
    spec: FuzzSpec
    outcome: OracleOutcome
    original_gates: int
    shrunk_gates: int
    shrunk_qubits: int
    #: Regression file path (None when persisting was disabled).
    regression_path: str | None


@dataclass
class CampaignResult:
    """Aggregate of one fuzz campaign."""

    seed: int
    iterations: int
    seconds: float
    violations: list[FuzzViolation] = field(default_factory=list)
    #: oracle name -> number of (non-skipped) runs.
    oracle_runs: dict = field(default_factory=dict)
    #: oracle name -> cumulative seconds.
    oracle_seconds: dict = field(default_factory=dict)
    #: oracle name -> worst tolerance tier seen ("tight" < ... < "violation").
    worst_tier: dict = field(default_factory=dict)
    stopped_by_budget: bool = False
    #: PR-1 observability payload (counters + per-phase summary when traced).
    obs: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_dict(self) -> dict:
        """JSON-friendly campaign summary (the CLI's --json payload)."""
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "seconds": round(self.seconds, 3),
            "violations": [
                {
                    "iteration": v.iteration,
                    "oracle": v.outcome.oracle,
                    "family": v.outcome.family,
                    "max_error": v.outcome.max_error,
                    "spec": v.spec.as_dict(),
                    "original_gates": v.original_gates,
                    "shrunk_gates": v.shrunk_gates,
                    "shrunk_qubits": v.shrunk_qubits,
                    "regression_path": v.regression_path,
                }
                for v in self.violations
            ],
            "oracle_runs": dict(self.oracle_runs),
            "worst_tier": dict(self.worst_tier),
            "stopped_by_budget": self.stopped_by_budget,
        }


_TIER_ORDER = {"tight": 0, "standard": 1, "loose": 2, "violation": 3}


def _shrink_violation(
    circuit: Circuit,
    outcome: OracleOutcome,
    threads: int,
    max_checks: int,
) -> Circuit:
    """Minimize ``circuit`` against the one oracle that fired."""
    name = outcome.oracle

    def still_fails(candidate: Circuit) -> bool:
        results = run_oracles(candidate, oracles=[name], threads=threads)
        return any(not r.passed for r in results)

    return shrink_circuit(circuit, still_fails, max_checks=max_checks)


def run_campaign(
    seed: int = 0,
    iterations: int = 100,
    budget_seconds: float | None = None,
    regimes: tuple[str, ...] | None = None,
    oracles: list[str] | None = None,
    max_qubits: int = 6,
    max_gates: int = 60,
    threads: int = 2,
    shrink: bool = True,
    shrink_max_checks: int = 200,
    out_dir: str | None = None,
    plant_bug: str | None = None,
    tracer=None,
) -> CampaignResult:
    """Run a seeded differential/metamorphic fuzz campaign.

    Stops after ``iterations`` circuits or once ``budget_seconds`` of wall
    time is spent, whichever comes first.  ``out_dir=None`` disables
    regression-file persistence (violations are still reported).
    ``plant_bug`` installs a named fault from
    :mod:`repro.verify.fuzz.faults` for the whole campaign -- the
    documented way to watch the harness catch, shrink, and persist a bug.
    """
    if regimes:
        unknown = [r for r in regimes if r not in REGIMES]
        if unknown:
            raise ValueError(
                f"unknown regimes {unknown}; known: {sorted(REGIMES)}"
            )
    chosen_regimes = tuple(regimes) if regimes else REGIMES
    oracle_names = list(oracles) if oracles is not None else list(ORACLES)
    tr = tracer if tracer is not None else NULL_TRACER
    tracing = tr.enabled
    first_span = len(tr.spans)
    registry = MetricsRegistry()
    # Register the headline counters up front so a clean campaign still
    # reports them as explicit zeros.
    registry.counter("fuzz.iterations").inc(0)
    registry.counter("fuzz.oracles_run").inc(0)
    registry.counter("fuzz.violations").inc(0)
    result = CampaignResult(seed=seed, iterations=0, seconds=0.0)
    start = time.perf_counter()

    with plant_fault(plant_bug):
        for i in range(iterations):
            if (
                budget_seconds is not None
                and time.perf_counter() - start > budget_seconds
            ):
                result.stopped_by_budget = True
                break
            spec = spec_for_iteration(
                seed, i, regimes=chosen_regimes, max_qubits=max_qubits,
                max_gates=max_gates,
            )
            circuit = generate_circuit(spec)
            i0 = time.perf_counter()
            outcomes = run_oracles(
                circuit, oracles=oracle_names, threads=threads,
                tracer=tr if tracing else None,
            )
            i1 = time.perf_counter()
            if tracing:
                # Category "phase" so --profile folds iterations into one
                # row (oracle spans inside count as inner spans).
                tr.record(
                    "fuzz_iteration", "phase", i0, i1,
                    iteration=i, regime=spec.regime,
                    qubits=circuit.num_qubits, gates=len(circuit.gates),
                )
            result.iterations += 1
            registry.counter("fuzz.iterations").inc()
            registry.counter("fuzz.circuit_gates").inc(len(circuit.gates))
            for outcome in outcomes:
                if outcome.skipped:
                    registry.counter("fuzz.oracles_skipped").inc()
                    continue
                result.oracle_runs[outcome.oracle] = (
                    result.oracle_runs.get(outcome.oracle, 0) + 1
                )
                result.oracle_seconds[outcome.oracle] = (
                    result.oracle_seconds.get(outcome.oracle, 0.0)
                    + outcome.seconds
                )
                if outcome.tier is not None:
                    prev = result.worst_tier.get(outcome.oracle, "tight")
                    if _TIER_ORDER[outcome.tier] > _TIER_ORDER[prev]:
                        result.worst_tier[outcome.oracle] = outcome.tier
                    else:
                        result.worst_tier.setdefault(outcome.oracle, prev)
                registry.counter("fuzz.oracles_run").inc()
                if outcome.passed:
                    continue
                registry.counter("fuzz.violations").inc()
                if tracing:
                    tr.instant(
                        "oracle_violation", "fuzz",
                        iteration=i, oracle=outcome.oracle,
                        max_error=outcome.max_error,
                    )
                _log.warning(
                    "iteration %d: oracle %s violated on %s "
                    "(max_error=%s): %s",
                    i, outcome.oracle, circuit.name, outcome.max_error,
                    outcome.detail,
                )
                shrunk = circuit
                if shrink:
                    s0 = time.perf_counter()
                    shrunk = _shrink_violation(
                        circuit, outcome, threads, shrink_max_checks
                    )
                    if tracing:
                        tr.record(
                            "shrink", "phase", s0, time.perf_counter(),
                            oracle=outcome.oracle,
                            before=len(circuit.gates),
                            after=len(shrunk.gates),
                        )
                path = None
                if out_dir is not None:
                    path = write_regression(
                        shrunk,
                        outcome.oracle,
                        directory=out_dir,
                        seed=seed,
                        spec=spec.as_dict(),
                        plant_bug=plant_bug,
                        outcome={
                            "max_error": outcome.max_error,
                            "detail": outcome.detail,
                        },
                        note=f"campaign seed={seed} iteration={i}",
                    )
                    _log.warning("wrote regression file %s", path)
                result.violations.append(
                    FuzzViolation(
                        iteration=i,
                        spec=spec,
                        outcome=outcome,
                        original_gates=len(circuit.gates),
                        shrunk_gates=len(shrunk.gates),
                        shrunk_qubits=shrunk.num_qubits,
                        regression_path=path,
                    )
                )

    result.seconds = time.perf_counter() - start
    registry.gauge("fuzz.seconds").set(result.seconds)
    result.obs = build_obs(
        tracer=tr if tracing else None,
        registry=registry,
        wall_seconds=result.seconds,
        first_span=first_span,
    )
    return result
