"""The service façade: submit / poll / cancel / drain, plus manifests.

:class:`SimulationService` wires the serving subsystem together::

    submit() --> JobQueue (admission, backpressure, priority order)
    drain()  --> BatchScheduler (dedup into cache-key groups)
             --> WorkerPool (retry, deadline, isolation)
             --> ResultCache (content-addressed fan-out)

``drain()`` is the synchronous execution entry point: it repeatedly
drains the queue, plans, and executes until no pending work remains
(jobs submitted *during* a drain are picked up by the next loop
iteration), then returns a :class:`ServeReport` with per-state job
counts, cache statistics, and throughput.  Deterministic, single-call
semantics keep the service exactly as testable as the simulators
beneath it.

A **batch manifest** is JSON Lines, one job per line (blank lines and
``#`` comments ignored)::

    {"family": "ghz", "qubits": 8, "shots": 100}
    {"family": "qft", "qubits": 6, "priority": 5, "repeat": 3}
    {"qasm_file": "circuits/adder.qasm", "backend": "ddsim"}
    {"qasm": "OPENQASM 2.0; include \\"qelib1.inc\\"; qreg q[1]; h q[0];"}

Recognized keys: circuit source (``family``+``qubits`` [+``seed``,
``kwargs``] | ``qasm`` | ``qasm_file``), ``backend``, ``shots``,
``sample_seed``, ``param_sets`` (list of parameter rows: the entry
becomes a batched sweep job, see docs/SERVING.md), ``priority``,
``deadline_seconds``, ``max_retries``, ``job_id``, ``name``, and
``repeat`` (duplicate the entry N times -- handy for cache-hit demos
and stress manifests).  See docs/SERVING.md.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from dataclasses import dataclass, field

from repro.circuits import get_circuit, parse_qasm
from repro.circuits.circuit import Circuit
from repro.common.config import FlatDDConfig, ServeConfig
from repro.common.errors import AdmissionError, ServeError
from repro.obs.collect import result_cache_counters
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.serve.cache import ResultCache
from repro.serve.jobs import Job, JobResult, JobState
from repro.serve.journal import JobJournal, journal_segments, replay_journal
from repro.serve.queue import JobQueue
from repro.serve.scheduler import BatchScheduler
from repro.serve.workers import WorkerPool

__all__ = [
    "ServeReport",
    "SimulationService",
    "jobs_from_manifest",
    "load_manifest",
    "run_jobs",
    "run_manifest",
]

_log = logging.getLogger("repro.serve.service")

#: Manifest keys that configure the job envelope (everything else must be
#: part of the circuit source).
_JOB_KEYS = {
    "backend", "shots", "sample_seed", "priority", "deadline_seconds",
    "max_retries", "job_id", "param_sets", "qubit_order",
}
_SOURCE_KEYS = {"family", "qubits", "seed", "kwargs", "qasm", "qasm_file", "name"}
_META_KEYS = {"repeat"}


@dataclass
class ServeReport:
    """Outcome of one ``drain()``: throughput, states, cache behaviour."""

    jobs: int
    states: dict[str, int]
    elapsed_seconds: float
    cache: dict
    groups: int
    deduped_jobs: int
    retries: int
    admission: dict
    internal_errors: int = 0
    job_rows: list[dict] = field(default_factory=list)
    #: Journal-replay summary when the batch resumed after a crash.
    recovery: dict | None = None
    #: DMAV plan-cache / buffer-arena aggregate over the batch's *fresh*
    #: runs (result-cache hits carry no obs), None when no fresh flatdd
    #: run reached the array phase with plans enabled.
    dmav: dict | None = None
    #: Latency distributions (``serve.latency.*`` histogram snapshots):
    #: ``{"queue_wait"|"run"|"e2e": stats, "tiers": {priority: {...}}}``
    #: where stats is ``{count, mean, min, max, p50, p90, p99}``.
    #: Cumulative over the service lifetime (histograms cannot be
    #: windowed per drain without losing their distribution).
    latency: dict | None = None
    #: Process-fleet stats when the drain ran on a ClusterDispatcher
    #: (dispatched/result counts, worker deaths, requeues, respawns);
    #: None for the in-process thread pool.
    cluster: dict | None = None

    @property
    def jobs_per_second(self) -> float:
        return self.jobs / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def ok(self) -> bool:
        """True when no job failed or timed out."""
        return (
            self.states.get("FAILED", 0) == 0
            and self.states.get("TIMEOUT", 0) == 0
        )

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "states": self.states,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "jobs_per_second": round(self.jobs_per_second, 3),
            "cache": self.cache,
            "groups": self.groups,
            "deduped_jobs": self.deduped_jobs,
            "retries": self.retries,
            "admission": self.admission,
            "internal_errors": self.internal_errors,
            "ok": self.ok,
            "job_rows": self.job_rows,
            "recovery": self.recovery,
            "dmav": self.dmav,
            "latency": self.latency,
            "cluster": self.cluster,
        }

    def format_text(self) -> str:
        """The CLI's throughput/cache report."""
        lines = [
            f"serve: {self.jobs} job(s) in {self.elapsed_seconds:.3f}s "
            f"({self.jobs_per_second:.1f} jobs/s)",
            "  states: "
            + " ".join(
                f"{name.lower()}={self.states.get(name, 0)}"
                for name in ("DONE", "FAILED", "TIMEOUT", "CANCELLED")
            ),
            f"  batching: groups={self.groups} deduped={self.deduped_jobs} "
            f"retries={self.retries} internal_errors={self.internal_errors}",
            f"  cache: hits={self.cache['hits']} misses={self.cache['misses']} "
            f"hit_rate={100.0 * self.cache['hit_rate']:.1f}% "
            f"entries={self.cache['entries']} "
            f"evictions={self.cache['evictions']}",
        ]
        rejected = {
            k: v for k, v in self.admission.items() if k != "accepted" and v
        }
        if rejected:
            lines.append(
                "  rejected: "
                + " ".join(f"{k}={v}" for k, v in sorted(rejected.items()))
            )
        if self.recovery is not None:
            by_state = self.recovery.get("by_state", {})
            lines.append(
                f"  recovery: journal replayed {self.recovery.get('jobs', 0)} "
                "job(s) ("
                + " ".join(
                    f"{k.lower()}={v}" for k, v in sorted(by_state.items())
                )
                + f"), cache_seeded={self.recovery.get('cache_seeded', 0)}"
            )
        if self.cluster is not None:
            lines.append(
                f"  cluster: processes={self.cluster['processes']} "
                f"dispatched={self.cluster['dispatched']} "
                f"results={self.cluster['results']} "
                f"deaths={self.cluster['worker_deaths']} "
                f"requeues={self.cluster['requeues']} "
                f"respawns={self.cluster['respawns']}"
            )
        if self.dmav is not None:
            lines.append(
                f"  dmav plans: hits={self.dmav['plan_hits']} "
                f"compiles={self.dmav['plan_compiles']} "
                f"arena_peak_mb="
                f"{self.dmav['arena_bytes_peak'] / (1024 * 1024):.2f} "
                f"runs={self.dmav['runs']}"
            )
        if self.latency:
            def _ms(v):
                return "-" if v is None else f"{v * 1e3:.1f}ms"

            for metric in ("queue_wait", "run", "e2e"):
                stats = self.latency.get(metric)
                if not stats or not stats.get("count"):
                    continue
                lines.append(
                    f"  latency {metric}: p50={_ms(stats['p50'])} "
                    f"p90={_ms(stats['p90'])} p99={_ms(stats['p99'])} "
                    f"mean={_ms(stats['mean'])} n={stats['count']}"
                )
        return "\n".join(lines)


class SimulationService:
    """Batch simulation service over the three backends."""

    def __init__(
        self, config: ServeConfig | None = None, tracer=None, **overrides
    ) -> None:
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            raise ServeError("pass either a config or keyword overrides")
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = MetricsRegistry()
        self.queue = JobQueue(
            capacity=config.queue_capacity,
            max_qubits=config.max_qubits,
            max_gates=config.max_gates,
        )
        self.cache = ResultCache(
            max_entries=config.cache_max_entries,
            max_bytes=config.cache_max_bytes,
        )
        self.scheduler = BatchScheduler(tracer=self.tracer, registry=self.registry)
        self.pool = WorkerPool(
            config, tracer=self.tracer, registry=self.registry
        )
        #: Every job ever admitted, including finished ones (poll target).
        self._jobs: dict[str, Job] = {}
        #: Cancelled job ids already counted by a previous drain report.
        self._reported_cancelled: set[str] = set()

    # -- submission ---------------------------------------------------

    def submit(self, job_or_circuit, **kwargs) -> str:
        """Admit one job; returns its id (raises AdmissionError on reject).

        Accepts a prebuilt :class:`~repro.serve.jobs.Job` or a
        :class:`~repro.circuits.circuit.Circuit` plus Job keyword
        arguments (``backend=``, ``shots=``, ``priority=``, ...).
        Service defaults fill in ``backend`` and ``max_retries`` when
        the caller does not set them.
        """
        if isinstance(job_or_circuit, Job):
            if kwargs:
                raise ServeError("pass kwargs only with a Circuit, not a Job")
            job = job_or_circuit
        elif isinstance(job_or_circuit, Circuit):
            kwargs.setdefault("backend", self.config.backend)
            kwargs.setdefault("max_retries", self.config.max_retries)
            job = Job(circuit=job_or_circuit, **kwargs)
        else:
            raise ServeError(
                f"submit() takes a Job or Circuit, got "
                f"{type(job_or_circuit).__name__}"
            )
        self.queue.submit(job)
        self._jobs[job.job_id] = job
        self.registry.counter("serve.jobs.submitted").inc()
        self.tracer.instant(
            "submit", "serve", job_id=job.job_id, priority=job.priority
        )
        return job.job_id

    def submit_many(self, items) -> list[str]:
        """Admit an iterable of jobs/circuits; returns ids in order."""
        return [self.submit(item) for item in items]

    # -- inspection / control -----------------------------------------

    def poll(self, job_id: str) -> Job:
        """The job's live record (state, attempts, error, result)."""
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id!r}")
        return job

    def result(self, job_id: str) -> JobResult:
        """The finished job's result; raises if not DONE."""
        job = self.poll(job_id)
        if job.state is not JobState.DONE or job.result is None:
            raise ServeError(
                f"job {job_id} is {job.state.value}"
                + (f": {job.error}" if job.error else "")
            )
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending job (False if unknown or already running)."""
        if job_id not in self._jobs:
            return False
        return self.queue.cancel(job_id)

    # -- execution ----------------------------------------------------

    def drain(self) -> ServeReport:
        """Execute until the queue is empty; returns the batch report."""
        started = time.perf_counter()
        processed: list[Job] = []
        groups_before = self.scheduler.groups_planned
        deduped_before = self.scheduler.jobs_deduplicated
        retries_before = self.registry.counter("serve.jobs.retries").value
        with self.tracer.span("drain", "serve"):
            while True:
                pending = self.queue.drain_pending()
                if not pending:
                    break
                groups = self.scheduler.plan(pending)
                _log.info(
                    "draining %d job(s) as %d group(s)",
                    len(pending), len(groups),
                )
                self.pool.execute_groups(groups, self.cache)
                processed.extend(pending)
        elapsed = time.perf_counter() - started
        # Cancelled-before-drain jobs never reach the heap pop; count
        # every terminal job from this service's table exactly once.
        processed_ids = {id(j) for j in processed}
        cancelled = [
            j for j in self._jobs.values()
            if j.state is JobState.CANCELLED
            and id(j) not in processed_ids
            and j.job_id not in self._reported_cancelled
        ]
        all_jobs = processed + cancelled
        self._reported_cancelled.update(
            j.job_id for j in all_jobs if j.state is JobState.CANCELLED
        )
        states: dict[str, int] = {}
        for job in all_jobs:
            states[job.state.value] = states.get(job.state.value, 0) + 1
        report = ServeReport(
            jobs=len(all_jobs),
            states=states,
            elapsed_seconds=elapsed,
            cache=self.cache.stats(),
            groups=self.scheduler.groups_planned - groups_before,
            deduped_jobs=self.scheduler.jobs_deduplicated - deduped_before,
            retries=self.registry.counter("serve.jobs.retries").value
            - retries_before,
            admission=dict(self.queue.admission_counts),
            internal_errors=self.pool.internal_errors,
            job_rows=[job.summary() for job in all_jobs],
        )
        report.dmav = _aggregate_dmav(all_jobs)
        report.latency = self._latency_snapshot()
        cluster_stats = getattr(self.pool, "cluster_stats", None)
        if cluster_stats is not None:
            report.cluster = cluster_stats()
        self.registry.gauge("serve.drain.jobs_per_second").set(
            report.jobs_per_second
        )
        return report

    def _latency_snapshot(self) -> dict | None:
        """Fold ``serve.latency.*`` histograms into the report's block.

        Aggregate metrics keep their bare name (``queue_wait``/``run``/
        ``e2e``); per-priority instruments group under ``tiers`` keyed by
        the priority value.  None before any job has executed.
        """
        histograms = self.registry.snapshot()["histograms"]
        out: dict = {}
        tiers: dict[str, dict] = {}
        for name, stats in histograms.items():
            if not name.startswith("serve.latency."):
                continue
            rest = name[len("serve.latency."):]
            metric, sep, tier = rest.partition(".tier")
            if sep:
                tiers.setdefault(tier, {})[metric] = stats
            else:
                out[metric] = stats
        if not out:
            return None
        if tiers:
            out["tiers"] = tiers
        return out

    def obs_snapshot(self) -> dict:
        """Registry + cache counters, shaped like ``metadata["obs"]``."""
        snap = self.registry.snapshot()
        snap["counters"].update(result_cache_counters(self.cache))
        return snap

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Batch manifests (JSONL)
# ---------------------------------------------------------------------------


def _aggregate_dmav(jobs) -> dict | None:
    """Batch-level DMAV plan/arena summary from fresh runs' obs metadata.

    Result-cache hits reuse a prior run's state and carry no obs, so only
    jobs whose result was freshly produced contribute.  Counters sum
    across runs; the arena gauge peaks (each run owns its own arena).
    """
    hits = compiles = runs = 0
    arena_peak = 0.0
    for job in jobs:
        result = job.result
        if result is None or result.cache_hit:
            continue
        obs = result.metadata.get("obs")
        if not obs:
            continue
        counters = obs.get("counters", {})
        if "dmav.plan.hits" not in counters:
            continue
        hits += counters.get("dmav.plan.hits", 0)
        compiles += counters.get("dmav.plan.compiles", 0)
        gauge = obs.get("gauges", {}).get("dmav.arena.bytes")
        if gauge:
            arena_peak = max(arena_peak, gauge.get("max", gauge.get("value", 0.0)))
        runs += 1
    if runs == 0:
        return None
    return {
        "plan_hits": hits,
        "plan_compiles": compiles,
        "arena_bytes_peak": int(arena_peak),
        "runs": runs,
    }


def load_manifest(path: str) -> list[dict]:
    """Parse a JSONL manifest into entry dicts (with ``_line`` numbers)."""
    entries: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ServeError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(entry, dict):
                raise ServeError(
                    f"{path}:{lineno}: expected a JSON object, "
                    f"got {type(entry).__name__}"
                )
            unknown = set(entry) - _JOB_KEYS - _SOURCE_KEYS - _META_KEYS
            if unknown:
                raise ServeError(
                    f"{path}:{lineno}: unknown manifest key(s) "
                    f"{sorted(unknown)}"
                )
            entry["_line"] = lineno
            entries.append(entry)
    return entries


def _circuit_from_entry(entry: dict, base_dir: str) -> Circuit:
    line = entry.get("_line", "?")
    if "qasm" in entry:
        return parse_qasm(
            entry["qasm"], name=entry.get("name", f"manifest:{line}")
        )
    if "qasm_file" in entry:
        qasm_path = entry["qasm_file"]
        if not os.path.isabs(qasm_path):
            qasm_path = os.path.join(base_dir, qasm_path)
        with open(qasm_path, "r", encoding="utf-8") as fh:
            return parse_qasm(fh.read(), name=entry.get("name", qasm_path))
    if "family" in entry:
        if "qubits" not in entry:
            raise ServeError(f"manifest line {line}: 'family' needs 'qubits'")
        kwargs = dict(entry.get("kwargs", {}))
        if "seed" in entry:
            kwargs["seed"] = entry["seed"]
        return get_circuit(entry["family"], entry["qubits"], **kwargs)
    raise ServeError(
        f"manifest line {line}: need one of 'family', 'qasm', 'qasm_file'"
    )


def jobs_from_manifest(
    entries: list[dict],
    config: ServeConfig,
    base_dir: str = ".",
    flatdd_config: FlatDDConfig | None = None,
) -> list[Job]:
    """Materialize manifest entries into jobs (expanding ``repeat``)."""
    jobs: list[Job] = []
    for entry in entries:
        line = entry.get("_line", "?")
        repeat = int(entry.get("repeat", 1))
        if repeat < 1:
            raise ServeError(f"manifest line {line}: repeat must be >= 1")
        circuit = _circuit_from_entry(entry, base_dir)
        job_config = _entry_config(entry, config, circuit, flatdd_config)
        param_sets = entry.get("param_sets")
        if param_sets is not None:
            if not isinstance(param_sets, list) or not all(
                isinstance(row, (list, tuple)) for row in param_sets
            ):
                raise ServeError(
                    f"manifest line {line}: param_sets must be a list of "
                    "parameter rows"
                )
            param_sets = [
                tuple(float(x) for x in row) for row in param_sets
            ]
        for copy in range(repeat):
            job_id = entry.get("job_id", "")
            if not job_id and isinstance(line, int):
                # Deterministic manifest-derived id: crash recovery must
                # match journal records to jobs *across processes*, so ids
                # cannot depend on in-process submission order.
                job_id = f"m{line:04d}"
            if job_id and repeat > 1:
                job_id = f"{job_id}.{copy}"
            jobs.append(
                Job(
                    circuit=circuit,
                    backend=entry.get("backend", config.backend),
                    config=job_config,
                    shots=int(entry.get("shots", 0)),
                    sample_seed=int(entry.get("sample_seed", 0)) + copy,
                    param_sets=param_sets,
                    priority=int(entry.get("priority", 0)),
                    deadline_seconds=entry.get("deadline_seconds"),
                    max_retries=int(
                        entry.get("max_retries", config.max_retries)
                    ),
                    job_id=job_id,
                )
            )
    return jobs


def _entry_config(
    entry: dict,
    config: ServeConfig,
    circuit: Circuit,
    flatdd_config: FlatDDConfig | None,
) -> FlatDDConfig | None:
    """Per-job FlatDD config from manifest overrides.

    A ``qubit_order`` manifest key overrides the batch-wide
    ``flatdd_config`` (or the service defaults) for one entry.  It
    participates in the config digest, so jobs that only differ in order
    get distinct cache keys.
    """
    qubit_order = entry.get("qubit_order")
    if qubit_order is None:
        return flatdd_config
    from repro.serve.workers import clamp_threads

    base = flatdd_config or FlatDDConfig(
        threads=clamp_threads(config.threads, circuit.num_qubits)
    )
    try:
        return dataclasses.replace(base, qubit_order=str(qubit_order))
    except ValueError as exc:
        line = entry.get("_line", "?")
        raise ServeError(f"manifest line {line}: {exc}") from exc


def run_manifest(
    path: str,
    config: ServeConfig | None = None,
    tracer=None,
    service: SimulationService | None = None,
    journal_path: str | None = None,
    resume: bool = False,
    journal_fsync: bool | None = None,
) -> tuple[ServeReport, list[Job]]:
    """Run a JSONL manifest end to end; returns (report, jobs).

    Materializes the manifest into jobs, then delegates to
    :func:`run_jobs` (which owns journaling, resume, and draining).
    """
    cfg = config or ServeConfig()
    entries = load_manifest(path)
    jobs = jobs_from_manifest(
        entries, cfg, base_dir=os.path.dirname(os.path.abspath(path))
    )
    return run_jobs(
        jobs,
        config=cfg,
        tracer=tracer,
        service=service,
        journal_path=journal_path,
        resume=resume,
        journal_fsync=journal_fsync,
    )


def run_jobs(
    jobs: list[Job],
    config: ServeConfig | None = None,
    tracer=None,
    service: SimulationService | None = None,
    journal_path: str | None = None,
    resume: bool = False,
    journal_fsync: bool | None = None,
) -> tuple[ServeReport, list[Job]]:
    """Submit prebuilt jobs and drain them; returns (report, jobs).

    The core of :func:`run_manifest`, callable with :class:`Job` objects
    directly (the chaos harness builds jobs itself so it can attach
    transition observers before execution).  Creates (and closes) a
    service unless one is passed in.  Rejected submissions surface in
    the report's admission counts instead of aborting the batch: the
    accepted jobs still run.

    ``journal_path`` write-ahead-logs every job-state transition (JSONL,
    see :mod:`repro.serve.journal`); ``journal_fsync`` selects the
    fsync-per-record durability policy (None defers to
    ``config.journal_fsync``).  With ``resume=True`` an existing journal
    is replayed first: DONE jobs seed the result cache (they complete as
    cache hits, zero re-execution), PENDING/RUNNING jobs simply re-run,
    and the report carries a recovery summary.  The journal is opened
    for append on resume, so a crash-resume-crash sequence keeps
    converging.
    """
    cfg = config or ServeConfig()
    recovery = None
    journal = None
    own_service = service is None
    svc = service or SimulationService(cfg, tracer=tracer)
    if journal_path is not None:
        if resume:
            # A process fleet leaves one broker journal plus per-worker
            # segments; merge every surviving segment so a result the
            # broker never saw (worker journaled DONE, then the whole
            # fleet was SIGKILLed) still seeds the cache.
            segments = journal_segments(journal_path)
            if len(segments) > 1:
                recovery = replay_journal(segments)
            elif segments:
                recovery = replay_journal(journal_path)
        journal = JobJournal(
            journal_path,
            resume=resume,
            fsync=(
                cfg.journal_fsync if journal_fsync is None else journal_fsync
            ),
            registry=svc.registry,
        )
    try:
        cache_seeded = 0
        if recovery is not None:
            for job_id, record in recovery.done_payloads.items():
                key = record.get("cache_key")
                if not key or "state_b64" not in record or key in svc.cache:
                    continue
                svc.cache.put(
                    key,
                    recovery.decode_state(job_id),
                    float(record.get("runtime_seconds", 0.0)),
                    metadata={
                        "backend": record.get("backend", ""),
                        "producer": job_id,
                        "journal_resume": True,
                    },
                )
                cache_seeded += 1
            _log.info(
                "resume: replayed %d journal record(s), seeded %d cached "
                "result(s)", recovery.total_records, cache_seeded,
            )
        for job in jobs:
            accepted, reason = svc.queue.try_submit(job)
            if accepted:
                svc._jobs[job.job_id] = job
                svc.registry.counter("serve.jobs.submitted").inc()
                if journal is not None:
                    journal.attach(job)
            else:
                _log.warning(
                    "manifest job %s rejected: %s",
                    job.job_id or job.circuit.name, reason,
                )
        report = svc.drain()
        if recovery is not None:
            report.recovery = dict(
                recovery.summary(), cache_seeded=cache_seeded
            )
        return report, jobs
    finally:
        if journal is not None:
            journal.close()
        if own_service:
            svc.close()
