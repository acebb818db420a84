"""Command-line interface.

Examples::

    python -m repro families
    python -m repro simulate --family supremacy --qubits 12 --threads 4
    python -m repro simulate circuit.qasm --backend ddsim --shots 1000
    python -m repro simulate --family supremacy --qubits 12 \\
        --trace trace.json --profile
    python -m repro compare --family dnn --qubits 12
    python -m repro equivalence a.qasm b.qasm
    python -m repro fuzz --seed 0 --iterations 50
    python -m repro fuzz --plant-bug t-phase --out-dir /tmp/fuzz_demo
    python -m repro serve batch.jsonl --threads 4 --json
    python -m repro serve batch.jsonl --processes 4 --journal wal.jsonl
    python -m repro serve batch.jsonl --plant-bug transient-crash
    python -m repro serve batch.jsonl --telemetry tele.jsonl \\
        --prometheus metrics.prom --trace batch.json
    python -m repro chaos --seed 0 --iterations 25
    python -m repro chaos --plant-bug respawn-accounting --out-dir /tmp/chaos
    python -m repro report tele.jsonl
    python -m repro bench-compare BENCH_a.json BENCH_b.json --threshold 0.2

``--trace out.json`` writes a Chrome trace-event file (open in Perfetto
or ``chrome://tracing``); ``--profile`` prints the per-phase breakdown;
``-v``/``-vv`` turn on INFO/DEBUG logging from the ``repro`` logger.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from repro import __version__
from repro.backends import DDSimulator, StatevectorSimulator
from repro.circuits import CIRCUIT_FAMILIES, Circuit, get_circuit, parse_qasm
from repro.common.errors import (
    CheckpointError,
    ReproError,
    ResourceExhaustedError,
)
from repro.core import FlatDDSimulator
from repro.obs import Tracer, format_summary_table, write_chrome_trace
from repro.sampling import sample_counts
from repro.verify import check_equivalence

__all__ = ["main", "build_parser"]

_log = logging.getLogger("repro.cli")


def _configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the library-wide ``repro`` logger.

    Verbosity 0 shows warnings/errors only; 1 adds INFO; 2+ adds DEBUG.
    Re-invocations (tests call :func:`main` repeatedly) replace the
    previous CLI handler instead of stacking duplicates.
    """
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler._repro_cli = True
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    level = (
        logging.WARNING if verbosity <= 0
        else logging.INFO if verbosity == 1
        else logging.DEBUG
    )
    logger.setLevel(level)


def _load_circuit(args: argparse.Namespace) -> Circuit:
    if args.qasm_file:
        with open(args.qasm_file, "r", encoding="utf-8") as fh:
            return parse_qasm(fh.read(), name=args.qasm_file)
    if not args.family:
        raise ReproError("provide a QASM file or --family/--qubits")
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return get_circuit(args.family, args.qubits, **kwargs)


def _make_simulator(args: argparse.Namespace):
    if args.backend == "flatdd":
        return FlatDDSimulator(
            threads=args.threads,
            fusion=args.fusion,
            memory_budget_bytes=getattr(args, "memory_budget", None),
            force_convert_at=getattr(args, "force_convert_at", None),
            identity_skip=not getattr(args, "no_identity_skip", False),
            qubit_order=getattr(args, "qubit_order", "natural"),
        )
    if args.backend == "ddsim":
        return DDSimulator()
    if args.backend == "quantumpp":
        return StatevectorSimulator(threads=args.threads)
    raise ReproError(f"unknown backend {args.backend!r}")


def _add_circuit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("qasm_file", nargs="?", help="OpenQASM 2.0 file")
    p.add_argument("--family", help="generator family (see 'families')")
    p.add_argument("--qubits", type=int, default=8)
    p.add_argument("--seed", type=int, default=None,
                   help="generator seed (random families)")


def _add_dd_shrink_args(p: argparse.ArgumentParser) -> None:
    """DD-phase shrinking flags shared by simulate/sweep/compare."""
    p.add_argument("--qubit-order", default="natural",
                   choices=["natural", "interaction", "sift"],
                   help="DD-phase variable order (flatdd only): "
                        "'interaction' places frequently interacting "
                        "qubits adjacent; 'sift' refines that order by "
                        "local search; conversion restores canonical "
                        "amplitude order (docs/PERFORMANCE.md)")
    p.add_argument("--no-identity-skip", action="store_true",
                   help="build full-height gate DDs instead of "
                        "identity-skipped windows (flatdd only; "
                        "bit-identical performance ablation)")


def cmd_families(args: argparse.Namespace) -> int:
    for name in sorted(CIRCUIT_FAMILIES):
        print(name)
    return 0


def _make_tracer(args: argparse.Namespace) -> Tracer | None:
    """One tracer per run when --trace or --profile asked for one."""
    if getattr(args, "trace", None) or getattr(args, "profile", False):
        return Tracer()
    return None


def _backend_trace_path(path: str, backend: str) -> str:
    """Insert the backend name before the extension ('t.json' -> 't.flatdd.json')."""
    stem, ext = os.path.splitext(path)
    return f"{stem}.{backend}{ext or '.json'}"


def cmd_simulate(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args)
    sim = _make_simulator(args)
    tracer = _make_tracer(args)
    run_kwargs: dict = {"tracer": tracer}
    resilience_flags = (
        args.checkpoint_every, args.checkpoint, args.resume_from,
        args.memory_budget,
    )
    if any(flag is not None for flag in resilience_flags):
        if args.backend != "flatdd":
            raise ReproError(
                "--checkpoint/--resume-from/--memory-budget require the "
                "flatdd backend"
            )
        if args.checkpoint_every is not None and args.checkpoint is None:
            raise ReproError("--checkpoint-every requires --checkpoint PATH")
        run_kwargs.update(
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint,
            resume_from=args.resume_from,
        )
    _log.info(
        "simulating %s (%d qubits, %d gates) on %s",
        circuit.name, circuit.num_qubits, len(circuit.gates), sim.name,
    )
    result = sim.run(circuit, **run_kwargs)
    payload = {
        "circuit": circuit.name,
        "qubits": circuit.num_qubits,
        "gates": len(circuit.gates),
        "backend": result.backend,
        "runtime_seconds": round(result.runtime_seconds, 6),
        "peak_memory_mb": round(result.peak_memory_mb, 3),
    }
    if "conversion_gate_index" in result.metadata:
        payload["converted_at"] = result.metadata["conversion_gate_index"]
    if result.metadata.get("resumed"):
        payload["resumed_from"] = args.resume_from
    if result.metadata.get("checkpoints_written"):
        payload["checkpoints_written"] = result.metadata["checkpoints_written"]
    if args.shots:
        counts = sample_counts(
            result.state, args.shots, np.random.default_rng(args.sample_seed)
        )
        payload["counts"] = dict(counts.most_common(args.top))
    else:
        probs = result.probabilities()
        top = probs.argsort()[::-1][: args.top]
        payload["top_outcomes"] = {
            format(int(i), f"0{circuit.num_qubits}b"): round(float(probs[i]), 8)
            for i in top
        }
    if args.json:
        obs = result.metadata.get("obs")
        if obs is not None:
            payload["obs"] = {
                "counters": obs.get("counters", {}),
                "gauges": obs.get("gauges", {}),
            }
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    if tracer is not None:
        if args.trace:
            events = write_chrome_trace(args.trace, tracer)
            _log.info("wrote %d trace events to %s", events, args.trace)
        if args.profile:
            print()
            print(format_summary_table(tracer, result.runtime_seconds))
    return 0


def _load_param_rows(path: str) -> list[tuple]:
    """Parameter rows from a JSON array-of-arrays or JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = [
            json.loads(line)
            for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
    if not isinstance(doc, list) or not all(
        isinstance(row, list) for row in doc
    ):
        raise ReproError(
            f"{path}: expected a JSON array of parameter rows "
            "(or JSONL, one row per line)"
        )
    return [tuple(float(x) for x in row) for row in doc]


def cmd_sweep(args: argparse.Namespace) -> int:
    """Batched parameter sweep (``simulate_sweep``) of one template."""
    circuit = _load_circuit(args)
    if (args.params is None) == (args.points is None):
        raise ReproError("provide exactly one of --params FILE or --points N")
    if args.params is not None:
        rows = _load_param_rows(args.params)
    else:
        if args.points < 1:
            raise ReproError("--points must be >= 1")
        rng = np.random.default_rng(args.sweep_seed)
        slots = circuit.num_param_slots
        rows = [
            tuple(rng.uniform(-np.pi, np.pi, slots))
            for _ in range(args.points)
        ]
    sim = FlatDDSimulator(
        threads=args.threads,
        fusion=args.fusion,
        memory_budget_bytes=args.memory_budget,
        force_convert_at=args.force_convert_at,
        identity_skip=not args.no_identity_skip,
        qubit_order=args.qubit_order,
    )
    _log.info(
        "sweeping %s (%d qubits, %d gates) over %d row(s) on %s",
        circuit.name, circuit.num_qubits, len(circuit.gates), len(rows),
        sim.name,
    )
    result = sim.simulate_sweep(
        circuit, rows, checkpoint_path=args.checkpoint
    )
    runtime = result.runtime_seconds
    payload = {
        "circuit": circuit.name,
        "qubits": circuit.num_qubits,
        "gates": len(circuit.gates),
        "backend": result.backend,
        "rows": result.num_rows,
        "unique_rows": result.metadata.get("unique_rows"),
        "groups": result.metadata.get("groups"),
        "mode": result.metadata.get("mode"),
        "runtime_seconds": round(runtime, 6),
        "rows_per_second": round(result.num_rows / runtime, 3)
        if runtime else 0.0,
        "peak_memory_mb": round(
            result.peak_memory_bytes / (1024 * 1024), 3
        ),
    }
    if args.json:
        obs = result.metadata.get("obs")
        if obs is not None:
            payload["obs"] = {
                "counters": obs.get("counters", {}),
                "gauges": obs.get("gauges", {}),
            }
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args)
    rows = []
    reference = None
    for backend in ("flatdd", "quantumpp", "ddsim"):
        args.backend = backend
        sim = _make_simulator(args)
        tracer = _make_tracer(args)
        run_kwargs = {"tracer": tracer}
        if backend in ("flatdd", "ddsim") and args.timeout:
            run_kwargs["max_seconds"] = args.timeout
        _log.info("running %s on %s", circuit.name, sim.name)
        result = sim.run(circuit, **run_kwargs)
        fidelity = None
        if reference is None:
            reference = result
        elif not result.metadata.get("timed_out"):
            fidelity = result.fidelity(reference)
        if tracer is not None and args.trace:
            path = _backend_trace_path(args.trace, backend)
            events = write_chrome_trace(path, tracer)
            _log.info("wrote %d trace events to %s", events, path)
        rows.append((result, fidelity, tracer))
    print(f"{circuit.name}: {circuit.num_qubits} qubits, "
          f"{len(circuit.gates)} gates")
    print(f"{'backend':24s} {'runtime (s)':>12s} {'mem (MB)':>10s} "
          f"{'fidelity':>10s}")
    for result, fidelity, _tracer in rows:
        timed_out = result.metadata.get("timed_out")
        runtime = (f"> {args.timeout:g}" if timed_out
                   else f"{result.runtime_seconds:.3f}")
        fid = "-" if fidelity is None else f"{fidelity:.8f}"
        print(f"{result.backend:24s} {runtime:>12s} "
              f"{result.peak_memory_mb:>10.2f} {fid:>10s}")
    if args.profile:
        for result, _fidelity, tracer in rows:
            print()
            print(f"-- {result.backend} --")
            print(format_summary_table(tracer, result.runtime_seconds))
    return 0


def _report_trace_file(path: str) -> int:
    """Summarize one telemetry/trace artifact as a terminal table.

    Accepts a TelemetrySampler JSONL time series, a tracer JSONL event
    stream, or a Chrome trace-event JSON file; picks by content, not
    extension, so renamed artifacts still work.
    """
    from repro.obs import format_summary_table, format_telemetry_report
    from repro.obs.telemetry import load_telemetry
    from repro.obs.tracer import Span, Tracer

    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(4096).lstrip()
    if head.startswith("{") and '"traceEvents"' in head:
        # Chrome trace: rebuild the spans and reuse the --profile table.
        with open(path, "r", encoding="utf-8") as fh:
            events = json.load(fh).get("traceEvents", [])
        tracer = Tracer()
        for e in events:
            if e.get("ph") != "X":
                continue
            tracer.spans.append(
                Span(
                    name=e.get("name", "?"),
                    category=e.get("cat", "span"),
                    start=e.get("ts", 0.0) / 1e6,
                    duration=e.get("dur", 0.0) / 1e6,
                    thread_id=e.get("tid", 0),
                    args=e.get("args") or None,
                )
            )
        job_spans = [s for s in tracer.spans if s.category == "job"]
        print(f"trace {path}: {len(tracer.spans)} span(s), "
              f"{len(job_spans)} job-tree span(s)")
        print(format_summary_table(tracer, tracer.wall_seconds()))
        return 0
    try:
        records = load_telemetry(path)
    except ValueError as exc:
        raise ReproError(
            f"{path}: not a telemetry/trace file ({exc})"
        ) from exc
    if records and "counters" in records[0]:
        print(format_telemetry_report(records, path))
        return 0
    # Tracer JSONL: reuse the phase table via reconstructed spans.
    tracer = Tracer()
    for r in records:
        if r.get("type") != "span":
            continue
        tracer.spans.append(
            Span(
                name=r.get("name", "?"),
                category=r.get("cat", "span"),
                start=r.get("ts", 0.0),
                duration=r.get("dur", 0.0),
                thread_id=r.get("tid", 0),
                depth=r.get("depth", 0),
                args=r.get("args") or None,
            )
        )
    print(f"trace {path}: {len(tracer.spans)} span(s)")
    print(format_summary_table(tracer, tracer.wall_seconds()))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Summarize a trace/telemetry file, or concatenate bench results."""
    import glob

    if args.trace_file:
        return _report_trace_file(args.trace_file)
    results_dir = args.results_dir
    files = sorted(glob.glob(os.path.join(results_dir, "*.txt")))
    if not files:
        _log.error(
            "no result files under %s; run "
            "`pytest benchmarks/ --benchmark-only` first",
            results_dir,
        )
        return 1
    sections = []
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            sections.append(fh.read().rstrip())
    report = (
        "FlatDD reproduction: experiment report\n"
        + "#" * 46 + "\n\n"
        + "\n\n".join(sections)
        + "\n"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {len(files)} experiment sections to {args.output}")
    else:
        print(report, end="")
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    from repro.circuits import summarize

    circuit = _load_circuit(args)
    s = summarize(circuit)
    print(f"circuit:           {circuit.name}")
    print(f"qubits:            {s.num_qubits}")
    print(f"gates:             {s.num_gates}")
    print(f"depth:             {s.depth}")
    print(f"two-qubit gates:   {s.two_qubit_gates} "
          f"({100 * s.two_qubit_fraction:.1f}%)")
    print(f"entangling depth:  {s.entangling_depth}")
    print(f"parallelism:       {s.parallelism:.2f} gates/layer")
    print("gate counts:       "
          + ", ".join(f"{k}={v}" for k, v in sorted(s.gate_counts.items())))
    return 0


def cmd_transpile(args: argparse.Namespace) -> int:
    from repro.circuits import decompose, to_qasm

    circuit = _load_circuit(args)
    out, phase = decompose(circuit)
    text = to_qasm(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(out)} gates to {args.output} "
              f"(global phase {phase:.6f})")
    else:
        print(text, end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a JSONL batch manifest through the simulation service."""
    from repro.common.config import ServeConfig
    from repro.serve import run_manifest
    from repro.verify.fuzz import plant_fault

    config = ServeConfig(
        backend=args.backend,
        threads=args.threads,
        workers=args.workers,
        use_thread_pool=args.workers > 1 and args.thread_pool,
        queue_capacity=args.queue_capacity,
        max_qubits=args.max_qubits,
        default_deadline_seconds=args.deadline,
        max_retries=args.max_retries,
        cache_max_entries=args.cache_entries,
    )
    if args.resume and not args.journal:
        raise ReproError("--resume requires --journal PATH")
    if args.journal_fsync and not args.journal:
        raise ReproError("--journal-fsync requires --journal PATH")
    tracer = _make_tracer(args)
    service = sampler = None
    if args.processes > 0:
        import signal

        from repro.cluster.broker import ClusterService

        service = ClusterService(
            config, tracer=tracer, processes=args.processes,
            journal_path=args.journal,
        )

        def _graceful_drain(signum, frame):
            _log.warning(
                "SIGTERM: draining the fleet (in-flight jobs finish, the "
                "rest stay journaled for --resume)"
            )
            service.request_drain()

        try:
            signal.signal(signal.SIGTERM, _graceful_drain)
        except ValueError:  # pragma: no cover - not the main thread
            pass
    if args.telemetry or args.prometheus:
        from repro.obs import TelemetrySampler
        from repro.serve import SimulationService

        if service is None:
            service = SimulationService(config, tracer=tracer)
        sampler = TelemetrySampler(
            service.registry,
            jsonl_path=args.telemetry,
            interval_seconds=args.telemetry_interval,
            prometheus_path=args.prometheus,
        ).start()
    try:
        with plant_fault(args.plant_bug):
            report, _jobs = run_manifest(
                args.manifest, config=config, tracer=tracer,
                service=service,
                journal_path=args.journal, resume=args.resume,
                journal_fsync=args.journal_fsync or None,
            )
    finally:
        if sampler is not None:
            sampler.stop()
            _log.info(
                "telemetry: %d sample(s)%s%s", sampler.samples_taken,
                f" -> {args.telemetry}" if args.telemetry else "",
                f", prometheus -> {args.prometheus}" if args.prometheus
                else "",
            )
        if service is not None:
            service.close()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
        failed = [
            row for row in report.job_rows
            if row["state"] in ("FAILED", "TIMEOUT")
        ]
        for row in failed:
            print(
                f"  {row['state']} {row['job_id']} ({row['circuit']}): "
                f"{row['error']}"
            )
    if tracer is not None:
        if args.trace:
            events = write_chrome_trace(args.trace, tracer)
            _log.info("wrote %d trace events to %s", events, args.trace)
        if args.profile:
            print()
            print(format_summary_table(tracer, report.elapsed_seconds))
    return 0 if report.ok else 1


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Compare two BENCH_*.json records; non-zero exit on regression."""
    from repro.bench.registry import compare_records, load_bench_record

    try:
        baseline = load_bench_record(args.baseline)
        current = load_bench_record(args.current)
    except (ValueError, json.JSONDecodeError) as exc:
        raise ReproError(f"bad benchmark record: {exc}") from exc
    per_metric: dict[str, float] = {}
    for spec in args.metric_threshold or []:
        name, sep, value = spec.partition("=")
        try:
            fraction = float(value)
        except ValueError:
            sep = ""
        if not sep:
            raise ReproError(
                f"--metric-threshold takes NAME=FRACTION, got {spec!r}"
            )
        per_metric[name] = fraction
    comparison = compare_records(
        baseline, current,
        threshold=args.threshold,
        per_metric_threshold=per_metric,
    )
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2))
    else:
        print(comparison.format_text())
    if args.report_only:
        return 0
    return 0 if comparison.ok else 1


def cmd_equivalence(args: argparse.Namespace) -> int:
    with open(args.file1, "r", encoding="utf-8") as fh:
        c1 = parse_qasm(fh.read(), name=args.file1)
    with open(args.file2, "r", encoding="utf-8") as fh:
        c2 = parse_qasm(fh.read(), name=args.file2)
    result = check_equivalence(c1, c2, strategy=args.strategy)
    verdict = "EQUIVALENT" if result.equivalent else "NOT EQUIVALENT"
    print(f"{verdict} (method={result.method}, "
          f"peak miter nodes={result.peak_nodes})")
    if result.equivalent and abs(result.phase - 1.0) > 1e-9:
        print(f"global phase: {result.phase:.6f}")
    return 0 if result.equivalent else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential/metamorphic fuzz campaign (see docs/TESTING.md)."""
    from repro.verify.fuzz import ORACLES, REGIMES, run_campaign

    if args.list_oracles:
        for name, (family, _fn) in ORACLES.items():
            print(f"{name:32s} {family}")
        return 0
    regimes = tuple(args.regimes.split(",")) if args.regimes else None
    oracles = args.oracles.split(",") if args.oracles else None
    tracer = _make_tracer(args)
    result = run_campaign(
        seed=args.seed,
        iterations=args.iterations,
        budget_seconds=args.budget_seconds,
        regimes=regimes,
        oracles=oracles,
        max_qubits=args.max_qubits,
        max_gates=args.max_gates,
        threads=args.threads,
        shrink=not args.no_shrink,
        out_dir=None if args.no_persist else args.out_dir,
        plant_bug=args.plant_bug,
        tracer=tracer,
    )
    if args.json:
        print(json.dumps(result.summary_dict(), indent=2))
    else:
        checks = sum(result.oracle_runs.values())
        print(
            f"fuzz: seed={result.seed} iterations={result.iterations} "
            f"oracle checks={checks} violations={len(result.violations)} "
            f"({result.seconds:.1f}s"
            + (", stopped by budget)" if result.stopped_by_budget else ")")
        )
        for name in result.oracle_runs:
            tier = result.worst_tier.get(name, "-")
            print(
                f"  {name:32s} runs={result.oracle_runs[name]:5d} "
                f"worst tier={tier}"
            )
        for v in result.violations:
            where = v.regression_path or "(not persisted)"
            print(
                f"  VIOLATION iter={v.iteration} oracle={v.outcome.oracle} "
                f"max_error={v.outcome.max_error:.3g} "
                f"shrunk {v.original_gates} -> {v.shrunk_gates} gates "
                f"on {v.shrunk_qubits} qubits -> {where}"
            )
    if tracer is not None:
        if args.trace:
            events = write_chrome_trace(args.trace, tracer)
            _log.info("wrote %d trace events to %s", events, args.trace)
        if args.profile:
            print()
            print(format_summary_table(tracer, result.seconds))
    return 0 if result.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos campaign against the process fleet (docs/RESILIENCE.md)."""
    from repro.chaos import REGIMES, load_schedule, run_chaos_campaign

    if args.list_faults:
        for name, kinds in sorted(REGIMES.items()):
            print(f"{name:12s} {' '.join(kinds)}")
        return 0
    regimes = args.regimes.split(",") if args.regimes else None
    if regimes:
        for name in regimes:
            if name not in REGIMES:
                raise ReproError(
                    f"unknown chaos regime {name!r} "
                    f"(have {sorted(REGIMES)})"
                )
    schedule = load_schedule(args.schedule) if args.schedule else None
    try:
        result = run_chaos_campaign(
            seed=args.seed,
            iterations=1 if schedule is not None else args.iterations,
            processes=args.processes,
            regimes=regimes,
            schedule=schedule,
            shrink=not args.no_shrink,
            out_dir=args.out_dir,
            plant_bug=args.plant_bug,
            time_budget=args.time_budget,
            progress=None if args.json else print,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    if args.json:
        print(json.dumps(result.summary_dict(), indent=2))
    else:
        print(result.format_text())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlatDD reproduction: hybrid DD/flat-array quantum "
        "circuit simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr via the 'repro' logger (-v INFO, -vv DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="list circuit generator families")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("simulate", help="simulate one circuit")
    _add_circuit_args(p)
    p.add_argument("--backend", default="flatdd",
                   choices=["flatdd", "ddsim", "quantumpp"])
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--fusion", default="none",
                   choices=["none", "cost", "koperations"])
    p.add_argument("--shots", type=int, default=0,
                   help="sample this many bitstrings instead of listing "
                        "exact top outcomes")
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome trace-event JSON of the run "
                        "(open in Perfetto / chrome://tracing)")
    p.add_argument("--profile", action="store_true",
                   help="print a per-phase timing breakdown")
    _add_dd_shrink_args(p)
    p.add_argument("--force-convert-at", type=int, default=None,
                   metavar="GATE",
                   help="force DD-to-array conversion right after this "
                        "gate index instead of waiting for the EWMA "
                        "trigger (flatdd only)")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="rolling snapshot file (flatdd only; see "
                        "docs/RESILIENCE.md)")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="write the snapshot every N applied gates")
    p.add_argument("--resume-from", metavar="PATH", default=None,
                   help="continue bit-identically from a snapshot file")
    p.add_argument("--memory-budget", type=int, default=None,
                   help="memory budget in bytes (flatdd only): DD-phase "
                        "breach converts early, array-phase breach "
                        "checkpoints and exits with code 3")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep",
        help="batched parameter sweep of one circuit template "
             "(flatdd simulate_sweep; see docs/PERFORMANCE.md)",
    )
    _add_circuit_args(p)
    p.add_argument("--params", metavar="PATH", default=None,
                   help="JSON array (or JSONL) of parameter rows binding "
                        "the template's parameter slots")
    p.add_argument("--points", type=int, default=None, metavar="N",
                   help="generate N random rows uniform in [-pi, pi) "
                        "instead of --params")
    p.add_argument("--sweep-seed", type=int, default=0,
                   help="rng seed for --points row generation")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--fusion", default="none",
                   choices=["none", "cost", "koperations"])
    _add_dd_shrink_args(p)
    p.add_argument("--force-convert-at", type=int, default=None,
                   metavar="GATE",
                   help="force DD-to-array conversion right after this "
                        "gate index instead of waiting for the EWMA "
                        "trigger")
    p.add_argument("--memory-budget", type=int, default=None,
                   help="memory budget in bytes; a mid-sweep breach "
                        "checkpoints (with --checkpoint) and exits "
                        "with code 3")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="write the diagnostic sweep snapshot here on a "
                        "memory-budget breach")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="run all three backends")
    _add_circuit_args(p)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--fusion", default="none",
                   choices=["none", "cost", "koperations"])
    _add_dd_shrink_args(p)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--trace", metavar="PATH",
                   help="write one Chrome trace per backend "
                        "(PATH gets the backend name inserted)")
    p.add_argument("--profile", action="store_true",
                   help="print a per-phase breakdown per backend")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "report",
        help="summarize a trace/telemetry file, or collect benchmark "
             "result tables into one report",
    )
    p.add_argument(
        "trace_file", nargs="?", default=None,
        help="telemetry JSONL, tracer JSONL, or Chrome trace file to "
             "summarize as a terminal table (omit to collect benchmark "
             "results instead)",
    )
    p.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory with the per-experiment .txt outputs",
    )
    p.add_argument("--output", "-o", help="write the report here")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench-compare",
        help="diff two BENCH_*.json benchmark records; exits non-zero "
             "on a regression beyond the threshold",
    )
    p.add_argument("baseline", help="baseline BENCH_*.json record")
    p.add_argument("current", help="current BENCH_*.json record")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="allowed relative worsening per metric "
                        "(default 0.10 = 10%%)")
    p.add_argument("--metric-threshold", action="append", metavar="NAME=F",
                   help="per-metric override, e.g. "
                        "elapsed_seconds=0.25 (repeatable)")
    p.add_argument("--report-only", action="store_true",
                   help="always exit 0: print the comparison but do not "
                        "gate (CI report mode)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench_compare)

    p = sub.add_parser("summarize", help="circuit structure summary")
    _add_circuit_args(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser(
        "transpile", help="decompose to the {u3,p,rz,ry,cx} basis"
    )
    _add_circuit_args(p)
    p.add_argument("--output", "-o", help="write QASM here (default stdout)")
    p.set_defaults(func=cmd_transpile)

    p = sub.add_parser(
        "fuzz",
        help="randomized differential/metamorphic correctness campaign",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (every iteration derives from it)")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="stop after this much wall time even if iterations "
                        "remain")
    p.add_argument("--regimes", metavar="A,B,...",
                   help="restrict circuit regimes (default: all; see "
                        "docs/TESTING.md)")
    p.add_argument("--oracles", metavar="A,B,...",
                   help="restrict oracles (default: all)")
    p.add_argument("--list-oracles", action="store_true",
                   help="print the oracle catalog and exit")
    p.add_argument("--max-qubits", type=int, default=6)
    p.add_argument("--max-gates", type=int, default=60)
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--no-shrink", action="store_true",
                   help="keep failing circuits unminimized")
    p.add_argument("--out-dir", default="tests/data/fuzz_regressions",
                   help="where shrunk failing cases land as replayable "
                        "JSON files")
    p.add_argument("--no-persist", action="store_true",
                   help="report violations without writing regression files")
    p.add_argument("--plant-bug", metavar="NAME", default=None,
                   help="install a named fault (t-phase, swap-noop, "
                        "conversion-drop) to demo the harness end to end")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome trace-event JSON of the campaign")
    p.add_argument("--profile", action="store_true",
                   help="print the per-phase/oracle timing breakdown")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "chaos",
        help="seeded chaos-injection campaign against the process fleet "
             "(fault schedules + self-healing invariant checks; see "
             "docs/RESILIENCE.md)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (every iteration's schedule "
                        "derives from it)")
    p.add_argument("--iterations", type=int, default=25)
    p.add_argument("--schedule", metavar="PATH", default=None,
                   help="replay one fault schedule from JSON instead of "
                        "drawing seeded schedules")
    p.add_argument("--regimes", metavar="A,B,...",
                   help="restrict fault regimes (transport, process, "
                        "disk, mixed; default: all)")
    p.add_argument("--list-faults", action="store_true",
                   help="print the fault vocabulary per regime and exit")
    p.add_argument("--processes", type=int, default=2,
                   help="worker fleet size under test")
    p.add_argument("--time-budget", type=float, default=60.0,
                   metavar="SECONDS",
                   help="per-iteration recovery deadline; exceeding it is "
                        "an invariant violation")
    p.add_argument("--no-shrink", action="store_true",
                   help="keep failing schedules unminimized")
    p.add_argument("--out-dir", default=None, metavar="DIR",
                   help="write failing schedules (original and shrunk) "
                        "here as replayable JSON")
    p.add_argument("--plant-bug", metavar="NAME", default=None,
                   help="install a named recovery bug (respawn-accounting, "
                        "resume-reexecute) to demo the harness end to end")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="run a JSONL batch manifest through the simulation service",
    )
    p.add_argument("manifest", help="JSON Lines file, one job per line "
                                    "(see docs/SERVING.md)")
    p.add_argument("--backend", default="flatdd",
                   choices=["flatdd", "ddsim", "quantumpp"],
                   help="default backend for jobs that do not name one")
    p.add_argument("--threads", type=int, default=4,
                   help="simulator threads per job (clamped per circuit)")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent worker slots in the pool")
    p.add_argument("--thread-pool", action="store_true",
                   help="run worker slots on real threads (default inline)")
    p.add_argument("--processes", type=int, default=0, metavar="N",
                   help="execute on a fleet of N worker processes instead "
                        "of in-process threads (escapes the GIL; see "
                        "docs/SERVING.md 'Process fleet')")
    p.add_argument("--queue-capacity", type=int, default=4096,
                   help="admission limit; beyond it jobs are rejected")
    p.add_argument("--max-qubits", type=int, default=26,
                   help="admission limit on circuit width")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-job wall-clock budget in seconds")
    p.add_argument("--max-retries", type=int, default=2,
                   help="transient-fault retry budget per job")
    p.add_argument("--cache-entries", type=int, default=512,
                   help="result-cache entry bound (0 disables caching)")
    p.add_argument("--plant-bug", metavar="NAME", default=None,
                   help="install a named fault (e.g. transient-crash) to "
                        "demo the retry/failure paths end to end")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="write-ahead JSONL journal of job-state "
                        "transitions (crash durability)")
    p.add_argument("--resume", action="store_true",
                   help="replay an existing --journal first: DONE jobs "
                        "complete from the result cache, the rest re-run")
    p.add_argument("--journal-fsync", action="store_true",
                   help="fsync the journal after every record (survives "
                        "power loss, not just process crashes; slower)")
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="sample the service metrics registry on an "
                        "interval into a JSONL time series "
                        "(summarize later with 'repro report PATH')")
    p.add_argument("--telemetry-interval", type=float, default=0.25,
                   metavar="SECONDS",
                   help="telemetry sampling interval (default 0.25s)")
    p.add_argument("--prometheus", metavar="PATH", default=None,
                   help="write a Prometheus text-exposition dump of the "
                        "final metrics snapshot")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome trace-event JSON of the batch")
    p.add_argument("--profile", action="store_true",
                   help="print the per-phase timing breakdown")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("equivalence", help="DD equivalence check")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--strategy", default="alternate",
                   choices=["alternate", "naive"])
    p.set_defaults(func=cmd_equivalence)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return args.func(args)
    except ResourceExhaustedError as exc:
        # Exit 3: the job needs more memory, retry elsewhere (possibly
        # resuming from exc.checkpoint_path).
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        # Exit 4: the snapshot itself is unusable; resuming is hopeless.
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
