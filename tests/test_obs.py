"""Tests for the observability layer: tracer, exporters, backend wiring."""

import json
import threading

import pytest

from repro import (
    DDSimulator,
    FlatDDConfig,
    FlatDDSimulator,
    StatevectorSimulator,
    get_circuit,
)
from repro.common.errors import ResourceExhaustedError
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    build_obs,
    chrome_trace_events,
    format_summary_table,
    jsonl_events,
    summarize_phases,
    write_chrome_trace,
    write_jsonl,
)
from repro.verify.fuzz.runner import run_campaign


class TestTracerBasics:
    def test_span_context_manager_records_interval(self):
        tr = Tracer()
        with tr.span("outer", category="phase", label=1):
            pass
        assert len(tr.spans) == 1
        span = tr.spans[0]
        assert span.name == "outer"
        assert span.category == "phase"
        assert span.duration >= 0
        assert span.args == {"label": 1}

    def test_nesting_depth(self):
        tr = Tracer()
        with tr.span("outer"):
            assert tr.current_depth == 1
            with tr.span("inner"):
                assert tr.current_depth == 2
        assert tr.current_depth == 0
        # Inner exits (and records) first.
        by_name = {s.name: s for s in tr.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].start >= by_name["outer"].start
        assert by_name["inner"].end <= by_name["outer"].end

    def test_record_rebases_to_epoch(self):
        import time

        tr = Tracer()
        t0 = time.perf_counter()
        t1 = t0 + 0.5
        tr.record("x", "cat", t0, t1, thread_id=7)
        span = tr.spans[0]
        assert span.duration == pytest.approx(0.5)
        assert span.start >= 0
        assert span.thread_id == 7

    def test_instants_and_samples(self):
        tr = Tracer()
        tr.instant("gc", "dd", reclaimed=10)
        tr.sample("dd_size", 42)
        assert tr.instants[0].args == {"reclaimed": 10}
        assert tr.samples[0].value == 42.0
        assert len(tr) == 2

    def test_exception_inside_span_still_records(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        assert len(tr.spans) == 1
        assert tr.current_depth == 0


class TestTracerThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        tr = Tracer()
        n_threads, per_thread = 8, 200

        def work(k):
            for i in range(per_thread):
                with tr.span(f"t{k}.{i}", category="work"):
                    pass
                tr.sample("x", i)

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tr.spans) == n_threads * per_thread
        assert len(tr.samples) == n_threads * per_thread
        # Nesting depth is tracked per thread: all top-level.
        assert all(s.depth == 0 for s in tr.spans)


class TestNullTracer:
    def test_noop_records_nothing(self):
        before = (NULL_TRACER.spans, NULL_TRACER.instants, NULL_TRACER.samples)
        with NULL_TRACER.span("x", category="phase", arg=1):
            pass
        NULL_TRACER.record("y", "c", 0.0, 1.0)
        NULL_TRACER.instant("z")
        NULL_TRACER.sample("w", 3)
        assert NULL_TRACER.spans == before[0] == ()
        assert NULL_TRACER.instants == before[1] == ()
        assert NULL_TRACER.samples == before[2] == ()
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.wall_seconds() == 0.0

    def test_untraced_run_attaches_no_spans(self):
        result = FlatDDSimulator(threads=2).run(get_circuit("supremacy", 8))
        obs = result.metadata["obs"]
        assert "spans" not in obs and "summary" not in obs
        assert obs["counters"]  # counters are always collected


class TestRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        reg.gauge("g").set(2.0)
        reg.gauge("g").set(5.0)
        reg.gauge("g").set(3.0)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 5
        g = snap["gauges"]["g"]
        assert (g["value"], g["min"], g["max"], g["updates"]) == (3.0, 2.0, 5.0, 3)

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1)


class TestChromeExport:
    @pytest.fixture(scope="class")
    def traced_run(self):
        tracer = Tracer()
        result = FlatDDSimulator(threads=4).run(
            get_circuit("supremacy", 10), tracer=tracer
        )
        return tracer, result

    def test_events_roundtrip_json_with_required_fields(self, traced_run):
        tracer, _ = traced_run
        events = json.loads(json.dumps(chrome_trace_events(tracer)))
        assert events
        for event in events:
            assert event["ph"] in ("X", "i", "C", "M")
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        complete = [e for e in events if e["ph"] == "X"]
        assert all("dur" in e for e in complete)

    def test_phase_spans_present(self, traced_run):
        tracer, result = traced_run
        names = {e["name"] for e in chrome_trace_events(tracer)}
        assert {"dd_phase", "conversion", "dmav_phase"} <= names
        assert result.metadata["converted"]

    def test_counter_samples_exported(self, traced_run):
        tracer, _ = traced_run
        counters = [
            e for e in chrome_trace_events(tracer) if e["ph"] == "C"
        ]
        assert {e["name"] for e in counters} >= {"dd_size", "ewma"}

    def test_write_chrome_trace_file(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), tracer)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count

    def test_jsonl_export(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "events.jsonl"
        count = write_jsonl(str(path), tracer)
        lines = path.read_text().splitlines()
        assert len(lines) == count == len(jsonl_events(tracer))
        types = {json.loads(line)["type"] for line in lines}
        assert "span" in types and "sample" in types


class TestSummary:
    def test_phases_ordered_and_attributed(self):
        tr = Tracer()
        tr.record("phase_a", "phase", 0.0 + tr.epoch, 1.0 + tr.epoch)
        tr.record("phase_b", "phase", 1.0 + tr.epoch, 1.5 + tr.epoch)
        tr.record("g1", "dd", 0.1 + tr.epoch, 0.2 + tr.epoch)
        tr.record("g2", "dd", 0.3 + tr.epoch, 0.4 + tr.epoch)
        tr.record("g3", "dmav", 1.1 + tr.epoch, 1.2 + tr.epoch)
        phases = summarize_phases(tr)
        assert [p.name for p in phases] == ["phase_a", "phase_b"]
        assert phases[0].inner_spans == 2
        assert phases[1].inner_spans == 1
        assert phases[0].seconds == pytest.approx(1.0)
        assert phases[0].share == pytest.approx(1.0 / 1.5)

    def test_table_renders(self):
        tr = Tracer()
        tr.record("only", "phase", tr.epoch, tr.epoch + 2.0)
        table = format_summary_table(tr, wall_seconds=4.0)
        assert "only" in table and "50.0" in table
        assert format_summary_table(Tracer()) == "(no phase spans recorded)"


#: Span args of each per-gate span kind, beside ``gate_index``.  An
#: unfused DMAV step is priced by Eq. 5 alone: no ``cost_cache``.
GATE_SPAN_ARGS = {
    ("flatdd", "dd"): ["dd_size", "ewma"],
    ("flatdd", "dmav"): ["macs", "cached", "cost_nocache", "cache_hits"],
    ("ddsim", "dd"): ["dd_size"],
    ("quantumpp", "array"): [],
}


def _gate_spans(tracer):
    return [s for s in tracer.spans if s.category in ("dd", "dmav", "array")]


class TestGateTraceSpans:
    """Per-gate spans and samples are read off each run's gate trace."""

    @pytest.mark.parametrize("backend", ["flatdd", "ddsim", "quantumpp"])
    def test_one_span_per_gate_record(self, backend):
        sim, n = {
            "flatdd": (FlatDDSimulator(threads=2), 10),
            "ddsim": (DDSimulator(), 8),
            "quantumpp": (StatevectorSimulator(threads=2), 8),
        }[backend]
        tracer = Tracer()
        records = sim.run(get_circuit("supremacy", n), tracer=tracer).gate_trace
        spans = _gate_spans(tracer)
        assert len(spans) == len(records) > 0
        for r, s in zip(records, spans):
            assert (s.name, s.category) == (r.name, r.phase)
            assert s.start == pytest.approx(r.start - tracer.epoch)
            assert s.duration == pytest.approx(r.seconds, abs=1e-12)
            args = GATE_SPAN_ARGS[backend, r.phase]
            assert s.args == {
                "gate_index": r.index, **{k: getattr(r, k) for k in args}
            }
        if backend == "flatdd":
            assert {r.phase for r in records} == {"dd", "dmav"}
        dd = [r for r in records if r.phase == "dd"]
        samples = {
            name: [(x.ts, x.value) for x in tracer.samples if x.name == name]
            for name in ("dd_size", "ewma")
        }
        ends = [pytest.approx(r.start + r.seconds - tracer.epoch) for r in dd]
        assert samples["dd_size"] == list(zip(ends, [r.dd_size for r in dd]))
        assert samples["ewma"] == (
            list(zip(ends, [r.ewma for r in dd])) if backend == "flatdd"
            else []
        )

    def test_raise_in_array_phase_keeps_applied_gate_spans(self):
        # The budget admits the converted array but not the DMAV phase's
        # two buffers: the guard raises after the first DMAV column.
        n = 10
        cfg = FlatDDConfig(
            threads=2, force_convert_at=3, memory_budget_bytes=24 << n
        )
        tracer = Tracer()
        with pytest.raises(ResourceExhaustedError) as info:
            FlatDDSimulator(cfg).run(get_circuit("supremacy", n), tracer=tracer)
        assert (info.value.phase, info.value.gate_index) == ("array", 4)
        assert [
            (s.category, s.args["gate_index"]) for s in _gate_spans(tracer)
        ] == [("dd", 0), ("dd", 1), ("dd", 2), ("dd", 3), ("dmav", 4)]
        assert len([x for x in tracer.samples if x.name == "ewma"]) == 4


def _traced_runs():
    """Each simulation entry point, as ``tracer -> its obs payload``."""
    circuit = get_circuit("supremacy", 8)
    rows = [circuit.extract_params()] * 2
    return {
        "flatdd": lambda tr: FlatDDSimulator(threads=2).run(
            circuit, tracer=tr
        ).metadata["obs"],
        "ddsim": lambda tr: DDSimulator().run(
            circuit, tracer=tr
        ).metadata["obs"],
        "quantumpp": lambda tr: StatevectorSimulator(threads=2).run(
            circuit, tracer=tr
        ).metadata["obs"],
        "sweep-batched": lambda tr: FlatDDSimulator(
            threads=2
        ).simulate_sweep(circuit, rows, tracer=tr).metadata["obs"],
        "sweep-fused": lambda tr: FlatDDSimulator(
            threads=2, fusion="cost"
        ).simulate_sweep(circuit, rows, tracer=tr).metadata["obs"],
        "fuzz": lambda tr: run_campaign(
            seed=1, iterations=1, max_qubits=4, max_gates=12,
            oracles=["flatdd_vs_statevector"], out_dir=None, tracer=tr,
        ).obs,
    }


class TestObsHoldsOwnSpans:
    """A tracer shared by sequential runs (as ``repro serve`` shares
    one) puts in each run's ``metadata["obs"]`` only the spans that run
    recorded, and a summary of only those."""

    @pytest.mark.parametrize("entry", list(_traced_runs()))
    def test_each_run_holds_only_its_own_spans(self, entry):
        run = _traced_runs()[entry]
        tracer = Tracer()
        payloads = []
        for _ in range(3):
            first = len(tracer.spans)
            obs = run(tracer)
            own = tracer.spans[first:]
            assert own
            assert [(s["name"], s["cat"], s["ts"]) for s in obs["spans"]] == [
                (s.name, s.category, s.start) for s in own
            ]
            payloads.append(obs)
        # The same work each time: the same phases, each holding the
        # same number of spans.
        shapes = [
            [(p["name"], p["inner_spans"]) for p in obs["summary"]]
            for obs in payloads
        ]
        assert shapes[0] and shapes == [shapes[0]] * 3


class TestBackendObsMetadata:
    @pytest.mark.parametrize("backend", ["flatdd", "ddsim", "quantumpp"])
    def test_counters_in_metadata(self, backend):
        circuit = get_circuit("supremacy", 8)
        sim = {
            "flatdd": lambda: FlatDDSimulator(threads=2),
            "ddsim": lambda: DDSimulator(),
            "quantumpp": lambda: StatevectorSimulator(threads=2),
        }[backend]()
        result = sim.run(circuit)
        obs = result.metadata["obs"]
        assert obs["counters"], backend
        json.dumps(obs)  # must stay JSON-serializable
        if backend in ("flatdd", "ddsim"):
            assert obs["counters"]["dd.unique_misses"] > 0
            assert obs["counters"]["gate_cache.misses"] > 0
            assert result.metadata["gate_dd_cache_hits"] >= 0
            for rule in ("mv_skips", "mm_skips", "passthrough_skips",
                         "lift_steps"):
                assert obs["counters"][f"dd.identity.{rule}"] >= 0, rule

    def test_traced_flatdd_has_summary_and_ewma(self):
        tracer = Tracer()
        result = FlatDDSimulator(threads=2).run(
            get_circuit("supremacy", 8), tracer=tracer
        )
        obs = result.metadata["obs"]
        assert {p["name"] for p in obs["summary"]} >= {"dd_phase", "conversion"}
        dd_spans = [s for s in obs["spans"] if s["cat"] == "dd"]
        assert all("ewma" in s["args"] for s in dd_spans)
        assert obs["gauges"]["ewma"]["value"] > 0

    def test_dd_package_stats_count_hits(self):
        # Repeated gates guarantee unique- and compute-table hits.
        result = DDSimulator().run(get_circuit("ghz", 6))
        counters = result.metadata["obs"]["counters"]
        assert counters["dd.compute_misses"] > 0
        assert counters["dd.unique_hits"] + counters["dd.unique_misses"] > 0

    def test_build_obs_pool_section(self):
        from repro.parallel.pool import TaskRunner

        tr = Tracer()
        with TaskRunner(2, use_pool=True, tracer=tr) as runner:
            runner.run([lambda: 1, lambda: 2])
        obs = build_obs(tracer=tr, runner=runner, wall_seconds=1.0)
        assert obs["pool"]["batches"] == 1
        assert sum(obs["pool"]["tasks"]) == 2
        assert len([s for s in tr.spans if s.category == "pool"]) == 2


class TestCLITraceProfile:
    def test_simulate_trace_and_profile(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.json"
        assert main(
            ["simulate", "--family", "supremacy", "--qubits", "10",
             "--backend", "flatdd", "--trace", str(path), "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "dd_phase" in out
        payload = json.loads(path.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"dd_phase", "conversion", "dmav_phase"} <= names

    def test_compare_profile(self, capsys):
        from repro.cli import main

        assert main(
            ["compare", "--family", "ghz", "--qubits", "4", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "-- ddsim --" in out and "dd_phase" in out

    def test_verbose_flag_logs_to_stderr(self, capsys):
        from repro.cli import main

        assert main(
            ["-v", "simulate", "--family", "ghz", "--qubits", "3"]
        ) == 0
        err = capsys.readouterr().err
        assert "INFO" in err and "repro" in err

    def test_quiet_by_default(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--family", "ghz", "--qubits", "3"]) == 0
        assert "INFO" not in capsys.readouterr().err
