"""Structured observability for the FlatDD pipeline.

FlatDD's behaviour is all runtime dynamics -- DD-size growth, the EWMA
trigger, conversion cost, per-gate DMAV cost-model decisions -- and this
package makes those signals first-class instead of scattered ad-hoc
timers:

* :mod:`repro.obs.tracer` -- thread-safe span tracer (context-manager
  nesting, monotonic timestamps, instants, counter samples) with a
  zero-overhead :data:`NULL_TRACER` default when tracing is off.
* :mod:`repro.obs.metrics` -- named counters/gauges/histograms registry
  (log-spaced latency buckets with p50/p90/p99 snapshots).
* :mod:`repro.obs.telemetry` -- interval sampler turning a registry into
  a JSONL time series plus a Prometheus text dump, and the terminal
  metric tables behind ``repro report``.
* :mod:`repro.obs.export` -- JSONL and Chrome trace-event exporters
  (open the latter in Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.summary` -- per-phase aggregation and the text table
  behind the CLI's ``--profile``.
* :mod:`repro.obs.collect` -- snapshot helpers that assemble
  ``SimulationResult.metadata["obs"]``, and the per-gate spans of a run.

Usage::

    from repro import FlatDDSimulator, get_circuit
    from repro.obs import Tracer, write_chrome_trace

    tracer = Tracer()
    result = FlatDDSimulator(threads=4).run(
        get_circuit("supremacy", 12), tracer=tracer
    )
    write_chrome_trace("trace.json", tracer)   # -> load in Perfetto
    print(result.metadata["obs"]["counters"])  # dd.*, gate_cache.*, ...
"""

from repro.obs.collect import (
    build_obs,
    gate_cache_counters,
    package_counters,
    result_cache_counters,
)
from repro.obs.export import (
    chrome_trace_events,
    jsonl_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.summary import PhaseSummary, format_summary_table, summarize_phases
from repro.obs.telemetry import (
    TelemetrySampler,
    format_metrics_table,
    format_telemetry_report,
    load_telemetry,
    prometheus_text,
)
from repro.obs.tracer import NULL_TRACER, Instant, NullTracer, Sample, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PhaseSummary",
    "Sample",
    "Span",
    "TelemetrySampler",
    "Tracer",
    "build_obs",
    "chrome_trace_events",
    "format_metrics_table",
    "format_summary_table",
    "format_telemetry_report",
    "gate_cache_counters",
    "jsonl_events",
    "load_telemetry",
    "package_counters",
    "prometheus_text",
    "result_cache_counters",
    "summarize_phases",
    "write_chrome_trace",
    "write_jsonl",
]
