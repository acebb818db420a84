"""Bridging helpers: fold live objects into ``metadata["obs"]``.

The always-on counters of the FlatDD substrate live where updating them
is cheapest -- plain ints on :class:`~repro.dd.package.DDPackage.stats`
and :class:`~repro.backends.gatecache.GateDDCache`.  This module
snapshots them (plus a run's :class:`~repro.obs.metrics.MetricsRegistry`
and, when tracing, the tracer's spans and phase summary) into the one
plain-dict payload every backend attaches to
``SimulationResult.metadata["obs"]``; :func:`record_gate_trace` turns
a run's gate records into its tracer's per-gate spans and samples.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import summarize_phases
from repro.obs.tracer import Tracer

__all__ = [
    "package_counters",
    "gate_cache_counters",
    "result_cache_counters",
    "build_obs",
    "record_gate_trace",
]

#: ``GateRecord`` fields a per-gate span carries as args after
#: ``gate_index``, in this order; a field that is None is left out.
SPAN_ARGS = (
    "dd_size", "ewma", "macs", "cached", "cost_cache", "cost_nocache",
    "cache_hits",
)


def package_counters(pkg) -> dict:
    """``dd.*`` counters of one :class:`~repro.dd.package.DDPackage`."""
    stats = pkg.stats
    return {
        "dd.unique_hits": stats.unique_hits,
        "dd.unique_misses": stats.unique_misses,
        "dd.compute_hits": stats.compute_hits,
        "dd.compute_misses": stats.compute_misses,
        "dd.gc_runs": stats.gc_runs,
        "dd.gc_nodes_reclaimed": stats.gc_nodes_reclaimed,
        "dd.unique_nodes": pkg.unique_node_count,
        "dd.peak_nodes": pkg.peak_node_count,
        "dd.nodes_created": pkg.nodes_created,
        "dd.identity.mv_skips": stats.identity_mv_skips,
        "dd.identity.mm_skips": stats.identity_mm_skips,
        "dd.identity.passthrough_skips": stats.identity_passthrough_skips,
        "dd.identity.lift_steps": stats.identity_lift_steps,
    }


def gate_cache_counters(cache) -> dict:
    """``gate_cache.*`` counters of one ``GateDDCache``."""
    return {
        "gate_cache.hits": cache.hits,
        "gate_cache.misses": cache.misses,
        "gate_cache.entries": len(cache),
    }


def result_cache_counters(cache) -> dict:
    """``serve.cache.*`` counters of one ``repro.serve.ResultCache``."""
    return {
        "serve.cache.hits": cache.hits,
        "serve.cache.misses": cache.misses,
        "serve.cache.evictions": cache.evictions,
        "serve.cache.uncacheable": cache.uncacheable,
        "serve.cache.entries": len(cache),
        "serve.cache.bytes": cache.total_bytes,
    }


def build_obs(
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    package=None,
    gate_cache=None,
    runner=None,
    wall_seconds: float | None = None,
) -> dict:
    """Assemble the ``metadata["obs"]`` payload for one simulation.

    Always returns counters/gauges (cheap snapshots); adds ``spans`` and
    the per-phase ``summary`` only when ``tracer`` is enabled, so the
    payload stays small on untraced runs.  Every value in the returned
    dict is JSON-serializable.
    """
    obs: dict = {"counters": {}, "gauges": {}}
    if registry is not None:
        snap = registry.snapshot()
        obs["counters"].update(snap["counters"])
        obs["gauges"].update(snap["gauges"])
    if package is not None:
        obs["counters"].update(package_counters(package))
    if gate_cache is not None:
        obs["counters"].update(gate_cache_counters(gate_cache))
    if runner is not None and getattr(runner, "batches", 0):
        busy = list(runner.busy_seconds)
        obs["pool"] = {
            "threads": runner.threads,
            "batches": runner.batches,
            "tasks": list(runner.task_counts),
            "busy_seconds": [round(b, 6) for b in busy],
        }
        if wall_seconds:
            obs["pool"]["utilization"] = [
                round(min(b / wall_seconds, 1.0), 4) for b in busy
            ]
    if tracer is not None and tracer.enabled:
        obs["spans"] = [
            {
                "name": s.name,
                "cat": s.category,
                "ts": s.start,
                "dur": s.duration,
                "tid": s.thread_id,
                "depth": s.depth,
                "args": s.args or {},
            }
            for s in tracer.spans
        ]
        obs["summary"] = [p.as_dict() for p in summarize_phases(tracer)]
    return obs


def record_gate_trace(tracer, records) -> None:
    """Record each ``GateRecord`` as a span of category ``phase``, named
    for its gate, with args ``gate_index`` and its set :data:`SPAN_ARGS`,
    plus a ``dd_size`` and an ``ewma`` sample at its end when it has
    them.  A disabled ``tracer`` records nothing."""
    if not tracer.enabled:
        return
    for r in records:
        end = r.start + r.seconds
        args = {
            k: v for k in SPAN_ARGS if (v := getattr(r, k)) is not None
        }
        tracer.record(
            r.name, r.phase, r.start, end, gate_index=r.index, **args
        )
        if r.dd_size is not None:
            tracer.sample("dd_size", r.dd_size, ts=end)
        if r.ewma is not None:
            tracer.sample("ewma", r.ewma, ts=end)
