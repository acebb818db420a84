"""Per-phase aggregation and the human-readable profile table.

The simulators mark their pipeline stages with ``category="phase"``
spans ("dd_phase", "conversion", "fusion", "dmav_phase", ...) and emit
fine-grained per-gate/per-thread spans inside them.  This module folds a
tracer back into the per-phase view the paper reasons in:

* :func:`summarize_phases` -- one :class:`PhaseSummary` per phase span,
  in execution order, with the count of fine-grained spans that fall
  inside the phase's interval (attribution is by time containment, so it
  needs no naming convention from the emitters).
* :func:`format_summary_table` -- the aligned text table the CLI prints
  for ``--profile``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracer import Span, Tracer

__all__ = ["PhaseSummary", "summarize_phases", "format_summary_table"]

#: Category marking top-level pipeline-stage spans.
PHASE_CATEGORY = "phase"


@dataclass(frozen=True)
class PhaseSummary:
    """Aggregate of one pipeline phase."""

    name: str
    seconds: float
    #: Fraction of the summed phase time (0..1); 0 when nothing ran.
    share: float
    #: Fine-grained (non-phase) spans inside the phase's interval.
    inner_spans: int
    start: float

    def as_dict(self) -> dict:
        """JSON-serializable view (used in ``metadata["obs"]``)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "share": self.share,
            "inner_spans": self.inner_spans,
        }


def summarize_phases(
    tracer: Tracer, first_span: int = 0
) -> list[PhaseSummary]:
    """Aggregate a tracer's phase spans, ordered by start time.

    Only the spans from index ``first_span`` of ``tracer.spans`` on
    count (one run's, when the tracer serves several).  Repeated phases
    with the same name (e.g. per-backend phases in a ``compare`` run
    against one tracer) are merged into one row keyed on the first
    occurrence's start.
    """
    spans = tracer.spans[first_span:]
    phases = [s for s in spans if s.category == PHASE_CATEGORY]
    inner = [s for s in spans if s.category != PHASE_CATEGORY]
    merged: dict[str, list[Span]] = {}
    for span in sorted(phases, key=lambda s: s.start):
        merged.setdefault(span.name, []).append(span)
    total = sum(s.duration for s in phases) or 1.0
    out = []
    for name, spans in merged.items():
        seconds = sum(s.duration for s in spans)
        count = sum(
            1
            for i in inner
            for p in spans
            if p.start <= i.start < p.end
        )
        out.append(
            PhaseSummary(
                name=name,
                seconds=seconds,
                share=seconds / total,
                inner_spans=count,
                start=spans[0].start,
            )
        )
    out.sort(key=lambda p: p.start)
    return out


def format_summary_table(
    tracer: Tracer, wall_seconds: float | None = None
) -> str:
    """Render the per-phase profile as an aligned text table.

    ``wall_seconds`` (e.g. the simulation's measured runtime) replaces
    the phase-sum as the denominator of the percentage column when
    given, exposing time spent outside any phase.
    """
    summaries = summarize_phases(tracer)
    if not summaries:
        return "(no phase spans recorded)"
    denom = wall_seconds if wall_seconds else sum(s.seconds for s in summaries)
    denom = denom or 1.0
    lines = [f"{'phase':<16s} {'seconds':>10s} {'%':>6s} {'spans':>7s}"]
    for s in summaries:
        lines.append(
            f"{s.name:<16s} {s.seconds:>10.4f} "
            f"{100.0 * s.seconds / denom:>6.1f} {s.inner_spans:>7d}"
        )
    total = sum(s.seconds for s in summaries)
    lines.append(
        f"{'total':<16s} {total:>10.4f} {100.0 * total / denom:>6.1f} "
        f"{sum(s.inner_spans for s in summaries):>7d}"
    )
    return "\n".join(lines)
