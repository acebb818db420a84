"""Thread-scaling model for the Figure 12 / Figure 14 reproductions.

The container has one CPU core (DESIGN.md substitution 1), so wall-clock
cannot show multi-thread speedups.  Instead, the benches apply the paper's
own computational cost model (Equations 5-6) to the *actual* DMAV-phase
gate DDs of a real run:

    T(t) = T_dd  +  T_conv(1) / t  +  tau * sum_g min(C1_g(t), C2_g(t))
         + kappa * G

* ``T_dd`` -- measured DD-phase seconds (inherently serial, as in DDSIM).
* ``T_conv`` -- measured conversion seconds, divided by t (the conversion
  is embarrassingly parallel after the junction split).
* ``tau`` -- seconds per modeled cost unit, calibrated so the model
  reproduces the *measured* DMAV time at the reference thread count.
* ``kappa * G`` -- fixed per-gate dispatch overhead (G = DMAV gate count),
  estimated from the cheapest observed gate; this term is what makes the
  curve saturate around 16 threads exactly as Figure 12 reports.

The model runs on the run's own package and gate edges
(``keep_internals=True``), so H, K2 and b at each t are the real
Algorithm 2 quantities, not approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.base import SimulationResult
from repro.core.cost_model import CostModel

__all__ = ["ThreadScalingModel"]


@dataclass
class ThreadScalingModel:
    """Calibrated T(t) predictor for one FlatDD run."""

    dd_seconds: float
    conv_seconds: float
    dmav_seconds: float
    gate_count: int
    costs_by_t: dict[int, float]
    reference_threads: int
    kappa: float
    tau: float

    @classmethod
    def from_result(
        cls,
        result: SimulationResult,
        thread_counts: list[int],
    ) -> "ThreadScalingModel":
        """Calibrate from a run made with ``keep_internals=True``.

        Each gate is charged ``min(C1, C2)``, the Eq. 5-6 verdict's cost.
        """
        pkg = result.metadata["package"]
        edges = result.metadata.get("dmav_edges", [])
        t_ref = result.metadata["threads"]
        dmav_records = [g for g in result.gate_trace if g.phase == "dmav"]
        dd_records = [g for g in result.gate_trace if g.phase == "dd"]
        dd_seconds = sum(g.seconds for g in dd_records)
        conv = result.metadata.get("conversion_report")
        conv_seconds = conv.seconds * conv.threads if conv else 0.0
        dmav_seconds = sum(g.seconds for g in dmav_records)
        gate_count = len(dmav_records)

        costs_by_t: dict[int, float] = {}
        for t in sorted({*thread_counts, t_ref}):
            model = CostModel(t)
            costs_by_t[t] = sum(model.evaluate(pkg, e).cost for e in edges)

        # kappa: per-gate dispatch floor, from the cheapest observed gate.
        kappa = min((g.seconds for g in dmav_records), default=0.0)
        # tau: make the model exact at the reference thread count.
        ref_cost = costs_by_t.get(t_ref, 0.0)
        work_seconds = max(dmav_seconds - kappa * gate_count, 0.0)
        tau = work_seconds / ref_cost if ref_cost > 0 else 0.0
        return cls(
            dd_seconds=dd_seconds,
            conv_seconds=conv_seconds,
            dmav_seconds=dmav_seconds,
            gate_count=gate_count,
            costs_by_t=costs_by_t,
            reference_threads=t_ref,
            kappa=kappa,
            tau=tau,
        )

    def cost(self, threads: int) -> float:
        """Total modeled DMAV cost (Eq. 5/6 units) at ``threads``."""
        return self.costs_by_t[threads]

    def runtime(self, threads: int) -> float:
        """Modeled end-to-end seconds at ``threads``."""
        return (
            self.dd_seconds
            + self.conv_seconds / threads
            + self.tau * self.costs_by_t[threads]
            + self.kappa * self.gate_count
        )
