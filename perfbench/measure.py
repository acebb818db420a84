"""Pass timing, failure accounting and percentile summaries.

This module imports nothing from ``repro``: it times and judges whatever
callables it is handed, so its tests can feed it perturbed states and
raising backends directly.
"""

from __future__ import annotations

import math
import statistics
import time

__all__ = ["Tally", "pass_summary", "tail", "TAIL_BEYOND"]

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


class Tally:
    """Attempted/failed counts over every pass of every backend.

    A pass fails when it raises, or when its ``error`` callback (which
    sees the result and the pass seconds, and covers timeouts and
    off-reference states) returns a reason.  Failed passes contribute no
    timing sample.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, label: str, fn, error):
        """Time ``fn()``; return ``(seconds, result)`` or ``(None, None)``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # any backend error is a counted failure
            self._fail(f"{label}: raised {exc!r}")
            return None, None
        seconds = time.perf_counter() - t0
        why = error(result, seconds)
        if why is not None:
            self._fail(f"{label}: {why}")
            return None, None
        return seconds, result

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def pass_summary(samples: dict[str, list[float]]) -> dict:
    """Median and tail seconds of one workload pass.

    A workload pass runs every case once, so its median is the sum of the
    per-case medians.  Samples of different cases are not draws from one
    distribution (a 20 ms and a 700 ms circuit would make the percentiles
    of their pooled times bimodal), so for the tail every sample is first
    turned into a workload pass in which that one case took ``x`` and the
    others their medians, ``pass_p50 + (x - case_p50)``; the tail is taken
    over those.  A stall costs its absolute seconds, so the jitter of a
    20 ms case cannot dominate it.  With one case this is the plain
    median and tail of its samples.
    """
    med = {k: statistics.median(v) for k, v in samples.items() if v}
    total = sum(med.values())
    passes = [total + x - med[k] for k, v in samples.items() for x in v]
    value, pct, n = tail(passes)
    return {"p50": total, "tail": value, "tail_percentile": pct,
            "samples": n, "per_case_p50": med}


def tail(samples: list[float]) -> tuple[float, int, int]:
    """``(value, percentile, n)``: the highest integer percentile that has
    at least :data:`TAIL_BEYOND` samples above its nearest-rank position.

    With too few samples for any such percentile the maximum is returned
    as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if not n:
        return 0.0, 100, 0
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], pct, n
    return xs[-1], 100, n
