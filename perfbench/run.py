"""FlatDD benchmark driver: one workload, one seed, one closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dd_regular --seed 1 --seconds 20 --trace 0

One client on one OS thread runs passes back to back; the next pass
starts only when the previous one has returned.  ``--trace 0`` times
untraced passes and prints the end-to-end metrics; ``--trace 1`` runs
untraced and then traced FlatDD passes and prints the per-layer metrics.
Every pass is checked against a reference computed once per seed.

The last line of standard output is the result object
(``correct``/``attempted``/``failed``/``metrics``); the line before it is
the full record (seed, circuit fingerprints, sample counts, per-case
medians, work counts), which ``--out`` also writes to a file and
``perfbench/compare.py`` compares.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from layers import LayerTrace, wrapped_names
from measure import Tally, pass_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Times set-up (import + generate + one cold pass) is repeated per run.
SETUP_REPEATS = 3
#: Share of an untraced run's pass time given to the baseline system.
BASELINE_SHARE = 0.3
#: Rounds run even when ``--seconds`` is shorter than one round.
MIN_ROUNDS = 2
#: This benchmark's own module that imports ``repro``.
OWN_MODULE = "workloads"

#: Public work counters read off every FlatDD result (0 when absent).
PUBLIC_COUNTERS = (
    "dd.nodes_created",
    "dd.compute_hits",
    "dd.compute_misses",
    "dd.gc_runs",
    "dmav.plan.compiles",
    "dmav.plan.hits",
    "dmav.plan.misses",
    "dmav.arena.output_allocs",
    "dmav.arena.partial_allocs",
    "dmav.sweep.groups",
    "dmav.sweep.row_rewinds",
    "dmav.sweep.gates_batched",
    "dmav.sweep.gates_rowloop",
)

TIMED_LAYERS = (
    "dd.mv",
    "dd.node_count",
    "backends.gatecache",
    "core.plan",
    "core.dmav",
    "core.ewma",
    "core.conversion",
    "core.reorder",
    "obs",
)


def _fresh_workloads():
    """Import ``repro`` and the workload module from scratch."""
    for name in list(sys.modules):
        if name in ("repro", OWN_MODULE) or name.startswith("repro."):
            del sys.modules[name]
    return importlib.import_module(OWN_MODULE)


def measure_setup(name: str, seed: int):
    """Seconds to import ``repro``, generate the workload and run one
    cold FlatDD pass; returns ``(seconds, workloads module, workload)``."""
    t0 = time.perf_counter()
    wmod = _fresh_workloads()
    wl = wmod.build(name, seed)
    for case in wl.cases:
        wmod.flatdd_pass(wl, case)
    return time.perf_counter() - t0, wmod, wl


def public_counts(result) -> dict:
    counters = result.metadata.get("obs", {}).get("counters", {})
    return {key: counters.get(key, 0) for key in PUBLIC_COUNTERS}


class Drift:
    """Flags work counts that differ between passes of one case."""

    def __init__(self) -> None:
        self.first: dict[str, dict] = {}
        self.failures: list[str] = []

    def observe(self, key: str, counts: dict) -> None:
        seen = self.first.setdefault(key, counts)
        if counts != seen and len(self.failures) < 20:
            diff = sorted(k for k in counts if counts[k] != seen.get(k))
            self.failures.append(f"{key}: work counts changed: {diff}")


def _flatdd(wmod, wl, case, tally):
    return tally.run(
        f"flatdd {case.name}",
        lambda: wmod.flatdd_pass(wl, case),
        lambda r, s: wmod.flatdd_error(case, r, s),
    )


def _baseline(wmod, wl, case, tally):
    return tally.run(
        f"{wl.baseline} {case.name}",
        lambda: wmod.baseline_pass(wl, case),
        lambda r, s: wmod.baseline_error(case, r, s),
    )


def run_untraced(wmod, wl, tally, drift, seconds, baseline=True) -> dict:
    """Closed loop of rounds; each round passes every case through FlatDD
    and, while the baseline has used under its share, the baseline."""
    flat: dict[str, list[float]] = {c.name: [] for c in wl.cases}
    base: dict[str, list[float]] = {c.name: [] for c in wl.cases}
    flat_s = base_s = 0.0
    peak = 0
    rounds = 0
    end = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < end:
        for case in wl.cases:
            dt, r = _flatdd(wmod, wl, case, tally)
            if dt is None:
                continue
            flat[case.name].append(dt)
            flat_s += dt
            peak = max(peak, r.peak_memory_bytes)
            drift.observe(case.name, public_counts(r))
        if baseline and base_s <= BASELINE_SHARE * (flat_s + base_s):
            for case in wl.cases:
                dt, _ = _baseline(wmod, wl, case, tally)
                if dt is not None:
                    base[case.name].append(dt)
                    base_s += dt
        rounds += 1
    return {"flatdd": flat, "baseline": base, "peak_bytes": peak,
            "rounds": rounds}


def _require_untraced() -> None:
    if wrapped_names():
        raise RuntimeError(f"untraced run sees wrappers: {wrapped_names()}")


def end_to_end(wmod, wl, tally, drift, seconds,
               setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics.

    The shared host's speed drifts by 20-30% within minutes and moves
    FlatDD and its baseline together, so the gated timings are ratios of
    passes measured interleaved in one run; the seconds themselves are in
    the record.
    """
    _require_untraced()
    res = run_untraced(wmod, wl, tally, drift, seconds)
    flat = pass_summary(res["flatdd"])
    base = pass_summary(res["baseline"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "speedup_vs_baseline": (_ratio(base["p50"], flat["p50"]), "x"),
        "flatdd_tail_ratio": (_ratio(flat["tail"], flat["p50"]), "x"),
        "peak_mem_mb": (res["peak_bytes"] / (1024.0 * 1024.0), "MiB"),
        "ok_frac": (1.0 - tally.failed_frac, "ratio"),
    }
    info = {"rounds": res["rounds"], "flatdd": flat,
            "baseline": {"system": wl.baseline, **base}}
    return metrics, info


def _round(lt, wall: float, pub: Counter) -> dict:
    return {
        "wall": wall,
        "self_s": dict(lt.self_s),
        "counts": {
            **{f"{k}.calls": v for k, v in lt.calls.items()},
            **lt.counts,
            **pub,
        },
    }


def per_layer(wmod, wl, tally, drift, seconds) -> tuple[dict, dict]:
    _require_untraced()
    untraced = run_untraced(wmod, wl, tally, drift, seconds / 2,
                            baseline=False)
    traced: dict[str, list[float]] = {c.name: [] for c in wl.cases}
    rounds: list[dict] = []
    with LayerTrace() as lt:
        end = time.perf_counter() + seconds / 2
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < end:
            lt.reset()
            wall = 0.0
            pub: Counter = Counter()
            for case in wl.cases:
                dt, r = _flatdd(wmod, wl, case, tally)
                if dt is None:
                    continue
                traced[case.name].append(dt)
                wall += dt
                pub.update(public_counts(r))
            rounds.append(_round(lt, wall, pub))
    if wrapped_names():
        raise RuntimeError(f"wrappers left installed: {wrapped_names()}")
    for rnd in rounds:
        drift.observe("traced round", rnd["counts"])
    un_wall = pass_summary(untraced["flatdd"])["p50"]
    tr_wall = pass_summary(traced)["p50"]
    metrics = layer_metrics(rounds, un_wall, tr_wall)
    info = {"traced_rounds": len(rounds),
            "untraced_rounds": untraced["rounds"]}
    return metrics, info


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rounds: list[dict], untraced_wall: float,
                  traced_wall: float) -> dict:
    """Per-round layer figures: mean self times, exact work counts."""
    k = len(rounds)
    wall = sum(r["wall"] for r in rounds) / k
    self_s = {
        layer: sum(r["self_s"].get(layer, 0.0) for r in rounds) / k
        for layer in TIMED_LAYERS
    }
    c = Counter(rounds[0]["counts"])
    m: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["dd.mv.calls"] = (c["dd.mv.calls"], "count")
    m["dd.nodes_created"] = (c["dd.nodes_created"], "count")
    m["dd.compute_hit_rate"] = (
        _ratio(c["dd.compute_hits"],
               c["dd.compute_hits"] + c["dd.compute_misses"]), "ratio")
    m["dd.gc_runs"] = (c["dd.gc_runs"], "count")
    gc_calls = c["backends.gatecache.calls"]
    m["backends.gatecache.calls"] = (gc_calls, "count")
    m["backends.gatecache.hit_rate"] = (
        _ratio(c["backends.gatecache.hits"], gc_calls), "ratio")
    m["core.plan.calls"] = (c["core.plan.calls"], "count")
    m["core.plan.compiles"] = (c["dmav.plan.compiles"], "count")
    m["core.plan.hit_rate"] = (
        _ratio(c["dmav.plan.hits"],
               c["dmav.plan.hits"] + c["dmav.plan.misses"]), "ratio")
    m["core.dmav.calls"] = (c["core.dmav.calls"], "count")
    m["core.dmav.macs"] = (c["core.plan.macs"], "count")
    m["core.dmav.macs_per_s"] = (
        _ratio(c["core.plan.macs"], self_s["core.dmav"]), "1/s")
    m["core.dmav.cached_frac"] = (
        _ratio(c["core.plan.cached"], c["core.plan.calls"]), "ratio")
    m["parallel.arena.output_allocs"] = (c["dmav.arena.output_allocs"], "count")
    m["parallel.arena.partial_allocs"] = (
        c["dmav.arena.partial_allocs"], "count")
    for key in ("groups", "row_rewinds", "gates_batched", "gates_rowloop"):
        m[f"core.sweep.{key}"] = (c[f"dmav.sweep.{key}"], "count")
    m["core.ewma.dd_phase_gates"] = (c["core.ewma.calls"], "count")
    m["unattributed_s"] = (wall - sum(self_s.values()), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_frac"] = (
        _ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    return m


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record to this file")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    setup = []
    for _ in range(SETUP_REPEATS):
        seconds, wmod, wl = measure_setup(args.workload, args.seed)
        setup.append(seconds)
    wmod.compute_references(wl)
    tally, drift = Tally(), Drift()
    if args.trace:
        metrics, info = per_layer(wmod, wl, tally, drift, args.seconds)
    else:
        metrics, info = end_to_end(wmod, wl, tally, drift, args.seconds,
                                   statistics.median(setup))
    correct = tally.failed == 0 and not drift.failures
    record = {
        **wl.provenance(),
        "trace": args.trace,
        "seconds": args.seconds,
        "threads": wmod.THREADS,
        "setup_runs_s": setup,
        **info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "work": drift.first,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "determinism_failures": drift.failures,
        "correct": correct,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
