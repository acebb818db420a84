"""Compare two benchmark records written by ``run.py --out``.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json [--same-code]

Two records are comparable only when they ran the same workload on the
same seed *and* every circuit fingerprint matches; otherwise the tool
refuses (exit 2), because a timing difference between different circuits
says nothing about the code.

Metric changes are judged against the bounds in ``BENCHMARK.json``: a
metric worse than the base by more than its bound is a regression
(exit 1).  Work counts (nodes created, calls, MACs, plan compiles,
sweep counters, ...) are exact.  With ``--same-code`` the two records
claim to come from the same program, so any count that differs is a
determinism failure (exit 3) rather than a regression; without it,
changed counts are listed for information.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

__all__ = ["ComparisonRefused", "check_comparable", "compare", "main"]


class ComparisonRefused(ValueError):
    """The two records ran different inputs."""


def check_comparable(base: dict, new: dict) -> None:
    for key in ("workload", "seed", "trace"):
        if base.get(key) != new.get(key):
            raise ComparisonRefused(
                f"{key} differs: {base.get(key)!r} vs {new.get(key)!r}"
            )
    if base.get("circuits") != new.get("circuits"):
        names = sorted(
            set(base.get("circuits", {})) | set(new.get("circuits", {}))
        )
        changed = [
            n for n in names
            if base.get("circuits", {}).get(n) != new.get("circuits", {}).get(n)
        ]
        raise ComparisonRefused(f"circuit fingerprints differ: {changed}")


def _bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def _work(record: dict) -> dict:
    work = record.get("work", {})
    flat = {}
    for key, val in work.items():
        if isinstance(val, dict):
            flat.update({f"{key}:{k}": v for k, v in val.items()})
        else:
            flat[key] = val
    return flat


def compare(base: dict, new: dict, bounds: dict[str, dict]) -> dict:
    """``{"regressions": [...], "work_changed": [...], "rows": [...]}``."""
    check_comparable(base, new)
    rows, regressions = [], []
    for name, b in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        bv, nv = b["value"], new["metrics"][name]["value"]
        change = (nv - bv) / bv if bv else 0.0
        spec = bounds.get(name)
        verdict = ""
        if spec is not None:
            worse = change if spec["better"] == "lower" else -change
            if worse > spec["bound"]:
                verdict = f"REGRESSION (bound {spec['bound']:g})"
                regressions.append(name)
        rows.append((name, bv, nv, change, verdict))
    bw, nw = _work(base), _work(new)
    changed = sorted(k for k in set(bw) | set(nw) if bw.get(k) != nw.get(k))
    return {"rows": rows, "regressions": regressions, "work_changed": changed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two benchmark records")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--same-code", action="store_true",
                    help="treat any work-count difference as a "
                         "determinism failure")
    args = ap.parse_args(argv)
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    try:
        out = compare(base, new, _bounds())
    except ComparisonRefused as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    for name, bv, nv, change, verdict in out["rows"]:
        print(f"{name:32s} {bv:14.6g} {nv:14.6g} {change:+8.2%} {verdict}")
    if out["work_changed"]:
        label = ("DETERMINISM FAILURE" if args.same_code
                 else "work counts changed")
        print(f"{label}: {', '.join(out['work_changed'])}")
        if args.same_code:
            return 3
    return 1 if out["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
