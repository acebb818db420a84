"""Inside the FlatDD pipeline: EWMA trace, conversion, fusion, cost model.

Walks a deep DNN-style circuit through FlatDD with full instrumentation
and prints what each stage of Figure 3 did: the DD-size trace the EWMA
monitor watched, the parallel conversion report, what the DMAV-aware
gate-fusion pass (Algorithm 3) merged, and which gates the Section 3.2.3
cost model routed through the caching DMAV variant.

Run:  python examples/fusion_pipeline.py
"""

from repro import FlatDDSimulator, get_circuit


def main() -> None:
    circuit = get_circuit("dnn", 12, layers=12)
    print(f"circuit: {circuit}\n")

    for fusion in ("none", "cost", "koperations"):
        result = FlatDDSimulator(threads=4, fusion=fusion).run(circuit)
        meta = result.metadata
        dmav_gates = sum(1 for g in result.gate_trace if g.phase == "dmav")
        line = (f"fusion={fusion:12s} runtime={result.runtime_seconds:6.3f}s "
                f"dmav_invocations={dmav_gates:4d} "
                f"total_macs={meta['dmav_macs_total']:>10}")
        if "fusion_result" in meta:
            fr = meta["fusion_result"]
            line += (f"  (absorbed {fr['absorbed_gates']} gates via "
                     f"{fr['ddmm_calls']} DDMM calls)")
        print(line)

    # Deep dive with cost-aware fusion.
    result = FlatDDSimulator(threads=4, fusion="cost").run(circuit)
    meta = result.metadata

    print("\n--- EWMA monitor (Section 3.1.1) ---")
    trace = result.gate_trace
    trigger = meta["conversion_gate_index"]
    for g in [g for g in trace if g.phase == "dd"][-5:]:
        flag = "  <-- trigger" if g.index == trigger else ""
        print(f"  gate {g.index:3d}: dd_size={g.dd_size:5d} "
              f"ewma={g.ewma:8.1f}{flag}")

    print("\n--- parallel conversion (Section 3.1.2) ---")
    rep = meta["conversion_report"]
    print(f"  {rep.threads} threads, {rep.num_tasks} traversal tasks, "
          f"{rep.num_scalar_fills} scalar fills, {rep.seconds*1e3:.2f} ms")

    print("\n--- DMAV cost-model decisions (Section 3.2.3) ---")
    dmav = [g for g in trace if g.phase == "dmav"]
    cached = sum(1 for g in dmav if g.cached)
    print(f"  {cached} fused gates ran with caching, "
          f"{len(dmav) - cached} without")
    heaviest = max(dmav, key=lambda g: g.macs)
    print(f"  heaviest gate: {heaviest.name} at {heaviest.index}, "
          f"{heaviest.macs} MACs, C1={heaviest.cost_nocache:.0f} "
          f"C2={heaviest.cost_cache:.0f} "
          f"-> {'cached' if heaviest.cached else 'uncached'}")


if __name__ == "__main__":
    main()
