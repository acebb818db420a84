"""Integration tests for the FlatDD simulator (Figure 3 pipeline)."""

import numpy as np
import pytest

from repro import FlatDDConfig, FlatDDSimulator
from repro.algorithms.ansatz import HardwareEfficientAnsatz
from repro.backends import GateDDCache
from repro.circuits import Circuit, Gate, get_circuit
from repro.circuits.gates import UnitaryGate
from repro.common.config import DENSE_BLOCK_LEVEL
from repro.common.errors import ParallelError
from repro.core.cost_model import CostModel, assign_cache_tasks
from repro.core.dmav import apply_tile_local, dmav_cached, dmav_nocache
from repro.core.ewma import EWMAMonitor
from repro.core.simulator import dd_phase, dmav_phase
from repro.dd.package import DDPackage
from repro.dd.vector import vector_to_array, zero_state
from repro.metrics.memory import MemoryMeter
from repro.obs.metrics import MetricsRegistry
from repro.resilience.guard import MemoryGuard
from repro.verify.fuzz import generate_circuit, spec_for_iteration
from repro.verify.fuzz.oracles import TOLERANCE_LADDER

from tests.conftest import force_dmav_verdict, random_unitary, reference_state


class TestCorrectness:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_agrees_with_reference(self, small_circuit, threads):
        ref = reference_state(small_circuit)
        r = FlatDDSimulator(threads=threads).run(small_circuit)
        assert abs(np.vdot(r.state, ref)) ** 2 == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("fusion", ["none", "cost", "koperations"])
    @pytest.mark.parametrize("policy", ["auto", "always", "never"])
    def test_config_matrix_on_irregular_circuit(
        self, monkeypatch, fusion, policy
    ):
        force_dmav_verdict(monkeypatch, policy)
        c = get_circuit("supremacy", 6, cycles=6)
        ref = reference_state(c)
        r = FlatDDSimulator(threads=4, fusion=fusion).run(c)
        assert abs(np.vdot(r.state, ref)) ** 2 == pytest.approx(1.0, abs=1e-8)
        cached = r.metadata["obs"]["counters"]["dmav.gates_cached"]
        if policy == "never" or fusion == "none":
            # An unfused tail has no gate DD: every step is an array
            # kernel's.
            assert cached == 0
        else:
            # Eq. 6 runs fused gates with Algorithm 2.
            assert cached > 0

    def test_thread_pool_mode(self):
        c = get_circuit("dnn", 6, layers=3)
        ref = reference_state(c)
        r = FlatDDSimulator(threads=4, use_thread_pool=True).run(c)
        assert abs(np.vdot(r.state, ref)) ** 2 == pytest.approx(1.0, abs=1e-8)


#: Table 1's irregular families at n = 10-13.
IRREGULAR_FAMILIES = [
    ("supremacy", 10), ("dnn", 11), ("vqe", 12), ("knn", 13), ("swaptest", 13),
]


class TestExecutionInvariance:
    """``use_thread_pool`` and ``dense_block_level`` change no result on
    whole runs: the pool's one-task-per-tile split of the array kernel
    (a gate with a qubit above the border is one call on the calling
    thread either way) lands on the inline bytes, and another dense
    block level stays on the tolerance ladder's tight rung."""

    @staticmethod
    def _states(run, threads):
        inline = run(FlatDDSimulator(threads=threads))
        pooled = run(FlatDDSimulator(threads=threads, use_thread_pool=True))
        dense3 = run(FlatDDSimulator(threads=threads, dense_block_level=3))
        return inline, pooled, dense3

    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("family, n", IRREGULAR_FAMILIES)
    def test_irregular_families(self, family, n, threads):
        circuit = get_circuit(family, n)
        inline, pooled, dense3 = self._states(
            lambda sim: sim.run(circuit), threads
        )
        assert inline.metadata["converted"]
        assert pooled.state.tobytes() == inline.state.tobytes()
        tight = dict(TOLERANCE_LADDER)["tight"]
        assert np.max(np.abs(dense3.state - inline.state)) <= tight

    @pytest.mark.parametrize("threads", [2, 4])
    def test_sweep(self, threads):
        ansatz = HardwareEfficientAnsatz(10, layers=2)
        rng = np.random.default_rng(threads)
        template = ansatz.build(np.zeros(ansatz.num_parameters))
        rows = [
            tuple(rng.uniform(-np.pi, np.pi, template.num_param_slots))
            for _ in range(4)
        ]
        inline, pooled, dense3 = self._states(
            lambda sim: sim.simulate_sweep(template, rows), threads
        )
        assert inline.metadata["mode"] == "batched"
        assert pooled.states.tobytes() == inline.states.tobytes()
        tight = dict(TOLERANCE_LADDER)["tight"]
        assert np.max(np.abs(dense3.states - inline.states)) <= tight


class TestCachedVerdictAcrossTheBorder:
    """A product-form unitary ``A (x) B`` with a target above the border
    prices Algorithm 2 cheaper (its blocks repeat within each column),
    yet as an unfused step the array kernel applies it: ``run()`` and a
    sweep land on the statevector and count it tile-local, not cached."""

    @staticmethod
    def _template(n):
        a, b = random_unitary(2, 1), random_unitary(2, 2)
        c = Circuit(n, name="across-the-border")
        for q in range(n):
            c.h(q)
        c.ry(0.4, 1)
        c.append(UnitaryGate(np.kron(a, b), (n - 1, 0)))
        c.rz(0.3, n - 2)
        c.append(UnitaryGate(np.kron(b, a), (0, n - 1)))
        c.ry(0.2, n - 1)
        return c

    @pytest.mark.parametrize("threads", [2, 4])
    def test_run_and_sweep(self, threads):
        n = 6
        template = self._template(n)
        model = CostModel(threads)
        assert all(
            model.evaluate_tile_local(n, g).use_cache
            for g in template.gates if isinstance(g, UnitaryGate)
        )
        sim = FlatDDSimulator(threads=threads, force_convert_at=0)
        run = sim.run(template)
        counters = run.metadata["obs"]["counters"]
        assert counters["dmav.gates_cached"] == 0
        assert counters["dmav.gates_tile_local"] == len(template) - 1
        assert not any(c[3] for c in run.metadata["dmav_gate_costs"])
        np.testing.assert_allclose(
            run.state, reference_state(template), atol=1e-12, rtol=0
        )
        rows = [(0.4, 0.3, 0.2), (1.1, -0.7, 2.5), (-2.0, 0.9, -0.1)]
        sweep = sim.simulate_sweep(template, rows)
        assert sweep.metadata["obs"]["counters"]["dmav.gates_cached"] == 0
        for row, state in zip(rows, sweep.states):
            bound = template.bind(row)
            assert np.array_equal(state, sim.run(bound).state), row
            np.testing.assert_allclose(
                state, reference_state(bound), atol=1e-12, rtol=0
            )


class TestPhaseBehaviour:
    def test_regular_circuits_stay_in_dd_phase(self):
        # Table 1: FlatDD "does not switch from DDSIM to DMAV" on
        # Adder/GHZ.
        for family, n in (("ghz", 10), ("adder", 10)):
            r = FlatDDSimulator(threads=4).run(get_circuit(family, n))
            assert not r.metadata["converted"]
            assert all(g.phase == "dd" for g in r.gate_trace)

    def test_irregular_circuits_convert(self):
        for family, n in (("dnn", 8), ("supremacy", 8), ("vqe", 8)):
            r = FlatDDSimulator(threads=4).run(get_circuit(family, n))
            assert r.metadata["converted"]
            idx = r.metadata["conversion_gate_index"]
            assert 0 <= idx < len(r.gate_trace) + 1
            phases = [g.phase for g in r.gate_trace]
            assert "dd" in phases and "dmav" in phases

    def test_conversion_point_follows_dd_blowup(self):
        r = FlatDDSimulator(threads=2).run(get_circuit("dnn", 8))
        idx = r.metadata["conversion_gate_index"]
        sizes = [g.dd_size for g in r.gate_trace if g.phase == "dd"]
        # The DD at the trigger gate is markedly larger than the median of
        # the preceding history.
        assert sizes[-1] > 2 * float(np.median(sizes[:-1]))

    def test_epsilon_controls_eagerness(self):
        c = get_circuit("supremacy", 8)
        eager = FlatDDSimulator(threads=2, epsilon=1.1).run(c)
        lazy = FlatDDSimulator(threads=2, epsilon=6.0).run(c)
        e_idx = eager.metadata["conversion_gate_index"]
        l_idx = lazy.metadata["conversion_gate_index"]
        if l_idx is None:
            assert e_idx is not None
        else:
            assert e_idx <= l_idx

    def test_ewma_samples_recorded(self):
        # Figure 3's EWMA series is the DD records' ``ewma``: Eq. 4's
        # average after each gate, replayed here from their DD sizes.
        r = FlatDDSimulator(threads=2).run(get_circuit("ghz", 6))
        records = [g for g in r.gate_trace if g.phase == "dd"]
        assert len(records) == 6
        monitor = EWMAMonitor()
        for g in records:
            monitor.update(g.dd_size)
            assert g.ewma == monitor.value > 0


class _FullHeightCache(GateDDCache):
    """Builds every gate DD full height, whatever the caller asks for."""

    def get(self, gate, windowed=False):
        return super().get(gate, windowed=False)


def _drive_dd_phase(circuit, cache_cls):
    """``dd_phase`` over the whole circuit under the default config."""
    cfg = FlatDDConfig()
    pkg = DDPackage(circuit.num_qubits)
    trace = []
    state_dd, convert_at, applied, _ = dd_phase(
        cfg, pkg, cache_cls(pkg),
        EWMAMonitor(beta=cfg.beta, epsilon=cfg.epsilon), zero_state(pkg),
        circuit.gates, 0, MemoryGuard(None), MemoryMeter(), {},
        FlatDDSimulator.GC_THRESHOLD, trace=trace,
    )
    return (
        convert_at,
        applied,
        [r.dd_size for r in trace],
        vector_to_array(pkg, state_dd),
    )


def _assert_full_height_dd_phase_identical(circuit):
    windowed = _drive_dd_phase(circuit, GateDDCache)
    full = _drive_dd_phase(circuit, _FullHeightCache)
    assert windowed[:3] == full[:3], circuit.name
    assert np.array_equal(windowed[3], full[3]), circuit.name


#: Table 1 families at n = 6-12 (knn and swaptest take odd n).
DD_PHASE_FAMILIES = [
    ("dnn", 6), ("dnn", 9), ("dnn", 12),
    ("adder", 6), ("adder", 12),
    ("ghz", 6), ("ghz", 12),
    ("vqe", 6), ("vqe", 12),
    ("knn", 7), ("knn", 11),
    ("swaptest", 7), ("swaptest", 11),
    ("supremacy", 6), ("supremacy", 9), ("supremacy", 10), ("supremacy", 12),
]


class TestWindowedDDPhase:
    """The DD phase's windowed gate DDs against full-height ones.

    A windowed gate DD shares its window subtree with the full-height
    DD of the same gate, and the identity-skipping ``mv`` rules do the
    pass-through levels' arithmetic exactly (``1.0 * x == x``).  So the
    DD phase must convert at the same gate, see the same per-gate
    state-DD sizes and end on the same amplitudes, bit for bit.
    """

    @pytest.mark.parametrize(
        "family,n", DD_PHASE_FAMILIES,
        ids=[f"{f}-{n}" for f, n in DD_PHASE_FAMILIES],
    )
    def test_table1_families(self, family, n):
        _assert_full_height_dd_phase_identical(get_circuit(family, n))

    def test_seed0_fuzz_circuits(self):
        for i in range(200):
            _assert_full_height_dd_phase_identical(
                generate_circuit(spec_for_iteration(0, i))
            )


class TestInstrumentation:
    def test_dmav_gates_record_macs_and_policy(self):
        r = FlatDDSimulator(threads=2).run(get_circuit("dnn", 7))
        dmav = [g for g in r.gate_trace if g.phase == "dmav"]
        assert dmav
        assert all(g.macs is not None and g.macs > 0 for g in dmav)
        assert all(g.cached in (True, False) for g in dmav)

    def test_conversion_report_present(self):
        r = FlatDDSimulator(threads=4).run(get_circuit("dnn", 7))
        report = r.metadata["conversion_report"]
        assert report.threads == 4
        assert report.seconds > 0

    def test_fusion_metadata(self):
        r = FlatDDSimulator(threads=2, fusion="cost").run(
            get_circuit("dnn", 7)
        )
        summary = r.metadata["fusion_result"]
        assert summary["emitted_gates"] + summary["absorbed_gates"] == (
            len(r.gate_trace) - r.metadata["dd_phase_gates"]
            + summary["absorbed_gates"]
        )
        assert summary["ddmm_calls"] > 0

    def test_keep_internals_exposes_package(self):
        r = FlatDDSimulator(threads=2).run(
            get_circuit("dnn", 6), keep_internals=True
        )
        assert "package" in r.metadata
        assert "dmav_edges" in r.metadata

    def test_timeout(self):
        r = FlatDDSimulator(threads=1).run(
            get_circuit("dnn", 10), max_seconds=0.02
        )
        assert r.metadata["timed_out"]

    def test_dd_phase_timeout_reports_applied_gates(self):
        # A deadline already passed stops the DD phase after its first
        # gate; the partial DD state is converted and returned unfinished.
        r = FlatDDSimulator(threads=2).run(
            get_circuit("ghz", 8), max_seconds=0.0
        )
        assert r.metadata["timed_out"]
        assert not r.metadata["converted"]
        assert r.metadata["dd_phase_gates"] == len(r.gate_trace) == 1
        # H on qubit 0 only: |0...0> + |0...01> (qubit 0 is the LSB).
        expected = np.zeros(1 << 8, dtype=complex)
        expected[[0, 1]] = 2 ** -0.5
        assert np.allclose(r.state, expected)

    def test_memory_peak_includes_arrays_after_conversion(self):
        n = 10
        r = FlatDDSimulator(threads=2).run(get_circuit("supremacy", n))
        assert r.peak_memory_bytes >= 2 * (1 << n) * 16


class TestFusionEffect:
    def test_fusion_reduces_dmav_invocations(self):
        c = get_circuit("dnn", 8, layers=4)
        plain = FlatDDSimulator(threads=2).run(c)
        fused = FlatDDSimulator(threads=2, fusion="cost").run(c)
        n_plain = sum(1 for g in plain.gate_trace if g.phase == "dmav")
        n_fused = sum(1 for g in fused.gate_trace if g.phase == "dmav")
        assert n_fused < n_plain

    def test_fusion_reduces_total_macs(self):
        c = get_circuit("dnn", 8, layers=4)
        plain = FlatDDSimulator(threads=2).run(c)
        fused = FlatDDSimulator(threads=2, fusion="cost").run(c)
        assert (
            fused.metadata["dmav_macs_total"]
            < plain.metadata["dmav_macs_total"]
        )


class TestConfig:
    def test_config_object_and_overrides_exclusive(self):
        with pytest.raises(ValueError):
            FlatDDSimulator(FlatDDConfig(), threads=2)

    def test_invalid_threads_for_circuit(self):
        with pytest.raises(ParallelError):
            FlatDDSimulator(threads=16).run(get_circuit("ghz", 3))

    def test_defaults_match_paper(self):
        cfg = FlatDDConfig()
        assert cfg.beta == 0.9
        assert cfg.epsilon == 2.0


class TestPlanCachePipeline:
    """Simulator-level behaviour of the DMAV plan compiler + arena."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_plan_on_off_bit_identical(self, threads):
        """Plans on (the pipeline) vs off (the paper's per-gate listing:
        cost model, Assign descent and unplanned kernel run afresh for
        every gate DD of ``metadata["dmav_steps"]``) land on the same bits.
        Cost-aware fusion makes Eq. 6 mix both kernels at threads >= 2
        (at t = 1 the one border task is the root: H = 0).  A tile-local
        step has no plan to turn off: the replay takes it through the
        run's kernel, and its verdict is checked on its gate DD in
        ``metadata["dmav_edges"]``."""
        c = get_circuit("supremacy", 9)
        for fusion in ("none", "cost"):
            cfg = FlatDDConfig(
                threads=threads, fusion=fusion, force_convert_at=2
            )
            r = FlatDDSimulator(cfg).run(c, keep_internals=True)
            # The same DD phase, stopped at the conversion point, yields
            # the array the DMAV phase started from.
            state = FlatDDSimulator(cfg).run(c[:3]).state
            pkg = r.metadata["package"]
            model = CostModel(threads)
            verdicts = []
            for step, edge in zip(
                r.metadata["dmav_steps"], r.metadata["dmav_edges"]
            ):
                cached = model.evaluate(pkg, edge).use_cache
                if isinstance(step, Gate):
                    assert not cached, step
                    out = np.empty_like(state)
                    apply_tile_local(
                        [step], state.reshape(1, -1), out.reshape(1, -1),
                        threads,
                    )
                    state = out
                elif cached:
                    state, _ = dmav_cached(
                        pkg, edge, state, threads, None, DENSE_BLOCK_LEVEL,
                        assignment=assign_cache_tasks(pkg, edge, threads),
                    )
                else:
                    state, _ = dmav_nocache(
                        pkg, edge, state, threads, None, DENSE_BLOCK_LEVEL
                    )
                verdicts.append(cached)
            assert verdicts == [
                gc[3] for gc in r.metadata["dmav_gate_costs"]
            ], cfg
            assert np.array_equal(r.state, state), cfg
            if fusion != "none" and threads > 1:
                counters = r.metadata["obs"]["counters"]
                assert counters["dmav.gates_cached"] > 0, cfg

    def test_plan_counters_and_hit_rate(self):
        # An unfused run compiles no plan, so its tail is replayed as
        # gate DDs through the DMAV phase.
        c = get_circuit("qft", 10)
        cfg = FlatDDConfig(threads=4, force_convert_at=0)
        r = FlatDDSimulator(cfg).run(c, keep_internals=True)
        assert r.metadata["obs"]["counters"]["dmav.plan.compiles"] == 0
        registry = MetricsRegistry()
        dmav_phase(
            cfg, r.metadata["package"], None,
            np.zeros((1, 1 << 10), dtype=complex),
            [r.metadata["dmav_edges"]], 0, 0, MemoryGuard(None),
            MemoryMeter(), registry, {}, None,
            labels=[g.name for g in c.gates[1:]], trace=[],
        )
        snap = registry.snapshot()
        counters = snap["counters"]
        # Every lookup is a compile or a whole-plan hit, so every
        # repeated root is served from its compiled plan.
        assert counters["dmav.plan.hits"] + counters[
            "dmav.plan.compiles"
        ] == counters["dmav.gates"]
        assert counters["dmav.plan.compiles"] > 0
        assert counters["dmav.plan.invalidations"] == 0
        assert snap["gauges"]["dmav.arena.bytes"]["value"] > 0

    def test_arena_zero_allocations_after_warmup(self):
        # The pool's high-water mark is bounded by the partition width
        # (buffers <= threads), never by the gate count: after warm-up
        # every per-gate buffer request is a reuse.  Fused gates take
        # Algorithm 2 and its partial buffers.
        c = get_circuit("supremacy", 10)
        r = FlatDDSimulator(
            threads=4, fusion="cost", force_convert_at=0
        ).run(c)
        counters = r.metadata["obs"]["counters"]
        cached = counters["dmav.gates_cached"]
        assert cached > 0
        assert counters["dmav.arena.partial_allocs"] <= 4
        assert counters["dmav.arena.partial_reuses"] >= cached - 4
        assert counters["dmav.arena.output_allocs"] == 1
