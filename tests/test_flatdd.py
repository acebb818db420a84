"""Integration tests for the FlatDD simulator (Figure 3 pipeline)."""

import itertools

import numpy as np
import pytest

from repro import FlatDDConfig, FlatDDSimulator
from repro.backends import DDSimulator, StatevectorSimulator
from repro.circuits import get_circuit
from repro.common.config import DENSE_BLOCK_LEVEL
from repro.common.errors import ParallelError
from repro.core.cost_model import CostModel, assign_cache_tasks
from repro.core.dmav import dmav_cached, dmav_nocache

from tests.conftest import reference_state


class TestCorrectness:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_agrees_with_reference(self, small_circuit, threads):
        ref = reference_state(small_circuit)
        r = FlatDDSimulator(threads=threads).run(small_circuit)
        assert abs(np.vdot(r.state, ref)) ** 2 == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("fusion", ["none", "cost", "koperations"])
    @pytest.mark.parametrize("policy", ["auto", "always", "never"])
    def test_config_matrix_on_irregular_circuit(self, fusion, policy):
        c = get_circuit("supremacy", 6, cycles=6)
        ref = reference_state(c)
        r = FlatDDSimulator(
            threads=4, fusion=fusion, cache_policy=policy
        ).run(c)
        assert abs(np.vdot(r.state, ref)) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_thread_pool_mode(self):
        c = get_circuit("dnn", 6, layers=3)
        ref = reference_state(c)
        r = FlatDDSimulator(threads=4, use_thread_pool=True).run(c)
        assert abs(np.vdot(r.state, ref)) ** 2 == pytest.approx(1.0, abs=1e-8)


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
        r = FlatDDSimulator(threads=2).run(get_circuit("ghz", 6))
        samples = r.metadata["ewma_samples"]
        assert len(samples) == 6
        assert all(s.ewma > 0 for s in samples)


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
        every gate of ``metadata["dmav_edges"]``) land on the same bits
        under every cache policy.  Cost-aware fusion makes "auto" mix
        both kernels at threads >= 2."""
        c = get_circuit("supremacy", 9)
        for policy, fusion in itertools.product(
            ("auto", "always", "never"), ("none", "cost")
        ):
            cfg = FlatDDConfig(
                threads=threads, cache_policy=policy, fusion=fusion,
                force_convert_at=2,
            )
            r = FlatDDSimulator(cfg).run(c, keep_internals=True)
            # The same DD phase, stopped at the conversion point, yields
            # the array the DMAV phase started from.
            state = FlatDDSimulator(cfg).run(c[:3]).state
            pkg = r.metadata["package"]
            model = CostModel(threads)
            verdicts = []
            for edge in r.metadata["dmav_edges"]:
                cost = model.evaluate(pkg, edge)
                cached = (
                    cost.use_cache if policy == "auto"
                    else policy == "always"
                )
                if cached:
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

    def test_plan_counters_and_hit_rate(self):
        c = get_circuit("qft", 10)
        r = FlatDDSimulator(threads=4, force_convert_at=0).run(c)
        counters = r.metadata["obs"]["counters"]
        hits = counters["dmav.plan.hits"]
        misses = counters["dmav.plan.misses"]
        assert hits > 0
        # The structural memo's task-weighted service rate: QFT repeats
        # no gate root, so anything >= 0.5 is pure sub-DD sharing.
        assert hits / (hits + misses) >= 0.5
        assert counters["dmav.plan.compiles"] > 0
        assert counters["dmav.plan.invalidations"] == 0
        assert r.metadata["obs"]["gauges"]["dmav.arena.bytes"]["value"] > 0

    def test_arena_zero_allocations_after_warmup(self):
        # The pool's high-water mark is bounded by the partition width
        # (buffers <= threads), never by the gate count: after warm-up
        # every per-gate buffer request is a reuse.
        c = get_circuit("supremacy", 10)
        r = FlatDDSimulator(
            threads=4, cache_policy="always", force_convert_at=0
        ).run(c)
        counters = r.metadata["obs"]["counters"]
        dmav_gates = counters["dmav.gates"]
        assert counters["dmav.arena.partial_allocs"] <= 4
        assert counters["dmav.arena.partial_reuses"] >= dmav_gates - 4
        assert counters["dmav.arena.output_allocs"] == 1
