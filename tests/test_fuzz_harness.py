"""Tests for the differential/metamorphic fuzz harness itself.

The harness is correctness tooling, so these tests check both directions:
healthy code passes every oracle on seeded circuits, and a planted fault
is caught, shrunk to a minimal circuit, persisted, and replayable.
"""

import collections
import json
import os

import numpy as np
import pytest

from repro.circuits import Circuit, get_circuit, parse_qasm
from repro.common.config import DENSE_BLOCK_LEVEL, FlatDDConfig
from repro.core import FlatDDSimulator
from repro.obs import Tracer
from repro.verify.fuzz import (
    FAULTS,
    ORACLES,
    REGIMES,
    FuzzSpec,
    generate_circuit,
    load_regression,
    phase_aligned_error,
    plant_fault,
    replay_regression,
    run_campaign,
    run_oracles,
    shrink_circuit,
    spec_for_iteration,
    write_regression,
)
from repro.circuits.qasm import to_qasm
from repro.verify.fuzz.oracles import execution_table

pytestmark = pytest.mark.fuzz


class TestGenerator:
    def test_deterministic_from_spec(self):
        spec = FuzzSpec(regime="mixed", num_qubits=5, num_gates=40, seed=99)
        a = generate_circuit(spec)
        b = generate_circuit(spec)
        assert to_qasm(a) == to_qasm(b)

    @pytest.mark.parametrize("regime", [r for r in REGIMES if r != "generator"])
    def test_regime_respects_gate_pool(self, regime):
        clifford = {"h", "x", "y", "z", "s", "sdg", "cx", "cz", "swap"}
        pools = {
            "clifford": clifford,
            "clifford_t": clifford | {"t", "tdg"},
            "rotations": {"rx", "ry", "rz", "p", "cx", "cz", "cp", "rzz",
                          "rxx"},
            "mixed": clifford | {"t", "tdg", "sx", "rx", "ry", "rz", "p",
                                 "u2", "u3", "cp", "rzz"},
        }
        spec = FuzzSpec(regime=regime, num_qubits=4, num_gates=60, seed=5)
        c = generate_circuit(spec)
        assert len(c.gates) == 60
        assert {g.name for g in c.gates} <= pools[regime]

    def test_parameterized_gates_get_params(self):
        spec = FuzzSpec(regime="rotations", num_qubits=3, num_gates=50,
                        seed=1)
        c = generate_circuit(spec)
        for g in c.gates:
            if g.name in ("rx", "ry", "rz", "p", "cp", "rzz", "rxx"):
                assert len(g.params) == 1

    def test_generator_regime_uses_benchmark_families(self):
        names = set()
        for seed in range(12):
            spec = FuzzSpec(regime="generator", num_qubits=5, num_gates=30,
                            seed=seed)
            names.add(generate_circuit(spec).name.split("_")[1])
        assert len(names) >= 3  # several distinct families sampled

    def test_unknown_regime_rejected(self):
        from repro.common.errors import CircuitError

        with pytest.raises(CircuitError):
            generate_circuit(FuzzSpec(regime="nope"))

    def test_spec_for_iteration_deterministic_and_diverse(self):
        specs = [spec_for_iteration(7, i, max_qubits=6) for i in range(20)]
        again = [spec_for_iteration(7, i, max_qubits=6) for i in range(20)]
        assert specs == again
        assert len({s.regime for s in specs}) >= 3
        assert all(2 <= s.num_qubits <= 6 for s in specs)


class TestPhaseAlignedError:
    def test_global_phase_is_invisible(self, rng):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        w = np.exp(1j * 1.234) * v
        assert phase_aligned_error(v, w) < 1e-12

    def test_real_difference_is_visible(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        w = np.zeros(4, dtype=complex)
        w[1] = 1.0
        assert phase_aligned_error(v, w) > 0.5

    def test_shape_mismatch_is_infinite(self):
        assert phase_aligned_error(np.ones(2), np.ones(4)) == float("inf")


class TestOracles:
    @pytest.mark.parametrize("family,n,kwargs", [
        ("ghz", 5, {}),
        ("qft", 4, {}),
        ("supremacy", 4, {"cycles": 4}),
        ("random", 4, {"gates": 25}),
    ], ids=["ghz", "qft", "supremacy", "random"])
    def test_all_oracles_pass_on_benchmarks(self, family, n, kwargs):
        outcomes = run_oracles(get_circuit(family, n, **kwargs))
        assert len(outcomes) == len(ORACLES)
        failed = [o.oracle for o in outcomes if not o.passed]
        assert not failed
        # Healthy code should hit the tightest tolerance tier throughout.
        assert all(o.tier == "tight" for o in outcomes if not o.skipped)

    def test_tiny_circuit_skips_multi_gate_oracles(self):
        c = Circuit(1).h(0)
        outcomes = {o.oracle: o for o in run_oracles(c)}
        assert outcomes["execution_invariance"].skipped
        assert outcomes["checkpoint_resume"].skipped
        assert outcomes["sweep_consistency"].skipped
        assert outcomes["flatdd_vs_statevector"].passed

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError):
            run_oracles(Circuit(2).h(0), oracles=["nope"])

    def test_oracle_subset_runs_only_requested(self):
        outcomes = run_oracles(
            get_circuit("ghz", 4), oracles=["norm_preserved"]
        )
        assert [o.oracle for o in outcomes] == ["norm_preserved"]


class TestExecutionTable:
    """``execution_invariance``'s fixed table of configurations."""

    def test_every_knob_value_has_a_row(self):
        gates = 10
        rows = execution_table(gates)
        configs = [FlatDDConfig(**{"threads": 2, **row}) for row in rows]

        def seen(knob):
            return {getattr(cfg, knob) for cfg in configs}

        assert seen("threads") == {1, 2, 4}
        assert seen("force_convert_at") == {0, gates // 2, gates - 1, gates}
        assert seen("fusion") == {"none", "cost", "koperations"}
        assert seen("qubit_order") == {"natural", "interaction", "sift"}
        assert seen("use_thread_pool") == {False, True}
        assert seen("dense_block_level") == {1, DENSE_BLOCK_LEVEL}
        # Every pooled row's inline twin is a row too.
        for row in rows:
            if row.get("use_thread_pool"):
                twin = {k: v for k, v in row.items() if k != "use_thread_pool"}
                assert twin in rows

    def test_reaches_the_branches_above_the_dense_window(self, monkeypatch):
        import repro.core.dmav as dmav
        from repro.parallel.pool import TaskRunner

        calls = collections.Counter()
        for name in ("_tile_sum", "_tile_uncontrolled", "_copy_control_off"):
            def counted(*args, _name=name, _fn=getattr(dmav, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(dmav, name, counted)
        run = TaskRunner.run

        def counted_run(self, thunks):
            calls["pooled"] += self.use_pool
            return run(self, thunks)

        monkeypatch.setattr(TaskRunner, "run", counted_run)
        # A fuzz-sized circuit: at the default dense level every one of
        # these gates is a window GEMM.
        c = Circuit(4).h(0).h(3).cx(0, 3).cx(3, 2).ry(0.3, 2)
        (outcome,) = run_oracles(c, oracles=["execution_invariance"])
        assert outcome.passed and outcome.tier == "tight"
        assert all(calls[k] for k in (
            "_tile_sum", "_tile_uncontrolled", "_copy_control_off", "pooled"
        )), calls


class TestForcedConversion:
    """The hook ``execution_invariance``'s conversion rows depend on."""

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            FlatDDConfig(force_convert_at=-1)

    def test_forced_point_recorded_in_metadata(self):
        c = get_circuit("ghz", 4)
        r = FlatDDSimulator(FlatDDConfig(force_convert_at=1)).run(c)
        assert r.metadata["forced_conversion"] is True
        assert r.metadata["converted"] is True
        assert r.metadata["conversion_gate_index"] == 1

    def test_forcing_past_the_end_never_converts(self):
        c = get_circuit("ghz", 4)
        r = FlatDDSimulator(FlatDDConfig(force_convert_at=999)).run(c)
        assert r.metadata["converted"] is False

    def test_forced_and_ewma_states_agree(self):
        c = get_circuit("supremacy", 4, cycles=5)
        base = FlatDDSimulator().run(c).state
        for point in (0, len(c.gates) // 2, len(c.gates) - 1):
            forced = FlatDDSimulator(
                FlatDDConfig(force_convert_at=point)
            ).run(c).state
            assert phase_aligned_error(base, forced) < 1e-9


class TestShrinker:
    def test_minimizes_planted_gate_bug(self):
        # Predicate: "circuit still contains a t gate" -- a stand-in
        # oracle with a known minimal failure (exactly one gate).
        c = get_circuit("random", 5, gates=30, seed=8)
        c.t(2)

        def still_fails(cand):
            return any(g.name == "t" for g in cand.gates)

        shrunk = shrink_circuit(c, still_fails)
        assert len(shrunk.gates) == 1
        assert shrunk.gates[0].name == "t"
        assert shrunk.num_qubits == 1  # qubit removal compacted the wires

    def test_minimizes_real_oracle_violation(self):
        # Monkeypatched faulty T gate (DD paths only) + a real oracle: the
        # shrinker must reduce a 20+-gate circuit to the minimal h;t pair.
        c = get_circuit("random", 4, gates=20, seed=3)
        c.h(0)
        c.t(0)

        def still_fails(cand):
            with plant_fault("t-phase"):
                outs = run_oracles(
                    cand, oracles=["flatdd_vs_statevector"], threads=1
                )
            return any(not o.passed for o in outs)

        assert still_fails(c)
        shrunk = shrink_circuit(c, still_fails)
        assert len(shrunk.gates) <= 3
        assert any(g.name == "t" for g in shrunk.gates)

    def test_predicate_budget_respected(self):
        calls = 0

        def pred(cand):
            nonlocal calls
            calls += 1
            return True

        shrink_circuit(get_circuit("random", 4, gates=40), pred,
                       max_checks=25)
        assert calls <= 25


class TestFaults:
    def test_fault_registry_and_restoration(self):
        import repro.backends.gatecache as gatecache

        original = gatecache.build_gate_dd
        with plant_fault("t-phase"):
            assert gatecache.build_gate_dd is not original
        assert gatecache.build_gate_dd is original

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            with plant_fault("nope"):
                pass

    #: Faults on paths that only a non-default execution knob reaches.
    KNOB_ONLY = (
        "plan-writer-drop", "row-task-offset", "pair-transpose",
        "pool-drop-task",
    )

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_each_fault_is_caught_by_some_oracle(self, fault):
        c = get_circuit("supremacy", 4, cycles=4)
        c.t(0)
        c.h(0)
        c.t(0)
        c.swap(0, 2)
        c.h(1)
        with plant_fault(fault):
            outcomes = run_oracles(c)
        failed = [o.oracle for o in outcomes if not o.passed]
        assert failed, fault
        if fault in self.KNOB_ONLY:
            assert failed == ["execution_invariance"], failed


class TestCampaign:
    def test_healthy_smoke_all_regimes(self):
        tracer = Tracer()
        result = run_campaign(
            seed=0, iterations=6, max_qubits=5, max_gates=30,
            out_dir=None, tracer=tracer,
        )
        assert result.iterations == 6
        assert result.ok
        assert result.oracle_runs["flatdd_vs_statevector"] == 6
        assert result.obs["counters"]["fuzz.iterations"] == 6
        assert result.obs["counters"]["fuzz.violations"] == 0
        # PR-1 obs payload: per-phase summary present when traced.
        assert any(
            p["name"] == "fuzz_iteration" for p in result.obs["summary"]
        )

    def test_campaign_deterministic(self):
        a = run_campaign(seed=5, iterations=4, out_dir=None)
        b = run_campaign(seed=5, iterations=4, out_dir=None)
        assert a.worst_tier == b.worst_tier
        assert a.oracle_runs == b.oracle_runs

    def test_budget_stops_early(self):
        result = run_campaign(
            seed=0, iterations=10_000, budget_seconds=0.5, out_dir=None
        )
        assert result.stopped_by_budget
        assert result.iterations < 10_000

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(iterations=1, regimes=("nope",))

    def test_planted_bug_end_to_end(self, tmp_path):
        out = str(tmp_path / "regressions")
        result = run_campaign(
            seed=0, iterations=12, plant_bug="t-phase", out_dir=out,
            oracles=["flatdd_vs_statevector"],
            regimes=("clifford_t",),
        )
        assert not result.ok
        v = result.violations[0]
        assert v.shrunk_gates <= 3  # minimal t-phase repro is h;t
        assert v.regression_path is not None and os.path.exists(
            v.regression_path
        )
        # The file replays: healthy code passes it...
        outcomes = replay_regression(v.regression_path)
        assert all(o.passed for o in outcomes)
        # ...and the recorded fault still reproduces the failure.
        circuit, meta = load_regression(v.regression_path)
        assert meta["plant_bug"] == "t-phase"
        with plant_fault("t-phase"):
            outcomes = run_oracles(circuit, oracles=[meta["oracle"]])
        assert any(not o.passed for o in outcomes)

    def test_json_summary_is_serializable(self):
        result = run_campaign(seed=1, iterations=2, out_dir=None)
        payload = json.loads(json.dumps(result.summary_dict()))
        assert payload["iterations"] == 2


class TestRegressionFiles:
    def test_write_load_roundtrip(self, tmp_path):
        c = get_circuit("ghz", 3)
        path = write_regression(
            c, "norm_preserved", directory=str(tmp_path),
            seed=1, spec={"regime": "mixed"}, note="test",
        )
        loaded, meta = load_regression(path)
        assert to_qasm(loaded) == to_qasm(c)
        assert meta["oracle"] == "norm_preserved"
        assert meta["seed"] == 1

    def test_write_is_idempotent(self, tmp_path):
        c = get_circuit("ghz", 3)
        p1 = write_regression(c, "norm_preserved", directory=str(tmp_path))
        p2 = write_regression(c, "norm_preserved", directory=str(tmp_path))
        assert p1 == p2
        assert len(list(tmp_path.iterdir())) == 1

    def test_non_regression_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_regression(str(bad))
