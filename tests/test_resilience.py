"""Resilience tests: bit-identical resume, memory guardrails, CLI codes."""

import json

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.cli import main
from repro.common.config import FlatDDConfig
from repro.common.errors import CheckpointError, ResourceExhaustedError
from repro.core.simulator import FlatDDSimulator
from repro.resilience import MemoryGuard, read_snapshot
from tests.conftest import reference_state


def run_with_checkpoint(circuit, every, path, **cfg_kwargs):
    cfg = FlatDDConfig(threads=2, **cfg_kwargs)
    return FlatDDSimulator(cfg).run(
        circuit, checkpoint_every=every, checkpoint_path=str(path)
    )


class TestBitIdenticalResume:
    def test_dd_phase_resume(self, tmp_path):
        circuit = get_circuit("ghz", 8)
        path = tmp_path / "dd.ckpt"
        full = run_with_checkpoint(circuit, 3, path)
        snap = read_snapshot(str(path))
        assert snap.phase == "dd"
        assert full.metadata["checkpoints_written"] >= 1
        resumed = FlatDDSimulator(FlatDDConfig(threads=2)).run(
            circuit, resume_from=str(path)
        )
        assert resumed.metadata["resumed"] is True
        assert resumed.metadata["resume_phase"] == "dd"
        assert np.array_equal(full.state, resumed.state)
        # GHZ never converts: both runs report the whole circuit as DD
        # phase, not just the gates applied after the resume cursor.
        assert full.metadata["dd_phase_gates"] == len(circuit.gates)
        assert resumed.metadata["dd_phase_gates"] == len(circuit.gates)

    def test_array_phase_resume(self, tmp_path):
        # Forcing an early conversion guarantees the final snapshot lands
        # in the DMAV phase.
        circuit = get_circuit("qft", 7)
        path = tmp_path / "arr.ckpt"
        full = run_with_checkpoint(circuit, 2, path, force_convert_at=3)
        snap = read_snapshot(str(path))
        assert snap.phase == "array"
        resumed = FlatDDSimulator(
            FlatDDConfig(threads=2, force_convert_at=3)
        ).run(circuit, resume_from=str(path))
        assert resumed.metadata["resume_phase"] == "array"
        assert np.array_equal(full.state, resumed.state)
        assert resumed.metadata["dd_phase_gates"] == 4

    def test_array_phase_resume_mid_tile_local_tail(self, tmp_path):
        # Every step of an unfused tail is an array-kernel step, across
        # the border level too; the last rolling snapshot lands between
        # them.
        circuit = get_circuit("dnn", 8)
        path = tmp_path / "tail.ckpt"
        full = run_with_checkpoint(circuit, 7, path, force_convert_at=5)
        snap = read_snapshot(str(path))
        assert snap.phase == "array"
        tail = len(circuit.gates) - 6
        assert 0 < snap.gate_cursor < tail
        resumed = FlatDDSimulator(
            FlatDDConfig(threads=2, force_convert_at=5)
        ).run(circuit, resume_from=str(path))
        assert np.array_equal(full.state, resumed.state)
        for result in (full, resumed):
            counters = result.metadata["obs"]["counters"]
            tile_steps = counters["dmav.gates_tile_local"]
            assert 0 < tile_steps == counters["dmav.gates"]

    def test_ewma_timed_conversion_resume(self, tmp_path):
        # No forcing: the EWMA monitor decides, and its restored
        # accumulator must re-trigger at the very same gate.
        circuit = get_circuit("supremacy", 9)
        path = tmp_path / "ewma.ckpt"
        full = run_with_checkpoint(circuit, 10, path)
        resumed = FlatDDSimulator(FlatDDConfig(threads=2)).run(
            circuit, resume_from=str(path)
        )
        assert np.array_equal(full.state, resumed.state)
        assert (
            full.metadata.get("conversion_gate_index")
            == resumed.metadata.get("conversion_gate_index")
        )
        assert (
            full.metadata["dd_phase_gates"]
            == resumed.metadata["dd_phase_gates"]
        )

    def test_resume_with_fusion(self, tmp_path):
        circuit = get_circuit("dnn", 6)
        path = tmp_path / "fused.ckpt"
        full = run_with_checkpoint(circuit, 6, path, fusion="cost")
        resumed = FlatDDSimulator(
            FlatDDConfig(threads=2, fusion="cost")
        ).run(circuit, resume_from=str(path))
        assert np.array_equal(full.state, resumed.state)

    def test_resumed_state_is_correct(self, tmp_path):
        # Bit-identity to the writer is necessary but not sufficient --
        # the resumed state must also be the *right* answer.
        circuit = get_circuit("qft", 6)
        path = tmp_path / "ok.ckpt"
        run_with_checkpoint(circuit, 5, path)
        resumed = FlatDDSimulator(FlatDDConfig(threads=2)).run(
            circuit, resume_from=str(path)
        )
        ref = reference_state(circuit)
        overlap = np.vdot(resumed.state, ref)
        assert abs(abs(overlap) - 1.0) < 1e-9

    def test_resume_rejects_wrong_circuit(self, tmp_path):
        path = tmp_path / "pin.ckpt"
        run_with_checkpoint(get_circuit("ghz", 6), 2, path)
        with pytest.raises(CheckpointError, match="fingerprint"):
            FlatDDSimulator(FlatDDConfig(threads=2)).run(
                get_circuit("qft", 6), resume_from=str(path)
            )

    def test_resume_rejects_semantic_config_change(self, tmp_path):
        circuit = get_circuit("ghz", 6)
        path = tmp_path / "cfg.ckpt"
        run_with_checkpoint(circuit, 2, path)
        with pytest.raises(CheckpointError, match="config digest"):
            FlatDDSimulator(
                FlatDDConfig(threads=2, fusion="cost")
            ).run(circuit, resume_from=str(path))

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            FlatDDSimulator(FlatDDConfig()).run(
                get_circuit("ghz", 4), checkpoint_every=2
            )

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            FlatDDSimulator(FlatDDConfig()).run(
                get_circuit("ghz", 4),
                checkpoint_every=0,
                checkpoint_path=str(tmp_path / "x"),
            )


class TestMemoryGuard:
    def test_disabled_by_default(self):
        guard = MemoryGuard(None)
        assert not guard.enabled
        assert not guard.check_dd(10**12, 0)
        guard.check_array(10**12, 0)  # must not raise

    def test_dd_breach_forces_conversion(self):
        guard = MemoryGuard(1000)
        assert guard.check_dd(2000, 5)
        assert guard.report.dd_breach_gate == 5
        assert guard.report.dd_breach_bytes == 2000

    def test_array_breach_raises_structured_error(self, tmp_path):
        guard = MemoryGuard(1000)
        marker = tmp_path / "guard.ckpt"
        with pytest.raises(ResourceExhaustedError) as info:
            guard.check_array(
                5000, 7, checkpoint=lambda: str(marker)
            )
        err = info.value
        assert err.phase == "array"
        assert err.observed_bytes == 5000
        assert err.budget_bytes == 1000
        assert err.gate_index == 7
        assert err.checkpoint_path == str(marker)

    def test_simulator_degrades_then_completes(self):
        # A budget large enough for the flat array but not for the DD
        # growth: the run must force conversion early and still finish
        # with correct amplitudes.  The DD phase outgrows it at gate 47,
        # two gates before the EWMA trigger would fire.
        circuit = get_circuit("supremacy", 9)
        cfg = FlatDDConfig(memory_budget_bytes=40_000)
        res = FlatDDSimulator(cfg).run(circuit)
        assert res.metadata.get("guard_forced_conversion") is True
        assert res.metadata["converted"] is True
        assert res.metadata["guard"]["budget_bytes"] == 40_000
        ref = reference_state(circuit)
        assert abs(abs(np.vdot(res.state, ref)) - 1.0) < 1e-9

    def test_simulator_raises_when_array_exceeds_budget(self, tmp_path):
        # 10 qubits -> the flat array alone is 16 KiB > 10 KB budget: the
        # guard must checkpoint and raise rather than thrash.
        circuit = get_circuit("supremacy", 10)
        path = tmp_path / "exhausted.ckpt"
        cfg = FlatDDConfig(threads=2, memory_budget_bytes=10_000)
        with pytest.raises(ResourceExhaustedError) as info:
            FlatDDSimulator(cfg).run(
                circuit, checkpoint_every=5, checkpoint_path=str(path)
            )
        assert info.value.checkpoint_path == str(path)
        snap = read_snapshot(str(path))
        assert snap.phase == "array"

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            FlatDDConfig(memory_budget_bytes=0)


class TestCliResilience:
    def _simulate(self, *extra):
        return main(
            ["simulate", "--family", "ghz", "--qubits", "5",
             "--backend", "flatdd", "--json", *extra]
        )

    def test_checkpoint_and_resume_via_cli(self, tmp_path, capsys):
        path = str(tmp_path / "cli.ckpt")
        assert self._simulate(
            "--checkpoint", path, "--checkpoint-every", "2"
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checkpoints_written"] >= 1
        assert self._simulate("--resume-from", path) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["resumed_from"] == path

    def test_exit_code_3_on_resource_exhaustion(self, tmp_path, capsys):
        path = str(tmp_path / "oom.ckpt")
        code = main(
            ["simulate", "--family", "supremacy", "--qubits", "10",
             "--backend", "flatdd", "--memory-budget", "10000",
             "--checkpoint", path, "--checkpoint-every", "5"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "memory budget" in err or "budget" in err

    def test_exit_code_4_on_corrupt_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_text('{"magic": "flatdd-snapshot", "version": 1}')
        assert self._simulate("--resume-from", str(bad)) == 4

    def test_exit_code_4_on_missing_checkpoint(self, tmp_path):
        assert self._simulate(
            "--resume-from", str(tmp_path / "nope.ckpt")
        ) == 4

    def test_checkpoint_every_requires_checkpoint_flag(self):
        assert self._simulate("--checkpoint-every", "2") == 2

    def test_resilience_flags_require_flatdd(self, tmp_path):
        code = main(
            ["simulate", "--family", "ghz", "--qubits", "5",
             "--backend", "ddsim",
             "--checkpoint", str(tmp_path / "x"),
             "--checkpoint-every", "2"]
        )
        assert code == 2


class TestPeakMemoryGauge:
    @pytest.mark.parametrize("backend_flag", ["flatdd", "ddsim", "quantumpp"])
    def test_gauge_is_set(self, backend_flag):
        if backend_flag == "flatdd":
            res = FlatDDSimulator(FlatDDConfig(threads=2)).run(
                get_circuit("ghz", 5)
            )
        elif backend_flag == "ddsim":
            from repro.backends.ddsim import DDSimulator

            res = DDSimulator().run(get_circuit("ghz", 5))
        else:
            from repro.backends.statevector import StatevectorSimulator

            res = StatevectorSimulator().run(get_circuit("ghz", 5))
        gauge = res.metadata["obs"]["gauges"]["sim.mem.peak_bytes"]
        assert gauge["value"] > 0
        assert gauge["value"] == res.peak_memory_bytes
