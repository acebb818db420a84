"""Snapshot format tests: exact DD round-trips and rejection paths."""

import json

import numpy as np
import pytest

from repro.backends.gatecache import GateDDCache
from repro.circuits import Circuit, get_circuit
from repro.common.config import FlatDDConfig, config_digest
from repro.common.errors import CheckpointError
from repro.dd import DDPackage
from repro.dd.io import deserialize_vector_dd, serialize_vector_dd
from repro.dd.node import ZERO_EDGE
from repro.dd.operations import mv_multiply
from repro.dd.vector import node_count, vector_to_array, zero_state
from repro.resilience import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    Snapshot,
    decode_array_state,
    read_snapshot,
    snapshot_array_phase,
    snapshot_dd_phase,
    validate_snapshot,
    write_snapshot,
)


def simulate_dd(circuit: Circuit):
    """Run a circuit purely in the DD representation."""
    pkg = DDPackage(circuit.num_qubits)
    gates = GateDDCache(pkg)
    state = zero_state(pkg)
    for gate in circuit.gates:
        state = mv_multiply(pkg, gates.get(gate), state)
    return pkg, state


def clifford_t_circuit(n: int = 5) -> Circuit:
    """A fixed Clifford+T circuit (irrational amplitudes, rich sharing)."""
    c = Circuit(n, name="clifford_t")
    for q in range(n):
        c.h(q)
    for q in range(n - 1):
        c.cx(q, q + 1)
        c.t(q)
    c.s(0)
    c.t(n - 1)
    c.h(n // 2)
    c.cx(n - 1, 0)
    return c


class TestEdgeWalkRoundTrip:
    @pytest.mark.parametrize("family,n", [("ghz", 6), ("qft", 5)])
    def test_generator_circuits(self, family, n):
        pkg, e = simulate_dd(get_circuit(family, n))
        doc = serialize_vector_dd(pkg, e)
        fresh = DDPackage(n)
        restored = deserialize_vector_dd(fresh, doc)
        assert node_count(restored) == node_count(e)
        a = vector_to_array(pkg, e, n)
        b = vector_to_array(fresh, restored, n)
        assert np.array_equal(a, b)

    def test_clifford_t(self):
        circuit = clifford_t_circuit()
        pkg, e = simulate_dd(circuit)
        doc = serialize_vector_dd(pkg, e)
        fresh = DDPackage(circuit.num_qubits)
        restored = deserialize_vector_dd(fresh, doc)
        assert np.array_equal(
            vector_to_array(pkg, e, circuit.num_qubits),
            vector_to_array(fresh, restored, circuit.num_qubits),
        )

    def test_weights_and_idx_survive_reserialization(self):
        pkg, e = simulate_dd(get_circuit("random", 6))
        doc = serialize_vector_dd(pkg, e)
        fresh = DDPackage(6)
        restored = deserialize_vector_dd(fresh, doc)
        # Bit-exact weights (float.hex) and creation indices both survive,
        # so a second serialization is byte-for-byte the first.
        assert serialize_vector_dd(fresh, restored) == doc

    def test_sharing_survives(self):
        pkg, e = simulate_dd(get_circuit("ghz", 8))
        doc = serialize_vector_dd(pkg, e)
        # GHZ has one node per level; a serializer that unrolled sharing
        # into a tree would emit exponentially more rows.
        assert len(doc["nodes"]) == node_count(e)

    def test_zero_edge(self):
        pkg = DDPackage(3)
        doc = serialize_vector_dd(pkg, ZERO_EDGE)
        assert doc["nodes"] == []
        assert deserialize_vector_dd(DDPackage(3), doc).is_zero


class TestSnapshotFile:
    def _dd_snapshot(self, tmp_path):
        circuit = get_circuit("ghz", 5)
        pkg, e = simulate_dd(circuit)

        class _Monitor:
            @staticmethod
            def state_dict():
                return {"v": (0.5).hex(), "i": 3}

        snap = snapshot_dd_phase(
            pkg, e, _Monitor, 4, circuit,
            config_digest(FlatDDConfig()),
        )
        path = str(tmp_path / "snap.json")
        write_snapshot(path, snap)
        return circuit, snap, path

    def test_write_read_round_trip(self, tmp_path):
        _, snap, path = self._dd_snapshot(tmp_path)
        loaded = read_snapshot(path)
        assert loaded == snap

    def test_validate_accepts_matching_circuit(self, tmp_path):
        circuit, _, path = self._dd_snapshot(tmp_path)
        loaded = read_snapshot(path)
        validate_snapshot(
            loaded, circuit, config_digest(FlatDDConfig()), path
        )

    def test_array_phase_round_trip(self, tmp_path):
        circuit = get_circuit("qft", 4)
        pkg = DDPackage(4)
        rng = np.random.default_rng(7)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        snap = snapshot_array_phase(
            pkg, state, 3, 2, circuit, config_digest(FlatDDConfig())
        )
        path = str(tmp_path / "arr.json")
        write_snapshot(path, snap)
        loaded = read_snapshot(path)
        assert loaded.phase == "array"
        assert loaded.gate_cursor == 2
        assert int(loaded.data["convert_at"]) == 3
        assert np.array_equal(decode_array_state(loaded), state)

    def test_decode_array_rejects_dd_phase(self, tmp_path):
        _, snap, _ = self._dd_snapshot(tmp_path)
        with pytest.raises(CheckpointError, match="array-phase"):
            decode_array_state(snap)

    def test_corrupted_checksum_rejected(self, tmp_path):
        _, _, path = self._dd_snapshot(tmp_path)
        doc = json.loads(open(path).read())
        doc["payload"]["gate_cursor"] += 1  # tamper without re-checksumming
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError, match="checksum"):
            read_snapshot(path)

    def test_version_mismatch_rejected(self, tmp_path):
        _, _, path = self._dd_snapshot(tmp_path)
        doc = json.loads(open(path).read())
        doc["version"] = SNAPSHOT_VERSION + 1
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            read_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.json")
        open(path, "w").write(json.dumps({"magic": "nope", "version": 1}))
        with pytest.raises(CheckpointError, match="magic"):
            read_snapshot(path)
        assert SNAPSHOT_MAGIC != "nope"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="not exist"):
            read_snapshot(str(tmp_path / "absent.json"))

    def test_garbage_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "garbage.json")
        open(path, "w").write("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            read_snapshot(path)

    def test_wrong_circuit_rejected(self, tmp_path):
        _, _, path = self._dd_snapshot(tmp_path)
        loaded = read_snapshot(path)
        other = get_circuit("qft", 5)
        with pytest.raises(CheckpointError, match="fingerprint"):
            validate_snapshot(
                loaded, other, config_digest(FlatDDConfig()), path
            )

    def test_wrong_width_rejected(self, tmp_path):
        _, _, path = self._dd_snapshot(tmp_path)
        loaded = read_snapshot(path)
        with pytest.raises(CheckpointError, match="qubits"):
            validate_snapshot(
                loaded, get_circuit("ghz", 7),
                config_digest(FlatDDConfig()), path,
            )

    def test_wrong_config_rejected(self, tmp_path):
        circuit, _, path = self._dd_snapshot(tmp_path)
        loaded = read_snapshot(path)
        other = config_digest(FlatDDConfig(fusion="cost"))
        with pytest.raises(CheckpointError, match="config digest"):
            validate_snapshot(loaded, circuit, other, path)

    def test_execution_only_config_knobs_accepted(self, tmp_path):
        # Thread-pool choice cannot change results, so it must not
        # invalidate a snapshot.
        circuit, _, path = self._dd_snapshot(tmp_path)
        loaded = read_snapshot(path)
        validate_snapshot(
            loaded, circuit,
            config_digest(FlatDDConfig(use_thread_pool=False)), path,
        )

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        self._dd_snapshot(tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []


class TestRestoreVnode:
    def test_restore_preserves_idx_and_counter(self):
        pkg, e = simulate_dd(get_circuit("random", 5))
        doc = serialize_vector_dd(pkg, e)
        fresh = DDPackage(5)
        restored = deserialize_vector_dd(fresh, doc)
        serial = serialize_vector_dd(fresh, restored)
        restored_idxs = [row[7] for row in serial["nodes"]]
        assert restored_idxs == [row[7] for row in doc["nodes"]]
        # New nodes must be created *after* every restored one, or the
        # operand ordering in DD addition would differ across the cut.
        assert fresh._next_idx > max(restored_idxs)

    def test_restore_is_idempotent(self):
        pkg, e = simulate_dd(get_circuit("ghz", 6))
        doc = serialize_vector_dd(pkg, e)
        fresh = DDPackage(6)
        first = deserialize_vector_dd(fresh, doc)
        before = fresh.unique_node_count
        second = deserialize_vector_dd(fresh, doc)
        # Hash-consing: the second pass resolves every row to the node the
        # first pass installed.
        assert second.n is first.n
        assert fresh.unique_node_count == before


class TestPlanCacheInvalidation:
    """checkpoint_barrier / GC must invalidate DMAV plans, and resume
    must stay bit-identical with the plan compiler enabled."""

    def test_gc_bumps_epoch(self):
        pkg = DDPackage(4)
        assert pkg.gc_epoch == 0
        pkg.collect_garbage([])
        assert pkg.gc_epoch == 1

    def test_checkpoint_barrier_bumps_epoch(self):
        pkg, e = simulate_dd(get_circuit("ghz", 4))
        before = pkg.gc_epoch
        pkg.checkpoint_barrier([e])
        assert pkg.gc_epoch == before + 1

    def test_barrier_invalidates_compiled_plans(self):
        from repro.backends.gatecache import build_gate_dd
        from repro.circuits import Gate
        from repro.core.cost_model import CostModel
        from repro.core.dmav import assign_tasks
        from repro.core.plan import PlanCache

        pkg = DDPackage(5)
        plans = PlanCache(pkg, 2, CostModel(2))
        m = build_gate_dd(pkg, Gate("h", (0,)))
        plans.get(m)
        pkg.checkpoint_barrier([m])
        plan = plans.get(m)
        assert plans.invalidations == 1
        assert plans.compiles == 2
        # The recompiled plan must still mirror the live package exactly.
        legacy = assign_tasks(pkg, m, 2)
        assert [
            [(id(node), off, c) for node, off, c in row]
            for row in plan.row_tasks
        ] == [
            [(id(node), off, c) for node, off, c in row] for row in legacy
        ]

    def test_array_phase_resume_bit_identical(self, tmp_path):
        from repro.core import FlatDDSimulator
        from repro.resilience import read_snapshot as _read

        circuit = get_circuit("qft", 7)
        path = tmp_path / "plan.ckpt"
        cfg = FlatDDConfig(threads=2, force_convert_at=1)
        full = FlatDDSimulator(cfg).run(
            circuit, checkpoint_every=3, checkpoint_path=str(path)
        )
        assert _read(str(path)).phase == "array"
        resumed = FlatDDSimulator(cfg).run(circuit, resume_from=str(path))
        assert np.array_equal(full.state, resumed.state)

    def test_ewma_checkpointed_resume_bit_identical(self, tmp_path):
        # Planned DMAV under an EWMA-timed conversion: the run that
        # writes snapshots and the run resumed from its last one land on
        # the same bits.
        from repro.core import FlatDDSimulator

        circuit = get_circuit("supremacy", 8)
        path = tmp_path / "grid.ckpt"
        cfg = FlatDDConfig(threads=2)
        full = FlatDDSimulator(cfg).run(
            circuit, checkpoint_every=5, checkpoint_path=str(path)
        )
        resumed = FlatDDSimulator(cfg).run(circuit, resume_from=str(path))
        assert np.array_equal(full.state, resumed.state)
