"""Wire protocol tests: framing, structured errors, and serialization.

The invariants under test are the ones the fleet's robustness rests on:
a reader can never hang or silently desynchronize on malformed input
(every failure is a :class:`ProtocolError` with a ``kind``), and every
job/result/circuit survives the wire bit-for-bit where it matters
(fingerprints, cache keys, state arrays).
"""

import io
import json
import math

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.circuits.circuit import Circuit
from repro.cluster.protocol import (
    MAGIC,
    PREFIX_BYTES,
    pack_frame,
    read_frame,
    unpack_frame,
)
from repro.common.config import FlatDDConfig
from repro.common.errors import CircuitError, ProtocolError
from repro.common.wire import (
    array_from_bytes,
    array_to_bytes,
    b64_decode_array,
    b64_encode_array,
    json_safe,
)
from repro.serve.jobs import Job, JobResult

pytestmark = pytest.mark.serve


def read_from(buffer: bytes, **caps):
    return read_frame(io.BytesIO(buffer).read, **caps)


class TestFraming:
    def test_round_trip_with_payload(self):
        payload = bytes(range(256))
        frame = pack_frame({"type": "job", "n": 3}, payload)
        header, got = unpack_frame(frame)
        assert header == {"type": "job", "n": 3}
        assert got == payload

    def test_round_trip_empty_payload(self):
        header, payload = unpack_frame(pack_frame({"type": "heartbeat"}))
        assert header["type"] == "heartbeat"
        assert payload == b""

    def test_clean_eof_returns_none(self):
        assert read_from(b"") is None

    def test_truncated_prefix_raises(self):
        frame = pack_frame({"type": "job"})
        with pytest.raises(ProtocolError) as exc:
            read_from(frame[: PREFIX_BYTES - 2])
        assert exc.value.kind == "truncated"

    def test_truncated_body_raises(self):
        frame = pack_frame({"type": "job"}, b"payload")
        for cut in (PREFIX_BYTES + 1, len(frame) - 1):
            with pytest.raises(ProtocolError) as exc:
                read_from(frame[:cut])
            assert exc.value.kind == "truncated"

    def test_bad_magic_raises(self):
        frame = bytearray(pack_frame({"type": "job"}))
        frame[:4] = b"XXXX"
        with pytest.raises(ProtocolError) as exc:
            read_from(bytes(frame))
        assert exc.value.kind == "bad_magic"
        assert MAGIC not in bytes(frame[:4])

    def test_oversized_declared_header_rejected_before_allocation(self):
        frame = pack_frame({"type": "job"})
        with pytest.raises(ProtocolError) as exc:
            read_from(frame, max_header_bytes=4)
        assert exc.value.kind == "oversized_header"

    def test_oversized_declared_payload_rejected_before_allocation(self):
        frame = pack_frame({"type": "job"}, b"x" * 64)
        with pytest.raises(ProtocolError) as exc:
            read_from(frame, max_payload_bytes=16)
        assert exc.value.kind == "oversized_payload"

    def test_sender_rejects_oversized_payload(self):
        with pytest.raises(ProtocolError) as exc:
            pack_frame({"type": "result"}, b"x" * 32, max_payload_bytes=16)
        assert exc.value.kind == "oversized_payload"

    def test_malformed_json_header_raises(self):
        good = pack_frame({"type": "jo"})
        # Same declared length, undecodable header bytes.
        bad = good[:PREFIX_BYTES] + b"{nope!!!!!!!!" + good[PREFIX_BYTES + 13:]
        with pytest.raises(ProtocolError) as exc:
            read_from(bad)
        assert exc.value.kind == "malformed_header"

    def test_header_without_type_rejected_both_ways(self):
        with pytest.raises(ProtocolError):
            pack_frame({"kind": "job"})
        blob = json.dumps({"kind": "job"}).encode()
        import struct

        frame = struct.pack("!4sII", MAGIC, len(blob), 0) + blob
        with pytest.raises(ProtocolError) as exc:
            read_from(frame)
        assert exc.value.kind == "malformed_header"

    def test_trailing_bytes_rejected_by_unpack(self):
        with pytest.raises(ProtocolError):
            unpack_frame(pack_frame({"type": "job"}) + b"junk")

    def test_back_to_back_frames_stream(self):
        stream = io.BytesIO(
            pack_frame({"type": "a"}, b"1") + pack_frame({"type": "b"}, b"2")
        )
        assert read_frame(stream.read)[0]["type"] == "a"
        assert read_frame(stream.read)[1] == b"2"
        assert read_frame(stream.read) is None


class TestArrayWire:
    def test_round_trip_1d_complex(self):
        arr = np.arange(8, dtype=np.complex128) * (1 + 2j)
        meta, payload = array_to_bytes(arr)
        out = array_from_bytes(meta, payload)
        assert np.array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_round_trip_2d_sweep_stack(self):
        arr = np.random.default_rng(0).random((3, 16)).astype(np.complex128)
        meta, payload = array_to_bytes(arr)
        assert np.array_equal(array_from_bytes(meta, payload), arr)

    def test_byte_count_mismatch_raises(self):
        meta, payload = array_to_bytes(np.zeros(4, dtype=np.complex128))
        with pytest.raises(ProtocolError) as exc:
            array_from_bytes(meta, payload[:-1])
        assert exc.value.kind == "array_mismatch"

    def test_b64_round_trip(self):
        arr = np.random.default_rng(1).random(8) + 0.5j
        assert np.array_equal(b64_decode_array(b64_encode_array(arr)), arr)

    def test_decoded_array_owns_its_memory(self):
        meta, payload = array_to_bytes(np.ones(4, dtype=np.complex128))
        out = array_from_bytes(meta, payload)
        out[0] = 9  # must not raise: not a read-only frombuffer view


class TestJsonSafe:
    def test_numpy_scalars_and_arrays(self):
        data = {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "b": np.bool_(True),
            "arr": np.array([1.0, 2.0]),
            "z": 1 + 2j,
        }
        out = json_safe(data)
        json.dumps(out)  # must be serializable
        assert out["i"] == 3 and isinstance(out["i"], int)
        assert out["arr"] == [1.0, 2.0]
        assert out["z"] == [1.0, 2.0]

    def test_nested_containers_and_nonstring_keys(self):
        out = json_safe({1: {"x": (np.float32(2.0), b"\x00\x01")}})
        json.dumps(out)
        assert "1" in out

    def test_real_simulation_metadata_is_wire_safe(self):
        from repro.core import FlatDDSimulator

        result = FlatDDSimulator(config=FlatDDConfig(threads=1)).run(
            get_circuit("ghz", 4)
        )
        json.dumps(json_safe(result.metadata))


class TestCircuitWire:
    def test_fingerprint_survives_round_trip(self):
        c = Circuit(3, name="wired")
        c.h(0).cx(0, 1).rz(math.pi / 7, 2).ccx(0, 1, 2)
        c.add("u3", 1, params=(0.1, -0.2, 1e-9))
        rebuilt = Circuit.from_wire(
            json.loads(json.dumps(c.to_wire()))
        )
        assert rebuilt.fingerprint() == c.fingerprint()
        assert rebuilt.num_qubits == 3 and rebuilt.name == "wired"

    def test_malformed_payload_raises_circuit_error(self):
        with pytest.raises(CircuitError):
            Circuit.from_wire({"gates": []})
        with pytest.raises(CircuitError):
            Circuit.from_wire(
                {"num_qubits": 2, "gates": [["h", [0]]]}  # short row
            )
        with pytest.raises(CircuitError):
            Circuit.from_wire(
                {"num_qubits": 1, "gates": [["cx", [1], [0], []]]}  # oob
            )

    @pytest.mark.parametrize(
        "row",
        [
            ["h", ["x"], [], []],
            ["rz", [0], [], ["abc"]],
            ["h", [0], "ab", []],
            ["h", [None], [], []],
        ],
        ids=["text-target", "text-param", "text-controls", "null-target"],
    )
    def test_non_numeric_row_raises_circuit_error(self, row):
        # A serve worker retries anything but a ReproError as transient,
        # so a bad row must not surface as a bare ValueError/TypeError.
        with pytest.raises(CircuitError, match="bad wire gate row"):
            Circuit.from_wire({"num_qubits": 2, "gates": [row]})

    def test_nan_param_raises_circuit_error(self):
        # Python's json reads the non-standard ``NaN`` literal.
        data = json.loads(
            '{"num_qubits": 2, "gates": [["rz", [1], [], [NaN]]]}'
        )
        with pytest.raises(CircuitError, match="non-finite"):
            Circuit.from_wire(data)


class TestJobWire:
    def test_job_round_trip_preserves_cache_key(self):
        job = Job(
            get_circuit("qft", 4),
            backend="flatdd",
            config=FlatDDConfig(threads=2, fusion="koperations"),
            shots=50,
            sample_seed=7,
            priority=3,
            deadline_seconds=12.5,
            max_retries=1,
            job_id="j42",
        )
        job.seq = 9
        back = Job.from_wire(json.loads(json.dumps(job.to_wire())))
        assert back.cache_key() == job.cache_key()
        assert back.job_id == "j42" and back.seq == 9
        assert back.config == job.config
        assert back.shots == 50 and back.sample_seed == 7
        assert back.deadline_seconds == 12.5 and back.max_retries == 1

    def test_sweep_job_round_trip(self):
        circ = Circuit(2).rx(0.0, 0).rz(0.0, 1)
        job = Job(
            circ,
            param_sets=[(0.1, 0.2), (math.pi, -1.0)],
            job_id="sweep1",
        )
        back = Job.from_wire(json.loads(json.dumps(job.to_wire())))
        assert back.param_sets == [(0.1, 0.2), (math.pi, -1.0)]
        assert back.cache_key() == job.cache_key()

    def test_result_round_trip_embedded_state(self):
        state = np.zeros(4, dtype=np.complex128)
        state[0] = 1 / np.sqrt(2)
        state[3] = 1j / np.sqrt(2)
        result = JobResult(
            job_id="r1",
            backend="flatdd",
            state=state,
            runtime_seconds=0.25,
            cache_hit=True,
            attempts=2,
            counts={"00": 5, "11": 5},
            metadata={"obs": {"counters": {"x": np.int64(1)}}},
        )
        back = JobResult.from_wire(
            json.loads(json.dumps(result.to_wire()))
        )
        assert np.array_equal(back.state, state)
        assert back.counts == {"00": 5, "11": 5}
        assert back.cache_hit and back.attempts == 2
        assert back.metadata["obs"]["counters"]["x"] == 1

    def test_result_round_trip_binary_state_payload(self):
        state = np.random.default_rng(2).random(8).astype(np.complex128)
        result = JobResult(
            job_id="r2", backend="ddsim", state=state, runtime_seconds=0.1
        )
        wire = result.to_wire(include_state=False)
        assert "state" not in wire
        meta, payload = array_to_bytes(state)
        back = JobResult.from_wire(wire, state=array_from_bytes(meta, payload))
        assert np.array_equal(back.state, state)


class TestIoDeadlines:
    """Transport send/recv deadlines: a stalled peer raises a structured
    ProtocolError("timeout") instead of blocking forever (the regression
    here was an unbounded ``settimeout(None)`` socket)."""

    def _stalled_pair(self, io_timeout):
        from repro.cluster.transport import Listener, connect

        listener = Listener(io_timeout=io_timeout)
        client = connect(
            listener.host, listener.port, io_timeout=io_timeout
        )
        server = listener.accept(timeout=5.0)
        assert server is not None
        return listener, client, server

    def test_recv_deadline_raises_structured_timeout(self):
        listener, client, server = self._stalled_pair(io_timeout=0.2)
        try:
            with pytest.raises(ProtocolError) as excinfo:
                server.recv()  # the client never sends a frame
            assert excinfo.value.kind == "timeout"
        finally:
            client.close()
            server.close()
            listener.close()

    def test_send_deadline_raises_when_peer_stops_draining(self):
        listener, client, server = self._stalled_pair(io_timeout=0.25)
        try:
            # The server never reads: once loopback buffers fill, sendall
            # stalls and the deadline must surface as a ProtocolError.
            payload = b"x" * (1 << 20)
            with pytest.raises(ProtocolError) as excinfo:
                for _ in range(64):
                    client.send({"type": "blob"}, payload)
            assert excinfo.value.kind == "timeout"
            assert "not draining" in str(excinfo.value)
        finally:
            client.close()
            server.close()
            listener.close()

    def test_live_traffic_is_unaffected_by_the_deadline(self):
        listener, client, server = self._stalled_pair(io_timeout=0.5)
        try:
            client.send({"type": "ping", "n": 1})
            header, payload = server.recv()
            assert header["type"] == "ping" and payload == b""
        finally:
            client.close()
            server.close()
            listener.close()
