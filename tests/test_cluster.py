"""Process-fleet integration tests: dispatch, faults, and durability.

These spawn real worker processes, so they are the slowest serve tests;
each one keeps its fleet small (2 workers) and its circuits tiny.  The
non-negotiable assertions: fleet results are **bit-identical** to the
single-process service, a SIGKILLed worker's in-flight job requeues and
completes, and a SIGKILLed *fleet* finishes under ``--resume`` with the
journaled jobs served from cache.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.cluster.broker import ClusterService
from repro.common.config import ServeConfig
from repro.serve import JobState, run_manifest

pytestmark = pytest.mark.serve

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_manifest(path, lines):
    with open(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return str(path)


MANIFEST_LINES = [
    {"family": "ghz", "qubits": 5, "shots": 25, "repeat": 3},
    {"family": "qft", "qubits": 4, "shots": 10},
    {"family": "ghz", "qubits": 6},
    {"family": "wstate", "qubits": 4},
]


def run_single_process(manifest):
    report, jobs = run_manifest(manifest, config=ServeConfig(threads=1))
    return report, {j.job_id: j for j in jobs}


class TestClusterService:
    def test_fleet_matches_single_process_bit_identical(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.jsonl", MANIFEST_LINES)
        ref_report, ref_jobs = run_single_process(manifest)
        assert ref_report.ok
        svc = ClusterService(ServeConfig(threads=1), processes=2)
        try:
            report, jobs = run_manifest(manifest, service=svc)
        finally:
            svc.close()
        assert report.ok
        assert report.states == ref_report.states
        assert report.cluster is not None
        assert report.cluster["results"] >= 1
        for job in jobs:
            ref = ref_jobs[job.job_id]
            assert job.state is JobState.DONE
            assert np.array_equal(job.result.state, ref.result.state), (
                f"job {job.job_id} state differs from single-process run"
            )
            assert job.result.counts == ref.result.counts

    def test_dedup_fans_out_from_cache(self):
        svc = ClusterService(ServeConfig(threads=1), processes=2)
        try:
            ids = [
                svc.submit(get_circuit("ghz", 4), shots=10, sample_seed=5)
                for _ in range(6)
            ]
            report = svc.drain()
            results = [svc.result(i) for i in ids]
        finally:
            svc.close()
        assert report.ok and report.deduped_jobs == 5
        # One simulation crossed the wire; five fan-outs came from cache.
        assert report.cluster["dispatched"] == 1
        assert sum(1 for r in results if r.cache_hit) == 5
        first = results[0].state
        for r in results[1:]:
            assert np.array_equal(r.state, first)
            assert r.counts == results[0].counts

    def test_sigkill_worker_mid_batch_requeues_and_completes(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.jsonl", MANIFEST_LINES)
        _ref_report, ref_jobs = run_single_process(manifest)
        svc = ClusterService(ServeConfig(threads=1, max_retries=2), processes=2)
        dispatcher = svc.pool
        original_dispatch = dispatcher._dispatch
        killed = []

        def murderous_dispatch(slot, group, job, inflight, dispatch_counts):
            ok = original_dispatch(
                slot, group, job, inflight, dispatch_counts
            )
            if ok and not killed:
                # SIGKILL the worker right after its first job crossed
                # the wire: the broker must detect the death, requeue,
                # and finish the batch on the survivors/respawns.
                killed.append(slot)
                os.kill(dispatcher.supervisor.pid(slot), signal.SIGKILL)
            return ok

        dispatcher._dispatch = murderous_dispatch
        try:
            report, jobs = run_manifest(manifest, service=svc)
        finally:
            svc.close()
        assert killed, "no dispatch happened; the kill never fired"
        assert report.cluster["worker_deaths"] >= 1
        assert report.cluster["requeues"] >= 1
        assert report.states == {"DONE": len(jobs)}
        for job in jobs:
            ref = ref_jobs[job.job_id]
            assert np.array_equal(job.result.state, ref.result.state)
            assert job.result.counts == ref.result.counts

    def test_failed_job_crosses_wire_as_fault_record(self):
        # Sweep jobs are unsupported on ddsim: the worker reports a
        # permanent FAILED record; healthy jobs in the batch still run.
        svc = ClusterService(ServeConfig(threads=1), processes=1)
        try:
            from repro.circuits.circuit import Circuit

            sweep = Circuit(2).rx(0.0, 0)
            bad = svc.submit(
                sweep, backend="ddsim", param_sets=[(0.1,), (0.2,)]
            )
            good = svc.submit(get_circuit("ghz", 4))
            report = svc.drain()
            assert svc.poll(bad).state is JobState.FAILED
            assert "permanent" in svc.poll(bad).error
            assert svc.poll(good).state is JobState.DONE
        finally:
            svc.close()
        assert report.states == {"DONE": 1, "FAILED": 1}

    def test_request_drain_leaves_jobs_pending_for_resume(self):
        svc = ClusterService(ServeConfig(threads=1), processes=1)
        try:
            for _ in range(3):
                svc.submit(get_circuit("ghz", 4))
            svc.request_drain()
            report = svc.drain()
        finally:
            svc.close()
        # Graceful drain before any dispatch: nothing executed, nothing
        # lost -- the jobs are still PENDING (journaled as submitted).
        assert report.states == {"PENDING": 3}
        assert report.cluster["drained"] is True
        assert report.cluster["dispatched"] == 0

    def test_sweep_job_matches_single_process(self, tmp_path):
        manifest_lines = [
            {
                "qasm": "OPENQASM 2.0; include \"qelib1.inc\"; "
                        "qreg q[2]; rx(0) q[0]; rz(0) q[1];",
                "param_sets": [[0.3, 0.7], [1.1, -0.4], [0.3, 0.7]],
            }
        ]
        manifest = write_manifest(tmp_path / "sweep.jsonl", manifest_lines)
        ref_report, ref_jobs = run_single_process(manifest)
        assert ref_report.ok
        svc = ClusterService(ServeConfig(threads=1), processes=1)
        try:
            report, jobs = run_manifest(manifest, service=svc)
        finally:
            svc.close()
        assert report.ok
        (job,) = jobs
        ref = ref_jobs[job.job_id]
        assert job.result.state.shape == ref.result.state.shape
        assert np.array_equal(job.result.state, ref.result.state)


class TestExplicitMatrixJobs:
    """Quantum-volume jobs carry their SU(4) matrices across the wire."""

    def test_fleet_qvolume_job_matches_run(self):
        from repro import FlatDDSimulator

        circuit = get_circuit("qvolume", 6)
        ref = FlatDDSimulator(threads=1).run(circuit).state
        svc = ClusterService(ServeConfig(threads=1), processes=1)
        try:
            job_id = svc.submit(circuit)
            report = svc.drain()
            state = svc.result(job_id).state
        finally:
            svc.close()
        assert report.states == {"DONE": 1}
        assert report.cluster["worker_deaths"] == 0
        assert np.array_equal(state, ref)

    def test_undecodable_job_fails_once_without_killing_the_worker(
        self, monkeypatch
    ):
        from repro.circuits.circuit import Circuit
        from repro.serve.jobs import Job

        to_wire = Job.to_wire

        def broken(job):
            wire = to_wire(job)
            if job.circuit.name == "broken":
                wire["circuit"]["gates"] = [["h", ["x"], [], []]]
            return wire

        monkeypatch.setattr(Job, "to_wire", broken)
        svc = ClusterService(ServeConfig(threads=1), processes=1)
        try:
            bad = svc.submit(
                Circuit(4, get_circuit("ghz", 4).gates, name="broken")
            )
            good = svc.submit(get_circuit("ghz", 5))
            report = svc.drain()
            failed, done = svc.poll(bad), svc.poll(good)
        finally:
            svc.close()
        assert failed.state is JobState.FAILED
        assert "CircuitError" in failed.error
        assert done.state is JobState.DONE
        assert report.cluster["worker_deaths"] == 0
        assert report.cluster["dispatched"] == 2


def _kill_every_dispatch(dispatcher, kills):
    """Make every job dispatch kill its worker before it can answer.

    The worker is stopped (SIGSTOP) before the job is sent and killed
    after (resumed instead if the dispatch did not happen), so a worker
    that would finish the job quickly can never report it first.  Each
    killed slot is appended to ``kills``.
    """
    original_dispatch = dispatcher._dispatch

    def murderous_dispatch(slot, group, job, inflight, dispatch_counts):
        pid = dispatcher.supervisor.pid(slot)
        os.kill(pid, signal.SIGSTOP)
        ok = original_dispatch(slot, group, job, inflight, dispatch_counts)
        if ok:
            kills.append(slot)
            os.kill(pid, signal.SIGKILL)
        else:
            os.kill(pid, signal.SIGCONT)
        return ok

    dispatcher._dispatch = murderous_dispatch


class TestFaultPaths:
    def test_retry_budget_exhaustion_fails_the_job(self):
        # Kill the worker after *every* dispatch: the job requeues once,
        # then the budget (max_retries=1) is spent and it must FAIL with
        # the structured retry-budget reason instead of looping forever.
        svc = ClusterService(
            ServeConfig(
                threads=1,
                max_retries=1,
                respawn_backoff_base=0.01,
                respawn_backoff_max=0.05,
                breaker_failures=10,
            ),
            processes=1,
        )
        dispatcher = svc.pool
        kills = []
        _kill_every_dispatch(dispatcher, kills)
        try:
            job_id = svc.submit(get_circuit("ghz", 4))
            report = svc.drain()
            job = svc.poll(job_id)
        finally:
            svc.close()
        assert len(kills) == 2  # initial dispatch + one retry
        assert job.state is JobState.FAILED
        assert "spent the retry budget" in job.error
        assert report.states == {"FAILED": 1}

    def test_corrupt_result_frame_requeues_and_completes(self):
        # A result frame whose array descriptor does not decode is a
        # transient fault: the broker discards it, requeues the job, and
        # the retry produces the correct state.
        class CorruptFirstResult:
            corrupted = 0

            def worker_up(self, dispatcher, slot, conn):
                pass

            def dispatch(self, dispatcher, slot, job):
                pass

            def result(self, dispatcher, slot, msg, payload):
                if msg.get("state") == "DONE" and not self.corrupted:
                    self.corrupted = 1
                    msg = dict(msg)
                    msg["array"] = dict(msg.get("array") or {})
                    msg["array"]["dtype"] = "bogus"
                return msg, payload

        svc = ClusterService(ServeConfig(threads=1), processes=1)
        svc.pool.chaos = CorruptFirstResult()
        try:
            job_id = svc.submit(get_circuit("ghz", 4), shots=10)
            report = svc.drain()
            job = svc.poll(job_id)
        finally:
            svc.close()
        assert svc.pool.chaos.corrupted == 1
        assert report.states == {"DONE": 1}
        assert report.cluster["requeues"] >= 1
        ref = get_circuit("ghz", 4)
        from repro.core import FlatDDSimulator

        expected = FlatDDSimulator(threads=1).run(ref).state
        assert np.array_equal(job.result.state, expected)

    def test_crashloop_trips_breaker_quarantine_and_brownout(self):
        # The acceptance scenario: the same slot dies on every dispatch.
        # Deaths 1 and 2 respawn (with backoff); death 3 trips the
        # breaker, the slot is quarantined, its capacity is subtracted,
        # and -- with every slot now unhealthy -- admission rejects new
        # work with the structured "brownout" reason.
        from repro.common.errors import AdmissionError

        svc = ClusterService(
            ServeConfig(
                threads=1,
                max_retries=10,
                respawn_backoff_base=0.01,
                respawn_backoff_max=0.05,
                breaker_failures=3,
                brownout_min_alive_fraction=0.5,
            ),
            processes=1,
        )
        dispatcher = svc.pool
        _kill_every_dispatch(dispatcher, [])
        try:
            job_id = svc.submit(get_circuit("ghz", 4))
            report = svc.drain()
            job = svc.poll(job_id)
            # Bounded respawns: exactly breaker_failures - 1 before the
            # quarantine verdict cancels further respawns.
            assert report.cluster["respawn_counts"] == {0: 2}
            assert report.cluster["quarantined"] == [0]
            assert report.cluster["healthy_capacity"] == 0
            assert job.state is JobState.FAILED
            # The whole (one-slot) fleet is quarantined: admission now
            # sheds load with a reason instead of queueing the doomed.
            assert dispatcher.brownout_reason() == "brownout"
            with pytest.raises(AdmissionError) as excinfo:
                svc.submit(get_circuit("ghz", 4))
            assert excinfo.value.reason == "brownout"
            assert report.cluster["brownout_rejections"] >= 1 or (
                dispatcher.brownout_rejections >= 1
            )
        finally:
            svc.close()


class TestFleetKillAndResume:
    def test_sigkilled_fleet_finishes_on_resume(self, tmp_path):
        """SIGKILL broker+workers mid-batch; --resume completes the batch
        with journaled DONE jobs served from cache (zero re-execution)."""
        manifest = write_manifest(
            tmp_path / "m.jsonl",
            [
                {"family": "ghz", "qubits": 5, "shots": 10},
                {"family": "qft", "qubits": 5},
                {"family": "wstate", "qubits": 5},
                {"family": "ghz", "qubits": 6},
                {"family": "qft", "qubits": 6},
                {"family": "wstate", "qubits": 6},
            ],
        )
        journal = str(tmp_path / "wal.jsonl")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", manifest,
                "--processes", "2", "--journal", journal, "--threads", "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # killpg must not hit pytest
        )
        try:
            # Wait until at least one DONE record is journaled anywhere
            # (broker file or a worker segment), then kill the session.
            deadline = time.time() + 120
            import glob as glob_mod

            def journaled_done():
                for path in [journal] + glob_mod.glob(journal + ".w*"):
                    try:
                        with open(path, encoding="utf-8") as fh:
                            if '"to":"DONE"' in fh.read():
                                return True
                    except OSError:
                        pass
                return False

            while time.time() < deadline:
                if proc.poll() is not None or journaled_done():
                    break
                time.sleep(0.05)
            if proc.poll() is None:
                assert journaled_done(), "no DONE journaled before timeout"
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                os.killpg(proc.pid, signal.SIGKILL)
        out = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", manifest,
                "--processes", "2", "--journal", journal, "--resume",
                "--threads", "1", "--json",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["states"] == {"DONE": 6}
        recovery = report["recovery"]
        assert recovery["cache_seeded"] >= 1
        # Zero re-execution: every journaled-DONE job completed from the
        # seeded cache, so dispatches cover at most the unfinished rest.
        assert (
            report["cluster"]["dispatched"]
            <= 6 - recovery["cache_seeded"]
        )
