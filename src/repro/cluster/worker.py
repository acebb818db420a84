"""Worker-process entry point for the serving fleet.

Each worker is one OS process with one execution engine: it connects
back to the broker, authenticates with the spawn token, then loops
``recv job -> execute -> send result`` until the broker says drain (or
the socket dies -- a vanished broker means the worker must exit, not
linger as an orphan).

Execution reuses the in-process :class:`~repro.serve.workers.WorkerPool`
via its single-job entry point, so retry/backoff, deadline enforcement,
sweep semantics, and simulator construction are *identical* to the
thread-pool path -- the fleet escapes the GIL without forking the
execution semantics.  A heartbeat thread beats independently of the main
loop, so a worker deep in a long simulation still proves liveness.

Durability: when the fleet is journaled, the worker appends each job's
terminal transition to its own journal segment (``<journal>.w<slot>``,
see :func:`repro.serve.journal.journal_segments`) *before* the result
frame is sent.  A SIGKILL that lands between compute and send therefore
loses nothing: ``--resume`` merges the segment and serves the journaled
state from cache.
"""

from __future__ import annotations

import logging
import os
import threading

from repro.cluster import protocol
from repro.cluster.transport import connect
from repro.common.config import ServeConfig
from repro.common.errors import ProtocolError
from repro.common.wire import array_to_bytes
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import ResultCache
from repro.serve.jobs import Job, JobState
from repro.serve.journal import JobJournal
from repro.serve.workers import WorkerPool

__all__ = ["worker_main"]

_log = logging.getLogger("repro.cluster.worker")


def _result_frame(job: Job, slot: int) -> tuple[dict, bytes]:
    """Encode one finished job as a result frame (header, payload)."""
    header: dict = {
        "type": protocol.MSG_RESULT,
        "slot": slot,
        "job_id": job.job_id,
        "state": job.state.value,
        "attempts": job.attempts,
    }
    if job.state is JobState.DONE and job.result is not None:
        meta, payload = array_to_bytes(job.result.state)
        header["result"] = job.result.to_wire(include_state=False)
        header["array"] = meta
        return header, payload
    header["error"] = job.error
    return header, b""


def _decode_failure(wire: dict, slot: int, exc: Exception) -> dict:
    """The FAILED result frame of a job whose wire form does not decode."""
    return {
        "type": protocol.MSG_RESULT,
        "slot": slot,
        "job_id": wire.get("job_id", ""),
        "state": JobState.FAILED.value,
        "attempts": 1,
        "error": f"permanent: {type(exc).__name__}: {exc}",
    }


def worker_main(spec: dict) -> None:
    """Run one fleet worker to completion (the spawned process target)."""
    slot = int(spec["slot"])
    logging.basicConfig(
        level=logging.WARNING,
        format=f"[worker {slot}] %(levelname)s %(name)s: %(message)s",
    )
    config = ServeConfig(**spec["config"])
    conn = connect(
        spec["host"], spec["port"], io_timeout=config.io_deadline_seconds
    )
    registry = MetricsRegistry()
    pool = WorkerPool(config, registry=registry)
    #: Worker-local result cache.  The broker already dedups across the
    #: fleet, so this only catches a re-dispatch of work this worker
    #: produced earlier in the batch -- cheap insurance, never needed
    #: for correctness.
    cache = ResultCache(
        max_entries=config.cache_max_entries,
        max_bytes=config.cache_max_bytes,
    )
    journal = None
    if spec.get("journal_segment"):
        journal = JobJournal(
            spec["journal_segment"],
            resume=True,
            writer_id=f"w{slot}",
            fsync=config.journal_fsync,
            registry=registry,
        )
    stop = threading.Event()

    def heartbeat() -> None:
        interval = float(spec["heartbeat_interval"])
        while not stop.wait(interval):
            try:
                conn.send({"type": protocol.MSG_HEARTBEAT, "slot": slot})
            except (OSError, ProtocolError):
                return  # broker is gone; the main loop will exit too

    try:
        conn.send(
            {
                "type": protocol.MSG_HELLO,
                "token": spec["token"],
                "slot": slot,
                "pid": os.getpid(),
            }
        )
        beat = threading.Thread(
            target=heartbeat, name=f"heartbeat-{slot}", daemon=True
        )
        beat.start()
        while True:
            try:
                frame = conn.recv()
            except ProtocolError as exc:
                if exc.kind == "timeout":
                    # Idle past the I/O deadline, not dead: probe the
                    # link with a heartbeat and keep waiting.  A broker
                    # that truly vanished fails the probe (or the next
                    # recv) and the worker exits instead of lingering.
                    try:
                        conn.send(
                            {"type": protocol.MSG_HEARTBEAT, "slot": slot}
                        )
                        continue
                    except (OSError, ProtocolError):
                        pass
                _log.warning("broker connection lost; exiting")
                return
            except OSError:
                _log.warning("broker connection lost; exiting")
                return
            if frame is None:
                return  # broker closed cleanly
            header, _payload = frame
            if header["type"] in (protocol.MSG_DRAIN, protocol.MSG_BYE):
                try:
                    conn.send({"type": protocol.MSG_BYE, "slot": slot})
                except (OSError, ProtocolError):
                    pass
                return
            if header["type"] != protocol.MSG_JOB:
                continue
            try:
                job = Job.from_wire(header["job"])
            except Exception as exc:
                # The payload itself is bad (e.g. a CircuitError):
                # retrying or respawning cannot help, so the job fails
                # once and the worker lives on.
                _log.warning("job does not decode: %r", exc)
                try:
                    conn.send(_decode_failure(header["job"], slot, exc))
                except (OSError, ProtocolError):
                    return
                continue
            if journal is not None:
                journal.observe(job)
            internal = False
            try:
                pool.run_job(job, cache)
            except Exception:
                # A worker-side bug outside the pool's own isolation:
                # report the job FAILED rather than dying with it.
                _log.exception("internal error running job %s", job.job_id)
                internal = True
                if not job.done:
                    if job.state is JobState.PENDING:
                        job.transition(JobState.RUNNING)
                    job.error = "internal worker error (see worker log)"
                    job.transition(JobState.FAILED)
            out_header, payload = _result_frame(job, slot)
            if internal:
                out_header["internal_error"] = True
            try:
                conn.send(out_header, payload)
            except (OSError, ProtocolError):
                _log.warning("broker vanished mid-send; exiting")
                return
    finally:
        stop.set()
        if journal is not None:
            journal.close()
        pool.close()
        conn.close()
