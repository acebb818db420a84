"""Deliberate fault injection for exercising the fuzz harness itself.

A correctness harness that has never caught a bug is untested code.  Each
named fault here patches exactly one simulation path (so the differential
oracles genuinely disagree rather than all drifting together) inside a
context manager; ``repro fuzz --plant-bug NAME`` and the harness's own
unit tests use these to demonstrate end-to-end detect -> shrink -> replay.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

import numpy as np

from repro.circuits.gates import Gate

__all__ = ["CRASH_FAULTS", "FAULTS", "plant_fault"]


@contextlib.contextmanager
def _fault_t_phase() -> Iterator[None]:
    """DD backends build Tdg wherever a T gate appears.

    Patches the gate-DD constructor shared by DDSIM and FlatDD, so both
    DD paths agree with each other but differ from the statevector
    backend -- the classic single-path phase bug.
    """
    import repro.backends.gatecache as gatecache

    original = gatecache.build_gate_dd

    def faulty(pkg, gate: Gate, windowed: bool = False):
        if gate.base_name == "t":
            gate = Gate("tdg", gate.targets, gate.controls)
        return original(pkg, gate, windowed=windowed)

    gatecache.build_gate_dd = faulty
    try:
        yield
    finally:
        gatecache.build_gate_dd = original


@contextlib.contextmanager
def _fault_swap_noop() -> Iterator[None]:
    """The statevector backend silently skips SWAP gates."""
    import repro.backends.statevector as sv

    original = sv.apply_gate_array

    def faulty(state: np.ndarray, gate: Gate, runner=None) -> None:
        if gate.base_name == "swap":
            return
        original(state, gate, runner)

    sv.apply_gate_array = faulty
    try:
        yield
    finally:
        sv.apply_gate_array = original


@contextlib.contextmanager
def _fault_conversion_drop() -> Iterator[None]:
    """Parallel DD-to-array conversion zeroes the highest amplitude block.

    Only FlatDD uses ``convert_parallel``, so the hybrid path diverges
    from both baselines -- and only on circuits that actually convert.
    """
    import repro.core.conversion as conv
    import repro.core.simulator as sim

    original = conv.convert_parallel

    def faulty(pkg, edge, threads, runner, **kwargs):
        array, report = original(pkg, edge, threads, runner, **kwargs)
        if array.size >= 4:
            array[-(array.size // 4):] = 0.0
        return array, report

    conv.convert_parallel = faulty
    sim.convert_parallel = faulty
    try:
        yield
    finally:
        conv.convert_parallel = original
        sim.convert_parallel = original


@contextlib.contextmanager
def _fault_plan_writer_drop() -> Iterator[None]:
    """Planned Algorithm 2 forgets one partial sum per shared output tile.

    Every compiled plan drops the last partial buffer from each output
    tile's writer list that holds more than one, so the summation misses
    that buffer's contribution.  Only fused gate DDs that take Algorithm 2
    reach it (thread counts above 1), so FlatDD diverges from the
    baselines and from its own unfused run -- the partial-sum bug of
    cached DMAV.
    """
    from repro.core.plan import PlanCache

    original = PlanCache._compile

    def faulty(self, m):
        plan = original(self, m)
        plan.writers = [ws[:-1] if len(ws) > 1 else ws for ws in plan.writers]
        return plan

    PlanCache._compile = faulty
    try:
        yield
    finally:
        PlanCache._compile = original


@contextlib.contextmanager
def _fault_row_task_offset() -> Iterator[None]:
    """Planned Algorithm 1 reads the wrong column half at its second split.

    Assign halves the thread set once per level from the root down to
    the border level ``n - log2 t - 1``, so only four or more threads
    make a split at level ``n - 2``.  Every compiled row task made below
    it reads the input block with bit ``n - 2`` of its offset flipped,
    the other column half at that level.  Only fused gate DDs that take
    Algorithm 1 at four or more threads reach it.
    """
    from repro.core.plan import PlanCache
    from repro.parallel.partition import border_level

    original = PlanCache._compile

    def faulty(self, m):
        plan = original(self, m)
        n = self.pkg.num_qubits
        if border_level(n, self.threads) < n - 2:
            flip = 1 << (n - 2)
            plan.row_tasks = [
                [(node, i_v ^ flip, coeff) for node, i_v, coeff in tasks]
                for tasks in plan.row_tasks
            ]
        return plan

    PlanCache._compile = faulty
    try:
        yield
    finally:
        PlanCache._compile = original


@contextlib.contextmanager
def _fault_pair_transpose() -> Iterator[None]:
    """The array kernel's ``pair`` branch applies ``U^T`` instead of ``U``.

    The 2x2 pair matmul serves an unfused one-target gate whose target
    sits above ``dense_block_level`` (a window at or below it is one
    GEMM), so only circuits wider than the dense window, or runs at a
    lower dense level, reach it.  Symmetric gates (H, X, RX, SX) hide it.
    """
    import repro.core.dmav as dmav

    original = dmav._tile_uncontrolled

    class Transposed:
        def __init__(self, gate: Gate) -> None:
            self.gate, self.params = gate, gate.params

        def matrix(self) -> np.ndarray:
            return self.gate.matrix().T

    def faulty(gates, target, v, out, dense_level):
        if target > dense_level:
            gates = [Transposed(g) for g in gates]
        original(gates, target, v, out, dense_level)

    dmav._tile_uncontrolled = faulty
    try:
        yield
    finally:
        dmav._tile_uncontrolled = original


@contextlib.contextmanager
def _fault_pool_drop_task() -> Iterator[None]:
    """The thread pool never runs the last task of a batch.

    Inline runners call every task themselves, so only pooled runs
    (``use_thread_pool=True``) lose work: the last thread's conversion
    fill and the last tile of every gate applied tile by tile.
    """
    from repro.parallel.pool import TaskRunner

    original = TaskRunner.run

    def faulty(self, thunks):
        if self.use_pool and len(thunks) > 1:
            return original(self, thunks[:-1]) + [None]
        return original(self, thunks)

    TaskRunner.run = faulty
    try:
        yield
    finally:
        TaskRunner.run = original


@contextlib.contextmanager
def _fault_transient_crash(times: int = 2) -> Iterator[None]:
    """Gate-DD construction raises for the first ``times`` calls, then heals.

    Unlike the silent-corruption faults above, this one *crashes*: the
    serving layer uses it to exercise the transient-fault path (worker
    retries with backoff, then the job succeeds).  The counter is shared
    across the whole block, so the first job to execute absorbs the
    failures and everything after it runs clean.
    """
    import repro.backends.gatecache as gatecache

    original = gatecache.build_gate_dd
    calls = {"n": 0}

    def faulty(pkg, gate: Gate, windowed: bool = False):
        calls["n"] += 1
        if calls["n"] <= times:
            raise RuntimeError(
                f"injected transient fault ({calls['n']}/{times})"
            )
        return original(pkg, gate, windowed=windowed)

    gatecache.build_gate_dd = faulty
    try:
        yield
    finally:
        gatecache.build_gate_dd = original


@contextlib.contextmanager
def _fault_permanent_crash() -> Iterator[None]:
    """Gate-DD construction always raises.

    Exhausts any retry budget: the serving layer uses it to assert a
    permanently failing job goes FAILED without poisoning the worker
    pool for the jobs behind it.
    """
    import repro.backends.gatecache as gatecache

    original = gatecache.build_gate_dd

    def faulty(pkg, gate: Gate, windowed: bool = False):
        raise RuntimeError("injected permanent fault")

    gatecache.build_gate_dd = faulty
    try:
        yield
    finally:
        gatecache.build_gate_dd = original


#: name -> context manager installing the fault for the enclosed block.
#: These faults *silently corrupt* one simulation path, so some oracle
#: sees a wrong state; see CRASH_FAULTS for the raising kind.  The last
#: four sit on paths that only a non-default execution knob reaches
#: (fusion at t > 1, fusion at t >= 4, a dense level below a fuzz
#: circuit's top qubit, the thread pool), so only
#: ``execution_invariance`` sees them.
FAULTS: dict[str, Callable[[], "contextlib.AbstractContextManager"]] = {
    "t-phase": _fault_t_phase,
    "swap-noop": _fault_swap_noop,
    "conversion-drop": _fault_conversion_drop,
    "plan-writer-drop": _fault_plan_writer_drop,
    "row-task-offset": _fault_row_task_offset,
    "pair-transpose": _fault_pair_transpose,
    "pool-drop-task": _fault_pool_drop_task,
}

#: Faults that *raise* instead of corrupting.  The serving layer
#: (`repro.serve`) plants these to exercise its retry/failure paths;
#: they are kept out of FAULTS because "caught by a differential oracle"
#: does not apply to an exception.
CRASH_FAULTS: dict[str, Callable[[], "contextlib.AbstractContextManager"]] = {
    "transient-crash": _fault_transient_crash,
    "permanent-crash": _fault_permanent_crash,
}


@contextlib.contextmanager
def plant_fault(name: str | None) -> Iterator[None]:
    """Install fault ``name`` for the enclosed block (None = no-op).

    Resolves both catalogs: corruption faults (:data:`FAULTS`) and
    crash faults (:data:`CRASH_FAULTS`).
    """
    if name is None:
        yield
        return
    factory = FAULTS.get(name) or CRASH_FAULTS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown fault {name!r}; known: "
            f"{sorted(FAULTS) + sorted(CRASH_FAULTS)}"
        )
    with factory():
        yield
