"""Unit tests for DMAV (Algorithms 1 and 2) and its plan compiler."""

import itertools
import math

import numpy as np
import pytest

from repro.backends.gatecache import build_gate_dd
from repro.circuits import Gate, get_circuit
from repro.circuits.gates import CONTROLLED_ALIASES, GATE_BUILDERS, UnitaryGate
from repro.common.config import DENSE_BLOCK_LEVEL, TOLERANCE, FlatDDConfig
from repro.core.cost_model import (
    CostModel,
    GateCost,
    assign_cache_tasks,
    mac_count,
)
from repro.core.fusion import K_OPERATIONS, fuse_cost_aware, fuse_k_operations
from repro.core.dmav import (
    apply_tile_local,
    assign_tasks,
    dmav_cached,
    dmav_nocache,
    run_border_task_batch,
)
from repro.core.plan import PlanCache
from repro.core.simulator import FlatDDSimulator, dmav_phase
from repro.dd import DDPackage, matrix_to_dense, mm_multiply, single_qubit_gate
from repro.dd.analysis import bottom_out, dense_matrix_block, kron_collapse
from repro.dd.matrix import controlled_gate, kept_entries, two_qubit_gate
from repro.dd.operations import identity_extend
from repro.metrics.memory import MemoryMeter
from repro.obs.metrics import MetricsRegistry
from repro.parallel.arena import BufferArena
from repro.parallel.partition import border_level
from repro.parallel.pool import TaskRunner
from repro.common.errors import ParallelError
from repro.resilience.guard import MemoryGuard
from repro.verify.fuzz.oracles import TOLERANCE_LADDER

from tests.conftest import force_dmav_verdict, random_state, random_unitary

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _random_gates(pkg, seed=0):
    """A spread of gate DDs covering 1q / controlled / low / high targets."""
    n = pkg.num_qubits
    gates = [
        Gate("h", (0,)),
        Gate("h", (n - 1,)),
        Gate("rz", (n // 2,), params=(0.7,)),
        Gate("cx", (0,), (n - 1,)),
        Gate("cx", (n - 1,), (0,)),
        Gate("swap", (0, n - 1)),
        Gate("ccx", (1,), (0, n - 1)) if n >= 3 else Gate("x", (0,)),
        Gate("cp", (n - 2,), (1,), params=(0.3,)) if n >= 3 else Gate("z", (0,)),
        Gate("rz", (0,), params=(0.5,)),
        Gate("cz", (1,), (0,)),
        Gate("u3", (n - 1,), params=(0.3, 0.7, 1.1)),
    ]
    return [build_gate_dd(pkg, g) for g in gates]


#: Dense bottom-out levels the gate-suite tests sweep: -1 (no dense blocks
#: at all), 0 and 1 (Kronecker collapses, pass-through, 2x2 and generic
#: levels above small blocks) and the default, where every node of a
#: 5-qubit gate is one dense block.
DENSE_LEVELS = [-1, 0, 1, DENSE_BLOCK_LEVEL]


def _threads_by_level(thread_counts):
    """``(threads, dense_level)`` cases; default-level ids stay ``[t]``."""
    return [
        pytest.param(
            t, level,
            id=str(t) if level == DENSE_BLOCK_LEVEL else f"{t}-dense{level}",
        )
        for level in DENSE_LEVELS
        for t in thread_counts
    ]


class TestAssign:
    def test_border_level_definition(self):
        assert border_level(10, 4) == 10 - 2 - 1

    def test_single_thread_gets_root(self):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, 2)
        tasks = assign_tasks(pkg, m, 1)
        assert len(tasks) == 1
        assert len(tasks[0]) == 1
        node, i_v, coeff = tasks[0][0]
        assert node is m.n and i_v == 0 and coeff == m.w

    def test_threads_split_row_space(self):
        pkg = DDPackage(4)
        m = pkg.identity_edge(3)
        tasks = assign_tasks(pkg, m, 4)
        # Identity: each thread gets exactly its diagonal block, reading
        # the matching V block.
        for u, thread_tasks in enumerate(tasks):
            assert len(thread_tasks) == 1
            _, i_v, _ = thread_tasks[0]
            assert i_v == u * 4

    def test_h_on_top_qubit_gives_two_tasks_per_thread(self):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, 3)
        tasks = assign_tasks(pkg, m, 2)
        # H's 2x2 block at the root is dense: each thread (row block)
        # multiplies both column blocks.
        assert [len(t) for t in tasks] == [2, 2]

    def test_invalid_thread_count_rejected(self):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, 0)
        with pytest.raises(ParallelError):
            assign_tasks(pkg, m, 3)
        with pytest.raises(ParallelError):
            assign_tasks(pkg, m, 32)


class TestDMAVNoCache:
    @pytest.mark.parametrize(
        "threads, dense_level", _threads_by_level([1, 2, 4])
    )
    def test_matches_dense_for_gate_suite(self, threads, dense_level):
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=threads)
        for m in _random_gates(pkg):
            w, stats = dmav_nocache(
                pkg, m, v, threads, dense_level=dense_level
            )
            ref = matrix_to_dense(pkg, m) @ v
            np.testing.assert_allclose(w, ref, atol=1e-10)
            assert stats.threads == threads

    def test_out_buffer_reused_and_zeroed(self):
        pkg = DDPackage(4)
        v = random_state(4, seed=1)
        m = single_qubit_gate(pkg, H, 2)
        out = np.full(16, 99.0, dtype=complex)
        w, _ = dmav_nocache(pkg, m, v, 1, out=out)
        assert w is out
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)

    def test_aliased_output_rejected(self):
        pkg = DDPackage(3)
        v = random_state(3, seed=1)
        m = single_qubit_gate(pkg, H, 0)
        with pytest.raises(ValueError):
            dmav_nocache(pkg, m, v, 1, out=v)

    def test_wrong_state_length_rejected(self):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, 0)
        with pytest.raises(ValueError):
            dmav_nocache(pkg, m, np.zeros(8, dtype=complex), 1)

    def test_thread_pool_execution(self):
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=5)
        m = controlled_gate(pkg, X, (0,), (4,))
        with TaskRunner(4, use_pool=True) as runner:
            w, _ = dmav_nocache(pkg, m, v, 4, runner=runner)
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)

    @pytest.mark.parametrize("dense_level", [-1, 0, 2, 8])
    def test_dense_level_sweep(self, dense_level):
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=2)
        m = controlled_gate(pkg, H, (2,), (0, 4))
        w, _ = dmav_nocache(pkg, m, v, 2, dense_level=dense_level)
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)


class TestDMAVCached:
    @pytest.mark.parametrize(
        "threads, dense_level", _threads_by_level([1, 2, 4, 8])
    )
    def test_matches_dense_for_gate_suite(self, threads, dense_level):
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=threads + 10)
        for m in _random_gates(pkg):
            w, stats = dmav_cached(
                pkg, m, v, threads, dense_level=dense_level
            )
            ref = matrix_to_dense(pkg, m) @ v
            np.testing.assert_allclose(w, ref, atol=1e-10)
            assert stats.used_cache

    def test_cache_hits_on_shared_border_nodes(self):
        # H on the top qubit: both column tasks of a thread see the same
        # identity node below -> one real run + one scalar multiply.
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=3)
        m = single_qubit_gate(pkg, H, n - 1)
        w, stats = dmav_cached(pkg, m, v, 2)
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)
        assert stats.cache_hits >= 1

    def test_buffer_sharing_on_disjoint_outputs(self):
        # Identity-like gates produce non-overlapping partial outputs, so
        # threads share one buffer (Algorithm 2 lines 22-25).
        n = 5
        pkg = DDPackage(n)
        m = pkg.identity_edge(n - 1)
        assignment = assign_cache_tasks(pkg, m, 4)
        assert assignment.num_buffers == 1

    def test_dense_gate_needs_multiple_buffers(self):
        n = 5
        pkg = DDPackage(n)
        m = single_qubit_gate(pkg, H, n - 1)
        assignment = assign_cache_tasks(pkg, m, 2)
        # Both threads write both halves: outputs overlap, buffers split.
        assert assignment.num_buffers == 2

    def test_precomputed_assignment_reused(self):
        n = 4
        pkg = DDPackage(n)
        v = random_state(n, seed=4)
        m = single_qubit_gate(pkg, H, 1)
        assignment = assign_cache_tasks(pkg, m, 2)
        w, _ = dmav_cached(pkg, m, v, 2, assignment=assignment)
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)

    def test_cached_equals_uncached(self):
        n = 6
        pkg = DDPackage(n)
        v = random_state(n, seed=8)
        for m in _random_gates(pkg):
            w1, _ = dmav_nocache(pkg, m, v, 4)
            w2, _ = dmav_cached(pkg, m, v, 4)
            np.testing.assert_allclose(w1, w2, atol=1e-10)

    def test_thread_pool_execution(self):
        n = 5
        pkg = DDPackage(n)
        v = random_state(n, seed=6)
        m = single_qubit_gate(pkg, H, n - 1)
        with TaskRunner(4, use_pool=True) as runner:
            w, _ = dmav_cached(pkg, m, v, 4, runner=runner)
        np.testing.assert_allclose(w, matrix_to_dense(pkg, m) @ v, atol=1e-10)


def _plan_cache(pkg, threads):
    return PlanCache(pkg, threads, CostModel(threads))


def _task_ids(rows):
    return [[(id(node), off, coeff) for node, off, coeff in row] for row in rows]


def _fused_gates(pkg, threads):
    """Fused, windowed gate DDs: the traffic the plan compiler serves.

    Algorithm 3's and k-operations' products of a supremacy and a dnn
    circuit's windowed gate DDs at ``pkg``'s width, priced for
    ``threads``.  At n = 8 their roots sit above and below the border
    level, and from t = 2 on some take Algorithm 2 on their own verdict.
    """
    model = CostModel(threads)
    fused = []
    for family in ("supremacy", "dnn"):
        edges = [
            build_gate_dd(pkg, g, windowed=True)
            for g in get_circuit(family, pkg.num_qubits).gates
        ]
        fused += fuse_cost_aware(pkg, edges, model).gates
        fused += fuse_k_operations(pkg, edges, K_OPERATIONS).gates
    return fused


def _gate_suites(threads):
    """``(pkg, gate DDs)`` inputs of the plan tests: single full-height
    gates at n = 5, then fused, windowed products at n = 8."""
    pkg = DDPackage(5)
    yield pkg, _random_gates(pkg)
    pkg = DDPackage(8)
    yield pkg, _fused_gates(pkg, threads)


class TestGatePlan:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_plan_reproduces_legacy_partitions_exactly(self, threads):
        for pkg, gates in _gate_suites(threads):
            plans = _plan_cache(pkg, threads)
            border = border_level(pkg.num_qubits, threads)
            for m in gates:
                plan = plans.get(m)
                legacy_rows = assign_tasks(pkg, m, threads)
                legacy_cache = assign_cache_tasks(pkg, m, threads)
                # Same nodes, same offsets, bit-identical coefficients,
                # same per-thread order: the plan holds the descents'
                # own task lists.
                assert _task_ids(plan.row_tasks) == _task_ids(legacy_rows)
                assert _task_ids(plan.assignment.tasks) == _task_ids(
                    legacy_cache.tasks
                )
                assert plan.assignment.buffer_of == legacy_cache.buffer_of
                assert plan.assignment.num_buffers == legacy_cache.num_buffers
            if pkg.num_qubits == 8:
                # The fused suite covers both sides of the border, and
                # Algorithm 2 on its own verdict wherever t allows it.
                levels = {m.n.level for m in gates}
                assert min(levels) < border <= max(levels)
                verdicts = {plans.get(m).cost.use_cache for m in gates}
                assert (True in verdicts) == (threads > 1)

    def test_plan_cost_matches_cost_model(self):
        n = 5
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, 4)
        fresh = CostModel(4)
        for m in _random_gates(pkg):
            assert plans.get(m).cost == fresh.evaluate(pkg, m)

    def test_repeated_root_served_from_plan_cache(self):
        pkg = DDPackage(5)
        plans = _plan_cache(pkg, 4)
        m = build_gate_dd(pkg, Gate("h", (0,)))
        first = plans.get(m)
        again = plans.get(m)
        assert again is first
        # One compile, then one whole-plan hit.
        assert (plans.compiles, plans.hits) == (1, 1)

    def test_gc_epoch_invalidates_plans(self):
        pkg = DDPackage(5)
        plans = _plan_cache(pkg, 2)
        m = build_gate_dd(pkg, Gate("h", (0,)))
        plans.get(m)
        assert len(plans) == 1
        pkg.collect_garbage([m])
        # Same (still-live) root: the epoch bump must drop the cache and
        # force a recompile, because GC may have swept nodes whose ids the
        # plans key by.
        plan = plans.get(m)
        assert plans.invalidations == 1
        assert plans.compiles == 2
        assert _task_ids(plan.row_tasks) == _task_ids(
            assign_tasks(pkg, m, 2)
        )

    def test_writers_cover_exactly_the_written_slices(self):
        threads = 4
        for pkg, gates in _gate_suites(threads):
            plans = _plan_cache(pkg, threads)
            h = (1 << pkg.num_qubits) // threads
            for m in gates:
                plan = plans.get(m)
                expected = [set() for _ in range(threads)]
                for u, tasks in enumerate(plan.assignment.tasks):
                    for _, i_p, _ in tasks:
                        expected[i_p // h].add(plan.assignment.buffer_of[u])
                assert [sorted(ws) for ws in expected] == plan.writers


def _row(v):
    """The zero-copy one-row ``(1, 2**n)`` batch planned DMAV takes."""
    return v.reshape(1, -1)


class TestPlannedExecution:
    """Planned kernels must be bit-identical to the listing forms."""

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_planned_nocache_bit_identical(self, threads):
        for pkg, gates in _gate_suites(threads):
            n = pkg.num_qubits
            plans = _plan_cache(pkg, threads)
            v = random_state(n, seed=threads)
            for m in gates:
                legacy, _ = dmav_nocache(pkg, m, v, threads)
                dirty = np.full(1 << n, 99.0 + 9j)
                planned, _ = dmav_nocache(
                    pkg, None, _row(v), threads, out=_row(dirty),
                    plans=[plans.get(m)], out_dirty=True,
                )
                assert np.array_equal(legacy, planned.reshape(-1))

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_planned_cached_bit_identical(self, threads):
        for pkg, gates in _gate_suites(threads):
            n = pkg.num_qubits
            plans = _plan_cache(pkg, threads)
            arena = BufferArena(1 << n)
            v = random_state(n, seed=threads + 20)
            for m in gates:
                plan = plans.get(m)
                legacy, s1 = dmav_cached(pkg, m, v, threads)
                out = np.full(1 << n, -7.0 + 3j)
                bufs = arena.partials(plan.assignment.num_buffers)
                planned, s2 = dmav_cached(
                    pkg, None, _row(v), threads, out=_row(out),
                    plans=[plan], buffers=bufs, out_dirty=True,
                )
                assert np.array_equal(legacy, planned.reshape(-1))
                assert s1.cache_hits == s2.cache_hits

    def test_dirty_buffers_never_leak_into_output(self):
        # Poison the arena pool, then run a gate whose writer lists leave
        # some buffer slices untouched: the result must still match.
        n = 5
        threads = 4
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        arena = BufferArena(1 << n)
        for buf in arena.partials(threads):
            buf.fill(1e9 + 1e9j)
        v = random_state(n, seed=13)
        m = build_gate_dd(pkg, Gate("cx", (0,), (n - 1,)))
        plan = plans.get(m)
        out = np.full(1 << n, 1e9 + 0j)
        bufs = arena.partials(plan.assignment.num_buffers)
        w, _ = dmav_cached(
            pkg, None, _row(v), threads, out=_row(out),
            plans=[plan], buffers=bufs, out_dirty=True,
        )
        np.testing.assert_allclose(
            w.reshape(-1), matrix_to_dense(pkg, m) @ v, atol=1e-10
        )

    def test_planned_cached_requires_writers(self):
        # Writer lists come with the plans; partial buffers alone are not
        # a planned call.
        pkg = DDPackage(4)
        v = _row(random_state(4, seed=1))
        m = single_qubit_gate(pkg, H, 0)
        with pytest.raises(ValueError):
            dmav_cached(
                pkg, m, v, 2, out=np.zeros_like(v),
                buffers=[np.zeros_like(v), np.zeros_like(v)],
            )

    def test_planned_cached_takes_one_row(self):
        # Algorithms 1 and 2 apply one row's plan: only fused gate DDs,
        # which run() applies to its one row, reach them.
        n, threads = 4, 2
        pkg = DDPackage(n)
        plan = _plan_cache(pkg, threads).get(single_qubit_gate(pkg, H, 3))
        bufs = BufferArena(1 << n, rows=2).partials(
            plan.assignment.num_buffers
        )
        v = np.repeat(_row(random_state(n, seed=4)), 2, axis=0)
        for plans in ([plan, plan], [plan]):
            with pytest.raises(ValueError, match="one row"):
                dmav_cached(
                    pkg, None, v, threads, out=np.zeros_like(v),
                    plans=plans, buffers=bufs,
                )
            with pytest.raises(ValueError, match="one row"):
                dmav_nocache(
                    pkg, None, v, threads, out=np.zeros_like(v), plans=plans
                )

    def test_planned_cached_rejects_short_buffer_list(self):
        pkg = DDPackage(4)
        plans = _plan_cache(pkg, 2)
        v = _row(random_state(4, seed=2))
        m = single_qubit_gate(pkg, H, 3)
        plan = plans.get(m)
        assert plan.assignment.num_buffers == 2
        with pytest.raises(ValueError):
            dmav_cached(
                pkg, None, v, 2, out=np.zeros_like(v),
                plans=[plan], buffers=[np.zeros_like(v)],
            )

    @pytest.mark.parametrize("threads", [1, 4])
    def test_planned_rejects_misshaped_or_aliased_batches(self, threads):
        n = 4
        pkg = DDPackage(n)
        plan = _plan_cache(pkg, threads).get(single_qubit_gate(pkg, H, 1))
        v = _row(random_state(n, seed=3))
        with pytest.raises(ValueError):
            dmav_nocache(
                pkg, None, v.reshape(-1), threads, out=np.zeros(1 << n),
                plans=[plan],
            )
        with pytest.raises(ValueError):
            dmav_nocache(pkg, None, v, threads, out=v, plans=[plan])


class TestBufferArena:
    def test_output_allocated_once_then_recycled(self):
        arena = BufferArena(8)
        first, dirty = arena.output()
        assert not dirty
        assert first.shape == (1, 8)
        assert np.all(first == 0)
        consumed = np.arange(8, dtype=np.complex128).reshape(1, 8)
        arena.retire(consumed)
        second, dirty = arena.output()
        assert dirty
        assert second is consumed
        assert arena.output_allocs == 1

    def test_retire_validates_shape(self):
        arena = BufferArena(8)
        with pytest.raises(ValueError):
            arena.retire(np.zeros(4, dtype=np.complex128))
        with pytest.raises(ValueError):
            arena.retire(np.zeros(8, dtype=np.complex128))

    def test_buffers_are_row_major(self):
        arena = BufferArena(16, rows=3)
        out, _ = arena.output()
        assert out.shape == (3, 16) and out.flags.c_contiguous
        assert [b.shape for b in arena.partials(2)] == [(3, 16)] * 2
        with pytest.raises(ValueError):
            BufferArena(16, rows=0)

    def test_partial_pool_grows_once_then_reuses(self):
        arena = BufferArena(8)
        first = arena.partials(2)
        assert arena.partial_allocs == 2 and arena.partial_reuses == 0
        again = arena.partials(2)
        assert [b is a for a, b in zip(first, again)] == [True, True]
        assert arena.partial_allocs == 2 and arena.partial_reuses == 2
        arena.partials(3)
        assert arena.partial_allocs == 3 and arena.partial_reuses == 4
        assert arena.partial_bytes == 3 * 8 * 16

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            BufferArena(0)


class TestGateSequences:
    def test_multi_gate_evolution_matches_reference(self):
        from repro.backends import StatevectorSimulator
        from repro.circuits import Circuit

        n = 5
        c = Circuit(n)
        c.h(0).cx(0, 1).rz(0.4, 2).swap(1, 3).ccx(0, 1, 4).h(4)
        ref = StatevectorSimulator().run(c).state

        pkg = DDPackage(n)
        v = np.zeros(1 << n, dtype=complex)
        v[0] = 1
        for gate in c.gates:
            m = build_gate_dd(pkg, gate)
            v, _ = dmav_cached(pkg, m, v, 2)
        np.testing.assert_allclose(v, ref, atol=1e-9)


def _kernel(pkg, node, v, dense_level):
    """The kernel on one node, through the border-task runner."""
    w = np.empty(v.size, dtype=np.complex128)
    run_border_task_batch(pkg, node, 1.0, v, w, dense_level, accumulate=False)
    return w


def _block_gemm_reference(pkg, node, v, dense_level):
    """The pre-classification Kronecker path: block GEMM, then ``*= d``."""
    d, base = kron_collapse(pkg, node, dense_level)
    block = dense_matrix_block(pkg, base)
    bs = block.shape[0]
    folded = v.reshape(1, d.size, bs) @ block.T
    folded *= d[None, :, None]
    return folded.reshape(v.size)


class TestBottomOutPaths:
    """Each bottom-out shape against its reference arithmetic."""

    N = 6
    DENSE = 2

    def test_identity_base_equals_block_gemm_exactly(self):
        # rz above the dense level collapses onto an identity base: the
        # kernel applies the d scale alone, which must reproduce the
        # identity-block GEMM followed by the scale bit for bit.
        pkg = DDPackage(self.N)
        node = build_gate_dd(pkg, Gate("rz", (4,), params=(0.7,))).n
        shape = bottom_out(pkg, node, self.DENSE)
        assert shape.kind == "scale"
        v = random_state(self.N, seed=1)
        assert np.array_equal(
            _kernel(pkg, node, v, self.DENSE),
            _block_gemm_reference(pkg, node, v, self.DENSE),
        )

    def test_terminal_base_equals_old_scale_exactly(self):
        pkg = DDPackage(self.N)
        node = build_gate_dd(pkg, Gate("rz", (2,), params=(0.4,))).n
        shape = bottom_out(pkg, node, -1)
        assert shape.kind == "scale"
        v = random_state(self.N, seed=2)
        d = kron_collapse(pkg, node, -1)[0]
        assert np.array_equal(_kernel(pkg, node, v, -1), v * d)

    def test_unit_scale_skipped_exactly(self):
        # ry on qubit 0 under pass-through levels of weight 1: dense base,
        # all-ones d, whose ``*= d`` pass the kernel skips.
        pkg = DDPackage(self.N)
        node = build_gate_dd(pkg, Gate("ry", (0,), params=(0.9,))).n
        shape = bottom_out(pkg, node, self.DENSE)
        assert shape.kind == "dense" and shape.d is None
        v = random_state(self.N, seed=3)
        assert np.array_equal(
            _kernel(pkg, node, v, self.DENSE),
            _block_gemm_reference(pkg, node, v, self.DENSE),
        )

    @pytest.mark.parametrize(
        "gates, unit",
        [
            ([Gate("rz", (0,), params=(0.5,))], True),
            ([Gate("cz", (1,), (0,))], True),
            (
                [
                    Gate("rz", (4,), params=(0.3,)),
                    Gate("rz", (0,), params=(1.2,)),
                ],
                False,
            ),
        ],
        ids=["rz0", "cz01", "rz4-rz0"],
    )
    def test_diagonal_base_matches_dense(self, gates, unit):
        pkg = DDPackage(self.N)
        m = build_gate_dd(pkg, gates[0])
        for gate in gates[1:]:
            m = mm_multiply(pkg, build_gate_dd(pkg, gate), m)
        shape = bottom_out(pkg, m.n, self.DENSE)
        assert shape.kind == "diagonal"
        assert (shape.d is None) == unit
        v = random_state(self.N, seed=4)
        ref = matrix_to_dense(pkg, m) @ v
        for threads in (1, 2, 4):
            w, _ = dmav_nocache(pkg, m, v, threads, dense_level=self.DENSE)
            np.testing.assert_allclose(w, ref, atol=1e-12)
            w, _ = dmav_cached(pkg, m, v, threads, dense_level=self.DENSE)
            np.testing.assert_allclose(w, ref, atol=1e-12)

    @pytest.mark.parametrize(
        "gate",
        [
            Gate("ry", (4,), params=(0.9,)),
            Gate("u3", (3,), params=(0.3, 0.7, 1.1)),
        ],
        ids=["ry4", "u3_3"],
    )
    def test_pair_level_matches_dense(self, gate):
        pkg = DDPackage(self.N)
        m = build_gate_dd(pkg, gate)
        node = m.n
        while bottom_out(pkg, node, self.DENSE).kind == "passthrough":
            node = node.edges[0].n
        shape = bottom_out(pkg, node, self.DENSE)
        assert shape.kind == "pair" and shape.data.shape == (2, 2)
        v = random_state(self.N, seed=5)
        ref = matrix_to_dense(pkg, m) @ v
        for threads in (1, 2, 4):
            w, _ = dmav_nocache(pkg, m, v, threads, dense_level=self.DENSE)
            np.testing.assert_allclose(w, ref, atol=1e-12)
            w, _ = dmav_cached(pkg, m, v, threads, dense_level=self.DENSE)
            np.testing.assert_allclose(w, ref, atol=1e-12)

    def test_permutation_level_stays_generic(self):
        pkg = DDPackage(self.N)
        m = build_gate_dd(pkg, Gate("cx", (3,), (5,)))
        node = m.n.edges[3].n
        while bottom_out(pkg, node, self.DENSE).kind == "passthrough":
            node = node.edges[0].n
        assert node.level == 3
        assert bottom_out(pkg, node, self.DENSE).kind == "descend"

    def test_classification_cached_and_dropped_by_gc(self):
        pkg = DDPackage(self.N)
        node = build_gate_dd(pkg, Gate("rz", (4,), params=(0.7,))).n
        first = bottom_out(pkg, node, self.DENSE)
        assert bottom_out(pkg, node, self.DENSE) is first
        key = (id(node), self.DENSE)
        assert pkg.kron_cache[key] is first
        pkg.collect_garbage([])
        assert key not in pkg.kron_cache


#: ((gate name, targets, controls), dense level, bottom-out shape of the
#: root).  ``pair`` reaches its 2x2 level under pass-through levels,
#: ``descend`` reaches one under a controlled level.
BATCH_CASES = [
    pytest.param(("rz", (4,), ()), 2, "scale", id="scale"),
    pytest.param(("rz", (4,), ()), -1, "scale", id="scale-terminal"),
    pytest.param(("rz", (0,), ()), 2, "diagonal", id="diagonal"),
    pytest.param(("cp", (1,), (0,)), 2, "diagonal", id="diagonal-cp"),
    pytest.param(("ry", (0,), ()), 2, "dense", id="dense-unit-d"),
    pytest.param(("ry", (1,), ()), 5, "dense", id="dense-block"),
    pytest.param(("ry", (4,), ()), 2, "passthrough", id="pair"),
    pytest.param(("cry", (3,), (5,)), 2, "descend", id="descend"),
]


class TestBorderTaskBatch:
    """One border task on each bottom-out shape of its root: assigning
    writes ``coeff * M v``, and accumulating adds those same bits onto
    the output."""

    N = 6

    @pytest.mark.parametrize("spec, dense_level, kind", BATCH_CASES)
    def test_shared_node_bit_identical(self, spec, dense_level, kind):
        name, targets, controls = spec
        pkg = DDPackage(self.N)
        m = build_gate_dd(pkg, Gate(name, targets, controls, params=(0.7,)))
        assert bottom_out(pkg, m.n, dense_level).kind == kind
        size = 1 << self.N
        rng = np.random.default_rng(0)
        vin = rng.normal(size=size) + 1j * rng.normal(size=size)
        start = rng.normal(size=size) + 1j * rng.normal(size=size)
        assigned = np.full(size, np.nan + 0j)
        run_border_task_batch(
            pkg, m.n, m.w, vin, assigned, dense_level, accumulate=False
        )
        np.testing.assert_allclose(
            assigned, matrix_to_dense(pkg, m) @ vin, atol=1e-12, rtol=0
        )
        accumulated = start.copy()
        run_border_task_batch(
            pkg, m.n, m.w, vin, accumulated, dense_level, accumulate=True
        )
        assert np.array_equal(accumulated, start + assigned)


def _windowed(pkg, gate):
    return build_gate_dd(pkg, gate, windowed=True)


#: name -> (arity, build(pkg, q)): windowed gate DDs rooted at qubit q.
WINDOW_GATES = {
    "h": (1, lambda pkg, q: _windowed(pkg, Gate("h", (q,)))),
    "ry": (1, lambda pkg, q: _windowed(pkg, Gate("ry", (q,), params=(0.4,)))),
    "u3": (1, lambda pkg, q: _windowed(
        pkg, Gate("u3", (q,), params=(0.3, 0.7, 1.1)))),
    "rz": (1, lambda pkg, q: _windowed(pkg, Gate("rz", (q,), params=(0.4,)))),
    "cz": (2, lambda pkg, q: _windowed(pkg, Gate("cz", (q,), (0,)))),
    "cp": (2, lambda pkg, q: _windowed(
        pkg, Gate("cp", (q - 1,), (q,), params=(0.3,)))),
    "cx": (2, lambda pkg, q: _windowed(pkg, Gate("cx", (0,), (q,)))),
    "ccx": (3, lambda pkg, q: _windowed(pkg, Gate("ccx", (q,), (0, q - 1)))),
    "u4": (2, lambda pkg, q: two_qubit_gate(
        pkg, random_unitary(4, q), q, q - 1, top=q)),
}


def _window_reference(pkg, m, v):
    """``matrix_to_dense(pkg, m) @ v`` for each state along ``v``'s last
    axis, applied as ``I (x) window``."""
    size = 2 << m.n.level
    block = matrix_to_dense(pkg, m, num_qubits=m.n.level + 1)
    return (v.reshape(*v.shape[:-1], -1, size) @ block.T).reshape(v.shape)


class TestWindowedGateDDs:
    """A windowed gate DD is priced and applied like its full-height form.

    The levels above a windowed root are implicit identity.  The cost
    model charges them as Fig. 8 charges pass-through levels, and the
    plan compiler, the listing descents and the kernel apply the window
    on each diagonal block.  Only a dense window at or below the dense
    block level changes gemm shape, so only there may bits differ from
    the full-height run.
    """

    @pytest.mark.parametrize("gate", list(WINDOW_GATES))
    @pytest.mark.parametrize(
        "n, threads", [(n, t) for n in (8, 12) for t in (1, 2, 4, 8)]
    )
    def test_priced_and_applied_like_full_height(self, n, threads, gate):
        arity, build = WINDOW_GATES[gate]
        border = border_level(n, threads)
        positions = {0, 1, 2, 5, 6, border - 1, border, border + 1, n - 1}
        v = random_state(n, seed=n + threads)
        for q in sorted(positions & set(range(arity - 1, n))):
            pkg = DDPackage(n)
            m = build(pkg, q)
            assert m.n.level == q
            full = identity_extend(pkg, m, n - 1)
            assert CostModel(threads).evaluate(pkg, m) == CostModel(
                threads
            ).evaluate(pkg, full), q
            plan = _plan_cache(pkg, threads).get(m)
            low = q <= DENSE_BLOCK_LEVEL
            dense_window = (
                low and bottom_out(pkg, m.n, DENSE_BLOCK_LEVEL).kind == "dense"
            )
            buffers = BufferArena(1 << n).partials(
                plan.assignment.num_buffers
            )
            for listing, use_cache in (
                (dmav_nocache, False), (dmav_cached, True)
            ):
                w, _ = listing(pkg, m, v, threads)
                out = np.full(1 << n, 99.0 + 9j)
                planned, _ = listing(
                    pkg, None, _row(v), threads, out=_row(out), plans=[plan],
                    **({"buffers": buffers} if use_cache else {}),
                )
                assert np.array_equal(planned.reshape(-1), w), (q, use_cache)
                if low:
                    np.testing.assert_allclose(
                        w, _window_reference(pkg, m, v), atol=1e-12, rtol=0
                    )
                if not dense_window:
                    w_full, _ = listing(pkg, full, v, threads)
                    assert np.array_equal(w, w_full), (q, use_cache)

    @pytest.mark.parametrize("policy", ["auto", "always", "never"])
    @pytest.mark.parametrize(
        "family, n", [("supremacy", 12), ("dnn", 10), ("knn", 11)]
    )
    def test_pipeline_costs_equal_full_height(
        self, monkeypatch, family, n, policy
    ):
        force_dmav_verdict(monkeypatch, policy)
        threads = 4
        circuit = get_circuit(family, n)
        meta = FlatDDSimulator(FlatDDConfig(threads=threads)).run(
            circuit, keep_internals=True
        ).metadata
        assert meta["converted"]
        pkg, edges = meta["package"], meta["dmav_edges"]
        tail = circuit.gates[meta["conversion_gate_index"] + 1:]
        # run() emits every tail gate windowed, rooted at its top qubit.
        assert [e.n.level for e in edges] == [max(g.qubits) for g in tail]
        model, helper = CostModel(threads), CostModel(threads)
        expected = []
        for step, e in zip(meta["dmav_steps"], edges):
            assert isinstance(step, Gate)
            c = model.evaluate(pkg, identity_extend(pkg, e, n - 1))
            # An unfused step has no gate DD to force and never chooses:
            # Algorithm 1, priced by Eq. 5 alone.  Its C2 is the pricing
            # helper's, which matches the full-height DD's verdict.
            expected.append((c.macs_total, c.cost_nocache, None, False))
            assert helper.evaluate_tile_local(n, step) == c, step
        assert meta["dmav_gate_costs"] == expected
        assert meta["dmav_macs_total"] == sum(c[0] for c in expected)


#: Row angles of the array-kernel suite: a gate's parameters in row ``r``
#: start at ``TILE_ROW_ANGLES[r]`` (0 and pi make rotations the identity
#: or put exact-zero-within-tolerance entries in U).
TILE_ROW_ANGLES = (0.0, math.pi, 0.7)


def _unitaries():
    """A random 4x4 unitary and a product form ``A (x) B``, whose blocks
    over either target are scalar multiples of one 2x2 matrix."""
    a, b = random_unitary(2, 1), random_unitary(2, 2)
    return (random_unitary(4, 3), np.kron(a, b))


def _tile_local_rows(n):
    """Every library gate at every placement, as one bound gate per row
    of ``TILE_ROW_ANGLES``, then both :func:`_unitaries` on every qubit
    pair (the same matrix in every row)."""
    for name in sorted(set(GATE_BUILDERS) | set(CONTROLLED_ALIASES)):
        base, controls = CONTROLLED_ALIASES.get(name, (name, 0))
        targets, nparams, _ = GATE_BUILDERS[base]
        for qubits in itertools.permutations(range(n), controls + targets):
            yield [
                Gate(
                    name, qubits[controls:], qubits[:controls],
                    params=tuple(a + 0.3 * i for i in range(nparams)),
                )
                for a in TILE_ROW_ANGLES
            ]
    for u in _unitaries():
        for qubits in itertools.permutations(range(n), 2):
            yield [UnitaryGate(u, qubits)] * len(TILE_ROW_ANGLES)


#: Gates with an entry of about 1.2e-10 (a cosine near pi/2), just above
#: TOLERANCE.  Where the fold's factor carries a pi/4 phase (u3's
#: lambda, fsim's phi), both parts of the entry's ratio to it are about
#: 0.85e-10 and the DD drops it; crx's factor is -i, so it stays.
NEAR_TOLERANCE_GATES = (
    ("u3", (math.pi - 2.4e-10, 0.0, math.pi / 4)),
    ("u3", (math.pi - 2.4e-10, math.pi / 4, math.pi / 4)),
    ("fsim", (math.pi / 2 - 1.2e-10, math.pi / 4)),
    ("crx", (math.pi - 2.4e-10,)),
)


def _raw_nonzeros(u):
    """Entries of ``u`` with a part at least TOLERANCE."""
    return int(np.count_nonzero(
        (np.abs(u.real) >= TOLERANCE) | (np.abs(u.imag) >= TOLERANCE)
    ))


class TestTileLocal:
    """Every unfused gate is applied from its matrix, against its gate DD.

    :func:`apply_tile_local` applies a gate at any placement, never
    building, planning or classifying a DD.  Its result must match the
    windowed gate DD's dense matrix, its batch rows and thread-pool tiles
    must be exact slices of one-row, inline calls, and its Eq. 5-6 entry
    (in closed form within the border, on one model's scratch package
    across it, gate after gate) must equal the cost model's verdict on a
    fresh build of its DD.
    """

    @pytest.fixture
    def gemm_operands(self, monkeypatch):
        """Every ``np.matmul`` call's two operands."""
        calls = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            calls.append((a, b))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return calls

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_every_gate_and_placement(self, n, threads, gemm_operands):
        rows = len(TILE_ROW_ANGLES)
        border = border_level(n, threads)
        rng = np.random.default_rng(n * 10 + threads)
        v = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(
            size=(rows, 1 << n)
        )
        model = CostModel(threads)
        cases = 0
        with TaskRunner(threads, use_pool=True) as pool:
            for gates in _tile_local_rows(n):
                cases += 1
                out = np.full_like(v, np.nan)
                gemm_operands.clear()
                apply_tile_local(gates, v, out, threads)
                # No GEMM merges rows: the operand viewing the state keeps
                # the rows axis first, and a gate within a tile keeps the
                # tile axis second, so M (or the pair's N) spans one row,
                # of one tile when the gate's qubits all sit within it.
                within = max(gates[0].qubits) <= border
                for a, b in gemm_operands:
                    state = a if np.shares_memory(a, v) else b
                    assert np.shares_memory(state, v), gates[0]
                    assert state.shape[0] == rows, (gates[0], a.shape)
                    if within:
                        assert state.shape[1] == threads, (
                            gates[0], state.shape,
                        )
                pooled = np.full_like(v, np.nan)
                apply_tile_local(gates, v, pooled, threads, runner=pool)
                assert np.array_equal(pooled, out), gates[0]
                for r, gate in enumerate(gates):
                    one = np.full((1, 1 << n), np.nan + 0j)
                    apply_tile_local([gate], v[r:r + 1], one, threads)
                    assert np.array_equal(one, out[r:r + 1]), (gate, r)
                pkg = DDPackage(n)
                # Parameterless kinds bind the same gate in every row.
                for gate in dict.fromkeys(gates):
                    mine = [r for r, g in enumerate(gates) if g == gate]
                    m = build_gate_dd(pkg, gate, windowed=True)
                    np.testing.assert_allclose(
                        out[mine], _window_reference(pkg, m, v[mine]),
                        atol=1e-12, rtol=0, err_msg=str(gate),
                    )
                    # The model memoizes verdicts by root node, so a
                    # fresh one prices each package's DDs.
                    assert model.evaluate_tile_local(n, gate) == CostModel(
                        threads
                    ).evaluate(pkg, m), gate
        assert cases > 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_closed_form_macs_equal_the_built_dd(self, n):
        """An unfused step's price is Eq. 5 alone: its closed-form K1
        equals its windowed DD's MAC count (in a fresh package) at every
        placement, across the border included, and C1 = K1/t, with no
        Eq. 6 field and no cache verdict."""
        gates = dict.fromkeys(itertools.chain(
            itertools.chain.from_iterable(_tile_local_rows(n)),
            (
                UnitaryGate(random_unitary(2, seed), (q,))
                for seed in (1, 2) for q in range(n)
            ),
        ))
        threads = [t for t in (1, 2, 4, 8) if t <= 1 << (n - 1)]
        across = 0
        for gate in gates:
            pkg = DDPackage(n)
            m = build_gate_dd(pkg, gate, windowed=True)
            macs = mac_count(pkg, m) << (n - 1 - m.n.level)
            for t in threads:
                across += max(gate.qubits) > border_level(n, t)
                cost = PlanCache(pkg, t, CostModel(t)).get(gate).cost
                assert cost == GateCost(macs, macs / t), (gate, t)
                assert not cost.use_cache and cost.cost == macs / t
        assert across > 0

    @pytest.mark.parametrize("threads", [2, 4])
    def test_run_builds_no_gate_dd_outside_its_package(
        self, monkeypatch, threads
    ):
        """Pricing an unfused tail builds no gate DD: every gate DD an
        unfused run builds is in its own package (the DD phase's, and
        ``keep_internals``' ``dmav_edges``)."""
        import repro.backends.gatecache as gatecache

        packages = []
        build = gatecache.controlled_gate

        def spy(pkg, *args, **kwargs):
            packages.append(pkg)
            return build(pkg, *args, **kwargs)

        monkeypatch.setattr(gatecache, "controlled_gate", spy)
        n = 12
        circuit = get_circuit("supremacy", n)
        meta = FlatDDSimulator(threads=threads).run(
            circuit, keep_internals=True
        ).metadata
        tail = circuit.gates[meta["conversion_gate_index"] + 1:]
        assert any(max(g.qubits) > border_level(n, threads) for g in tail)
        assert packages
        assert all(p is meta["package"] for p in packages)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_near_tolerance_entries_priced_like_the_dd(self, threads):
        """``NEAR_TOLERANCE_GATES`` at every placement: the unfused
        price drops the entries the DD drops."""
        n = 6
        dropped = 0
        for name, params in NEAR_TOLERANCE_GATES:
            base, controls = CONTROLLED_ALIASES.get(name, (name, 0))
            arity = controls + GATE_BUILDERS[base][0]
            for qubits in itertools.permutations(range(n), arity):
                gate = Gate(
                    name, qubits[controls:], qubits[:controls], params
                )
                u = gate.matrix()
                dropped += kept_entries(u, gate.targets) < _raw_nonzeros(u)
                # A fresh package: no earlier weight to canonicalize onto.
                pkg, model = DDPackage(n), CostModel(threads)
                m = build_gate_dd(pkg, gate, windowed=True)
                assert model.evaluate_tile_local(n, gate) == (
                    model.evaluate(pkg, m)
                ), gate
        assert dropped > 0

    def test_kept_entries_match_the_built_dd(self):
        """Entries of magnitude 1.2e-10 at multiples of pi/2 pass the zero
        rule; against unit entries at multiples of pi/4 their fold
        ratios may not.  Whole tiny sub-grids exercise the second fold
        of two targets.  The values sit at least 1.7e-10 apart, so the
        complex table canonicalizes none onto another."""
        rng = np.random.default_rng(5)
        big = np.exp(1j * np.pi / 4 * np.arange(8))
        tiny = 1.2e-10 * np.exp(1j * np.pi / 2 * np.arange(4))
        differs = {1: 0, 2: 0}
        for case in range(240):
            k = 1 + case % 2
            dim = 1 << k
            kind = rng.choice(3, size=(dim, dim), p=(0.5, 0.3, 0.2))
            u = np.where(
                kind == 0, rng.choice(big, size=(dim, dim)),
                np.where(kind == 1, rng.choice(tiny, size=(dim, dim)), 0),
            )
            if k == 2 and case % 4 == 1:
                u[:2, 2:] = rng.choice(tiny, size=(2, 2))
            targets = (0,) if k == 1 else ((1, 0), (0, 1))[case % 3 % 2]
            pkg = DDPackage(2)
            m = controlled_gate(pkg, u, targets, (), top=max(targets))
            kept = kept_entries(u, targets)
            assert kept == (mac_count(pkg, m) if not m.is_zero else 0), (
                u, targets,
            )
            differs[k] += kept != _raw_nonzeros(u)
        assert all(differs.values()), differs

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize(
        "family, n", [("supremacy", 12), ("dnn", 10), ("knn", 11)]
    )
    def test_pipeline_costs_equal_dmav_tail(self, family, n, threads):
        """``keep_internals=True`` changes no bit or cost of the run, and
        the run's tail against the same tail as gate DDs: a DMAV phase
        over ``metadata["dmav_edges"]`` from the converted state must
        record the run's gates, MACs, C1 and gate count, its state equal
        on the tolerance ladder's tightest rung.  Each unfused step of
        the run records its closed-form MACs and C1 with no C2 and never
        caches; the replay's full Eq. 5-6 prices are the pricing
        helper's (``evaluate_tile_local``)."""
        circuit = get_circuit(family, n)
        cfg = FlatDDConfig(threads=threads)
        plain = FlatDDSimulator(cfg).run(circuit)
        run = FlatDDSimulator(cfg).run(circuit, keep_internals=True)
        meta = run.metadata
        assert np.array_equal(plain.state, run.state)
        assert plain.metadata["dmav_gate_costs"] == meta["dmav_gate_costs"]
        steps, edges = meta["dmav_steps"], meta["dmav_edges"]
        assert len(steps) == len(edges) == len(meta["dmav_gate_costs"])
        assert sum(isinstance(s, Gate) for s in steps) == (
            meta["obs"]["counters"]["dmav.gates_tile_local"]
        )
        assert not any(isinstance(e, Gate) for e in edges)
        at = meta["conversion_gate_index"]
        converted = FlatDDSimulator(cfg).run(circuit[:at + 1]).state
        registry = MetricsRegistry()
        records = []
        state, _ = dmav_phase(
            cfg, meta["package"], None,
            converted.reshape(1, -1), [meta["dmav_edges"]], at, 0,
            MemoryGuard(None), MemoryMeter(), registry, {}, None,
            labels=[g.name for g in circuit.gates[at + 1:]], trace=records,
        )
        assert [(r.index, r.name) for r in records] == [
            (r.index, r.name) for r in run.gate_trace if r.phase == "dmav"
        ]
        helper = CostModel(threads)
        priced = [helper.evaluate_tile_local(n, s) for s in steps]
        assert [
            (r.macs, r.cost_nocache, r.cost_cache, r.cached) for r in records
        ] == [
            (c.macs_total, c.cost_nocache, c.cost_cache, c.use_cache)
            for c in priced
        ]
        assert meta["dmav_gate_costs"] == [
            (c.macs_total, c.cost_nocache, None, False) for c in priced
        ]
        assert meta["dmav_macs_total"] == sum(c.macs_total for c in priced)
        tight = dict(TOLERANCE_LADDER)["tight"]
        assert np.max(np.abs(run.state - state.reshape(-1))) <= tight
        lc = meta["obs"]["counters"]
        dc = registry.snapshot()["counters"]
        assert lc["dmav.gates_tile_local"] > 0
        assert dc["dmav.gates_tile_local"] == 0
        for c in (lc, dc):
            assert c["dmav.gates"] == (
                c["dmav.gates_cached"] + c["dmav.gates_uncached"]
                + c["dmav.gates_tile_local"]
            )
        assert lc["dmav.macs"] == dc["dmav.macs"]
        assert lc["dmav.gates"] == dc["dmav.gates"]
