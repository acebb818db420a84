"""Unit tests for DMAV (Algorithms 1 and 2) and its plan compiler."""

import math

import numpy as np
import pytest

from repro.backends.gatecache import build_gate_dd
from repro.circuits import Gate
from repro.common.config import DENSE_BLOCK_LEVEL
from repro.core.cost_model import CostModel, assign_cache_tasks
from repro.core import dmav as dmav_module
from repro.core.dmav import (
    assign_tasks,
    dmav_cached,
    dmav_nocache,
    run_border_task_batch,
)
from repro.core.plan import PlanCache
from repro.dd import DDPackage, matrix_to_dense, mm_multiply, single_qubit_gate
from repro.dd.analysis import bottom_out, dense_matrix_block, kron_collapse
from repro.dd.matrix import controlled_gate
from repro.parallel.arena import BufferArena
from repro.parallel.partition import border_level
from repro.parallel.pool import TaskRunner
from repro.common.errors import ParallelError

from tests.conftest import random_state

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
    return PlanCache(pkg, threads, CostModel(threads), DENSE_BLOCK_LEVEL)


def _task_ids(rows):
    return [[(id(node), off, coeff) for node, off, coeff in row] for row in rows]


class TestGatePlan:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_plan_reproduces_legacy_partitions_exactly(self, threads):
        n = 5
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        for m in _random_gates(pkg):
            plan = plans.get(m)
            legacy_rows = assign_tasks(pkg, m, threads)
            legacy_cache = assign_cache_tasks(pkg, m, threads)
            # Same nodes, same offsets, bit-identical coefficients, same
            # per-thread order -- the plan is a cached transcript of the
            # legacy descents, not an approximation of them.
            assert _task_ids(plan.row_tasks) == _task_ids(legacy_rows)
            assert _task_ids(plan.assignment.tasks) == _task_ids(
                legacy_cache.tasks
            )
            assert plan.assignment.buffer_of == legacy_cache.buffer_of
            assert plan.assignment.num_buffers == legacy_cache.num_buffers

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
        assert plans.compiles == 1
        assert plans.gate_hits == 1
        # A whole-plan hit is task-weighted: all of the plan's tasks count
        # as served from cache.
        assert plans.hits >= first.num_tasks

    def test_structural_memo_shares_across_distinct_roots(self):
        # h(0) and rz(0) differ at the bottom level but share the
        # identity structure above it, so the second compile is mostly
        # memo hits even though its root was never seen.
        pkg = DDPackage(6)
        plans = _plan_cache(pkg, 4)
        plans.get(build_gate_dd(pkg, Gate("h", (0,))))
        before = plans.hits
        plans.get(build_gate_dd(pkg, Gate("rz", (0,), params=(0.7,))))
        assert plans.compiles == 2
        assert plans.hits > before

    def test_gc_epoch_invalidates_plans(self):
        pkg = DDPackage(5)
        plans = _plan_cache(pkg, 2)
        m = build_gate_dd(pkg, Gate("h", (0,)))
        plans.get(m)
        assert len(plans) == 1
        pkg.collect_garbage([m])
        # Same (still-live) root: the epoch bump must drop the cache and
        # force a recompile, because GC may have swept nodes whose ids the
        # memo keys by.
        plan = plans.get(m)
        assert plans.invalidations == 1
        assert plans.compiles == 2
        assert _task_ids(plan.row_tasks) == _task_ids(
            assign_tasks(pkg, m, 2)
        )

    def test_writers_cover_exactly_the_written_slices(self):
        n = 5
        threads = 4
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        h = (1 << n) // threads
        for m in _random_gates(pkg):
            plan = plans.get(m)
            expected = [set() for _ in range(threads)]
            direct_expected = [False] * threads
            for u, tasks in enumerate(plan.assignment.tasks):
                for (_, i_p, _), is_direct in zip(tasks, plan.direct[u]):
                    if is_direct:
                        direct_expected[i_p // h] = True
                    else:
                        expected[i_p // h].add(
                            plan.assignment.buffer_of[u]
                        )
            assert [sorted(ws) for ws in expected] == plan.writers
            assert direct_expected == plan.direct_out
            # Each output slice is produced exactly one way: direct tasks
            # imply no buffered writers for the same slice.
            for k in range(threads):
                if plan.direct_out[k]:
                    assert plan.writers[k] == []

    def test_direct_tasks_are_sole_writers_and_never_hit_sources(self):
        n = 5
        threads = 4
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        h = (1 << n) // threads
        saw_direct = False
        for m in _random_gates(pkg):
            plan = plans.get(m)
            slice_tasks = [0] * threads
            for tasks in plan.assignment.tasks:
                for _, i_p, _ in tasks:
                    slice_tasks[i_p // h] += 1
            for u, tasks in enumerate(plan.assignment.tasks):
                seen = set()
                for i, ((node, i_p, _), is_direct) in enumerate(
                    zip(tasks, plan.direct[u])
                ):
                    if is_direct:
                        saw_direct = True
                        assert slice_tasks[i_p // h] == 1
                        if id(node) not in seen:
                            # A direct miss must not be a hit source: no
                            # later task in this thread shares its node.
                            assert not any(
                                id(node2) == id(node)
                                for node2, _, _ in tasks[i + 1:]
                            )
                    seen.add(id(node))
        assert saw_direct


def _tiles(v, threads):
    """The zero-copy one-row ``(threads, 1, h)`` view planned DMAV takes."""
    return v.reshape(threads, 1, -1)


class TestPlannedExecution:
    """Planned kernels must be bit-identical to the listing forms."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_planned_nocache_bit_identical(self, threads):
        n = 5
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        v = random_state(n, seed=threads)
        for m in _random_gates(pkg):
            legacy, _ = dmav_nocache(pkg, m, v, threads)
            dirty = np.full(1 << n, 99.0 + 9j)
            planned, _ = dmav_nocache(
                pkg, None, _tiles(v, threads), threads,
                out=_tiles(dirty, threads), plans=[plans.get(m)],
                out_dirty=True,
            )
            assert np.array_equal(legacy, planned.reshape(-1))

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_planned_cached_bit_identical(self, threads):
        n = 5
        pkg = DDPackage(n)
        plans = _plan_cache(pkg, threads)
        arena = BufferArena(1 << n, tiles=threads)
        v = random_state(n, seed=threads + 20)
        for m in _random_gates(pkg):
            plan = plans.get(m)
            legacy, s1 = dmav_cached(pkg, m, v, threads)
            out = np.full(1 << n, -7.0 + 3j)
            bufs = arena.partials(plan.assignment.num_buffers)
            planned, s2 = dmav_cached(
                pkg, None, _tiles(v, threads), threads,
                out=_tiles(out, threads), plans=[plan], buffers=bufs,
                out_dirty=True,
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
        arena = BufferArena(1 << n, tiles=threads)
        for buf in arena.partials(threads):
            buf.fill(1e9 + 1e9j)
        v = random_state(n, seed=13)
        m = build_gate_dd(pkg, Gate("cx", (0,), (n - 1,)))
        plan = plans.get(m)
        out = np.full(1 << n, 1e9 + 0j)
        bufs = arena.partials(plan.assignment.num_buffers)
        w, _ = dmav_cached(
            pkg, None, _tiles(v, threads), threads, out=_tiles(out, threads),
            plans=[plan], buffers=bufs, out_dirty=True,
        )
        np.testing.assert_allclose(
            w.reshape(-1), matrix_to_dense(pkg, m) @ v, atol=1e-10
        )

    def test_planned_cached_requires_writers(self):
        # Writer lists come with the plans; partial buffers alone are not
        # a planned call.
        pkg = DDPackage(4)
        v = _tiles(random_state(4, seed=1), 2)
        m = single_qubit_gate(pkg, H, 0)
        with pytest.raises(ValueError):
            dmav_cached(
                pkg, m, v, 2, out=np.zeros_like(v),
                buffers=[np.zeros_like(v), np.zeros_like(v)],
            )

    def test_planned_cached_rejects_short_buffer_list(self):
        pkg = DDPackage(4)
        plans = _plan_cache(pkg, 2)
        v = _tiles(random_state(4, seed=2), 2)
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
        v = _tiles(random_state(n, seed=3), threads)
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
        assert first.shape == (1, 1, 8)
        assert np.all(first == 0)
        consumed = np.arange(8, dtype=np.complex128).reshape(1, 1, 8)
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

    def test_buffers_are_tile_major(self):
        arena = BufferArena(16, rows=3, tiles=4)
        out, _ = arena.output()
        assert out.shape == (4, 3, 4)
        assert [b.shape for b in arena.partials(2)] == [(4, 3, 4)] * 2
        with pytest.raises(ValueError):
            BufferArena(16, tiles=3)

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
    """The kernel on one node and one row, through the border-task runner."""
    w = np.empty((1, v.size), dtype=np.complex128)
    run_border_task_batch(
        pkg, [node], [1.0], v.reshape(1, -1), w, dense_level,
        accumulate=False,
    )
    return w[0]


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
#: root); every batch row binds its own angle.  ``pair`` reaches its 2x2
#: level under pass-through levels, ``descend`` reaches one under a
#: controlled level.
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
    """Batched border tasks against one-row runs of each row, bit for bit."""

    N = 6

    def _batch(self, spec, angles, dense_level, accumulate, one_row_calls):
        name, targets, controls = spec
        pkg = DDPackage(self.N)
        edges = [
            build_gate_dd(pkg, Gate(name, targets, controls, params=(t,)))
            for t in angles
        ]
        nodes = [e.n for e in edges]
        coeffs = [e.w for e in edges]
        shape = (len(angles), 1 << self.N)
        rng = np.random.default_rng(0)
        vin = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        start = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        refs = start.copy()
        for b in range(len(angles)):
            run_border_task_batch(
                pkg, nodes[b:b + 1], coeffs[b:b + 1], vin[b:b + 1],
                refs[b:b + 1], dense_level, accumulate=accumulate,
            )
        one_row_calls.clear()
        wout = start.copy()
        run_border_task_batch(
            pkg, nodes, coeffs, vin, wout, dense_level, accumulate=accumulate
        )
        for b in range(len(angles)):
            assert np.array_equal(wout[b], refs[b]), b
        return pkg, nodes

    @pytest.fixture
    def one_row_calls(self, monkeypatch):
        """Kernel calls on a one-row batch: per-row replays, once batched."""
        calls = []
        original = dmav_module._apply_lockstep

        def spy(pkg, nodes, vten, *args, **kwargs):
            if vten.shape[0] == 1:
                calls.append(len(nodes))
            return original(pkg, nodes, vten, *args, **kwargs)

        monkeypatch.setattr(dmav_module, "_apply_lockstep", spy)
        return calls

    @pytest.mark.parametrize("accumulate", [False, True])
    @pytest.mark.parametrize("spec, dense_level, kind", BATCH_CASES)
    def test_distinct_angles_batched_bit_identical(
        self, spec, dense_level, kind, accumulate, one_row_calls
    ):
        pkg, nodes = self._batch(
            spec, [0.3, 1.1, 2.0], dense_level, accumulate, one_row_calls
        )
        assert len({id(nd) for nd in nodes}) == 3
        assert bottom_out(pkg, nodes[0], dense_level).kind == kind
        # Congruent rows never leave the batched branches.
        assert one_row_calls == []

    @pytest.mark.parametrize("spec, dense_level, kind", BATCH_CASES)
    def test_shared_node_bit_identical(
        self, spec, dense_level, kind, one_row_calls
    ):
        _pkg, nodes = self._batch(
            spec, [0.7] * 3, dense_level, False, one_row_calls
        )
        assert all(nd is nodes[0] for nd in nodes)
        assert one_row_calls == []

    def test_identity_row_falls_back_rowwise(self, one_row_calls):
        # rz(0) is the identity: that row's node disagrees with the
        # others' scale shape, so the level must replay per row.
        pkg, nodes = self._batch(
            ("rz", (4,), ()), [0.4, 0.0, 1.3], 2, False, one_row_calls
        )
        assert [bottom_out(pkg, nd, 2).kind for nd in nodes] == [
            "scale", "identity", "scale",
        ]
        assert one_row_calls == [1, 1, 1]
