"""Thread-pool execution stress: real threads over every parallel path.

Single-core hardware cannot show speedups, but it absolutely can expose
races, missing synchronization, or task-partition bugs.  These tests push
the pooled execution mode across backends, thread counts, and repeated
runs on one shared simulator instance.
"""

import numpy as np
import pytest

from repro import FlatDDSimulator, StatevectorSimulator, get_circuit
from repro.common.config import FlatDDConfig
from repro.core.conversion import convert_parallel
from repro.core.dmav import dmav_cached, dmav_nocache
from repro.dd import DDPackage, matrix_to_dense, vector_from_array
from repro.backends.gatecache import build_gate_dd
from repro.circuits import Gate
from repro.parallel.pool import TaskRunner

from tests.conftest import random_state

# Spawns real thread pools across many configurations; excluded from the
# fast tier-1 default, run with `pytest -m slow`.
pytestmark = pytest.mark.slow


class TestPooledFlatDD:
    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_pooled_runs_match_inline(self, threads):
        c = get_circuit("supremacy", 8, cycles=8)
        inline = FlatDDSimulator(threads=threads).run(c)
        pooled = FlatDDSimulator(
            threads=threads, use_thread_pool=True
        ).run(c)
        np.testing.assert_allclose(pooled.state, inline.state, atol=1e-12)

    def test_pooled_with_fusion_and_caching(self):
        c = get_circuit("dnn", 8, layers=5)
        ref = StatevectorSimulator().run(c).state
        r = FlatDDSimulator(
            threads=4, use_thread_pool=True, fusion="cost"
        ).run(c)
        assert abs(np.vdot(r.state, ref)) ** 2 == pytest.approx(
            1.0, abs=1e-8
        )
        # Eq. 6 runs fused gates with Algorithm 2.
        assert r.metadata["obs"]["counters"]["dmav.gates_cached"] > 0

    def test_repeated_pooled_runs_on_one_instance(self):
        sim = FlatDDSimulator(threads=4, use_thread_pool=True)
        c = get_circuit("supremacy", 7, cycles=6)
        states = [sim.run(c).state for _ in range(5)]
        for s in states[1:]:
            np.testing.assert_allclose(s, states[0], atol=0)


class TestPooledKernels:
    def test_many_gates_through_one_pool(self):
        n = 8
        pkg = DDPackage(n)
        v = random_state(n, seed=1)
        gates = [
            Gate("h", (q,)) for q in range(n)
        ] + [Gate("cx", ((q + 1) % n,), (q,)) for q in range(n)]
        with TaskRunner(4, use_pool=True) as runner:
            state = v
            ref = v
            out = np.zeros_like(v)
            for g in gates:
                m = build_gate_dd(pkg, g)
                state, _ = dmav_cached(pkg, m, state, 4, runner=runner)
                ref = matrix_to_dense(pkg, m) @ ref
        np.testing.assert_allclose(state, ref, atol=1e-8)

    def test_interleaved_conversion_and_dmav(self):
        n = 8
        pkg = DDPackage(n)
        arr = random_state(n, seed=2)
        with TaskRunner(4, use_pool=True) as runner:
            for _ in range(5):
                state_dd = vector_from_array(pkg, arr)
                out, _ = convert_parallel(pkg, state_dd, 4, runner=runner)
                np.testing.assert_allclose(out, arr, atol=1e-9)
                m = build_gate_dd(pkg, Gate("h", (n - 1,)))
                arr, _ = dmav_nocache(pkg, m, out, 4, runner=runner)
                arr = arr / np.linalg.norm(arr)

    def test_pool_survives_task_exceptions(self):
        runner = TaskRunner(4, use_pool=True)
        with runner:
            with pytest.raises(ZeroDivisionError):
                runner.run([lambda: 1 / 0])
            # The pool is still usable afterwards.
            assert runner.run([lambda: 7]) == [7]


class TestRunnerLifecycle:
    """Regression tests for the shutdown paths the serving layer leans on.

    Historically ``close()`` kept a dangling executor reference (a second
    call raised) and an exception inside the ``with`` block leaked the
    pool.  The service's WorkerPool closes its runner from ``close()``
    *and* ``__exit__`` and must survive both orders.
    """

    def test_close_is_idempotent(self):
        runner = TaskRunner(4, use_pool=True)
        with runner:
            assert runner.run([lambda: 1]) == [1]
        runner.close()
        runner.close()  # second (and third) close must be a no-op
        runner.close(cancel_pending=True)

    def test_exit_shuts_down_after_thunk_raised(self):
        runner = TaskRunner(4, use_pool=True)
        with pytest.raises(ZeroDivisionError):
            with runner:
                runner.run([lambda: 1 / 0])
        assert runner._pool is None  # executor released despite the raise
        # The runner is re-enterable with a fresh pool.
        with runner:
            assert runner._pool is not None
            assert runner.run([lambda: 2]) == [2]
        assert runner._pool is None

    def test_reentry_does_not_leak_pools(self):
        runner = TaskRunner(2, use_pool=True)
        with runner:
            first = runner._pool
            with runner:  # nested entry reuses the live executor
                assert runner._pool is first
        assert runner._pool is None

    def test_cancel_pending_drops_queued_tasks(self):
        import threading
        import time

        gate = threading.Event()
        ran = []

        def blocker():
            gate.wait(5.0)
            ran.append("blocker")

        def queued():
            ran.append("queued")

        # threads=1 runs inline, so saturate a 2-worker pool instead.
        runner = TaskRunner(2, use_pool=True, cancel_pending=True)
        runner.__enter__()
        # Submit directly so run()'s result iteration does not block.
        runner._pool.submit(blocker)
        runner._pool.submit(blocker)
        runner._pool.submit(queued)
        time.sleep(0.05)  # let the blockers occupy both workers
        gate.set()
        runner.close()  # cancel_pending default drops `queued`
        assert ran == ["blocker", "blocker"]

    def test_close_without_cancel_drains_queue(self):
        import threading
        import time

        gate = threading.Event()
        ran = []

        runner = TaskRunner(2, use_pool=True, cancel_pending=False)
        runner.__enter__()
        runner._pool.submit(lambda: (gate.wait(5.0), ran.append("a")))
        runner._pool.submit(lambda: (gate.wait(5.0), ran.append("a")))
        runner._pool.submit(lambda: ran.append("b"))
        time.sleep(0.05)
        gate.set()
        runner.close()
        assert sorted(ran) == ["a", "a", "b"]  # queued task still drained
