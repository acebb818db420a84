"""Unit tests for the MAC-count cost model (Section 3.2.3)."""

import gc
import math

import numpy as np
import pytest

from repro.backends.gatecache import build_gate_dd
from repro.circuits import Gate
from repro.common.config import SIMD_WIDTH
from repro.core.cost_model import CostModel, assign_cache_tasks, mac_count
from repro.dd import (
    DDPackage,
    matrix_to_dense,
    single_qubit_gate,
    mm_multiply,
)

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def dense_mac_count(m: np.ndarray) -> int:
    """Reference: one MAC per non-zero matrix entry."""
    return int(np.count_nonzero(np.abs(m) > 1e-12))


class TestMacCount:
    def test_terminal_costs_one(self):
        pkg = DDPackage(1)
        assert mac_count(pkg, pkg.one_edge()) == 1

    def test_zero_edge_costs_zero(self):
        pkg = DDPackage(2)
        assert mac_count(pkg, pkg.zero_edge()) == 0

    def test_identity_matches_nonzeros(self):
        pkg = DDPackage(4)
        m = pkg.identity_edge(3)
        assert mac_count(pkg, m) == 16  # one nonzero per row

    @pytest.mark.parametrize("target", [0, 1, 3])
    def test_single_qubit_gates_match_nonzeros(self, target):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, target)
        assert mac_count(pkg, m) == dense_mac_count(matrix_to_dense(pkg, m))

    def test_controlled_gate_matches_nonzeros(self):
        pkg = DDPackage(4)
        m = build_gate_dd(pkg, Gate("ccx", (0,), (2, 3)))
        assert mac_count(pkg, m) == dense_mac_count(matrix_to_dense(pkg, m))

    def test_figure_8_example_structure(self):
        # A two-level DD where every node doubles its child count, like the
        # paper's Figure 8 walk: H (x) H has 16 nonzero entries -> 16 MACs.
        pkg = DDPackage(2)
        hh = mm_multiply(
            pkg,
            single_qubit_gate(pkg, H, 0),
            single_qubit_gate(pkg, H, 1),
        )
        assert mac_count(pkg, hh) == 16

    def test_fused_gate_cost_grows_with_density(self):
        pkg = DDPackage(4)
        h0 = single_qubit_gate(pkg, H, 0)
        h1 = single_qubit_gate(pkg, H, 1)
        fused = mm_multiply(pkg, h0, h1)
        assert mac_count(pkg, fused) > mac_count(pkg, h0)

    def test_memoized_across_shared_nodes(self):
        pkg = DDPackage(6)
        m = single_qubit_gate(pkg, H, 3)
        mac_count(pkg, m)
        assert pkg.mac_counts  # table populated


class TestEquationFive:
    def test_cost_divides_by_threads(self):
        pkg = DDPackage(4)
        m = single_qubit_gate(pkg, H, 2)
        k1 = mac_count(pkg, m)
        for t in (1, 2, 4):
            cost = CostModel(t).evaluate(pkg, m)
            assert cost.cost_nocache == pytest.approx(k1 / t)


class TestEquationSix:
    def test_cache_cost_components(self):
        n, t, d = 5, 2, SIMD_WIDTH
        pkg = DDPackage(n)
        m = single_qubit_gate(pkg, H, n - 1)
        assignment = assign_cache_tasks(pkg, m, t)
        cost = CostModel(t).evaluate(pkg, m)
        k2 = assignment.k2_macs(pkg)
        h = assignment.cache_hits
        b = assignment.num_buffers
        expected = k2 / t + ((1 << n) / (d * t)) * (h / t + b)
        assert cost.cost_cache == pytest.approx(expected)

    def test_cache_hits_counted_per_thread(self):
        # H on top qubit at t=2: each thread sees the same identity node
        # twice -> one hit per thread.
        pkg = DDPackage(5)
        m = single_qubit_gate(pkg, H, 4)
        assignment = assign_cache_tasks(pkg, m, 2)
        assert assignment.cache_hits == 2

    def test_k2_excludes_repeats(self):
        pkg = DDPackage(5)
        m = single_qubit_gate(pkg, H, 4)
        assignment = assign_cache_tasks(pkg, m, 2)
        k1 = mac_count(pkg, m)
        assert assignment.k2_macs(pkg) < k1

    def test_plain_hadamard_does_not_justify_caching(self):
        # For a lone H the MACs saved by caching (half of K1) are smaller
        # than the buffer-summing overhead of Equation 6 -- exactly the
        # kind of gate the paper's model keeps on the uncached path.
        n = 10
        pkg = DDPackage(n)
        m = single_qubit_gate(pkg, H, n - 1)
        cost = CostModel(2).evaluate(pkg, m)
        assert cost.cost_cache > cost.cost_nocache

    def test_caching_pays_off_for_dense_fused_gates(self):
        # Fused multi-H gates (the DMAV-phase workload after fusion) have
        # dense top blocks whose border nodes repeat heavily: caching wins.
        n = 10
        pkg = DDPackage(n)
        m = pkg.identity_edge(n - 1)
        for q in (n - 1, n - 2, n - 3):
            m = mm_multiply(pkg, single_qubit_gate(pkg, H, q), m)
        cost = CostModel(4).evaluate(pkg, m)
        assert cost.cache_hits > 0
        assert cost.cost_cache < cost.cost_nocache
        assert cost.use_cache

    def test_caching_rejected_when_no_sharing(self):
        # CX with control at the border level has distinct border nodes
        # per column block; cache hits = 0 so buffers make C2 > C1.
        n = 6
        pkg = DDPackage(n)
        m = build_gate_dd(pkg, Gate("rz", (0,), params=(0.3,)))
        cost = CostModel(2).evaluate(pkg, m)
        # rz is diagonal: every border task is unique per thread.
        assert cost.cache_hits == 0
        assert not cost.use_cache

    def test_min_cost_selected(self):
        pkg = DDPackage(6)
        m = single_qubit_gate(pkg, H, 5)
        cost = CostModel(2).evaluate(pkg, m)
        assert cost.cost == min(cost.cost_nocache, cost.cost_cache)


class TestVerdictMemo:
    def test_model_reused_across_packages(self):
        """Each package dies before the next is built, so Python may hand
        its nodes' ids to the next package's nodes: a memo keyed by id
        would answer for a dead node."""
        by_edge, by_assignment = CostModel(2), CostModel(2)
        for i in range(300):
            pkg = DDPackage(5)
            gate = Gate("h", (2,)) if i % 2 else Gate("cx", (2,), (0,))
            m = build_gate_dd(pkg, gate)
            fresh = CostModel(2).evaluate(pkg, m)
            assert by_edge.evaluate(pkg, m) == fresh, (i, gate)
            assignment = assign_cache_tasks(pkg, m, 2)
            assert by_assignment.evaluate_assignment(
                pkg, m, assignment
            ) == fresh, (i, gate)
            del pkg, m, assignment
            gc.collect()


class TestAcrossTheBorder:
    """An unfused gate with a qubit above the border level, priced in the
    model's scratch package like its DD in a fresh one: each thread's
    column holds the gate's non-zero h x h blocks, and blocks that are
    scalar multiples share one node."""

    @staticmethod
    def _both(n, threads, gate):
        pkg = DDPackage(n)
        m = build_gate_dd(pkg, gate, windowed=True)
        model = CostModel(threads)
        return model.evaluate_tile_local(n, gate), CostModel(
            threads
        ).evaluate(pkg, m)

    def test_one_target_above_the_border(self):
        # h on the top qubit at t = 2: each column holds two multiples of
        # the identity (one node, one hit) and writes both output tiles,
        # so the two threads need two buffers.
        n = 6
        priced, built = self._both(n, 2, Gate("h", (n - 1,)))
        assert priced == built
        assert priced.macs_total == 1 << (n + 1)
        assert (priced.cache_hits, priced.buffers) == (2, 2)
        assert priced.cost_cache == (1 << n) / 2 + (1 << n) / 4 * (2 / 2 + 2)
        assert not priced.use_cache

    def test_scalar_multiple_blocks_share_a_node(self):
        # Over the target above the border, A (x) B's blocks are A[r, c]
        # times B: one node per column.  A random 4x4 has distinct
        # blocks, so no hit.
        from repro.circuits.gates import UnitaryGate

        from tests.conftest import random_unitary

        n, threads = 6, 2
        product = np.kron(random_unitary(2, 1), random_unitary(2, 2))
        for u, hits in ((product, threads), (random_unitary(4, 3), 0)):
            priced, built = self._both(
                n, threads, UnitaryGate(u, (n - 1, 0))
            )
            assert priced == built
            assert priced.cache_hits == hits

    def test_control_above_the_border_copies_tiles(self):
        # cx with its control above the border: the control-0 columns
        # hold the identity, the others the x block, one task each.
        n, threads = 6, 4
        priced, built = self._both(n, threads, Gate("cx", (1,), (n - 1,)))
        assert priced == built
        assert priced.cache_hits == 0 and priced.buffers == 1


class TestExecutionConsistency:
    def test_modeled_hits_match_executed_hits(self):
        from repro.core.dmav import dmav_cached
        from tests.conftest import random_state

        n = 6
        pkg = DDPackage(n)
        v = random_state(n, seed=0)
        for gate in (
            Gate("h", (n - 1,)),
            Gate("h", (0,)),
            Gate("cx", (0,), (n - 1,)),
            Gate("swap", (0, n - 1)),
        ):
            m = build_gate_dd(pkg, gate)
            for t in (1, 2, 4):
                assignment = assign_cache_tasks(pkg, m, t)
                _, stats = dmav_cached(pkg, m, v, t, assignment=assignment)
                assert stats.cache_hits == assignment.cache_hits
                assert stats.buffers == assignment.num_buffers


class TestValidation:
    def test_bad_thread_count(self):
        with pytest.raises(ValueError):
            CostModel(0)
