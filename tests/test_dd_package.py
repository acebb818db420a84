"""Unit tests for DDPackage: normalization, hash-consing, GC."""

import math

import numpy as np
import pytest

from repro.common.errors import DDError
from repro.dd import (
    DDPackage,
    TERMINAL,
    ZERO_EDGE,
    matrix_to_dense,
    single_qubit_gate,
    vector_from_array,
    vector_to_array,
    zero_state,
)

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


class TestVectorNormalization:
    def test_zero_children_give_zero_edge(self, pkg3):
        e = pkg3.make_vnode(0, ZERO_EDGE, ZERO_EDGE)
        assert e is ZERO_EDGE

    def test_outgoing_weights_norm_one(self, pkg3):
        e0 = pkg3.edge(0.3, TERMINAL)
        e1 = pkg3.edge(0.4j, TERMINAL)
        e = pkg3.make_vnode(0, e0, e1)
        w0, w1 = e.n.edges[0].w, e.n.edges[1].w
        assert abs(w0) ** 2 + abs(w1) ** 2 == pytest.approx(1.0)

    def test_first_nonzero_outgoing_weight_real_positive(self, pkg3):
        e0 = pkg3.edge(-0.6j, TERMINAL)
        e1 = pkg3.edge(0.8, TERMINAL)
        e = pkg3.make_vnode(0, e0, e1)
        lead = e.n.edges[0].w
        assert lead.imag == pytest.approx(0.0)
        assert lead.real > 0

    def test_incoming_weight_restores_values(self, pkg3):
        e0 = pkg3.edge(0.3, TERMINAL)
        e1 = pkg3.edge(-0.4, TERMINAL)
        e = pkg3.make_vnode(0, e0, e1)
        assert e.w * e.n.edges[0].w == pytest.approx(0.3)
        assert e.w * e.n.edges[1].w == pytest.approx(-0.4)

    def test_scalar_multiples_share_node(self, pkg3):
        a = pkg3.make_vnode(0, pkg3.edge(0.6, TERMINAL), pkg3.edge(0.8, TERMINAL))
        b = pkg3.make_vnode(0, pkg3.edge(0.3, TERMINAL), pkg3.edge(0.4, TERMINAL))
        assert a.n is b.n

    def test_level_mismatch_rejected(self, pkg3):
        inner = pkg3.make_vnode(0, pkg3.one_edge(), ZERO_EDGE)
        with pytest.raises(DDError):
            pkg3.make_vnode(2, inner, ZERO_EDGE)


class TestMatrixNormalization:
    def test_all_zero_children_give_zero_edge(self, pkg3):
        e = pkg3.make_mnode(0, (ZERO_EDGE,) * 4)
        assert e is ZERO_EDGE

    def test_leading_max_weight_becomes_one(self, pkg3):
        edges = tuple(
            pkg3.edge(w, TERMINAL) for w in (0.5, 0.5, 0.5, -0.5)
        )
        e = pkg3.make_mnode(0, edges)
        assert e.n.edges[0].w == 1.0
        assert e.w == pytest.approx(0.5)

    def test_hadamard_node_weights_match_figure_2a(self, pkg3):
        # Figure 2a: H's node has outgoing weights (1, 1, 1, -1) and
        # incoming weight 1/sqrt(2).
        e = single_qubit_gate(pkg3, H, 0)
        # Peel the identity pass-through levels added above the target.
        node = e.n
        while node.level > 0:
            node = node.edges[0].n
        ws = [c.w for c in node.edges]
        assert ws == [1.0, 1.0, 1.0, -1.0]

    def test_wrong_edge_count_rejected(self, pkg3):
        with pytest.raises(DDError):
            pkg3.make_mnode(0, (ZERO_EDGE, ZERO_EDGE))


class TestHashConsing:
    def test_identical_structures_are_same_object(self, pkg3):
        a = pkg3.make_vnode(0, pkg3.edge(1.0, TERMINAL), ZERO_EDGE)
        b = pkg3.make_vnode(0, pkg3.edge(1.0, TERMINAL), ZERO_EDGE)
        assert a.n is b.n

    def test_unique_node_count_tracks_tables(self, pkg3):
        before = pkg3.unique_node_count
        pkg3.make_vnode(0, pkg3.one_edge(), ZERO_EDGE)
        pkg3.make_vnode(0, ZERO_EDGE, pkg3.one_edge())
        assert pkg3.unique_node_count == before + 2

    def test_identity_edge_memoized(self, pkg3):
        a = pkg3.identity_edge(2)
        b = pkg3.identity_edge(2)
        assert a.n is b.n and a.w == b.w

    def test_identity_edge_is_identity_matrix(self, pkg3):
        e = pkg3.identity_edge(2)
        np.testing.assert_allclose(matrix_to_dense(pkg3, e), np.eye(8))


class TestGarbageCollection:
    def test_unreachable_nodes_removed(self):
        pkg = DDPackage(4)
        v = vector_from_array(pkg, np.arange(1, 17, dtype=complex))
        junk = vector_from_array(
            pkg, np.random.default_rng(0).normal(size=16) + 0j
        )
        before = pkg.unique_node_count
        removed = pkg.collect_garbage([v])
        assert removed > 0
        assert pkg.unique_node_count < before

    def test_roots_survive_and_still_evaluate(self):
        pkg = DDPackage(4)
        arr = np.linspace(1, 2, 16).astype(complex)
        v = vector_from_array(pkg, arr)
        vector_from_array(pkg, np.ones(16, dtype=complex))  # garbage
        pkg.collect_garbage([v])
        np.testing.assert_allclose(vector_to_array(pkg, v), arr, atol=1e-12)

    def test_gc_clears_compute_tables(self):
        pkg = DDPackage(3)
        from repro.dd.operations import mv_multiply

        m = single_qubit_gate(pkg, H, 1)
        s = zero_state(pkg)
        mv_multiply(pkg, m, s)
        assert pkg.cache_mv
        pkg.collect_garbage([s, m])
        assert not pkg.cache_mv

    def test_peak_node_count_monotone(self):
        pkg = DDPackage(4)
        v = vector_from_array(pkg, np.arange(1, 17, dtype=complex))
        peak = pkg.peak_node_count
        pkg.collect_garbage([v])
        assert pkg.peak_node_count == peak
        assert pkg.unique_node_count <= peak


class TestValidation:
    def test_zero_qubits_rejected(self):
        with pytest.raises(DDError):
            DDPackage(0)

    def test_edge_canonicalizes_zero(self, pkg3):
        assert pkg3.edge(1e-15, TERMINAL) is ZERO_EDGE


class TestBuildMarkRewind:
    def _dd_weights(self, e):
        out = []
        stack = [e]
        seen = set()
        while stack:
            cur = stack.pop()
            out.append(cur.w)
            if cur.is_zero or id(cur.n) in seen or cur.n.is_terminal:
                continue
            seen.add(id(cur.n))
            stack.extend(cur.n.edges)
        return out

    def test_rewind_restores_counters_and_tables(self):
        pkg = DDPackage(3)
        single_qubit_gate(pkg, H, 0)
        mark = pkg.build_mark()
        mnodes = pkg.matrix_node_count
        created = pkg.nodes_created
        ct = len(pkg.ctable)
        u = np.array([[0.6, 0.8], [0.8, -0.6]])
        single_qubit_gate(pkg, u, 2)
        assert pkg.matrix_node_count > mnodes
        pkg.rewind_to_mark(mark)
        assert pkg.matrix_node_count == mnodes
        assert pkg.nodes_created == created
        assert len(pkg.ctable) == ct

    def test_rebuild_after_rewind_is_bit_identical(self):
        theta = 0.37281
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        ry = np.array([[c, -s], [s, c]])
        other = np.array([[0.28, 0.96], [0.96, -0.28]])
        pkg = DDPackage(3)
        single_qubit_gate(pkg, H, 1)
        mark = pkg.build_mark()
        first = single_qubit_gate(pkg, ry, 0)
        first_idx = first.n.idx
        first_w = self._dd_weights(first)
        pkg.rewind_to_mark(mark)
        # An interleaved different build must leave no trace ...
        single_qubit_gate(pkg, other, 2)
        pkg.rewind_to_mark(mark)
        again = single_qubit_gate(pkg, ry, 0)
        # ... so the rebuild sees the same creation order and weights.
        assert again.n.idx == first_idx
        assert self._dd_weights(again) == first_w

    def test_evicted_nodes_stay_valid_through_kept_edges(self):
        pkg = DDPackage(3)
        mark = pkg.build_mark()
        kept = single_qubit_gate(pkg, H, 1)
        pkg.rewind_to_mark(mark)
        dense = matrix_to_dense(pkg, kept)
        expect = np.kron(np.eye(2), np.kron(H, np.eye(2)))
        np.testing.assert_allclose(dense, expect, atol=1e-12)

    def test_rewind_across_gc_rejected(self):
        pkg = DDPackage(3)
        mark = pkg.build_mark()
        e = single_qubit_gate(pkg, H, 0)
        pkg.collect_garbage([e])
        with pytest.raises(DDError):
            pkg.rewind_to_mark(mark)

    def test_gate_cache_rewind_drops_added_entries(self):
        from repro.backends.gatecache import GateDDCache
        from repro.circuits.gates import Gate

        pkg = DDPackage(3)
        cache = GateDDCache(pkg)
        cache.get(Gate("h", (0,)))
        m = cache.mark()
        cache.get(Gate("ry", (1,), params=(0.5,)))
        assert len(cache) == m + 1
        cache.rewind(m)
        assert len(cache) == m
        # The surviving prefix entry still serves lookups.
        hits = cache.hits
        cache.get(Gate("h", (0,)))
        assert cache.hits == hits + 1

    def test_rewind_rolls_back_windowed_builds(self):
        # Identity-skipped (windowed) gate DDs must rewind exactly like
        # full-height ones: a rebuild after rewind-plus-interference sees
        # the same creation indices and weights.
        from repro.backends.gatecache import build_gate_dd
        from repro.circuits.gates import Gate

        pkg = DDPackage(4)
        g = Gate("cx", (1,), (0,))
        mark = pkg.build_mark()
        first = build_gate_dd(pkg, g, windowed=True)
        assert first.n.level == 1  # root at max(gate.qubits), not n-1
        first_idx = first.n.idx
        first_w = self._dd_weights(first)
        pkg.rewind_to_mark(mark)
        build_gate_dd(pkg, Gate("ry", (3,), params=(0.7,)), windowed=True)
        pkg.rewind_to_mark(mark)
        again = build_gate_dd(pkg, g, windowed=True)
        assert again.n.idx == first_idx
        assert self._dd_weights(again) == first_w

    def test_gate_cache_rewind_drops_windowed_entries(self):
        # Windowed and full-height entries for the same gate are distinct
        # keys; rewind drops both kinds added past the mark.
        from repro.backends.gatecache import GateDDCache
        from repro.circuits.gates import Gate

        pkg = DDPackage(3)
        cache = GateDDCache(pkg)
        cache.get(Gate("h", (0,)), windowed=True)
        m = cache.mark()
        cache.get(Gate("h", (0,)))  # full-height: its own entry
        cache.get(Gate("ry", (1,), params=(0.5,)), windowed=True)
        assert len(cache) == m + 2
        cache.rewind(m)
        assert len(cache) == m
        hits = cache.hits
        cache.get(Gate("h", (0,)), windowed=True)
        assert cache.hits == hits + 1
