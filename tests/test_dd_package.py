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
