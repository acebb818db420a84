"""Property-based tests (hypothesis) on the core invariants of DESIGN.md #6."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.backends import StatevectorSimulator
from repro.backends.gatecache import build_gate_dd
from repro.circuits import Circuit, Gate
from repro.common.config import DENSE_BLOCK_LEVEL
from repro.core.conversion import convert_parallel
from repro.core.cost_model import CostModel, mac_count
from repro.core.dmav import dmav_cached, dmav_nocache
from repro.core.fusion import fuse_cost_aware
from repro.dd import (
    DDPackage,
    matrix_to_dense,
    mm_multiply,
    mv_multiply,
    node_count,
    vadd,
    vector_from_array,
    vector_to_array,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

N_QUBITS = 4


@st.composite
def states(draw, n=N_QUBITS):
    """Normalized complex state vectors with occasional exact zeros."""
    size = 1 << n
    reals = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False, width=32),
            min_size=size,
            max_size=size,
        )
    )
    imags = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False, width=32),
            min_size=size,
            max_size=size,
        )
    )
    zero_mask = draw(
        st.lists(st.booleans(), min_size=size, max_size=size)
    )
    arr = np.array(
        [0 if z else complex(r, i) for r, i, z in zip(reals, imags, zero_mask)]
    )
    # Keep amplitudes away from the zero-collapse tolerance boundary: any
    # absolute-tolerance DD package classifies values straddling it
    # inconsistently under rescaling (expected behaviour, not a bug).
    arr[np.abs(arr) < 1e-4] = 0
    norm = np.linalg.norm(arr)
    assume(norm > 1e-3)
    return arr / norm


@st.composite
def gates(draw, n=N_QUBITS):
    """Random library gates over n qubits."""
    kind = draw(st.sampled_from(["1q", "rot", "ctrl", "2q", "ccx"]))
    qubits = list(range(n))
    if kind == "1q":
        name = draw(st.sampled_from(["h", "x", "y", "z", "s", "t", "sx"]))
        return Gate(name, (draw(st.sampled_from(qubits)),))
    if kind == "rot":
        name = draw(st.sampled_from(["rx", "ry", "rz", "p"]))
        theta = draw(st.floats(0, 2 * math.pi, allow_nan=False))
        return Gate(name, (draw(st.sampled_from(qubits)),), params=(theta,))
    picked = draw(
        st.lists(st.sampled_from(qubits), min_size=3, max_size=3, unique=True)
    )
    if kind == "ctrl":
        name = draw(st.sampled_from(["cx", "cz", "ch"]))
        return Gate(name, (picked[1],), (picked[0],))
    if kind == "2q":
        name = draw(st.sampled_from(["swap", "iswap"]))
        return Gate(name, (picked[0], picked[1]))
    return Gate("ccx", (picked[2],), (picked[0], picked[1]))


circuits = st.lists(gates(), min_size=1, max_size=12)

# ---------------------------------------------------------------------------
# DD structure invariants
# ---------------------------------------------------------------------------


class TestDDCanonicity:
    @settings(max_examples=40, deadline=None)
    @given(states())
    def test_roundtrip(self, arr):
        pkg = DDPackage(N_QUBITS)
        e = vector_from_array(pkg, arr)
        np.testing.assert_allclose(vector_to_array(pkg, e), arr, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(states())
    def test_rebuild_gives_identical_node(self, arr):
        pkg = DDPackage(N_QUBITS)
        a = vector_from_array(pkg, arr)
        b = vector_from_array(pkg, arr.copy())
        assert a.n is b.n

    @settings(max_examples=40, deadline=None)
    @given(states(), st.floats(0.1, 4.0), st.floats(0, 2 * math.pi))
    def test_scalar_multiples_share_structure(self, arr, mag, phase):
        pkg = DDPackage(N_QUBITS)
        a = vector_from_array(pkg, arr)
        b = vector_from_array(pkg, arr * mag * np.exp(1j * phase))
        assert a.n is b.n

    @settings(max_examples=40, deadline=None)
    @given(states())
    def test_node_count_bounded(self, arr):
        pkg = DDPackage(N_QUBITS)
        e = vector_from_array(pkg, arr)
        assert node_count(e) <= (1 << N_QUBITS) - 1


class TestDDAlgebra:
    @settings(max_examples=30, deadline=None)
    @given(states(), states())
    def test_addition_matches_numpy(self, a, b):
        pkg = DDPackage(N_QUBITS)
        ea, eb = vector_from_array(pkg, a), vector_from_array(pkg, b)
        got = vector_to_array(pkg, vadd(pkg, ea, eb))
        np.testing.assert_allclose(got, a + b, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(gates(), states())
    def test_mv_matches_dense(self, gate, arr):
        pkg = DDPackage(N_QUBITS)
        m = build_gate_dd(pkg, gate)
        v = vector_from_array(pkg, arr)
        got = vector_to_array(pkg, mv_multiply(pkg, m, v))
        np.testing.assert_allclose(
            got, matrix_to_dense(pkg, m) @ arr, atol=1e-6
        )

    @settings(max_examples=30, deadline=None)
    @given(gates(), gates())
    def test_mm_matches_dense(self, g1, g2):
        pkg = DDPackage(N_QUBITS)
        a, b = build_gate_dd(pkg, g1), build_gate_dd(pkg, g2)
        got = matrix_to_dense(pkg, mm_multiply(pkg, a, b))
        ref = matrix_to_dense(pkg, a) @ matrix_to_dense(pkg, b)
        np.testing.assert_allclose(got, ref, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(gates())
    def test_gate_dds_are_unitary(self, gate):
        pkg = DDPackage(N_QUBITS)
        dense = matrix_to_dense(pkg, build_gate_dd(pkg, gate))
        np.testing.assert_allclose(
            dense @ dense.conj().T, np.eye(1 << N_QUBITS), atol=1e-7
        )


# ---------------------------------------------------------------------------
# Kernel invariants: DMAV and conversion agree with dense math at all t
# ---------------------------------------------------------------------------


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        gates(),
        states(),
        st.sampled_from([1, 2, 4]),
        # -1..1 reach every DMAV bottom-out shape on 4 qubits; the default
        # level makes each gate one dense block.
        st.sampled_from([-1, 0, 1, DENSE_BLOCK_LEVEL]),
    )
    def test_dmav_variants_match_dense(self, gate, arr, threads, dense_level):
        pkg = DDPackage(N_QUBITS)
        m = build_gate_dd(pkg, gate)
        ref = matrix_to_dense(pkg, m) @ arr
        w1, _ = dmav_nocache(pkg, m, arr, threads, dense_level=dense_level)
        w2, _ = dmav_cached(pkg, m, arr, threads, dense_level=dense_level)
        np.testing.assert_allclose(w1, ref, atol=1e-6)
        np.testing.assert_allclose(w2, ref, atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(states(), st.sampled_from([1, 2, 4]), st.booleans(), st.booleans())
    def test_conversion_matches_input(self, arr, threads, lb, sm):
        pkg = DDPackage(N_QUBITS)
        e = vector_from_array(pkg, arr)
        out, _ = convert_parallel(
            pkg, e, threads, load_balance=lb, scalar_mult=sm
        )
        np.testing.assert_allclose(out, arr, atol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(gates())
    def test_mac_count_equals_nonzeros(self, gate):
        pkg = DDPackage(N_QUBITS)
        m = build_gate_dd(pkg, gate)
        dense = matrix_to_dense(pkg, m)
        # Exact count, no magnitude cutoff: each matrix entry is the
        # product of edge weights along its unique DD path, so a
        # structural nonzero is a nonzero entry no matter how tiny the
        # rotation angle (rx(1e-9) has 5e-10 off-diagonals that a 1e-9
        # threshold would miscount).
        assert mac_count(pkg, m) == np.count_nonzero(dense)


# ---------------------------------------------------------------------------
# End-to-end invariants
# ---------------------------------------------------------------------------


class TestSimulationInvariants:
    @settings(max_examples=15, deadline=None)
    @given(circuits)
    def test_norm_preserved_and_backends_agree(self, gate_list):
        c = Circuit(N_QUBITS, gate_list)
        ref = StatevectorSimulator(mode="reshape").run(c).state
        assert np.linalg.norm(ref) == pytest.approx(1.0, abs=1e-7)
        from repro import FlatDDSimulator

        r = FlatDDSimulator(threads=2).run(c)
        assert abs(np.vdot(r.state, ref)) ** 2 == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(circuits)
    def test_fusion_preserves_operator(self, gate_list):
        pkg = DDPackage(N_QUBITS)
        edges = [build_gate_dd(pkg, g) for g in gate_list]
        fused = fuse_cost_aware(pkg, edges, CostModel(2))
        acc = pkg.identity_edge(N_QUBITS - 1)
        for e in fused.gates:
            acc = mm_multiply(pkg, e, acc)
        ref = pkg.identity_edge(N_QUBITS - 1)
        for e in edges:
            ref = mm_multiply(pkg, e, ref)
        np.testing.assert_allclose(
            matrix_to_dense(pkg, acc), matrix_to_dense(pkg, ref), atol=1e-6
        )
