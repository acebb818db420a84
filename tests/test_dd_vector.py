"""Unit tests for vector DDs: build, export, amplitudes, node counts."""

import numpy as np
import pytest

from repro.common.errors import DDError
from repro.dd import (
    DDPackage,
    amplitude,
    basis_state,
    node_count,
    vector_from_array,
    vector_to_array,
    zero_state,
)

from tests.conftest import random_state


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_random_state_roundtrip(self, n):
        pkg = DDPackage(n)
        arr = random_state(n, seed=n)
        e = vector_from_array(pkg, arr)
        np.testing.assert_allclose(vector_to_array(pkg, e), arr, atol=1e-10)

    def test_sparse_state_roundtrip(self):
        pkg = DDPackage(4)
        arr = np.zeros(16, dtype=complex)
        arr[3] = 0.6
        arr[12] = 0.8j
        e = vector_from_array(pkg, arr)
        np.testing.assert_allclose(vector_to_array(pkg, e), arr, atol=1e-12)

    def test_all_zero_array_is_zero_edge(self):
        pkg = DDPackage(3)
        e = vector_from_array(pkg, np.zeros(8))
        assert e.is_zero
        np.testing.assert_array_equal(vector_to_array(pkg, e), np.zeros(8))

    def test_bad_length_rejected(self):
        pkg = DDPackage(3)
        with pytest.raises(DDError):
            vector_from_array(pkg, np.ones(6))

    def test_scalar_array_rejected(self):
        pkg = DDPackage(1)
        with pytest.raises(DDError):
            vector_from_array(pkg, np.ones(1))

    def test_scalar_multiple_with_near_tolerance_component(self):
        # The last amplitude's real part (8e-11) sits below TOLERANCE but
        # doubles past it; only the normalized ratios may be bucketed, or
        # the two vectors get different nodes.
        arr = np.zeros(16, dtype=complex)
        arr[13:] = [0.81649658j, 0.40824829j, 8.16496592e-11 + 0.40824829j]
        pkg = DDPackage(4)
        a = vector_from_array(pkg, arr)
        b = vector_from_array(pkg, 2.0 * arr)
        assert a.n is b.n
        np.testing.assert_allclose(vector_to_array(pkg, a), arr, atol=1e-15)


class TestBasisStates:
    def test_zero_state_amplitudes(self):
        pkg = DDPackage(3)
        arr = vector_to_array(pkg, zero_state(pkg))
        expected = np.zeros(8)
        expected[0] = 1
        np.testing.assert_allclose(arr, expected)

    @pytest.mark.parametrize("index", [0, 1, 5, 7])
    def test_basis_state_amplitudes(self, index):
        pkg = DDPackage(3)
        arr = vector_to_array(pkg, basis_state(pkg, index))
        expected = np.zeros(8)
        expected[index] = 1
        np.testing.assert_allclose(arr, expected)

    def test_basis_state_has_linear_node_count(self):
        pkg = DDPackage(8)
        e = basis_state(pkg, 0b10110101)
        assert node_count(e) == 8

    def test_out_of_range_index_rejected(self):
        pkg = DDPackage(3)
        with pytest.raises(DDError):
            basis_state(pkg, 8)


class TestAmplitude:
    def test_matches_array(self):
        pkg = DDPackage(4)
        arr = random_state(4, seed=42)
        e = vector_from_array(pkg, arr)
        for i in range(16):
            assert amplitude(pkg, e, i) == pytest.approx(arr[i], abs=1e-10)

    def test_zero_edge_amplitude(self):
        pkg = DDPackage(2)
        e = vector_from_array(pkg, np.zeros(4))
        assert amplitude(pkg, e, 2) == 0j


class TestNodeCount:
    def test_uniform_state_is_a_chain(self):
        # |+...+> has one node per level: maximal regularity.
        pkg = DDPackage(6)
        arr = np.full(64, 1 / 8.0)
        e = vector_from_array(pkg, arr)
        assert node_count(e) == 6

    def test_random_state_is_near_worst_case(self):
        # A generic random state shares nothing: 2**n - 1 nodes.
        n = 6
        pkg = DDPackage(n)
        e = vector_from_array(pkg, random_state(n, seed=9))
        assert node_count(e) == (1 << n) - 1

    def test_zero_edge_counts_zero(self):
        pkg = DDPackage(3)
        assert node_count(vector_from_array(pkg, np.zeros(8))) == 0

    def test_shared_structure_counted_once(self):
        # [a, a] pattern: top node's children collapse to one subtree.
        pkg = DDPackage(3)
        quarter = np.array([0.5, 0.25, 0.125, 0.0625])
        arr = np.concatenate([quarter, quarter])
        e = vector_from_array(pkg, arr)
        # top node + 2 shared levels = 3, not 7
        assert node_count(e) == 3


class TestExportValidation:
    def test_wrong_root_level_rejected(self):
        pkg = DDPackage(4)
        sub = vector_from_array(pkg, random_state(3, seed=1))
        with pytest.raises(DDError):
            vector_to_array(pkg, sub)  # root at level 2, expected 3
