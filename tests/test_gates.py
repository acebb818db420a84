"""Unit tests for the gate library."""

import math

import numpy as np
import pytest

from repro.circuits.gates import (
    CONTROLLED_ALIASES,
    GATE_BUILDERS,
    Gate,
    gate_matrix,
    known_gates,
)
from repro.common.errors import CircuitError


class TestMatrices:
    @pytest.mark.parametrize("name", sorted(GATE_BUILDERS))
    def test_all_fixed_gates_are_unitary(self, name):
        ntargets, nparams, _ = GATE_BUILDERS[name]
        params = tuple(0.3 * (k + 1) for k in range(nparams))
        u = gate_matrix(name, params)
        dim = 1 << ntargets
        assert u.shape == (dim, dim)
        np.testing.assert_allclose(
            u @ u.conj().T, np.eye(dim), atol=1e-12
        )

    def test_hadamard_values(self):
        u = gate_matrix("h")
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(u, [[s, s], [s, -s]])

    def test_sqrt_gates_square_to_paulis(self):
        # sx^2 = X, sy^2 = Y (the supremacy one-qubit set).
        np.testing.assert_allclose(
            gate_matrix("sx") @ gate_matrix("sx"), gate_matrix("x"), atol=1e-12
        )
        np.testing.assert_allclose(
            gate_matrix("sy") @ gate_matrix("sy"), gate_matrix("y"), atol=1e-12
        )

    def test_sw_squares_to_w(self):
        w = (gate_matrix("x") + gate_matrix("y")) / math.sqrt(2)
        np.testing.assert_allclose(
            gate_matrix("sw") @ gate_matrix("sw"), w, atol=1e-12
        )

    def test_rotation_composition(self):
        np.testing.assert_allclose(
            gate_matrix("rz", (0.3,)) @ gate_matrix("rz", (0.4,)),
            gate_matrix("rz", (0.7,)),
            atol=1e-12,
        )

    def test_u3_generalizes_others(self):
        np.testing.assert_allclose(
            gate_matrix("u3", (0.0, 0.0, 0.5)),
            gate_matrix("p", (0.5,)) * np.exp(0j),
            atol=1e-12,
        )

    def test_controlled_alias_returns_base_matrix(self):
        np.testing.assert_allclose(gate_matrix("cx"), gate_matrix("x"))
        np.testing.assert_allclose(gate_matrix("ccx"), gate_matrix("x"))

    def test_unknown_gate_rejected(self):
        with pytest.raises(CircuitError):
            gate_matrix("frobnicate")

    def test_wrong_param_count_rejected(self):
        with pytest.raises(CircuitError):
            gate_matrix("rz", ())
        with pytest.raises(CircuitError):
            gate_matrix("h", (1.0,))

    def test_fsim_special_cases(self):
        # fsim(0, 0) = I; fsim(pi/2, 0) = iSWAP up to sign convention.
        np.testing.assert_allclose(
            gate_matrix("fsim", (0.0, 0.0)), np.eye(4), atol=1e-12
        )
        f = gate_matrix("fsim", (math.pi / 2, 0.0))
        assert abs(f[1, 2]) == pytest.approx(1.0)
        assert f[1, 1] == pytest.approx(0.0, abs=1e-12)


class TestGateRecord:
    def test_alias_resolution(self):
        g = Gate("cx", targets=(1,), controls=(0,))
        assert g.base_name == "x"
        assert g.qubits == (0, 1)

    def test_signature_distinguishes_params(self):
        a = Gate("rz", (0,), params=(0.1,))
        b = Gate("rz", (0,), params=(0.2,))
        assert a.signature != b.signature

    def test_signature_shared_across_aliases(self):
        a = Gate("cx", targets=(1,), controls=(0,))
        b = Gate("cnot", targets=(1,), controls=(0,))
        assert a.signature == b.signature

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(CircuitError):
            Gate("cx", targets=(0,), controls=(0,))

    def test_wrong_target_count_rejected(self):
        with pytest.raises(CircuitError):
            Gate("swap", targets=(0,))

    def test_negative_qubit_rejected(self):
        with pytest.raises(CircuitError):
            Gate("h", targets=(-1,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_param_rejected(self, value):
        with pytest.raises(CircuitError, match="non-finite"):
            Gate("rz", (0,), params=(value,))
        with pytest.raises(CircuitError, match="non-finite"):
            Gate("u3", (0,), params=(0.1, value, 0.2))

    def test_is_diagonal(self):
        assert Gate("rz", (0,), params=(0.4,)).is_diagonal
        assert Gate("cz", (1,), (0,)).is_diagonal
        assert not Gate("h", (0,)).is_diagonal
        # By kind, never by parameter value: rx(0) is the identity, but
        # an rx sweep row at 0 routes like the others.
        assert not Gate("rx", (0,), params=(0.0,)).is_diagonal

    def test_str_rendering(self):
        g = Gate("cp", targets=(2,), controls=(0,), params=(0.5,))
        assert "cp" in str(g) and "0, 2" in str(g)

    def test_known_gates_covers_aliases(self):
        names = known_gates()
        assert "cx" in names and "h" in names and "ccx" in names
        assert all(
            alias in names for alias in CONTROLLED_ALIASES
        )
