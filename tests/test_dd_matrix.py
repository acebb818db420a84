"""Unit tests for matrix DDs: gate construction against dense references."""

import itertools
import math

import numpy as np
import pytest

from repro.backends.gatecache import build_gate_dd
from repro.circuits.gates import CONTROLLED_ALIASES, GATE_BUILDERS, Gate
from repro.common.errors import DDError
from repro.dd import (
    ZERO_EDGE,
    DDPackage,
    controlled_gate,
    madd,
    matrix_entry,
    matrix_from_factors,
    matrix_node_count,
    matrix_to_dense,
    single_qubit_gate,
    two_qubit_gate,
)
from repro.dd.operations import identity_extend

from tests.conftest import random_unitary

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1, -1]).astype(complex)
S = np.diag([1, 1j])
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def dense_1q(u, target, n):
    out = np.array([[1]], dtype=complex)
    for k in range(n - 1, -1, -1):
        out = np.kron(out, u if k == target else np.eye(2))
    return out


def dense_controlled(u, targets, controls, n):
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    tbits = list(targets)
    for col in range(dim):
        if all((col >> c) & 1 for c in controls):
            col_sub = 0
            for t in tbits:
                col_sub = (col_sub << 1) | ((col >> t) & 1)
            for row_sub in range(u.shape[0]):
                row = col
                for pos, t in enumerate(tbits):
                    bitval = (row_sub >> (len(tbits) - 1 - pos)) & 1
                    row = (row & ~(1 << t)) | (bitval << t)
                out[row, col] += u[row_sub, col_sub]
        else:
            out[col, col] += 1
    return out


class TestSingleQubitGates:
    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    @pytest.mark.parametrize("u", [H, X, Y, Z, S], ids="HXYZS")
    def test_matches_kron_reference(self, u, target):
        n = 4
        pkg = DDPackage(n)
        e = single_qubit_gate(pkg, u, target)
        np.testing.assert_allclose(
            matrix_to_dense(pkg, e), dense_1q(u, target, n), atol=1e-12
        )

    def test_identity_gate_is_identity_chain(self):
        pkg = DDPackage(5)
        e = single_qubit_gate(pkg, np.eye(2), 2)
        assert e.n is pkg.identity_edge(4).n

    def test_gate_node_count_is_linear(self):
        pkg = DDPackage(8)
        e = single_qubit_gate(pkg, H, 3)
        # identity chain below (3) + H node + pass-through nodes above (4).
        assert matrix_node_count(e) == 8

    def test_bad_target_rejected(self):
        pkg = DDPackage(3)
        with pytest.raises(DDError):
            single_qubit_gate(pkg, H, 3)

    def test_bad_shape_rejected(self):
        pkg = DDPackage(3)
        with pytest.raises(DDError):
            single_qubit_gate(pkg, np.eye(4), 0)


class TestControlledGates:
    @pytest.mark.parametrize(
        "target,controls",
        [(0, (2,)), (2, (0,)), (1, (3,)), (0, (1, 2)), (3, (0, 1, 2))],
    )
    def test_controlled_x_matches_reference(self, target, controls):
        n = 4
        pkg = DDPackage(n)
        e = controlled_gate(pkg, X, (target,), controls)
        np.testing.assert_allclose(
            matrix_to_dense(pkg, e),
            dense_controlled(X, (target,), controls, n),
            atol=1e-12,
        )

    def test_controlled_phase_matches_reference(self):
        n = 3
        pkg = DDPackage(n)
        p = np.diag([1, np.exp(0.3j)])
        e = controlled_gate(pkg, p, (0,), (2,))
        np.testing.assert_allclose(
            matrix_to_dense(pkg, e),
            dense_controlled(p, (0,), (2,), n),
            atol=1e-12,
        )

    def test_controlled_swap_matches_reference(self):
        n = 3
        pkg = DDPackage(n)
        e = controlled_gate(pkg, SWAP, (2, 1), (0,))
        np.testing.assert_allclose(
            matrix_to_dense(pkg, e),
            dense_controlled(SWAP, (2, 1), (0,), n),
            atol=1e-12,
        )

    def test_overlapping_target_control_rejected(self):
        pkg = DDPackage(3)
        with pytest.raises(DDError):
            controlled_gate(pkg, X, (1,), (1,))

    def test_no_controls_delegates(self):
        pkg = DDPackage(3)
        a = controlled_gate(pkg, X, (1,), ())
        b = single_qubit_gate(pkg, X, 1)
        assert a.n is b.n and a.w == b.w


class TestTwoQubitGates:
    @pytest.mark.parametrize("pair", [(2, 0), (0, 2), (3, 1), (1, 3)])
    def test_swap_matches_permutation(self, pair):
        n = 4
        pkg = DDPackage(n)
        e = two_qubit_gate(pkg, SWAP, *pair)
        dense = matrix_to_dense(pkg, e)
        a, b = pair
        for col in range(1 << n):
            ba, bb = (col >> a) & 1, (col >> b) & 1
            row = (col & ~(1 << a) & ~(1 << b)) | (bb << a) | (ba << b)
            assert dense[row, col] == pytest.approx(1.0)

    def test_generic_4x4_unitary(self):
        n = 3
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(m)
        pkg = DDPackage(n)
        e = two_qubit_gate(pkg, q, 2, 0)
        dense = matrix_to_dense(pkg, e)
        # Verify a handful of entries via the block-index semantics.
        for row in range(8):
            for col in range(8):
                if ((row >> 1) & 1) != ((col >> 1) & 1):
                    assert dense[row, col] == pytest.approx(0, abs=1e-12)
                else:
                    r2 = (((row >> 2) & 1) << 1) | (row & 1)
                    c2 = (((col >> 2) & 1) << 1) | (col & 1)
                    assert dense[row, col] == pytest.approx(q[r2, c2])

    def test_same_qubit_rejected(self):
        pkg = DDPackage(3)
        with pytest.raises(DDError):
            two_qubit_gate(pkg, SWAP, 1, 1)


class TestFactorsAndEntries:
    def test_factors_product(self):
        pkg = DDPackage(3)
        e = matrix_from_factors(pkg, [X, H, Z])
        ref = np.kron(Z, np.kron(H, X))
        np.testing.assert_allclose(matrix_to_dense(pkg, e), ref, atol=1e-12)

    def test_factor_count_mismatch_rejected(self):
        pkg = DDPackage(3)
        with pytest.raises(DDError):
            matrix_from_factors(pkg, [])
        with pytest.raises(DDError):
            matrix_from_factors(pkg, [X, H, Z, X])

    def test_fewer_factors_builds_windowed_dd(self):
        # 1 <= k < num_qubits factors is the identity-skipped (windowed)
        # build: root at level k-1, levels above implicit identity.
        pkg = DDPackage(3)
        e = matrix_from_factors(pkg, [X, H])
        assert e.n.level == 1
        ref = np.kron(H, X)
        np.testing.assert_allclose(
            matrix_to_dense(pkg, e, num_qubits=2), ref, atol=1e-12
        )

    def test_matrix_entry_matches_dense(self):
        pkg = DDPackage(3)
        e = controlled_gate(pkg, H, (0,), (2,))
        dense = matrix_to_dense(pkg, e)
        for r in range(8):
            for c in range(8):
                assert matrix_entry(pkg, e, r, c) == pytest.approx(
                    dense[r, c], abs=1e-12
                )

    def test_figure_2a_entry(self):
        # The paper's worked example: M[0][2] of H (x) I at 2 qubits is
        # 1/sqrt(2) * 1 * 1.
        pkg = DDPackage(2)
        e = single_qubit_gate(pkg, H, 1)
        assert matrix_entry(pkg, e, 0, 2) == pytest.approx(1 / math.sqrt(2))


#: ``(name, build)`` with ``build(pkg, positions, top)``: every gate kind
#: whose windowed and full-height DDs the tail and the baselines share.
_WINDOW_GATES = [
    ("h", 1, lambda pkg, q, top: single_qubit_gate(pkg, H, q[0], top=top)),
    ("cx", 2, lambda pkg, q, top: controlled_gate(
        pkg, X, (q[0],), (q[1],), top=top)),
    ("cp", 2, lambda pkg, q, top: controlled_gate(
        pkg, np.diag([1, np.exp(0.3j)]), (q[1],), (q[0],), top=top)),
    ("ccx", 3, lambda pkg, q, top: controlled_gate(
        pkg, X, (q[1],), (q[0], q[2]), top=top)),
    ("u4", 2, lambda pkg, q, top: two_qubit_gate(
        pkg, random_unitary(4, 5), q[0], q[1], top=top)),
]


def _window_cases():
    for n in (3, 4):
        for name, arity, build in _WINDOW_GATES:
            for qubits in itertools.permutations(range(n), arity):
                yield pytest.param(n, qubits, build, id=f"{name}-n{n}-{qubits}")


class TestWindowedRoots:
    """A windowed root expands as ``I^(n-1-top) (x) window``."""

    @pytest.mark.parametrize("n, qubits, build", list(_window_cases()))
    def test_windowed_matches_full_height(self, n, qubits, build):
        pkg = DDPackage(n)
        windowed = build(pkg, qubits, max(qubits))
        full = build(pkg, qubits, None)
        assert windowed.n.level == max(qubits)
        assert full.n.level == n - 1
        dense = matrix_to_dense(pkg, full)
        assert np.array_equal(matrix_to_dense(pkg, windowed), dense)
        for r in range(1 << n):
            for c in range(1 << n):
                entry = matrix_entry(pkg, windowed, r, c)
                assert entry == matrix_entry(pkg, full, r, c)
                assert entry == pytest.approx(dense[r, c], abs=1e-12)

    def test_entry_outside_diagonal_block_is_zero(self):
        # h on qubit 0 of 3: rows 0 and 2 differ in bit 1, above the root.
        pkg = DDPackage(3)
        windowed = single_qubit_gate(pkg, H, 0, top=0)
        assert matrix_entry(pkg, windowed, 0, 2) == 0
        assert matrix_entry(pkg, windowed, 2, 3) == pytest.approx(
            1 / math.sqrt(2)
        )


# ---------------------------------------------------------------------------
# The direct build against the historic madd assembly
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_P1 = np.diag([0, 1]).astype(complex)


def _madd_assembly(pkg, u, targets, controls, top=None):
    """The historic builder: ``I + P1(controls) (x) (U - I)`` via ``madd``.

    One target without controls is the single 2x2 node on the identity
    chain; two targets without controls sum their four 2x2 blocks
    ``|i><j|_targets[0] (x) B_ij``.  With controls the same blocks of
    ``U - I`` carry ``P1`` on every control and are added to the identity.
    """
    u = np.asarray(u, dtype=complex)
    win = max((*targets, *controls))
    if len(targets) == 1 and not controls:
        below = pkg.identity_edge(targets[0] - 1)
        total = pkg.make_mnode(
            targets[0],
            [pkg.edge(u[i, j] * below.w, below.n)
             for i in (0, 1) for j in (0, 1)],
        )
    else:
        if controls:
            total, body = pkg.identity_edge(win), u - np.eye(len(u))
        else:
            total, body = ZERO_EDGE, u
        if len(targets) == 1:
            terms = [{targets[0]: body}]
        else:
            terms = []
            for i in (0, 1):
                for j in (0, 1):
                    block = body[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    if block.any():
                        outer = np.zeros((2, 2), dtype=complex)
                        outer[i, j] = 1.0
                        terms.append({targets[0]: outer, targets[1]: block})
        for placed in terms:
            factors = [_I2] * (win + 1)
            for c in controls:
                factors[c] = _P1
            for q, f in placed.items():
                factors[q] = f
            total = madd(pkg, total, matrix_from_factors(pkg, factors))
    return identity_extend(
        pkg, total, pkg.num_qubits - 1 if top is None else top
    )


_PARAMS = (0.3, 1.1, -0.7)
_N = 5


def _library_gates(name):
    """``name`` at every ordered placement on ``_N`` qubits."""
    base, extra = CONTROLLED_ALIASES.get(name, (name, 0))
    ntargets, nparams, _ = GATE_BUILDERS[base]
    for qubits in itertools.permutations(range(_N), ntargets + extra):
        yield Gate(
            name, targets=qubits[extra:], controls=qubits[:extra],
            params=_PARAMS[:nparams],
        )


def _random_gates(ncontrols):
    """An asymmetric random 4x4 with ``ncontrols`` controls, every placement."""
    u = random_unitary(4, 11)
    for qubits in itertools.permutations(range(_N), 2 + ncontrols):
        yield u, qubits[:2], qubits[2:]


_LIBRARY = sorted(GATE_BUILDERS) + sorted(CONTROLLED_ALIASES)


def _assert_same_dd(pkg, u, targets, controls, windowed, build, rel=0.0):
    top = max((*targets, *controls)) if windowed else None
    where = f"targets={targets} controls={controls} top={top}"
    ref = _madd_assembly(pkg, u, targets, controls, top)
    new = build()
    assert new.n is ref.n, where
    assert new.w == pytest.approx(ref.w, rel=rel, abs=0), where
    np.testing.assert_allclose(
        matrix_to_dense(pkg, new),
        dense_controlled(u, targets, controls, _N),
        atol=1e-12, err_msg=where,
    )


class TestDirectBuild:
    """Built after the madd assembly in one package, the direct build is
    the same node with the same root weight, and it leaves no dead nodes."""

    @pytest.mark.parametrize("windowed", [True, False], ids=["win", "full"])
    @pytest.mark.parametrize("name", _LIBRARY)
    def test_library_gate_is_madd_assembly(self, name, windowed):
        for gate in _library_gates(name):
            pkg = DDPackage(_N)
            _assert_same_dd(
                pkg, gate.matrix(), gate.targets, gate.controls, windowed,
                lambda: build_gate_dd(pkg, gate, windowed=windowed),
            )

    @pytest.mark.parametrize("windowed", [True, False], ids=["win", "full"])
    @pytest.mark.parametrize("ncontrols", [0, 1, 2])
    def test_random_4x4_is_madd_assembly(self, ncontrols, windowed):
        # Every two-target library gate is symmetric under exchanging its
        # targets; only an asymmetric matrix exposes a target-order slip.
        # Without controls the root weight is an entry of ``u`` itself,
        # where the assembly's went through madd arithmetic: an ulp apart.
        for u, targets, controls in _random_gates(ncontrols):
            pkg = DDPackage(_N)
            top = max((*targets, *controls)) if windowed else None
            _assert_same_dd(
                pkg, u, targets, controls, windowed,
                lambda: controlled_gate(pkg, u, targets, controls, top=top),
                rel=1e-15,
            )

    @pytest.mark.parametrize("windowed", [True, False], ids=["win", "full"])
    @pytest.mark.parametrize("name", _LIBRARY)
    def test_library_gate_leaves_no_dead_nodes(self, name, windowed):
        for gate in _library_gates(name):
            pkg = DDPackage(_N)
            e = build_gate_dd(pkg, gate, windowed=windowed)
            assert pkg.matrix_node_count == matrix_node_count(e), gate

    @pytest.mark.parametrize("windowed", [True, False], ids=["win", "full"])
    @pytest.mark.parametrize("ncontrols", [0, 1, 2])
    def test_random_4x4_leaves_no_dead_nodes(self, ncontrols, windowed):
        for u, targets, controls in _random_gates(ncontrols):
            pkg = DDPackage(_N)
            top = max((*targets, *controls)) if windowed else None
            e = controlled_gate(pkg, u, targets, controls, top=top)
            assert pkg.matrix_node_count == matrix_node_count(e), (
                targets, controls
            )
