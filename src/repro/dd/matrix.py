"""Matrix DDs: gate construction, Kronecker factors, dense export.

Gate DDs are built from per-level 2x2 factors (a Kronecker product built
bottom-up through the unique table) plus the controlled-gate identity

    C(U) = I  +  P1(controls) (x) (U - I)(targets) (x) I(elsewhere)

which handles any number of controls, and a 2x2-block decomposition for
arbitrary two-qubit matrices.  This covers every gate in
:mod:`repro.circuits.gates` exactly, with full node sharing.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import DDError
from repro.dd.node import TERMINAL, ZERO_EDGE, DDNode, Edge
from repro.dd.operations import identity_extend, madd, mm_multiply, scale
from repro.dd.package import DDPackage

__all__ = [
    "matrix_from_factors",
    "single_qubit_gate",
    "two_qubit_gate",
    "controlled_gate",
    "matrix_to_dense",
    "matrix_entry",
    "matrix_node_count",
]

_I2 = np.eye(2, dtype=np.complex128)
_P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def matrix_from_factors(pkg: DDPackage, factors: list[np.ndarray]) -> Edge:
    """Build ``factors[k-1] (x) ... (x) factors[0]`` as a matrix DD.

    ``factors[k]`` is the 2x2 matrix acting on qubit ``k``.  Built bottom-up
    so identical tails share nodes (an identity tail is a single chain).
    Fewer than ``num_qubits`` factors builds an identity-skipped (windowed)
    DD whose root sits at level ``len(factors) - 1``; levels above it are
    implicit identity.
    """
    if not 1 <= len(factors) <= pkg.num_qubits:
        raise DDError(
            f"need 1..{pkg.num_qubits} factors, got {len(factors)}"
        )
    e = pkg.one_edge()
    for level, f in enumerate(factors):
        f = np.asarray(f, dtype=np.complex128)
        if f.shape != (2, 2):
            raise DDError(f"factor at level {level} is not 2x2: {f.shape}")
        edges = []
        for i in (0, 1):
            for j in (0, 1):
                edges.append(pkg.edge(f[i, j] * e.w, e.n))
        e = pkg.make_mnode(level, edges)
        if e.is_zero:
            return ZERO_EDGE
    return e


def single_qubit_gate(
    pkg: DDPackage, u: np.ndarray, target: int, top: int | None = None
) -> Edge:
    """DD of ``I (x) ... (x) U_target (x) ... (x) I``.

    Built directly on the package's memoized identity chain, so only the
    target node and the pass-through nodes above it are (re)constructed.
    ``top`` is the root level; the default is full height, ``top=target``
    builds the identity-skipped window (no pass-through levels at all).
    """
    _check_qubit(pkg, target)
    top = _resolve_top(pkg, top, target)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise DDError(f"single-qubit gate matrix must be 2x2: {u.shape}")
    below = pkg.identity_edge(target - 1)
    e = pkg.make_mnode(
        target,
        tuple(
            pkg.edge(u[i, j] * below.w, below.n)
            for i in (0, 1)
            for j in (0, 1)
        ),
    )
    return identity_extend(pkg, e, top)


def two_qubit_gate(
    pkg: DDPackage,
    u: np.ndarray,
    q_high: int,
    q_low: int,
    top: int | None = None,
) -> Edge:
    """DD of an arbitrary 4x4 ``u`` acting on qubits ``(q_high, q_low)``.

    ``u`` is indexed so that the *first* qubit of its 2-bit index is
    ``q_high`` (the more significant of the pair in the state index).
    Decomposes ``u`` into its four 2x2 blocks:
    ``u = sum_ij |i><j|_high (x) B_ij_low``.  ``top`` is the root level
    (default full height; ``max(q_high, q_low)`` for the skipped window).
    """
    _check_qubit(pkg, q_high)
    _check_qubit(pkg, q_low)
    if q_high == q_low:
        raise DDError("two-qubit gate needs two distinct qubits")
    top = _resolve_top(pkg, top, max(q_high, q_low))
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (4, 4):
        raise DDError(f"two-qubit gate matrix must be 4x4, got {u.shape}")
    win = max(q_high, q_low)
    total = ZERO_EDGE
    for i in (0, 1):
        for j in (0, 1):
            block = u[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            if not block.any():
                continue
            outer = np.zeros((2, 2), dtype=np.complex128)
            outer[i, j] = 1.0
            factors = [_I2] * (win + 1)
            factors[q_high] = outer
            factors[q_low] = block
            total = madd(pkg, total, matrix_from_factors(pkg, factors))
    return identity_extend(pkg, total, top)


def controlled_gate(
    pkg: DDPackage,
    u: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
    top: int | None = None,
) -> Edge:
    """DD of ``u`` on ``targets``, applied when all ``controls`` are |1>.

    ``u`` is 2x2 for one target or 4x4 for two (``targets[0]`` is the more
    significant index bit of ``u``).  Uses
    ``C(U) = I + P1(controls) (x) (U - I)(targets)``, so any control count
    works (CCX is ``controls=(c1, c2)``).  ``top`` is the root level
    (default full height; the max active qubit for the skipped window).
    """
    for q in (*targets, *controls):
        _check_qubit(pkg, q)
    if set(targets) & set(controls):
        raise DDError("target and control qubits overlap")
    if len(set(targets)) != len(targets) or len(set(controls)) != len(controls):
        raise DDError("duplicate qubits in gate specification")
    u = np.asarray(u, dtype=np.complex128)
    if not controls:
        if len(targets) == 1:
            return single_qubit_gate(pkg, u, targets[0], top=top)
        if len(targets) == 2:
            return two_qubit_gate(pkg, u, targets[0], targets[1], top=top)
        raise DDError("only 1- and 2-qubit target blocks are supported")

    win = max(*targets, *controls)
    top = _resolve_top(pkg, top, win)
    dim = 1 << len(targets)
    if u.shape != (dim, dim):
        raise DDError(
            f"matrix shape {u.shape} does not match {len(targets)} targets"
        )
    diff = u - np.eye(dim, dtype=np.complex128)
    identity = pkg.identity_edge(win)
    if len(targets) == 1:
        terms = [(diff, None)]
    else:
        terms = []
        for i in (0, 1):
            for j in (0, 1):
                block = diff[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                if block.any():
                    outer = np.zeros((2, 2), dtype=np.complex128)
                    outer[i, j] = 1.0
                    terms.append((block, outer))
    total = identity
    for block, outer in terms:
        factors = [_I2] * (win + 1)
        for c in controls:
            factors[c] = _P1
        if outer is None:
            factors[targets[0]] = block
        else:
            factors[targets[0]] = outer
            factors[targets[1]] = block
        total = madd(pkg, total, matrix_from_factors(pkg, factors))
    return identity_extend(pkg, total, top)


def _resolve_top(pkg: DDPackage, top: int | None, window_top: int) -> int:
    """Validate/resolve a requested root level (default: full height)."""
    if top is None:
        return pkg.num_qubits - 1
    if not window_top <= top < pkg.num_qubits:
        raise DDError(
            f"root level {top} outside [{window_top}, {pkg.num_qubits - 1}]"
        )
    return top


def matrix_to_dense(pkg: DDPackage, e: Edge, num_qubits: int | None = None) -> np.ndarray:
    """Expand a matrix DD to a dense ``2**n x 2**n`` numpy array (tests).

    A windowed root at level ``top < n - 1`` expands as
    ``I^(n-1-top) (x) block``: its implicit levels are identity.
    """
    n = pkg.num_qubits if num_qubits is None else num_qubits
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=np.complex128)
    if e.is_zero:
        return out
    memo: dict[int, np.ndarray] = {}

    def subtree(node: DDNode) -> np.ndarray:
        if node is TERMINAL:
            return np.ones((1, 1), dtype=np.complex128)
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        half = 1 << node.level
        arr = np.zeros((2 * half, 2 * half), dtype=np.complex128)
        for k, child in enumerate(node.edges):
            if child.is_zero:
                continue
            i, j = divmod(k, 2)
            arr[i * half:(i + 1) * half, j * half:(j + 1) * half] = (
                child.w * subtree(child.n)
            )
        memo[id(node)] = arr
        return arr

    if e.n.level > n - 1:
        raise DDError(f"root level {e.n.level} does not fit {n} qubits")
    block = e.w * subtree(e.n)
    size = block.shape[0]
    for a in range(0, dim, size):
        out[a:a + size, a:a + size] = block
    return out


def matrix_entry(pkg: DDPackage, e: Edge, row: int, col: int) -> complex:
    """Single entry M[row][col]: weight product along one path (Fig. 2a).

    The implicit identity levels above a windowed root make every entry
    whose row and column differ in those bits zero.
    """
    if e.is_zero or row >> (e.n.level + 1) != col >> (e.n.level + 1):
        return 0j
    w = e.w
    node = e.n
    while node is not TERMINAL:
        i = (row >> node.level) & 1
        j = (col >> node.level) & 1
        child = node.edges[2 * i + j]
        if child.is_zero:
            return 0j
        w *= child.w
        node = child.n
    return w


def matrix_node_count(e: Edge) -> int:
    """Unique non-terminal node count of a matrix DD."""
    from repro.dd.vector import node_count

    return node_count(e)


def _check_qubit(pkg: DDPackage, q: int) -> None:
    if not 0 <= q < pkg.num_qubits:
        raise DDError(
            f"qubit {q} out of range for {pkg.num_qubits}-qubit package"
        )
