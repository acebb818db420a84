"""Vector DDs: construction from / conversion to flat numpy arrays.

``from_array`` implements the recursive halving of Figure 2b; ``to_array``
is the plain sequential DD-to-array conversion (the baseline that DDSIM
ships and that Section 3.1.2 parallelizes -- the parallel version lives in
:mod:`repro.core.conversion`).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import DDError
from repro.dd.node import TERMINAL, ZERO_EDGE, DDNode, Edge
from repro.dd.package import DDPackage

__all__ = [
    "vector_from_array",
    "vector_to_array",
    "zero_state",
    "basis_state",
    "amplitude",
    "node_count",
]


def zero_state(pkg: DDPackage, num_qubits: int | None = None) -> Edge:
    """The |0...0> state as a vector DD."""
    return basis_state(pkg, 0, num_qubits)


def basis_state(pkg: DDPackage, index: int, num_qubits: int | None = None) -> Edge:
    """Computational basis state |index> as a vector DD."""
    n = pkg.num_qubits if num_qubits is None else num_qubits
    if not 0 <= index < (1 << n):
        raise DDError(f"basis index {index} out of range for {n} qubits")
    e = pkg.one_edge()
    for level in range(n):
        if (index >> level) & 1:
            e = pkg.make_vnode(level, ZERO_EDGE, e)
        else:
            e = pkg.make_vnode(level, e, ZERO_EDGE)
    return e


def vector_from_array(pkg: DDPackage, array: np.ndarray) -> Edge:
    """Build a (canonical) vector DD from a flat amplitude array.

    The array length must be ``2**n`` for some ``n >= 1``.  Shared and
    scalar-multiple sub-vectors collapse automatically through the unique
    table and normalization.  Leaf amplitudes stay un-bucketed (only exact
    near-zeros collapse): the complex table's absolute grid is not scale
    invariant, so bucketing them would let ``x`` and ``2 * x`` snap
    differently.  Canonicalization happens on the O(1) ratios that
    :meth:`DDPackage.make_vnode` stores.
    """
    arr = np.asarray(array, dtype=np.complex128).ravel()
    size = arr.shape[0]
    n = size.bit_length() - 1
    if size != 1 << n or n < 1:
        raise DDError(f"array length {size} is not a power of two >= 2")
    amps = arr.tolist()

    def build(lo: int, hi: int, level: int) -> Edge:
        if level < 0:
            return pkg.raw_edge(amps[lo], TERMINAL)
        mid = (lo + hi) // 2
        e0 = build(lo, mid, level - 1)
        e1 = build(mid, hi, level - 1)
        return pkg.make_vnode(level, e0, e1)

    return build(0, size, n - 1)


def vector_to_array(pkg: DDPackage, e: Edge, num_qubits: int | None = None) -> np.ndarray:
    """Sequential DD-to-array conversion (single thread, no optimizations).

    Memoizes per-node subtrees so shared structure is expanded once; this is
    the fair stand-in for DDSIM's exporter that Figure 13 compares against.
    """
    n = pkg.num_qubits if num_qubits is None else num_qubits
    out = np.zeros(1 << n, dtype=np.complex128)
    if e.is_zero:
        return out
    memo: dict[int, np.ndarray] = {}

    def subtree(node: DDNode) -> np.ndarray:
        if node is TERMINAL:
            return np.ones(1, dtype=np.complex128)
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        half = 1 << node.level
        arr = np.zeros(2 * half, dtype=np.complex128)
        for i, child in enumerate(node.edges):
            if not child.is_zero:
                arr[i * half:(i + 1) * half] = child.w * subtree(child.n)
        memo[id(node)] = arr
        return arr

    if e.n is TERMINAL:
        raise DDError("vector DD root cannot be the bare terminal for n >= 1")
    if e.n.level != n - 1:
        raise DDError(
            f"root level {e.n.level} does not match {n} qubits"
        )
    out[:] = e.w * subtree(e.n)
    return out


def amplitude(pkg: DDPackage, e: Edge, index: int) -> complex:
    """Single amplitude V[index]: product of weights along one path."""
    if e.is_zero:
        return 0j
    w = e.w
    node = e.n
    while node is not TERMINAL:
        child = node.edges[(index >> node.level) & 1]
        if child.is_zero:
            return 0j
        w *= child.w
        node = child.n
    return w


def node_count(e: Edge) -> int:
    """Number of unique non-terminal nodes reachable from ``e``.

    This is the "DD size" ``s_i`` the EWMA monitor tracks (Section 3.1.1).
    """
    if e.is_zero or e.n is TERMINAL:
        return 0
    seen: set[int] = set()
    stack = [e.n]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for child in node.edges:
            if not child.is_zero and child.n is not TERMINAL:
                stack.append(child.n)
    return len(seen)
