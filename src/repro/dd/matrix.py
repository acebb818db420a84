"""Matrix DDs: gate construction, Kronecker factors, dense export.

Every gate DD is built directly, bottom-up over the gate's active window
(lowest to highest qubit), as a QMDD package builds gates.  The builder
carries a ``2**k x 2**k`` grid of edges for ``k`` targets: entry
``(r, c)`` is the block of ``U`` whose unplaced target bits are ``r``
(row) and ``c`` (column), over the levels walked so far.  It starts as
``U[r][c]`` times the memoized identity chain below the window; then a
target level folds each 2x2 sub-grid over its bit into one node, a
control level makes each entry ``(I, 0, 0, entry)`` on the grid diagonal
and ``(0, 0, 0, entry)`` off it (a control at |0> leaves the identity),
and an untouched level makes it ``(entry, 0, 0, entry)``.  Identical
entries on a level are built once, and every node a build creates is part
of its result.  The root sits at the gate's highest qubit (the windowed
shape: levels above are implicit identity) and is wrapped in weight-1
pass-through nodes up to any requested ``top``.  Any number of controls
works, which covers every gate in :mod:`repro.circuits.gates` exactly.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import TOLERANCE
from repro.common.errors import DDError
from repro.dd.node import TERMINAL, ZERO_EDGE, DDNode, Edge
from repro.dd.operations import identity_extend
from repro.dd.package import DDPackage

__all__ = [
    "matrix_from_factors",
    "single_qubit_gate",
    "two_qubit_gate",
    "controlled_gate",
    "kept_entries",
    "matrix_to_dense",
    "matrix_entry",
    "matrix_node_count",
]


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

    ``top`` is the root level; the default is full height, ``top=target``
    builds the identity-skipped window (no pass-through levels at all).
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise DDError(f"single-qubit gate matrix must be 2x2: {u.shape}")
    return controlled_gate(pkg, u, (target,), (), top=top)


def two_qubit_gate(
    pkg: DDPackage,
    u: np.ndarray,
    q_high: int,
    q_low: int,
    top: int | None = None,
) -> Edge:
    """DD of an arbitrary 4x4 ``u`` acting on qubits ``(q_high, q_low)``.

    ``q_high`` is the more significant bit of ``u``'s 2-bit index, whichever
    qubit sits higher in the DD.  ``top`` is the root level (default full
    height; ``max(q_high, q_low)`` for the skipped window).
    """
    if q_high == q_low:
        raise DDError("two-qubit gate needs two distinct qubits")
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (4, 4):
        raise DDError(f"two-qubit gate matrix must be 4x4, got {u.shape}")
    return controlled_gate(pkg, u, (q_high, q_low), (), top=top)


def controlled_gate(
    pkg: DDPackage,
    u: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
    top: int | None = None,
) -> Edge:
    """DD of ``u`` on ``targets``, applied when all ``controls`` are |1>.

    ``u`` is 2x2 for one target or 4x4 for two (``targets[0]`` is the more
    significant index bit of ``u``); ``controls`` may be empty.  ``top`` is
    the root level (default full height; the max active qubit for the
    skipped window).
    """
    active = (*targets, *controls)
    for q in active:
        _check_qubit(pkg, q)
    if set(targets) & set(controls):
        raise DDError("target and control qubits overlap")
    if len(set(targets)) != len(targets) or len(set(controls)) != len(controls):
        raise DDError("duplicate qubits in gate specification")
    if not 1 <= len(targets) <= 2:
        raise DDError("only 1- and 2-qubit target blocks are supported")
    top = _resolve_top(pkg, top, max(active))
    u = np.asarray(u, dtype=np.complex128)
    dim = 1 << len(targets)
    if u.shape != (dim, dim):
        raise DDError(
            f"matrix shape {u.shape} does not match {len(targets)} targets"
        )
    below = pkg.identity_edge(min(active) - 1)
    grid = [
        [pkg.edge(x * below.w, below.n) for x in row] for row in u.tolist()
    ]
    # Unplaced targets, most significant index bit of the grid first.
    pending = list(targets)
    for level in range(min(active), max(active) + 1):
        if level in pending:
            bit = len(pending) - 1 - pending.index(level)
            pending.remove(level)
            grid = _fold_target(pkg, grid, level, bit)
        else:
            grid = _wrap_level(pkg, grid, level, level in controls)
    return identity_extend(pkg, grid[0][0], top)


def _fold_target(
    pkg: DDPackage, grid: list[list[Edge]], level: int, bit: int
) -> list[list[Edge]]:
    """Place a target: one node per 2x2 sub-grid over index bit ``bit``."""
    step = 1 << bit
    # The half-size grid's indices with a 0 inserted at ``bit``.
    spread = [i + (i & -step) for i in range(len(grid) >> 1)]
    out = []
    for r in spread:
        row0, row1 = grid[r], grid[r | step]
        out.append([
            pkg.make_mnode(
                level, (row0[c], row0[c | step], row1[c], row1[c | step])
            )
            for c in spread
        ])
    return out


def _wrap_level(
    pkg: DDPackage, grid: list[list[Edge]], level: int, control: bool
) -> list[list[Edge]]:
    """Lift every grid entry through a control or an untouched level."""
    ident = pkg.identity_edge(level - 1) if control else None
    made: dict[tuple, Edge] = {}
    out = []
    for r, row in enumerate(grid):
        new_row = []
        for c, e in enumerate(row):
            diagonal = control and r == c
            if e.is_zero and not diagonal:
                new_row.append(ZERO_EDGE)
                continue
            key = (diagonal, e.w, id(e.n))
            lifted = made.get(key)
            if lifted is None:
                first = ident if diagonal else ZERO_EDGE if control else e
                lifted = made[key] = pkg.make_mnode(
                    level, (first, ZERO_EDGE, ZERO_EDGE, e)
                )
            new_row.append(lifted)
        out.append(new_row)
    return out


def kept_entries(u: np.ndarray, targets: tuple[int, ...]) -> int:
    """How many entries of ``u`` :func:`controlled_gate`'s DD keeps,
    without building it.

    The construction drops an entry twice over: where the complex table
    zeroes it (both parts below ``TOLERANCE``), and where a target fold's
    :meth:`~repro.dd.package.DDPackage.make_mnode` divides it by its 2x2
    sub-grid's factor (the first weight of largest magnitude) and both
    parts of the ratio are below ``TOLERANCE``.  With two targets the
    second fold divides the first fold's factors, so a whole sub-grid can
    go.  Control and untouched levels drop nothing.  The package divides
    weights already canonicalized by its complex table, which moves a
    value by less than ``TOLERANCE``; raw values are used here, so only an
    entry or ratio within that distance of the threshold can count
    differently.
    """
    grid = [
        [(0j, 0) if _negligible(x) else (x, 1) for x in row]
        for row in np.asarray(u, dtype=np.complex128).tolist()
    ]
    # Targets fold from the lowest level up, as in controlled_gate.
    pending = list(targets)
    for level in sorted(targets):
        step = 1 << (len(pending) - 1 - pending.index(level))
        pending.remove(level)
        spread = [i + (i & -step) for i in range(len(grid) >> 1)]
        grid = [
            [
                _fold_count((
                    grid[r][c], grid[r][c | step],
                    grid[r | step][c], grid[r | step][c | step],
                ))
                for c in spread
            ]
            for r in spread
        ]
    return grid[0][0][1]


def _negligible(w: complex) -> bool:
    """The complex table's zero rule."""
    return abs(w.real) < TOLERANCE and abs(w.imag) < TOLERANCE


def _fold_count(entries) -> tuple[complex, int]:
    """``make_mnode``'s factor for four ``(weight, kept)`` entries, and
    the kept entries whose ratio to it survives the zero rule."""
    max_mag = max(abs(w) for w, _ in entries)
    if max_mag == 0:
        return 0j, 0
    factor = next(
        w for w, _ in entries if abs(w) >= max_mag * (1.0 - TOLERANCE)
    )
    return factor, sum(
        kept for w, kept in entries if not _negligible(w / factor)
    )


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
