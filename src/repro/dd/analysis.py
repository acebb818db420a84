"""Structural DD analysis: identity detection and dense-block extraction.

These power the vectorized bottom-out of the Python DMAV/conversion kernels
(DESIGN.md substitution 2): instead of recursing to scalar MACs like the
paper's C++ does, recursion stops at

* *identity subtrees*, applied as one vectorized axpy,
* *Kronecker collapses* ``diag(d) (x) M_base``, whose base is applied by
  shape (:func:`bottom_out`): an identity base as the ``d`` scale alone, a
  diagonal base as an elementwise scale, a dense base (level <=
  ``dense_block_level``, materialized once per unique node) with a numpy
  matmul, and
* *2x2 levels* over one identity subtree, applied as one 2x2 matmul.

All caches live on the package and are invalidated by its GC.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.dd.node import TERMINAL, DDNode
from repro.dd.package import DDPackage

__all__ = [
    "BottomOut",
    "bottom_out",
    "is_identity",
    "dense_matrix_block",
    "dense_vector_block",
    "kron_collapse",
    "vector_kron_collapse",
]


def is_identity(pkg: DDPackage, node: DDNode) -> bool:
    """True iff the (normalized) subtree under ``node`` is an identity block.

    Because matrix normalization forces the leading non-zero weight to 1,
    an identity subtree is exactly: diagonal children weights 1 pointing to
    the same identity child, off-diagonal children zero.
    """
    if node is TERMINAL:
        return True
    if len(node.edges) != 4:
        return False
    cached = pkg.identity_flags.get(id(node))
    if cached is not None:
        return cached
    e00, e01, e10, e11 = node.edges
    result = (
        e01.is_zero
        and e10.is_zero
        and e00.w == 1
        and e11.w == 1
        and e00.n is e11.n
        and is_identity(pkg, e00.n)
    )
    pkg.identity_flags[id(node)] = result
    return result


def dense_matrix_block(pkg: DDPackage, node: DDNode) -> np.ndarray:
    """Dense array of the *normalized* subtree under a matrix node.

    Cached per unique node; callers scale by their accumulated edge-weight
    product.  Only call for small levels (cost is 4**(level+1)).
    """
    if node is TERMINAL:
        return np.ones((1, 1), dtype=np.complex128)
    key = id(node)
    cached = pkg.dense_cache.get(key)
    if cached is not None:
        return cached
    half = 1 << node.level
    out = np.zeros((2 * half, 2 * half), dtype=np.complex128)
    for k, child in enumerate(node.edges):
        if child.is_zero:
            continue
        i, j = divmod(k, 2)
        out[i * half:(i + 1) * half, j * half:(j + 1) * half] = (
            child.w * dense_matrix_block(pkg, child.n)
        )
    out.setflags(write=False)
    pkg.dense_cache[key] = out
    return out


def kron_collapse(
    pkg: DDPackage, node: DDNode, dense_level: int
) -> tuple[np.ndarray, DDNode] | None:
    """Detect subtrees of the form ``diag(d) (x) M_base``.

    A chain of *pass-through* levels -- zero off-diagonal children and both
    diagonal children reaching the same node -- contributes only a diagonal
    scaling per index bit.  When such a chain reaches a node at or below
    ``dense_level`` (or the terminal), the whole subtree's action collapses
    to ``O(1)`` numpy calls chosen by the base's shape (:func:`bottom_out`):
    this is the paper's scalar-multiple sharing (Figure 4b / Figure 6)
    applied at kernel granularity, and it is what lets single-qubit gates
    on low qubits and diagonal gates (rz, cz, cp) skip ``O(2**n)``
    recursion steps.

    Returns ``(d, base_node)`` with ``len(d) = 2**(level - base_level)``,
    or None if the chain breaks above ``dense_level``.  Cached per node.
    """
    if node is TERMINAL or node.level <= dense_level:
        return (np.ones(1, dtype=np.complex128), node)
    key = id(node)
    if key in pkg.kron_cache:
        return pkg.kron_cache[key]  # type: ignore[return-value]
    e00, e01, e10, e11 = node.edges
    result = None
    if (
        e01.is_zero
        and e10.is_zero
        and not e00.is_zero
        and not e11.is_zero
        and e00.n is e11.n
    ):
        below = kron_collapse(pkg, e00.n, dense_level)
        if below is not None:
            d_below, base = below
            d = np.concatenate((e00.w * d_below, e11.w * d_below))
            result = (d, base)
    pkg.kron_cache[key] = result
    return result


class BottomOut(NamedTuple):
    """How the DMAV kernel applies one normalized matrix subtree.

    ``kind`` is one of

    * ``"identity"`` -- the terminal or an identity subtree: return the
      input.
    * ``"scale"`` -- ``diag(d) (x) I``: one elementwise scale by ``d``
      broadcast over the identity base.
    * ``"diagonal"`` -- ``diag(d) (x) diag(data)``: scale every base block
      by the base diagonal ``data``, then by ``d``.
    * ``"dense"`` -- ``diag(d) (x) data``: one matmul by the dense base
      block ``data``, then the ``d`` scale.  A node at or below the dense
      level is its own base; below it, ``data`` repeats the base over the
      kernel's wider blocks (``_window``).
    * ``"pair"`` -- a level above the dense level whose four non-zero
      children reach one identity subtree: ``data`` is its 2x2 weight
      matrix, applied as one matmul over the ``(m, 2, half)`` view.
    * ``"passthrough"`` -- a pass-through level whose chain breaks above
      the dense level: fold the halves into the batch axis, recurse, then
      scale the halves by ``d``, the two diagonal weights.
    * ``"descend"`` -- anything else: recurse per distinct child.
      ``data`` is the node's child grouping, one ``(edge, columns, uses,
      identity)`` tuple per distinct child node in first-edge order:
      ``edge`` is its first edge position ``k = 2 * i + j``, ``columns``
      the ascending input halves ``j`` it reads (stacked into one
      recursion), ``uses`` one ``(k, i, part)`` per edge reaching it --
      output half ``i`` gets edge ``k``'s weight times input part
      ``part`` (the half itself for an identity child, else the
      position of ``j`` in ``columns``) -- and ``identity`` whether the
      child applies as the identity and is not recursed into.

    ``d`` is the Kronecker-collapse diagonal (:func:`kron_collapse`) or
    the pass-through weights, None when all ones and the scale is
    skipped.
    """

    kind: str
    d: np.ndarray | None = None
    data: object = None


_IDENTITY = BottomOut("identity")
_PASSTHROUGH = BottomOut("passthrough")


def bottom_out(pkg: DDPackage, node: DDNode, dense_level: int) -> BottomOut:
    """Classify the subtree under ``node`` for the DMAV kernel.

    Cached per ``(node, dense_level)`` in ``pkg.kron_cache``, so garbage
    collection drops it together with the Kronecker collapses it is built
    on.
    """
    if node is TERMINAL:
        return _IDENTITY
    key = (id(node), dense_level)
    cached = pkg.kron_cache.get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    result = _classify(pkg, node, dense_level)
    pkg.kron_cache[key] = result
    return result


def _classify(pkg: DDPackage, node: DDNode, dense_level: int) -> BottomOut:
    if is_identity(pkg, node):
        return _IDENTITY
    collapsed = kron_collapse(pkg, node, dense_level)
    if collapsed is not None:
        d, base = collapsed
        unit = None if np.all(d == 1) else d
        if base is TERMINAL or is_identity(pkg, base):
            # A unit d over an identity base is the identity, caught above.
            return BottomOut("scale", d)
        block = dense_matrix_block(pkg, base)
        diag = np.diagonal(block)
        if np.count_nonzero(block) == np.count_nonzero(diag):
            return BottomOut(
                "diagonal", unit, _window(diag.copy(), node, dense_level)
            )
        return BottomOut("dense", unit, _window(block, node, dense_level))
    e00, e01, e10, e11 = node.edges
    if not (e00.is_zero or e11.is_zero):
        if e01.is_zero and e10.is_zero and e00.n is e11.n:
            if e00.w == 1 and e11.w == 1:
                return _PASSTHROUGH
            return BottomOut(
                "passthrough",
                np.array([e00.w, e11.w], dtype=np.complex128),
            )
        if (
            not e01.is_zero
            and not e10.is_zero
            and e00.n is e01.n is e10.n is e11.n
            and is_identity(pkg, e00.n)
        ):
            return BottomOut(
                "pair",
                data=np.array(
                    [[e00.w, e01.w], [e10.w, e11.w]], dtype=np.complex128
                ),
            )
    return BottomOut("descend", data=_child_groups(pkg, node))


#: Narrowest block a dense window below the dense level applies as: a
#: one-qubit gate on qubit 0 runs as ``I_2 (x) U``, one 4x4 gemm, instead
#: of a 2x2 gemm over twice as many rows.  Chosen from
#: ``benchmarks/bench_kernels.py``'s ``h_low``/``ry_q0`` fixtures against
#: their 2- and 8-wide forms (docs/PERFORMANCE.md, "DMAV on windowed gate
#: DDs").
DENSE_WINDOW_WIDTH = 4


def _window(base: np.ndarray, node: DDNode, dense_level: int) -> np.ndarray:
    """``base`` of a node below ``dense_level``, repeated over wider blocks.

    Recursion bottoms out at or above the dense level, so a node below it
    is a border task's own node: a windowed gate root, which applies
    ``I (x) base`` to its task slice.  The DMAV kernel views that slice in
    ``2**(dense_level+1)``-wide blocks
    (:func:`repro.core.dmav.run_border_task_batch`): a diagonal tiles to
    that width, so its elementwise pass is as wide as a full-height
    collapse's with the same products, and a dense block repeats down a
    block diagonal to ``DENSE_WINDOW_WIDTH``.  Other nodes keep ``base``.
    """
    span = 2 << node.level
    if node.level >= dense_level:
        return base
    if base.ndim == 1:
        wide = np.tile(base, (2 << dense_level) // span)
    else:
        if span >= DENSE_WINDOW_WIDTH:
            return base
        wide = np.zeros((DENSE_WINDOW_WIDTH,) * 2, dtype=np.complex128)
        for a in range(0, DENSE_WINDOW_WIDTH, span):
            wide[a:a + span, a:a + span] = base
    wide.setflags(write=False)
    return wide


def _child_groups(pkg: DDPackage, node: DDNode) -> tuple:
    """The ``descend`` grouping of ``node``'s non-zero edges by child node."""
    groups: dict[int, list] = {}
    for k, child in enumerate(node.edges):
        if not child.is_zero:
            groups.setdefault(id(child.n), [k, child.n, []])[2].append(k)
    out = []
    for first, child, ks in groups.values():
        identity = is_identity(pkg, child)
        columns = tuple(sorted({k % 2 for k in ks}))
        uses = tuple(
            (k, k // 2, k % 2 if identity else columns.index(k % 2))
            for k in ks
        )
        out.append((first, columns, uses, identity))
    return tuple(out)


def vector_kron_collapse(
    pkg: DDPackage, node: DDNode, dense_level: int
) -> tuple[np.ndarray, DDNode] | None:
    """Vector analogue of :func:`kron_collapse`: ``v = d (x) v_base``.

    A vector node whose two children reach the same node (one side may be
    zero) contributes only per-half scaling; chains of such nodes collapse
    to a coefficient vector over a shared base subtree.  This is the DD
    regularity that the paper's conversion exploits with its
    scalar-multiplication optimization.
    """
    if node is TERMINAL or node.level <= dense_level:
        return (np.ones(1, dtype=np.complex128), node)
    key = (id(node), "v")
    if key in pkg.kron_cache:
        return pkg.kron_cache[key]  # type: ignore[return-value]
    e0, e1 = node.edges
    result = None
    child = None
    if not e0.is_zero and (e1.is_zero or e1.n is e0.n):
        child = e0.n
    elif e0.is_zero and not e1.is_zero:
        child = e1.n
    if child is not None:
        below = vector_kron_collapse(pkg, child, dense_level)
        if below is not None:
            d_below, base = below
            w0 = e0.w if not e0.is_zero else 0j
            w1 = e1.w if not e1.is_zero else 0j
            d = np.concatenate((w0 * d_below, w1 * d_below))
            result = (d, base)
    pkg.kron_cache[key] = result
    return result


def dense_vector_block(pkg: DDPackage, node: DDNode) -> np.ndarray:
    """Dense array of the normalized subtree under a vector node (cached)."""
    if node is TERMINAL:
        return np.ones(1, dtype=np.complex128)
    key = id(node)
    cached = pkg.dense_cache.get(key)
    if cached is not None:
        return cached
    half = 1 << node.level
    out = np.zeros(2 * half, dtype=np.complex128)
    for i, child in enumerate(node.edges):
        if not child.is_zero:
            out[i * half:(i + 1) * half] = child.w * dense_vector_block(
                pkg, child.n
            )
    out.setflags(write=False)
    pkg.dense_cache[key] = out
    return out
