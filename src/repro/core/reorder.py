"""Static variable-order planning for the DD phase (the Reorder Trick).

DD size is notoriously order-sensitive: a good variable order keeps
interacting qubits adjacent, so two-qubit gate DDs stay narrow and the
state DD shares more structure (arXiv:2211.07110 applies exactly this to
quantum circuit DDs).  This module picks a **static** logical-to-physical
qubit permutation per circuit, before simulation starts:

* ``"natural"`` -- the identity order (historic behavior).
* ``"interaction"`` -- a greedy linear arrangement over the circuit's
  qubit-interaction graph: qubits that share many multi-qubit gates are
  placed next to each other, minimizing the summed gate *span*
  ``sum w(a, b) * |pi(a) - pi(b)|`` (a span-1 two-qubit gate DD has the
  smallest possible active window).
* ``"sift"`` -- the interaction order refined by sifting-style local
  search: each qubit in turn is tried at every position and kept at the
  best one, until a full round makes no improvement.  This is a static
  refinement of the same span metric, not runtime DD sifting (documented
  deviation; the metric is a cheap structural proxy for DD width).

The permutation applies **only to the DD phase**: the simulator runs a
relabeled copy of the circuit, and the DD-to-array conversion un-permutes
amplitudes back to canonical order, so the array phase, sweep batching,
serving, and checkpoints all see canonical results.  The selector depends
only on gate *structure* (which qubits interact, how often), never on
parameter values or gate names, so a template circuit and every bound
instance of it produce the same plan -- which is what keeps sweep prefix
grouping and checkpoint resume deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, UnitaryGate

__all__ = [
    "ReorderPlan",
    "interaction_weights",
    "span_cost",
    "plan_qubit_order",
    "permute_circuit",
    "unpermute_axes",
]

#: Cap on full sifting rounds; each round tries every qubit at every
#: position (O(n^3) span evaluations per round with incremental deltas),
#: so a couple of rounds is plenty for the circuit sizes we simulate.
MAX_SIFT_ROUNDS = 4


@dataclass(frozen=True)
class ReorderPlan:
    """A chosen logical-to-physical qubit permutation and its cost.

    ``order[q]`` is the physical position (DD level / index bit) that
    logical qubit ``q`` occupies during the DD phase.
    """

    order: tuple[int, ...]
    mode: str
    #: Span cost of the natural (identity) order.
    cost_natural: float
    #: Span cost of the selected order.
    cost_selected: float
    #: Accepted single-qubit moves during sifting refinement (0 unless
    #: mode == "sift").
    sift_moves: int = 0

    @property
    def is_natural(self) -> bool:
        return all(p == q for q, p in enumerate(self.order))


def interaction_weights(circuit: Circuit) -> dict[tuple[int, int], int]:
    """Multi-qubit interaction counts over unordered qubit pairs.

    Every multi-qubit gate adds 1 to each pair of qubits it touches
    (controls included -- a control-target pair constrains the order just
    as much as two targets).  Single-qubit gates impose no pairwise
    constraint and are ignored.
    """
    weights: dict[tuple[int, int], int] = {}
    for gate in circuit.gates:
        qs = sorted(set(gate.qubits))
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                pair = (qs[i], qs[j])
                weights[pair] = weights.get(pair, 0) + 1
    return weights


def span_cost(
    weights: dict[tuple[int, int], int], order: tuple[int, ...]
) -> float:
    """``sum w(a, b) * |order[a] - order[b]|`` -- the linear-arrangement
    objective the selector minimizes (span 1 = adjacent qubits)."""
    return float(
        sum(w * abs(order[a] - order[b]) for (a, b), w in weights.items())
    )


def _greedy_linear_arrangement(
    n: int, weights: dict[tuple[int, int], int]
) -> list[int]:
    """Place qubits left to right, strongest-connected-to-placed first.

    Seeds with the maximum-weighted-degree qubit and repeatedly appends
    the unplaced qubit with the largest total weight to the placed set.
    All ties break toward the lowest qubit index, so the arrangement is
    deterministic and parameter-independent.
    """
    degree = [0] * n
    adj: dict[int, dict[int, int]] = {q: {} for q in range(n)}
    for (a, b), w in weights.items():
        degree[a] += w
        degree[b] += w
        adj[a][b] = adj[a].get(b, 0) + w
        adj[b][a] = adj[b].get(a, 0) + w
    placed: list[int] = []
    in_placed = [False] * n
    # max degree, lowest index tie-break
    seed = max(range(n), key=lambda q: (degree[q], -q))
    placed.append(seed)
    in_placed[seed] = True
    conn = [0] * n
    while len(placed) < n:
        last = placed[-1]
        for q, w in adj[last].items():
            if not in_placed[q]:
                conn[q] += w
        best = -1
        best_key = None
        for q in range(n):
            if in_placed[q]:
                continue
            key = (conn[q], degree[q], -q)
            if best_key is None or key > best_key:
                best, best_key = q, key
        placed.append(best)
        in_placed[best] = True
    return placed


def _sift(
    positions: list[int],
    weights: dict[tuple[int, int], int],
) -> tuple[list[int], int]:
    """Single-qubit repositioning local search over the span metric.

    ``positions[q]`` is qubit ``q``'s position.  Each pass tries moving
    each qubit (lowest index first) to every position, keeping the best
    strict improvement; passes repeat until one makes no move (capped at
    :data:`MAX_SIFT_ROUNDS`).
    """
    n = len(positions)
    order = positions[:]
    moves = 0
    for _ in range(MAX_SIFT_ROUNDS):
        improved = False
        for q in range(n):
            base = span_cost(weights, tuple(order))
            best_pos = order[q]
            best_cost = base
            for target in range(n):
                if target == order[q]:
                    continue
                trial = _move(order, q, target)
                c = span_cost(weights, tuple(trial))
                if c < best_cost - 1e-12:
                    best_cost = c
                    best_pos = target
            if best_pos != order[q]:
                order = _move(order, q, best_pos)
                moves += 1
                improved = True
        if not improved:
            break
    return order, moves


def _move(positions: list[int], q: int, target: int) -> list[int]:
    """Move qubit ``q`` to position ``target``, shifting others over."""
    cur = positions[q]
    out = positions[:]
    for other in range(len(positions)):
        p = positions[other]
        if other == q:
            out[other] = target
        elif cur < target and cur < p <= target:
            out[other] = p - 1
        elif target < cur and target <= p < cur:
            out[other] = p + 1
    return out


def plan_qubit_order(circuit: Circuit, mode: str) -> ReorderPlan:
    """Select the DD-phase qubit order for ``circuit`` under ``mode``."""
    n = circuit.num_qubits
    natural = tuple(range(n))
    weights = interaction_weights(circuit)
    cost_nat = span_cost(weights, natural)
    if mode == "natural" or not weights or n == 1:
        return ReorderPlan(
            order=natural, mode=mode,
            cost_natural=cost_nat, cost_selected=cost_nat,
        )
    if mode not in ("interaction", "sift"):
        raise ValueError(f"unknown qubit order mode {mode!r}")
    arrangement = _greedy_linear_arrangement(n, weights)
    positions = [0] * n
    for pos, q in enumerate(arrangement):
        positions[q] = pos
    moves = 0
    if mode == "sift":
        positions, moves = _sift(positions, weights)
    cost_sel = span_cost(weights, tuple(positions))
    if cost_sel >= cost_nat:
        # Never accept an order worse than (or equal to) natural: the
        # permutation itself costs an O(2**n) transpose at conversion.
        return ReorderPlan(
            order=natural, mode=mode,
            cost_natural=cost_nat, cost_selected=cost_nat,
            sift_moves=moves,
        )
    return ReorderPlan(
        order=tuple(positions), mode=mode,
        cost_natural=cost_nat, cost_selected=cost_sel,
        sift_moves=moves,
    )


def permute_circuit(circuit: Circuit, order: tuple[int, ...]) -> Circuit:
    """Relabel every gate qubit ``q`` to ``order[q]`` (same gate sequence).

    The result simulates the same computation on permuted index bits;
    :func:`unpermute_axes` maps its amplitudes back to canonical order.
    An explicit-matrix gate keeps its matrix on its relabelled targets.
    """
    gates = [
        UnitaryGate(g.matrix(), tuple(order[q] for q in g.targets))
        if isinstance(g, UnitaryGate)
        else Gate(
            name=g.name,
            targets=tuple(order[q] for q in g.targets),
            controls=tuple(order[q] for q in g.controls),
            params=g.params,
        )
        for g in circuit.gates
    ]
    return Circuit(circuit.num_qubits, gates, name=circuit.name)


def unpermute_axes(order: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose axes mapping a permuted statevector back to canonical.

    For ``t = permuted.reshape([2] * n)``, axis ``a`` holds physical
    qubit ``n - 1 - a`` (qubit ``n - 1`` is the most significant index
    bit).  Canonical axis ``a`` must read the axis holding physical qubit
    ``order[n - 1 - a]``: ``axes[a] = n - 1 - order[n - 1 - a]``.  Apply
    as ``t.transpose(axes).ravel()``.
    """
    n = len(order)
    return tuple(n - 1 - order[n - 1 - a] for a in range(n))
