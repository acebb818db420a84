"""Gate fusion: DMAV-aware (Algorithm 3) and the k-operations baseline [100].

After FlatDD converts to its flat-array phase, every remaining gate costs at
least one full pass over the state.  Fusing consecutive gate DDs with DDMM
can cut the number of passes -- but only when the fused DD's DMAV cost is
actually lower (Figures 9 and 10 show both outcomes).  Algorithm 3 fuses
greedily under the Section 3.2.3 cost model.

The baseline, k-operations [100], fuses adjacent gates whenever the running
group still acts on at most ``k`` qubits -- effective, but blind to the
fused DD's actual DMAV cost.

Implementation note (documented deviation): Algorithm 3 as printed never
emits the final pending matrix ``M_p``; we append it on exit, otherwise the
last gate (or last fused group) of every circuit would be dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dd.node import Edge
from repro.dd.operations import mm_multiply
from repro.dd.package import DDPackage
from repro.core.cost_model import CostModel

__all__ = [
    "K_OPERATIONS",
    "FusionResult",
    "fuse_cost_aware",
    "fuse_k_operations",
    "identity_levels",
]

#: Group size of the k-operations baseline in the simulator's
#: ``fusion="koperations"`` mode (Table 2).
K_OPERATIONS = 4


@dataclass
class FusionResult:
    """Outcome of a fusion pass over a gate-DD sequence."""

    gates: list[Edge]
    #: Modeled DMAV cost (Section 3.2.3 units) of the emitted sequence.
    total_cost: float
    #: How many input gates each emitted gate absorbs (parallel to gates).
    group_sizes: list[int]
    ddmm_calls: int = 0

    @property
    def fused_away(self) -> int:
        return sum(self.group_sizes) - len(self.gates)


def fuse_cost_aware(
    pkg: DDPackage,
    gate_edges: list[Edge],
    model: CostModel,
) -> FusionResult:
    """DMAV-aware gate fusion (Algorithm 3).

    Iterates the remaining gates; fuses the current gate into the pending
    matrix when the fused DMAV cost beats running the two sequentially
    (``C_i + C_p >= C_ip``), otherwise emits the pending matrix.
    """
    out: list[Edge] = []
    sizes: list[int] = []
    ddmm_calls = 0
    m_p = pkg.identity_edge(pkg.num_qubits - 1)
    c_p = 0.0
    pending = 0
    total_cost = 0.0
    for m_i in gate_edges:
        c_i = model.evaluate(pkg, m_i).cost
        m_ip = mm_multiply(pkg, m_i, m_p)
        ddmm_calls += 1
        c_ip = model.evaluate(pkg, m_ip).cost
        if c_i + c_p < c_ip:
            # Sequential is cheaper: emit pending, start a new group.
            if pending:
                out.append(m_p)
                sizes.append(pending)
                total_cost += c_p
            m_p, c_p, pending = m_i, c_i, 1
        else:
            m_p, c_p, pending = m_ip, c_ip, pending + 1
    if pending:
        out.append(m_p)
        sizes.append(pending)
        total_cost += c_p
    return FusionResult(
        gates=out, total_cost=total_cost, group_sizes=sizes, ddmm_calls=ddmm_calls
    )


def identity_levels(pkg: DDPackage, e: Edge) -> set[int]:
    """Levels on which a matrix DD acts non-trivially (non-identity).

    A level counts as *active* when some node on it deviates from the
    identity pattern.  Used by the k-operations grouping rule.
    """
    from repro.dd.node import TERMINAL

    active: set[int] = set()
    seen: set[int] = set()
    stack = [] if e.is_zero else [e.n]
    while stack:
        node = stack.pop()
        if node is TERMINAL or id(node) in seen:
            continue
        seen.add(id(node))
        e00, e01, e10, e11 = node.edges
        diagonal_identity = (
            e01.is_zero and e10.is_zero and e00.w == 1 and e11.w == 1
            and e00.n is e11.n
        )
        if not diagonal_identity:
            active.add(node.level)
        for child in node.edges:
            if not child.is_zero:
                stack.append(child.n)
    return active


def fuse_k_operations(
    pkg: DDPackage,
    gate_edges: list[Edge],
    k: int,
    model: CostModel | None = None,
) -> FusionResult:
    """k-operations fusion [100]: group while the fused gate spans <= k qubits.

    Adjacent gates are multiplied (DDMM) as long as the union of active
    qubit levels stays within ``k``; otherwise the group is emitted and a
    new one starts.  ``model`` (optional) prices the emitted sequence for
    Table 2's cost column.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out: list[Edge] = []
    sizes: list[int] = []
    ddmm_calls = 0
    group: Edge | None = None
    group_levels: set[int] = set()
    group_size = 0
    for m_i in gate_edges:
        levels = identity_levels(pkg, m_i)
        if group is None:
            group, group_levels, group_size = m_i, set(levels), 1
            continue
        merged = group_levels | levels
        if len(merged) <= k:
            group = mm_multiply(pkg, m_i, group)
            ddmm_calls += 1
            group_levels = merged
            group_size += 1
        else:
            out.append(group)
            sizes.append(group_size)
            group, group_levels, group_size = m_i, set(levels), 1
    if group is not None:
        out.append(group)
        sizes.append(group_size)
    total_cost = 0.0
    if model is not None:
        total_cost = sum(model.evaluate(pkg, g).cost for g in out)
    return FusionResult(
        gates=out, total_cost=total_cost, group_sizes=sizes, ddmm_calls=ddmm_calls
    )
