"""DMAV computational cost model (Section 3.2.3, Figure 8, Equations 5-6).

The unit of cost is the multiply-accumulate (MAC).  ``mac_count`` implements
Figure 8's DFS with a per-node look-up table: the terminal costs one MAC and
every node costs the sum of its non-zero children (identical nodes cost the
same, so the table collapses shared structure).

``CostModel.evaluate`` returns both Equation 5 (no caching, C1) and
Equation 6 (caching, C2 = K2/t + 2**n/(d*t) * (H/t + b)) for a gate matrix,
where H (cache hits), K2 (MACs not eliminated by caching) and b (partial
output buffers) come from simulating Algorithm 2's AssignCache partitioning
-- exactly the quantities the running system would realize.

A gate DD may be *windowed*: its root sits at level ``top < n - 1`` and
the levels above it are implicit identity (``I^(n-1-top) (x) W``).
Figure 8 charges each such pass-through level its two children, so K1
is the window's count times ``2**(n-1-top)``, and a border task whose
node sits below the border level (a window that fits inside one
thread's diagonal block) costs its count times ``2**(border - level)``.
The verdicts therefore equal those of the full-height form.

An unfused gate, which the array kernel applies from its matrix, never
chooses between the algorithms, so the pipeline prices it by Equation 5
alone (:meth:`CostModel.evaluate_unfused`): K1 in closed form from the
gate matrix, which equals its windowed DD's MAC count at every
placement, and C1 = K1/t.  Its C2, for whatever reports one, is
:meth:`CostModel.evaluate_tile_local`: within the border level the gate
is one task per thread, so H = 0, b = 1 and K2 = K1; across it, the
gate's windowed DD is built in a scratch package and priced like any
gate DD.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.gatecache import build_gate_dd
from repro.common.config import SIMD_WIDTH
from repro.dd.matrix import kept_entries
from repro.dd.node import TERMINAL, DDNode, Edge
from repro.dd.package import DDPackage
from repro.parallel.partition import border_level
from repro.parallel.pool import validate_thread_count

__all__ = [
    "mac_count",
    "CacheAssignment",
    "assign_cache_tasks",
    "assign_tasks",
    "CostModel",
    "GateCost",
]


def mac_count(pkg: DDPackage, e: Edge) -> int:
    """Total MAC operations of a DMAV with gate matrix ``e`` (Figure 8)."""
    if e.is_zero:
        return 0
    return _mac_count_node(pkg, e.n)


def _mac_count_node(pkg: DDPackage, node: DDNode) -> int:
    if node is TERMINAL:
        return 1
    cached = pkg.mac_counts.get(id(node))
    if cached is not None:
        return cached
    total = sum(
        _mac_count_node(pkg, child.n)
        for child in node.edges
        if not child.is_zero
    )
    pkg.mac_counts[id(node)] = total
    return total


@dataclass
class CacheAssignment:
    """AssignCache's border-level task partition for one gate matrix.

    ``tasks[u]`` lists ``(node, partial_output_offset, weight_product)`` in
    assignment order for thread ``u``; ``buffer_of[u]`` is the shared
    partial-output buffer index (Algorithm 2 lines 22-25).
    """

    num_qubits: int
    threads: int
    tasks: list[list[tuple[DDNode, int, complex]]]
    buffer_of: list[int]
    num_buffers: int

    @property
    def cache_hits(self) -> int:
        """H of Equation 6: repeated border nodes within each thread."""
        hits = 0
        for thread_tasks in self.tasks:
            seen: set[int] = set()
            for node, _, _ in thread_tasks:
                if id(node) in seen:
                    hits += 1
                else:
                    seen.add(id(node))
        return hits

    def k2_macs(self, pkg: DDPackage) -> int:
        """K2 of Equation 6: MACs of each thread's *unique* border nodes.

        A task node below the border level applies over the
        ``2**(border - level)`` diagonal blocks of its task slice, each
        one charged as Figure 8 charges the pass-through levels above it.
        """
        border = border_level(self.num_qubits, self.threads)
        total = 0
        for thread_tasks in self.tasks:
            seen: set[int] = set()
            for node, _, _ in thread_tasks:
                if id(node) not in seen:
                    seen.add(id(node))
                    total += _mac_count_node(pkg, node) << max(
                        border - node.level, 0
                    )
        return total


def assign_tasks(
    pkg: DDPackage, m: Edge, threads: int
) -> list[list[tuple[DDNode, int, complex]]]:
    """Algorithm 1's Assign: row-major border-level task lists per thread.

    Each task is ``(border_node, v_start_index, coefficient)`` where the
    coefficient is the weight product along the DD path *including* the
    border edge's own weight.  The implicit identity levels above a
    windowed root descend their diagonal only, carrying the root edge
    without multiplying their exact 1.0 weights; a root below the border
    level becomes one task per thread, spanning its diagonal block.
    """
    n = pkg.num_qubits
    validate_thread_count(threads, n)
    border = border_level(n, threads)
    tasks: list[list[tuple[DDNode, int, complex]]] = [[] for _ in range(threads)]

    def descend(e: Edge, f: complex, u: int, i_v: int, level: int) -> None:
        if e.is_zero:
            return
        if level == border:
            tasks[u].append((e.n, i_v, f * e.w))
            return
        stride = threads >> (n - level)
        if e.n.level < level:
            for i in (0, 1):
                descend(e, f, u + i * stride, i_v + (1 << level) * i, level - 1)
            return
        for i in (0, 1):
            for j in (0, 1):
                descend(
                    e.n.edges[2 * i + j],
                    f * e.w,
                    u + i * stride,
                    i_v + (1 << level) * j,
                    level - 1,
                )

    if not m.is_zero:
        descend(m, 1.0 + 0j, 0, 0, n - 1)
    return tasks


def assign_cache_tasks(pkg: DDPackage, m: Edge, threads: int) -> CacheAssignment:
    """Simulate Algorithm 2's AssignCache partition (column-major descent).

    The thread index follows the *column* half chosen at each level, the
    partial-output offset follows the *row* half -- so each thread owns a
    fixed slice of the input vector and its cache can reuse results across
    its own tasks (Section 3.2.2).  Implicit identity levels above a
    windowed root descend their diagonal only, carrying the root edge
    unmultiplied.
    """
    n = pkg.num_qubits
    validate_thread_count(threads, n)
    border = border_level(n, threads)
    tasks: list[list[tuple[DDNode, int, complex]]] = [[] for _ in range(threads)]

    def descend(e: Edge, f: complex, u: int, i_p: int, level: int) -> None:
        if e.is_zero:
            return
        if level == border:
            tasks[u].append((e.n, i_p, f * e.w))
            return
        stride = threads >> (n - level)
        if e.n.level < level:
            for i in (0, 1):
                descend(e, f, u + i * stride, i_p + (1 << level) * i, level - 1)
            return
        for j in (0, 1):
            for i in (0, 1):
                descend(
                    e.n.edges[2 * i + j],
                    f * e.w,
                    u + j * stride,
                    i_p + (1 << level) * i,
                    level - 1,
                )

    if not m.is_zero:
        descend(m, 1.0 + 0j, 0, 0, n - 1)

    # Algorithm 2 lines 22-25: first-fit threads into shared buffers.  Two
    # threads share a partial output buffer iff their occupied output
    # slices don't overlap; all slices have length h = 2**n / t, so
    # comparing start offsets is an exact overlap test.
    buffer_slots: list[set[int]] = []
    buffer_of: list[int] = []
    for thread_tasks in tasks:
        offsets = {i_p for _, i_p, _ in thread_tasks}
        for bi, occupied in enumerate(buffer_slots):
            if not (occupied & offsets):
                occupied.update(offsets)
                buffer_of.append(bi)
                break
        else:
            buffer_slots.append(offsets)
            buffer_of.append(len(buffer_slots) - 1)
    return CacheAssignment(
        num_qubits=n,
        threads=threads,
        tasks=tasks,
        buffer_of=buffer_of,
        num_buffers=len(buffer_slots),
    )


@dataclass(frozen=True)
class GateCost:
    """Cost-model verdict for one gate matrix at a given thread count.

    An unfused step's price (:meth:`CostModel.evaluate_unfused`) is
    Equation 5's alone: its Equation 6 fields are None.
    """

    macs_total: int
    cost_nocache: float
    cost_cache: float | None = None
    cache_hits: int | None = None
    buffers: int | None = None

    @property
    def use_cache(self) -> bool:
        """Pick DMAV-with-caching when it models cheaper (C1 > C2)."""
        return self.cost_cache is not None and (
            self.cost_nocache > self.cost_cache
        )

    @property
    def cost(self) -> float:
        """min(C1, C2): the cost the scheduler charges this gate."""
        if self.cost_cache is None:
            return self.cost_nocache
        return min(self.cost_nocache, self.cost_cache)


class CostModel:
    """Equations 5-6 evaluator at t threads (SIMD width d is
    ``SIMD_WIDTH``)."""

    def __init__(self, threads: int) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        # Cost depends only on the DD's zero structure, never on weights,
        # so verdicts are cached per root node: the fusion pass and the
        # DMAV loop both evaluate the same (hash-consed) gate DDs.  Keyed
        # by the node itself (nodes hash by identity), which the entry
        # pins, so a model reused across packages never meets a dead
        # node's recycled id.
        self._cache: dict[DDNode, GateCost] = {}
        #: :meth:`evaluate_tile_local`'s package, made on first use.
        self._scratch: DDPackage | None = None

    def evaluate(self, pkg: DDPackage, m: Edge) -> GateCost:
        cached = self._cache.get(m.n)
        if cached is not None:
            return cached
        cost = self._from_assignment(
            pkg, m, assign_cache_tasks(pkg, m, self.threads)
        )
        self._cache[m.n] = cost
        return cost

    def evaluate_assignment(
        self, pkg: DDPackage, m: Edge, assignment: CacheAssignment
    ) -> GateCost:
        """Like :meth:`evaluate`, from an already-built AssignCache partition.

        The plan compiler (:mod:`repro.core.plan`) keeps the partition
        :func:`assign_cache_tasks` built for it; passing it here skips a
        second descent while producing the identical verdict (same H/K2/b
        inputs, same formulas, same per-root memoization).
        """
        cached = self._cache.get(m.n)
        if cached is not None:
            return cached
        cost = self._from_assignment(pkg, m, assignment)
        self._cache[m.n] = cost
        return cost

    def evaluate_unfused(self, num_qubits: int, gate) -> GateCost:
        """Equation 5 of an unfused gate, which the array kernel applies
        from its matrix: K1 in closed form and C1 = K1/t.

        The gate's windowed DD has one path per entry it keeps: ``K1 =
        2**(n-k-c) * ((2**c - 1) * 2**k + nnz(U))`` for ``k`` targets,
        ``c`` controls and target matrix ``U``, the control-off blocks
        being identities and the levels off the gate's qubits
        pass-throughs.  ``nnz`` counts the entries the DD keeps
        (:func:`~repro.dd.matrix.kept_entries`), so K1 equals the built
        DD's count at any placement, unless an entry of ``U`` sits within
        about ``TOLERANCE`` of the DD's zero rule, where the package's
        complex table decides.  No DD is built and no Equation 6 field is
        set: the step never chooses Algorithm 2, so its C2 would decide
        nothing (:meth:`evaluate_tile_local` computes it for reports).
        """
        k, c = len(gate.targets), len(gate.controls)
        nnz = kept_entries(gate.matrix(), gate.targets)
        k1 = ((((1 << c) - 1) << k) + nnz) << (num_qubits - k - c)
        return GateCost(macs_total=k1, cost_nocache=k1 / self.threads)

    def evaluate_tile_local(self, num_qubits: int, gate) -> GateCost:
        """Equations 5-6 of an unfused gate, C2 included, for the
        reports that show it (the pipeline prices the step by
        :meth:`evaluate_unfused`).

        A gate whose highest qubit sits at or below the border level is
        one task per thread over that thread's own tile (H = 0, b = 1,
        K2 = K1), K1 in closed form (:meth:`evaluate_unfused`), so the
        verdict equals :meth:`evaluate`'s on the built windowed DD
        without building it.

        A gate across the border is :meth:`evaluate` on its windowed DD,
        built in this model's scratch package, which serves pricing only:
        no simulator package or gate-DD cache holds it.
        """
        n = num_qubits
        if max(gate.qubits) <= border_level(n, self.threads):
            k1 = self.evaluate_unfused(n, gate).macs_total
            return self._price(n, k1, k1, 0, 1)
        pkg = self._scratch
        if pkg is None or pkg.num_qubits != n:
            pkg = self._scratch = DDPackage(n)
        return self.evaluate(pkg, build_gate_dd(pkg, gate, windowed=True))

    def _from_assignment(
        self, pkg: DDPackage, m: Edge, assignment: CacheAssignment
    ) -> GateCost:
        n = pkg.num_qubits
        return self._price(
            n,
            mac_count(pkg, m) << (n - 1 - m.n.level),
            assignment.k2_macs(pkg),
            assignment.cache_hits,
            assignment.num_buffers,
        )

    def _price(
        self, n: int, k1: int, k2: int, h_hits: int, b: int
    ) -> GateCost:
        """C1 and C2 of Equations 5-6 from their inputs."""
        t, d = self.threads, SIMD_WIDTH
        c1 = k1 / t
        c2 = k2 / t + ((1 << n) / (d * t)) * (h_hits / t + b)
        return GateCost(
            macs_total=k1,
            cost_nocache=c1,
            cost_cache=c2,
            cache_hits=h_hits,
            buffers=b,
        )
