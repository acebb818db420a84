"""DMAV execution-plan compiler: compile a gate's array-phase work once.

Section 3.2's promise is that DMAV keeps per-gate work proportional to
the *gate DD's structure*.  A :class:`GatePlan` holds everything the
array phase needs to apply one gate DD -- the cost-model verdict,
Algorithm 1's row-major task lists, Algorithm 2's column-major
:class:`~repro.core.cost_model.CacheAssignment` and the per-tile writer
lists derived from it -- compiled once per unique ``(gate-DD root, root
weight)`` for a fixed thread count (one :class:`PlanCache` instance
serves exactly one package and thread count, the ones the simulator
runs).

A plan is the two Assign descents' output: ``row_tasks`` is
:func:`~repro.core.cost_model.assign_tasks`' list and ``assignment`` is
:func:`~repro.core.cost_model.assign_cache_tasks`' partition, buffers
included.  Each algorithm thus has one descent, shared by the listing
kernels of :mod:`repro.core.dmav`, the cost model and this compiler, so
a planned run reproduces the listing forms' per-gate partitioning bit
for bit by construction -- which is why the pipeline has no unplanned
mode: the listing forms are the reference it is tested and benchmarked
against.  Nothing below the root is memoized: a plan is reused only
when its root repeats (supremacy's fused gates do; QFT's never do, so
each of its gates compiles once).  Gate DDs arrive *windowed*, the root
at the gate's highest qubit and the levels above it implicit identity;
the descents walk those levels on the diagonal only, and a root below
the border level ``n - log2(t) - 1`` is one task per thread.

**Invalidation.**  Plans key roots by ``id()`` and pin their nodes via
direct references, so a package garbage collection -- which sweeps
unique-table entries and can recycle ids -- would silently corrupt the
cache.  :class:`~repro.dd.package.DDPackage` bumps ``gc_epoch`` on every
``collect_garbage`` (and hence every ``checkpoint_barrier``); the cache
compares epochs on each lookup and drops everything when they diverge.
Both a checkpoint writer's continuation and a resumed process then evolve
from an identically cold plan state, preserving the bit-identical-resume
guarantee of docs/RESILIENCE.md.

**Unfused gates.**  Without fusion every tail gate arrives as itself,
not as a DD (``dmav_steps`` in :mod:`repro.core.simulator`), and the
array kernel applies it from its matrix, so there is nothing to compile
and no verdict to reach: its :class:`TileLocalPlan` holds the gate and
its Eq. 5 price, the closed-form K1 and C1 = K1/t
(:meth:`~repro.core.cost_model.CostModel.evaluate_unfused`; no gate DD,
no Eq. 6), keyed by the gate's exact identity
(:attr:`~repro.circuits.gates.Gate.key`).  Such lookups count as neither
hits nor compiles: the compiler serves fused gate DDs only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gates import Gate
from repro.core.cost_model import (
    CacheAssignment,
    CostModel,
    GateCost,
    assign_cache_tasks,
    assign_tasks,
)
from repro.dd.node import DDNode, Edge
from repro.dd.package import DDPackage
from repro.parallel.pool import validate_thread_count

__all__ = ["GatePlan", "PlanCache", "TileLocalPlan"]


@dataclass
class GatePlan:
    """Everything the array phase needs to apply one gate DD.

    The task tuples hold direct :class:`~repro.dd.node.DDNode` references,
    pinning the border nodes (and through them the analysis caches keyed
    by their ids) for the plan's lifetime.
    """

    #: Cost-model verdict (Equations 5-6) for this root.
    cost: GateCost
    #: Algorithm 1's row-major task lists: ``row_tasks[u]`` is thread
    #: ``u``'s ``(border_node, v_offset, coefficient)`` list.
    row_tasks: list[list[tuple[DDNode, int, complex]]]
    #: Algorithm 2's column-major partition (tasks + buffer sharing).
    assignment: CacheAssignment
    #: ``writers[k]`` lists (ascending) the partial-buffer indices that
    #: produce output slice ``k`` -- the summation step reads only these
    #: instead of scanning every buffer over every slice, and it is what
    #: lets the arena hand ``dmav_cached`` dirty, never-zeroed buffers.
    writers: list[list[int]]


@dataclass(frozen=True)
class TileLocalPlan:
    """An unfused gate's plan: the gate itself and its Eq. 5 price.

    :func:`~repro.core.dmav.dmav_nocache` applies it from the gate's
    matrix (:func:`~repro.core.dmav.apply_tile_local`), which has no
    cache to use, so the price holds K1 and C1 only (``use_cache`` is
    False).
    """

    gate: Gate
    cost: GateCost


class PlanCache:
    """Compile-once cache of :class:`GatePlan` per unique gate-DD root,
    and of :class:`TileLocalPlan` per unfused gate.

    One instance serves one ``(package, threads)`` configuration -- the
    simulator builds it next to the ``CostModel`` it shares.  The task
    lists do not depend on ``dense_block_level``, a kernel bottom-out
    detail.
    """

    def __init__(self, pkg: DDPackage, threads: int, model: CostModel) -> None:
        validate_thread_count(threads, pkg.num_qubits)
        self.pkg = pkg
        self.threads = threads
        self.model = model
        #: Root plans, keyed by ``(id(root node), root weight)`` -- the
        #: same node can in principle arrive under different root weights.
        self._plans: dict[tuple[int, complex], GatePlan] = {}
        #: Unfused gates' plans, keyed by :attr:`Gate.key`.
        self._local: dict[tuple, TileLocalPlan] = {}
        self._epoch = pkg.gc_epoch
        #: Gate-DD lookups answered by an already compiled plan.
        self.hits = 0
        #: Root plans compiled.
        self.compiles = 0
        #: Full-cache drops forced by package GC epoch changes.
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, m: Edge | Gate) -> GatePlan | TileLocalPlan:
        """The plan for gate matrix ``m``, compiling it on first sight.

        An unfused gate (``m`` a :class:`~repro.circuits.gates.Gate`)
        gets its :class:`TileLocalPlan`, priced on first sight.
        """
        if isinstance(m, Gate):
            local = self._local.get(m.key)
            if local is None:
                local = self._local[m.key] = TileLocalPlan(
                    m, self.model.evaluate_unfused(self.pkg.num_qubits, m)
                )
            return local
        if self.pkg.gc_epoch != self._epoch:
            # GC may have swept (and Python may have recycled ids of)
            # nodes this cache keys by; everything derived is suspect.
            self._plans.clear()
            self._epoch = self.pkg.gc_epoch
            self.invalidations += 1
        key = (id(m.n), m.w)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        plan = self._compile(m)
        self._plans[key] = plan
        self.compiles += 1
        return plan

    def _compile(self, m: Edge) -> GatePlan:
        t = self.threads
        h = (1 << self.pkg.num_qubits) // t
        assignment = assign_cache_tasks(self.pkg, m, t)
        writers: list[set[int]] = [set() for _ in range(t)]
        for tasks, b in zip(assignment.tasks, assignment.buffer_of):
            for _node, i_p, _coeff in tasks:
                writers[i_p // h].add(b)
        return GatePlan(
            cost=self.model.evaluate_assignment(self.pkg, m, assignment),
            row_tasks=assign_tasks(self.pkg, m, t),
            assignment=assignment,
            writers=[sorted(ws) for ws in writers],
        )
