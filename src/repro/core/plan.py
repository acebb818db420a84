"""DMAV execution-plan compiler: compile a gate's array-phase work once.

Section 3.2's promise is that DMAV keeps per-gate work proportional to
the *gate DD's structure*.  The hot loop used to re-derive that structure
on every application: ``CostModel.evaluate`` walked the gate DD,
``assign_cache_tasks`` re-partitioned it, and ``assign_tasks`` would walk
it again for the uncached variant.  A :class:`GatePlan` captures all of
it -- the cost-model verdict, Algorithm 1's row-major task lists,
Algorithm 2's column-major :class:`~repro.core.cost_model.CacheAssignment`
plus the derived per-slice writer lists -- compiled once per unique
``(gate-DD root, root weight)`` for a fixed thread count (one
:class:`PlanCache` instance serves exactly one package and thread count,
the ones the simulator runs).

Gate DDs arrive *windowed*: the root sits at the gate's highest qubit
``top`` and the levels above it are implicit identity.  Those levels add
only diagonal blocks, so the compiler never walks them.  With ``border
= n - log2(t) - 1``:

* a root at or above ``border`` compiles its window's border paths once
  and copies them onto the ``2**(n-1-top)`` diagonal blocks, copy ``a``
  shifting row and column offsets by ``a * 2**(top-border)`` tiles;
* a root below ``border`` is one task ``(root, u*h, w)`` per thread
  ``u``: the kernel applies it to each diagonal block of its tile.

Two properties make the compiler more than a per-root dict:

* **Structural memoization.**  Hash-consing guarantees structurally
  identical sub-DDs are the *same object*, so the compiler memoizes
  border-task paths per sub-DD node and shares them across gates.  Even
  circuits with zero repeated gate roots (QFT applies every cp/h at a
  distinct position) share structure inside their windows: identity
  chains and repeated border blocks collapse.  ``hits``/``misses`` are
  therefore *task-weighted*: a memo hit counts every cached border task
  it serves, a miss counts the one freshly compiled border task, and a
  whole-plan replay counts all of its tasks.  Diagonal copies and
  below-border roots are no memo traffic.
* **Bit-exact replay.**  Paths store the edge-weight *chain* instead of a
  pre-multiplied product, and coefficients are folded top-down at plan
  build exactly like the listing descents multiply them
  (``((1 * w_root) * w_1) * ... * w_border``; neither multiplies the
  implicit levels' exact 1.0 weights).  A planned run therefore
  reproduces the unplanned per-gate partitioning bit-for-bit (signed
  zeros aside), which is why the pipeline has no unplanned mode: the
  listing-form kernels of :mod:`repro.core.dmav` are the reference it is
  tested and benchmarked against.

**Invalidation.**  Plans key nodes by ``id()`` and pin them via direct
references, so a package garbage collection -- which sweeps unique-table
entries and can recycle ids -- would silently corrupt the cache.
:class:`~repro.dd.package.DDPackage` bumps ``gc_epoch`` on every
``collect_garbage`` (and hence every ``checkpoint_barrier``); the cache
compares epochs on each lookup and drops everything when they diverge.
Both a checkpoint writer's continuation and a resumed process then evolve
from an identically cold plan state, preserving the bit-identical-resume
guarantee of docs/RESILIENCE.md.

**Unfused gates.**  Without fusion every tail gate arrives as itself,
not as a DD (``dmav_steps`` in :mod:`repro.core.simulator`), and the
array kernel applies it from its matrix, so there is nothing to compile:
its :class:`TileLocalPlan` holds the gate and its Eq. 5-6 price
(:meth:`~repro.core.cost_model.CostModel.evaluate_tile_local`), keyed by
the gate's exact identity (:attr:`~repro.circuits.gates.Gate.key`).
Such lookups are no memo traffic and no compiles: the compiler serves
fused gate DDs only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gates import Gate
from repro.core.cost_model import (
    CacheAssignment,
    CostModel,
    GateCost,
    assign_buffers,
)
from repro.dd.node import TERMINAL, DDNode, Edge
from repro.dd.package import DDPackage
from repro.parallel.partition import border_level
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
    #: ``direct[u][i]``: thread ``u``'s ``i``-th column task is its output
    #: slice's *sole* writer and never serves a later cache hit, so it may
    #: write the final value straight into W, skipping the partial buffer
    #: and the summation copy for that slice entirely.
    direct: list[list[bool]]
    #: ``direct_out[k]``: output slice ``k`` is completed by a direct task
    #: (its ``writers[k]`` is empty but it must not be zero-filled).
    direct_out: list[bool]
    #: Border tasks in this plan (row and column views share the paths).
    num_tasks: int


@dataclass(frozen=True)
class TileLocalPlan:
    """An unfused gate's plan: the gate itself and its Eq. 5-6 entry.

    :func:`~repro.core.dmav.dmav_nocache` applies it from the gate's
    matrix (:func:`~repro.core.dmav.apply_tile_local`), also where the
    entry prices Algorithm 2 cheaper (a gate across the border whose
    blocks repeat, such as a product-form unitary): the array kernel
    has no cache to use.
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
        self.border = border_level(pkg.num_qubits, threads)
        #: Root plans, keyed by ``(id(root node), root weight)`` -- the
        #: same node can in principle arrive under different root weights.
        self._plans: dict[tuple[int, complex], GatePlan] = {}
        #: Per-node relative path lists (the structural memo).
        self._memo: dict[int, list] = {}
        #: Unfused gates' plans, keyed by :attr:`Gate.key`.
        self._local: dict[tuple, TileLocalPlan] = {}
        self._epoch = pkg.gc_epoch
        #: Task-weighted memo service: cached border tasks served.
        self.hits = 0
        #: Task-weighted memo service: border tasks compiled fresh.
        self.misses = 0
        #: Whole-plan lookups answered without any compilation.
        self.gate_hits = 0
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
                    m, self.model.evaluate_tile_local(self.pkg.num_qubits, m)
                )
            return local
        if self.pkg.gc_epoch != self._epoch:
            # GC may have swept (and Python may have recycled ids of)
            # nodes this cache keys by; everything derived is suspect.
            self._plans.clear()
            self._memo.clear()
            self._epoch = self.pkg.gc_epoch
            self.invalidations += 1
        key = (id(m.n), m.w)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += plan.num_tasks
            self.gate_hits += 1
            return plan
        plan = self._compile(m)
        self._plans[key] = plan
        self.compiles += 1
        return plan

    # -- compilation ---------------------------------------------------

    def _paths(self, node: DDNode, level: int) -> list:
        """Relative border paths of the sub-DD under ``node``.

        Each path is ``(border_node, r, c, weight_chain, rk, ck)``: row
        and column block offsets in h-slice units relative to this
        subtree, the tuple of edge weights from ``node`` down to (and
        including) the border edge, and the row-major/column-major DFS
        sort keys (the (i, j) choices interleaved base-4 top-down, so
        ascending order replays the legacy descent orders exactly).
        """
        paths = self._memo.get(id(node))
        if paths is not None:
            self.hits += len(paths)
            return paths
        if level == self.border:
            self.misses += 1
            paths = [(node, 0, 0, (), 0, 0)]
        else:
            paths = []
            span = 1 << (level - 1 - self.border)
            span2 = span * span
            for k, child in enumerate(node.edges):
                if child.is_zero:
                    continue
                i, j = divmod(k, 2)
                for bn, r, c, chain, rk, ck in self._paths(
                    child.n, level - 1
                ):
                    paths.append((
                        bn,
                        i * span + r,
                        j * span + c,
                        (child.w,) + chain,
                        (2 * i + j) * span2 + rk,
                        (2 * j + i) * span2 + ck,
                    ))
        self._memo[id(node)] = paths
        return paths

    def _compile(self, m: Edge) -> GatePlan:
        n = self.pkg.num_qubits
        t = self.threads
        h = (1 << n) // t
        top = m.n.level
        if m.is_zero:
            rel, span, copies = [], 1, 0
        elif top < self.border:
            # The window fits inside one diagonal block: one task per
            # thread, applying the root over its own tile.
            rel, span, copies = [(m.n, 0, 0, (), 0, 0)], 1, t
        else:
            # The implicit levels above the root add only diagonal
            # blocks: the window's border paths repeat on each of them.
            rel = self._paths(m.n, top)
            span, copies = 1 << (top - self.border), 1 << (n - 1 - top)
        # Fold coefficients top-down in the listing descents' exact
        # multiplication order: ((1 * m.w) * w_1) * ... * w_border.
        paths = []
        for bn, r, c, chain, rk, ck in rel:
            f = (1.0 + 0j) * m.w
            for w in chain:
                f = f * w
            paths.append((bn, r, c, f, rk, ck))
        # Each thread's tasks come from one diagonal copy ``a``, so
        # sorting within the window replays the listing order.
        row_tasks: list[list[tuple[DDNode, int, complex]]] = [
            [] for _ in range(t)
        ]
        by_row = sorted(paths, key=lambda p: p[4])
        cache_tasks: list[list[tuple[DDNode, int, complex]]] = [
            [] for _ in range(t)
        ]
        by_col = sorted(paths, key=lambda p: p[5])
        for a in range(0, copies * span, span):
            for bn, r, c, f, _rk, _ck in by_row:
                row_tasks[a + r].append((bn, (a + c) * h, f))
            for bn, r, c, f, _rk, _ck in by_col:
                cache_tasks[a + c].append((bn, (a + r) * h, f))
        buffer_of, num_buffers = assign_buffers(cache_tasks)
        assignment = CacheAssignment(
            num_qubits=n,
            threads=t,
            tasks=cache_tasks,
            buffer_of=buffer_of,
            num_buffers=num_buffers,
        )
        # Classify column tasks for direct output writes.  A task may
        # bypass its partial buffer and write W's slice in place when (a)
        # it is the only task producing that output slice (nothing to sum
        # with), and (b) no later task in its thread hits on its node (the
        # per-thread cache reads hit sources back out of the buffer).
        # Terminal tasks write single elements, not slices, and stay on
        # the buffered path.
        slice_tasks = [0] * t
        for tlist in cache_tasks:
            for _bn, i_p, _f in tlist:
                slice_tasks[i_p // h] += 1
        direct: list[list[bool]] = []
        for tlist in cache_tasks:
            last_use: dict[int, int] = {}
            for i, (bn, _ip, _f) in enumerate(tlist):
                last_use[id(bn)] = i
            seen: set[int] = set()
            flags = []
            for i, (bn, i_p, _f) in enumerate(tlist):
                is_source = id(bn) not in seen and last_use[id(bn)] > i
                seen.add(id(bn))
                flags.append(
                    bn is not TERMINAL
                    and not is_source
                    and slice_tasks[i_p // h] == 1
                )
            direct.append(flags)
        writer_sets: list[set[int]] = [set() for _ in range(t)]
        direct_out = [False] * t
        for u in range(t):
            b = buffer_of[u]
            for (_bn, i_p, _f), is_direct in zip(cache_tasks[u], direct[u]):
                if is_direct:
                    direct_out[i_p // h] = True
                else:
                    writer_sets[i_p // h].add(b)
        return GatePlan(
            cost=self.model.evaluate_assignment(self.pkg, m, assignment),
            row_tasks=row_tasks,
            assignment=assignment,
            writers=[sorted(ws) for ws in writer_sets],
            direct=direct,
            direct_out=direct_out,
            num_tasks=copies * len(paths),
        )
