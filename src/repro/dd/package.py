"""The DD package: unique tables, normalization, and node factories.

Everything that creates a node goes through :class:`DDPackage` so that

* structurally identical sub-DDs are shared (hash-consing via unique tables),
* edge weights are canonical (via the complex table), and
* normalization makes the representation unique (Section 2.2: "the weights
  are uniquely decided by normalization").

Normalization rules (matching DDSIM / the paper's Figure 2):

* **Vector nodes** are normalized so the squared magnitudes of the two
  outgoing weights sum to 1 and the first non-zero outgoing weight is real
  positive.  The factored-out norm-and-phase becomes the incoming weight --
  this is why the incoming weights of ``v2``/``v3`` in Figure 2b are 1/sqrt(2).
* **Matrix nodes** are normalized by dividing all four outgoing weights by
  the first outgoing weight of maximal magnitude, which becomes exactly 1 --
  this is why H's root in Figure 2a has incoming weight 1/sqrt(2) and
  children (1, 1, 1, -1).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from repro.common.config import TOLERANCE
from repro.common.errors import DDError
from repro.dd.complextable import ComplexTable
from repro.dd.node import ONE_EDGE, TERMINAL, ZERO_EDGE, DDNode, Edge

__all__ = ["DDPackage", "PackageStats"]


def _trim(d: dict, size: int) -> None:
    """Pop a dict back to ``size`` entries (LIFO insertion order)."""
    while len(d) > size:
        d.popitem()


class PackageStats:
    """Always-on package counters (plain ints; no locking, no timers).

    Updated inline by the unique tables, the compute-table lookups in
    :mod:`repro.dd.operations`, and garbage collection.  The cost of an
    int increment is negligible next to the dict operation it annotates,
    so these run unconditionally; ``repro.obs`` snapshots them into
    ``SimulationResult.metadata["obs"]``.
    """

    __slots__ = (
        "unique_hits",
        "unique_misses",
        "compute_hits",
        "compute_misses",
        "gc_runs",
        "gc_nodes_reclaimed",
        "identity_mv_skips",
        "identity_mm_skips",
        "identity_passthrough_skips",
        "identity_lift_steps",
        "add_same_node",
    )

    def __init__(self) -> None:
        #: Unique-table lookups that found an existing node (hash-consing).
        self.unique_hits = 0
        #: Unique-table lookups that had to create a node.
        self.unique_misses = 0
        #: Compute-table (vadd/madd/mv/mm/inner) memoization hits.
        self.compute_hits = 0
        #: Compute-table misses (sub-operations actually evaluated).
        self.compute_misses = 0
        #: Mark-and-sweep collections performed.
        self.gc_runs = 0
        #: Total nodes reclaimed across all collections.
        self.gc_nodes_reclaimed = 0
        #: mv/mm recursions that exited via the O(1) identity rule.
        self.identity_mv_skips = 0
        self.identity_mm_skips = 0
        #: Weight-1 diagonal levels crossed without child multiplies/adds.
        self.identity_passthrough_skips = 0
        #: Levels where a shorter (identity-skipped) operand descended the
        #: taller one structurally instead of via explicit identity nodes.
        self.identity_lift_steps = 0
        #: DD additions collapsed to a weight add on one shared node.
        self.add_same_node = 0

    def as_dict(self) -> dict:
        """Plain-dict snapshot of all counters."""
        return {name: getattr(self, name) for name in self.__slots__}


class DDPackage:
    """Owner of all DD state: unique tables, complex table, compute caches.

    A package is parameterized by the number of qubits ``n`` it serves;
    levels run from 0 (bottom) to ``n - 1`` (root).
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise DDError(f"need at least 1 qubit, got {num_qubits}")
        self.num_qubits = num_qubits
        self.stats = PackageStats()
        self.ctable = ComplexTable()
        #: Monotonic garbage-collection epoch.  Bumped by every
        #: :meth:`collect_garbage` (and hence :meth:`checkpoint_barrier`).
        #: Consumers that key long-lived state by ``id(node)`` -- the DMAV
        #: plan cache in :mod:`repro.core.plan` -- compare epochs to detect
        #: that node identities may have been swept (and ids recycled) and
        #: must drop their derived state.
        self.gc_epoch = 0
        # Unique tables, keyed by the node's structural signature.
        self._vtable: dict[tuple, DDNode] = {}
        self._mtable: dict[tuple, DDNode] = {}
        # Compute tables (operation memoization, Section 2.2: "identical
        # matrix-vector multiplications are avoided using hash tables").
        self.cache_vadd: dict[tuple, Edge] = {}
        self.cache_madd: dict[tuple, Edge] = {}
        self.cache_mv: dict[tuple, Edge] = {}
        self.cache_mm: dict[tuple, Edge] = {}
        self.cache_inner: dict[tuple, complex] = {}
        # Memoized identity chains: level -> edge of I on levels [0..level].
        self._identity: dict[int, Edge] = {}
        # Dense-block cache for the vectorized kernels: node -> ndarray of
        # the node's (normalized) subtree.  Keyed by id(node).
        self.dense_cache: dict[int, object] = {}
        # Memoized per-node analysis flags (keyed by id(node)).
        self.identity_flags: dict[int, bool] = {}
        self.mac_counts: dict[int, int] = {}
        # Kronecker-collapse cache: node -> (diag weights, base node) for
        # subtrees of the form diag(d) (x) M_base (see repro.dd.analysis).
        self.kron_cache: dict[int, object] = {}
        self._next_idx = 1
        self._nodes_created = 0
        self._peak_nodes = 0
        # Flat node arena for vector nodes: per-node child weights and
        # child arena indices (-1 = zero edge / terminal).  These power the
        # gather-based DD-to-array sweep: a whole DD level descends with a
        # handful of numpy gathers instead of per-node Python.
        self._arena_w0: list[complex] = []
        self._arena_w1: list[complex] = []
        self._arena_c0: list[int] = []
        self._arena_c1: list[int] = []
        self._arena_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Weight canonicalization
    # ------------------------------------------------------------------

    def weight(self, w: complex) -> complex:
        """Canonicalize a weight through the complex table."""
        return self.ctable.lookup(w)

    def edge(self, w: complex, n: DDNode) -> Edge:
        """Build an edge with a canonical weight (zero collapses fully).

        Only use for weights of O(1) magnitude (node contents, cache-key
        ratios): the complex table buckets on an *absolute* grid, so
        canonicalizing a tiny weight would destroy its relative precision.
        Use :meth:`raw_edge` for returned/accumulated weights.
        """
        w = self.ctable.lookup(w)
        if w == 0:
            return ZERO_EDGE
        return Edge(w, n)

    @staticmethod
    def raw_edge(w: complex, n: DDNode) -> Edge:
        """Edge with an un-bucketed weight (zero still collapses)."""
        if abs(w.real) < TOLERANCE and abs(w.imag) < TOLERANCE:
            return ZERO_EDGE
        return Edge(w, n)

    # ------------------------------------------------------------------
    # Node factories (normalizing)
    # ------------------------------------------------------------------

    def make_vnode(self, level: int, e0: Edge, e1: Edge) -> Edge:
        """Create/reuse a normalized vector node; return its incoming edge."""
        self._check_level(level, e0, e1)
        if e0.is_zero and e1.is_zero:
            return ZERO_EDGE
        w0, w1 = e0.w, e1.w
        norm = math.sqrt(abs(w0) ** 2 + abs(w1) ** 2)
        lead = w0 if w0 != 0 else w1
        # Child weights come from the *raw* factor and are O(1), so their
        # canonicalization is relatively precise; the returned factor stays
        # un-bucketed (absolute-grid bucketing of an arbitrary-magnitude
        # weight would destroy relative precision and break canonicity).
        factor = norm * (lead / abs(lead))
        if norm < TOLERANCE:
            return ZERO_EDGE
        c0 = self.edge(w0 / factor, e0.n)
        c1 = self.edge(w1 / factor, e1.n)
        key = (level, c0.w, id(c0.n), c1.w, id(c1.n))
        node = self._vtable.get(key)
        if node is None:
            self.stats.unique_misses += 1
            node = self._new_node(level, (c0, c1))
            self._vtable[key] = node
            node.aidx = len(self._arena_w0)
            self._arena_w0.append(c0.w)
            self._arena_w1.append(c1.w)
            self._arena_c0.append(-1 if c0.is_zero else c0.n.aidx)
            self._arena_c1.append(-1 if c1.is_zero else c1.n.aidx)
            # vector_tables() detects staleness by size; no invalidation
            # needed (the arena is append-only).
        else:
            self.stats.unique_hits += 1
        return Edge(factor, node)

    def make_mnode(self, level: int, edges: Iterable[Edge]) -> Edge:
        """Create/reuse a normalized matrix node; return its incoming edge."""
        es = tuple(edges)
        if len(es) != 4:
            raise DDError(f"matrix node needs 4 edges, got {len(es)}")
        self._check_level(level, *es)
        if all(e.is_zero for e in es):
            return ZERO_EDGE
        max_mag = max(abs(e.w) for e in es)
        factor = next(
            e.w for e in es if abs(e.w) >= max_mag * (1.0 - TOLERANCE)
        )
        cs = tuple(self.edge(e.w / factor, e.n) for e in es)
        key = (level, cs[0].w, id(cs[0].n), cs[1].w, id(cs[1].n),
               cs[2].w, id(cs[2].n), cs[3].w, id(cs[3].n))
        node = self._mtable.get(key)
        if node is None:
            self.stats.unique_misses += 1
            node = self._new_node(level, cs)
            self._mtable[key] = node
        else:
            self.stats.unique_hits += 1
        return Edge(factor, node)

    def restore_vnode(
        self, level: int, e0: Edge, e1: Edge, idx: int | None = None
    ) -> DDNode:
        """Install an *already normalized* vector node without renormalizing.

        Checkpoint restore (:mod:`repro.resilience.snapshot`) must rebuild a
        DD whose child weights are bit-identical to the serialized ones;
        running them back through :meth:`make_vnode` would recompute the
        norm factor and could perturb the last ulp.  The caller guarantees
        the children came from a previous :meth:`make_vnode` normalization,
        so installing them verbatim keeps the unique table canonical and
        subsequent ``make_vnode`` calls hash-cons against the restored
        nodes as usual.

        ``idx`` restores the node's original creation index: DD addition
        breaks commutative-operand ties by creation order, so resumed
        arithmetic must see the same relative order the writer saw.  The
        package's creation counter advances past every restored index.
        """
        self._check_level(level, e0, e1)
        key = (level, e0.w, id(e0.n), e1.w, id(e1.n))
        node = self._vtable.get(key)
        if node is None:
            self.stats.unique_misses += 1
            node = self._new_node(level, (e0, e1))
            if idx is not None:
                node.idx = idx
                self._next_idx = max(self._next_idx, idx + 1)
            self._vtable[key] = node
            node.aidx = len(self._arena_w0)
            self._arena_w0.append(e0.w)
            self._arena_w1.append(e1.w)
            self._arena_c0.append(-1 if e0.is_zero else e0.n.aidx)
            self._arena_c1.append(-1 if e1.is_zero else e1.n.aidx)
        else:
            self.stats.unique_hits += 1
        return node

    def _new_node(self, level: int, edges: tuple[Edge, ...]) -> DDNode:
        node = DDNode(level, edges, self._next_idx)
        self._next_idx += 1
        self._nodes_created += 1
        live = len(self._vtable) + len(self._mtable) + 1
        if live > self._peak_nodes:
            self._peak_nodes = live
        return node

    @staticmethod
    def _check_level(level: int, *edges: Edge) -> None:
        for e in edges:
            if not e.is_zero and e.n.level != level - 1:
                raise DDError(
                    f"child at level {e.n.level} under node at level {level};"
                    " DDs must be full height"
                )

    # ------------------------------------------------------------------
    # Canonical building blocks
    # ------------------------------------------------------------------

    def vector_tables(self):
        """Flat numpy views of the vector-node arena (W0, W1, C0, C1).

        Extended lazily and *incrementally*: the arena is append-only, so a
        rebuild only converts the tail added since the last call.  Entries
        for collected nodes stay in place (arena indices are stable for a
        package's lifetime), which costs memory but keeps every edge valid.
        """
        import numpy as np

        total = len(self._arena_w0)
        if self._arena_cache is None or self._arena_cache[0].size != total:
            if self._arena_cache is None:
                built = 0
                prev = (
                    np.empty(0, dtype=np.complex128),
                    np.empty(0, dtype=np.complex128),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                )
            else:
                prev = self._arena_cache
                built = prev[0].size
            self._arena_cache = (
                np.concatenate(
                    (prev[0],
                     np.array(self._arena_w0[built:], dtype=np.complex128))
                ),
                np.concatenate(
                    (prev[1],
                     np.array(self._arena_w1[built:], dtype=np.complex128))
                ),
                np.concatenate(
                    (prev[2],
                     np.array(self._arena_c0[built:], dtype=np.int64))
                ),
                np.concatenate(
                    (prev[3],
                     np.array(self._arena_c1[built:], dtype=np.int64))
                ),
            )
        return self._arena_cache

    def zero_edge(self) -> Edge:
        return ZERO_EDGE

    def one_edge(self) -> Edge:
        return ONE_EDGE

    def identity_edge(self, level: int) -> Edge:
        """Identity matrix DD covering levels ``[0..level]`` (inclusive).

        ``level = -1`` is the scalar 1 (the terminal edge).
        """
        if level < 0:
            return ONE_EDGE
        cached = self._identity.get(level)
        if cached is None:
            below = self.identity_edge(level - 1)
            cached = self.make_mnode(level, (below, ZERO_EDGE, ZERO_EDGE, below))
            self._identity[level] = cached
        return cached

    # ------------------------------------------------------------------
    # Statistics / memory accounting hooks
    # ------------------------------------------------------------------

    @property
    def vector_node_count(self) -> int:
        return len(self._vtable)

    @property
    def matrix_node_count(self) -> int:
        return len(self._mtable)

    @property
    def unique_node_count(self) -> int:
        return len(self._vtable) + len(self._mtable)

    @property
    def nodes_created(self) -> int:
        return self._nodes_created

    @property
    def peak_node_count(self) -> int:
        return self._peak_nodes

    def clear_compute_tables(self) -> None:
        """Drop operation memoization (safe at any time; only a cache)."""
        self.cache_vadd.clear()
        self.cache_madd.clear()
        self.cache_mv.clear()
        self.cache_mm.clear()
        self.cache_inner.clear()

    def _compute_caches(self) -> tuple[dict, ...]:
        return (
            self.cache_vadd, self.cache_madd, self.cache_mv,
            self.cache_mm, self.cache_inner,
        )

    def build_mark(self) -> dict:
        """Transactional rewind point covering everything a DD build mutates.

        DD weight arithmetic is history-dependent: the add memos are
        rescaling-invariant (keyed on node ids plus a bucketed weight
        ratio) and a hit reconstructs its result as ``a.w * cached.w`` --
        numerically equal to the fresh computation but not always
        bit-equal in the last ulp -- and DD addition breaks commutative
        ties by node *creation index*.  Replaying several rows' gate
        builds on one package therefore needs an *exact* rollback between
        rows, or a later row would see entries (and creation orders) an
        earlier row left behind and round differently than it would have
        alone.

        Every structure a build touches -- unique tables, complex table,
        compute memos, identity chains, analysis caches, the creation
        counter -- is insert-only between garbage collections, so its
        state is fully described by its insertion prefix and the mark is
        a handful of lengths.  :meth:`rewind_to_mark` pops each dict back
        down (LIFO insertion order), which costs O(entries added) rather
        than the O(table size) of a copy-based snapshot.
        """
        return {
            "gc_epoch": self.gc_epoch,
            "vtable": len(self._vtable),
            "mtable": len(self._mtable),
            "next_idx": self._next_idx,
            "nodes_created": self._nodes_created,
            "ctable": self.ctable.mark(),
            "caches": tuple(len(c) for c in self._compute_caches()),
            "identity": len(self._identity),
            "dense": len(self.dense_cache),
            "flags": len(self.identity_flags),
            "mac": len(self.mac_counts),
            "kron": len(self.kron_cache),
            "arena": len(self._arena_w0),
        }

    def rewind_to_mark(self, mark: dict) -> None:
        """Exact rollback to a :meth:`build_mark` point.

        Nodes created since the mark are evicted from the unique tables
        (callers keep the edges they need alive; a node object stays
        structurally valid forever) and the creation counter rewinds so
        the next build assigns the same indices a fresh replay would.
        Raises :class:`~repro.common.errors.DDError` if a garbage
        collection ran since the mark: GC rebuilds tables wholesale, so
        the insertion-prefix invariant the trim relies on no longer
        holds.
        """
        if mark["gc_epoch"] != self.gc_epoch:
            raise DDError("cannot rewind a build mark across a GC")
        _trim(self._vtable, mark["vtable"])
        _trim(self._mtable, mark["mtable"])
        self._next_idx = mark["next_idx"]
        self._nodes_created = mark["nodes_created"]
        self.ctable.rewind(mark["ctable"])
        for cache, size in zip(self._compute_caches(), mark["caches"]):
            _trim(cache, size)
        _trim(self._identity, mark["identity"])
        _trim(self.dense_cache, mark["dense"])
        _trim(self.identity_flags, mark["flags"])
        _trim(self.mac_counts, mark["mac"])
        _trim(self.kron_cache, mark["kron"])
        arena = mark["arena"]
        if len(self._arena_w0) > arena:
            del self._arena_w0[arena:]
            del self._arena_w1[arena:]
            del self._arena_c0[arena:]
            del self._arena_c1[arena:]
            # vector_tables() extends incrementally and assumes growth;
            # a cache built past the mark must be dropped, not shrunk.
            if (
                self._arena_cache is not None
                and self._arena_cache[0].size > arena
            ):
                self._arena_cache = None

    def collect_garbage(self, roots: Iterable[Edge]) -> int:
        """Mark-and-sweep the unique tables, keeping only ``roots``' nodes.

        Compute tables and analysis caches are cleared as well (they may
        reference swept nodes).  Returns the number of nodes removed.
        DDSIM performs the same collection when its tables grow; we expose
        it so long simulations keep their Python dicts small.
        """
        live: set[int] = {id(TERMINAL)}
        stack = [r.n for r in roots if not r.is_zero]
        # Identity chains are cheap and perpetually useful; keep them live.
        stack.extend(e.n for e in self._identity.values())
        while stack:
            node = stack.pop()
            if id(node) in live:
                continue
            live.add(id(node))
            stack.extend(e.n for e in node.edges if not e.is_zero)
        removed = 0
        for table in (self._vtable, self._mtable):
            dead = [k for k, v in table.items() if id(v) not in live]
            removed += len(dead)
            for k in dead:
                del table[k]
        self.clear_compute_tables()
        self.dense_cache = {
            k: v for k, v in self.dense_cache.items() if k in live
        }
        self.identity_flags = {
            k: v for k, v in self.identity_flags.items() if k in live
        }
        self.mac_counts = {
            k: v for k, v in self.mac_counts.items() if k in live
        }
        self.kron_cache = {
            k: v
            for k, v in self.kron_cache.items()
            if (k[0] if isinstance(k, tuple) else k) in live
        }
        self.gc_epoch += 1
        self.stats.gc_runs += 1
        self.stats.gc_nodes_reclaimed += removed
        return removed

    def checkpoint_barrier(self, roots: Iterable[Edge]) -> int:
        """Reset every piece of history-dependent acceleration state.

        Called by the simulator at checkpoint cuts (and at the DD-to-array
        conversion of checkpoint-enabled runs) so the writer's
        continuation and a process resumed from the snapshot evolve from
        *identical* package state: compute caches empty (their bucketed
        ratio keys make hits history-dependent at the ulp level), unique
        tables holding exactly the ``roots``' nodes, and identity chains
        dropped so both sides rebuild them at the same point in the
        instruction stream.  Value changes stay within the normalization
        tolerance; bit-identity across the cut is what this buys.
        """
        self._identity.clear()
        return self.collect_garbage(roots)
