"""Canonical complex-number table (DDSIM's complex package [98]).

DD canonicity requires that numerically equal edge weights be *the same*
hashable value, despite floating-point round-off.  DDSIM solves this with a
hash table of complex numbers looked up within a tolerance; we reproduce the
same idea: every weight entering a DD is funneled through
:meth:`ComplexTable.lookup`, which buckets values by rounding and returns a
single representative per bucket.

The table also powers the analytic memory model: the paper's DD simulators
account real memory for stored complex values, so we expose ``entry_count``.
"""

from __future__ import annotations

from repro.common.config import CTABLE_DECIMALS, TOLERANCE

__all__ = ["ComplexTable"]


class ComplexTable:
    """Interning table for edge weights.

    ``lookup`` maps any complex number to a canonical representative such
    that values within :data:`repro.common.config.TOLERANCE` of each other
    collapse to the same object.  Exact 0 and 1 are pre-seeded since they
    are by far the most common weights.
    """

    __slots__ = ("_table", "_hits", "_misses", "_distinct")

    def __init__(self) -> None:
        self._table: dict[tuple[int, int], complex] = {}
        self._hits = 0
        self._misses = 0
        self._distinct = 0
        # Pre-seed the ubiquitous constants so they are bucket representatives.
        for c in (0j, 1 + 0j, -1 + 0j, 1j, -1j):
            self._table[self._key(c)] = c
            self._distinct += 1

    #: Scale factor implementing round-to-CTABLE_DECIMALS via integer
    #: rounding (round(x) is much cheaper than round(x, n) in CPython, and
    #: integer keys also sidestep the -0.0 bucketing issue).
    _SCALE = 10.0 ** CTABLE_DECIMALS

    @classmethod
    def _key(cls, c: complex) -> tuple[int, int]:
        return (round(c.real * cls._SCALE), round(c.imag * cls._SCALE))

    def lookup(self, c: complex) -> complex:
        """Return the canonical representative for ``c``.

        Values within TOLERANCE of zero collapse to exact ``0j`` (the paper's
        algorithms branch on "zero edge", so near-zeros must become exact).
        Values that land within TOLERANCE of an existing representative but
        in an adjacent rounding bucket are aliased to it, so canonicity does
        not break at bucket boundaries (the neighbor-probing trick of
        DDSIM's complex package [98]).
        """
        if abs(c.real) < TOLERANCE and abs(c.imag) < TOLERANCE:
            return 0j
        key = self._key(c)
        found = self._table.get(key)
        if found is not None:
            self._hits += 1
            return found
        # Probe the eight neighbouring buckets before declaring a new value.
        kr, ki = key
        for dr in (-1, 0, 1):
            for di in (-1, 0, 1):
                if dr == 0 and di == 0:
                    continue
                near = self._table.get((kr + dr, ki + di))
                if near is not None and abs(near - c) < TOLERANCE:
                    # Alias this bucket so future lookups are O(1).
                    self._table[key] = near
                    self._hits += 1
                    return near
        self._misses += 1
        self._distinct += 1
        c = complex(c)
        self._table[key] = c
        return c

    # ------------------------------------------------------------------
    # Snapshot support (repro.resilience)
    # ------------------------------------------------------------------

    def dump(self) -> dict:
        """Exact snapshot of the table for checkpointing.

        Bit-identical resume requires reproducing not just the DD but the
        *canonicalization history*: which representative a future ``lookup``
        returns depends on every bucket (aliases included) present at that
        moment.  Values are serialized as ``float.hex`` pairs so the
        round-trip is exact.
        """
        return {
            "buckets": [
                [kr, ki, v.real.hex(), v.imag.hex()]
                for (kr, ki), v in self._table.items()
            ],
            "distinct": self._distinct,
            "hits": self._hits,
            "misses": self._misses,
        }

    def restore(self, payload: dict) -> None:
        """Replace the table contents with a :meth:`dump` snapshot."""
        self._table = {
            (int(kr), int(ki)): complex(
                float.fromhex(re), float.fromhex(im)
            )
            for kr, ki, re, im in payload["buckets"]
        }
        self._distinct = int(payload["distinct"])
        self._hits = int(payload["hits"])
        self._misses = int(payload["misses"])

    @property
    def entry_count(self) -> int:
        """Number of distinct canonical values stored (aliases excluded)."""
        return self._distinct

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        return self._distinct
