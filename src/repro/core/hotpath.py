"""Hot-path acceleration knobs shared by the correctors.

Two independent, individually switchable fast paths (both exact —
every configuration produces byte-identical corrections, proven by
``tests/test_hotpath_equivalence.py``):

- **batch** — chunk-level precompute of per-window tile codes and Og
  counts (:func:`repro.kmer.tiles.tile_og_rows`) feeding the tiling
  walk, plus the ``og >= cg`` instant-VALID short-circuit that skips
  candidate enumeration entirely for well-supported tiles (the
  dominant case at realistic coverage);
- **memo** — a bounded cache of Algorithm 1 rules keyed by
  ``(tile_code, d1, d2)``: real datasets repeat the same error context
  many times, and the rule is a pure function of that key for fixed
  tables/thresholds (see :class:`~repro.core.reptile.tile_correct.TileRule`
  for why the quality gate is split out).

Fork-safety contract (for future REP3xx lint work): the memo cache is
held on the corrector *instance*, never at module scope, so forked
workers each get a copy-on-write snapshot and mutate only their own;
hit/miss/evict counters are harvested per chunk into the stats dict
and merged by the parallel engine exactly like the other counters.
A memo cache must never be shared through module globals — that is
precisely the REP301 hazard the engine's install-before-fork pattern
exists to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle through reptile
    from .reptile.tile_correct import TileRule


@dataclass(frozen=True)
class HotpathConfig:
    """Which hot-path accelerations are active, and their sizing."""

    batch: bool = True
    memo: bool = True
    #: Max rules held before bulk eviction (per worker process).
    memo_capacity: int = 1 << 20
    #: Bloom false-positive rate; only perfbench's ``kmer-probe`` reads it.
    prefilter_fp_rate: float = 0.01

    @classmethod
    def all_on(cls) -> "HotpathConfig":
        return cls()

    @classmethod
    def all_off(cls) -> "HotpathConfig":
        """The legacy scalar path — the ablation baseline."""
        return cls(batch=False, memo=False)

    @property
    def any_on(self) -> bool:
        return self.batch or self.memo


class TileMemoCache:
    """Bounded FIFO memo of Algorithm 1 rules.

    Keys are ``(tile_code, d1, d2)``; values are
    :class:`~repro.core.reptile.tile_correct.TileRule`.  The cache is
    only sound while the spectrum/tile tables and thresholds backing
    the rules stay fixed — one cache per fitted corrector, never
    shared across fits.

    Eviction is bulk FIFO: when full, the oldest half is dropped in one
    pass (dict preserves insertion order), keeping the hot recent
    window without per-hit bookkeeping.
    """

    def __init__(self, capacity: int = 1 << 20):
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self.capacity = int(capacity)
        self._store: dict[tuple[int, int, int], TileRule] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: tuple[int, int, int]) -> TileRule | None:
        rule = self._store.get(key)
        if rule is None:
            self.misses += 1
        else:
            self.hits += 1
        return rule

    def put(self, key: tuple[int, int, int], rule: TileRule) -> None:
        if key in self._store:
            return
        if len(self._store) >= self.capacity:
            drop = len(self._store) - self.capacity // 2
            for stale in list(self._store.keys())[:drop]:
                del self._store[stale]
            self.evictions += drop
        self._store[key] = rule

    def reset_counters(self) -> None:
        """Zero the telemetry counters without touching the cached
        rules.  Runs that report per-chunk deltas call this on entry so
        a preceding *unreported* run (e.g. a plain ``correct()`` on the
        same corrector) cannot leak its pending counts into the next
        harvest."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def harvest(self) -> dict[str, int]:
        """Return and reset the counters (per-chunk delta reporting,
        merged downstream by the parallel engine)."""
        out = {
            "hotpath.memo_hits": self.hits,
            "hotpath.memo_misses": self.misses,
            "hotpath.memo_evictions": self.evictions,
        }
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        return out
