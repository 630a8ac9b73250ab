"""Warm shared-spectrum pool: repeat jobs skip the accumulation pass.

Building a corrector is the dominant fixed cost of a correction job —
the k-mer spectrum and tile tables are accumulated from every read
before a single base is corrected.  In a serving deployment the same
genome is corrected over and over (new read batches, re-runs, report
regeneration), so :class:`SpectrumPool` caches *fitted correctors*
keyed by everything that determines the fitted structures:

``(input fingerprint, method, k, genome_length, stream, on_error)``

- **Input fingerprint** is the content hash of the input FASTQ alone
  (:meth:`repro.service.spec.JobSpec.input_fingerprint`) — output
  paths, worker counts, chunk sizes, and report destinations do not
  fragment the pool.
- **Bounded LRU, bytes budget.** Entry sizes are measured by walking
  the fitted corrector for numpy arrays (spectrum codes/counts, tile
  tables, neighbor index) and summing ``nbytes``; least recently
  used entries are evicted until both the byte budget and the entry
  cap hold.  An entry larger than the whole budget is returned to its
  builder but never retained.
- **One build per key.** Concurrent workers asking for the same key
  coordinate through a per-key build latch: exactly one builds, the
  rest wait and take the cache hit.  A failed build releases the latch
  so a later attempt can retry.
- **Fork-safe COW handoff.** Entries are never mutated after insert;
  forked correction workers inherit the arrays copy-on-write exactly
  like the parallel engine's ``_WORKER_STATE`` handoff, so a pool hit
  costs no copying.  (Reptile's rule table lives inside one
  correction run, so nothing on a pooled corrector changes between
  jobs; see docs/performance.md.)

Hit/miss/evict counters feed job reports and ``GET /v1/metrics``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from .spec import JobSpec

__all__ = ["PoolKey", "PoolEntry", "SpectrumPool", "estimate_nbytes"]

#: Hashable cache key; see module docstring for the fields.
PoolKey = tuple


def estimate_nbytes(obj: Any, _depth: int = 0, _seen: set | None = None) -> int:
    """Sum ``nbytes`` of every numpy array reachable from ``obj``.

    A bounded structural walk (attribute dicts, sequences, mappings, a
    few levels deep) rather than a corrector-specific inventory, so new
    corrector fields are counted without pool changes.  Python-object
    overhead is ignored: the arrays *are* the memory story here.
    """
    if _seen is None:
        _seen = set()
    if id(obj) in _seen or _depth > 4:
        return 0
    _seen.add(id(obj))
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int) and hasattr(obj, "dtype"):
        return int(nbytes)
    total = 0
    if isinstance(obj, dict):
        for value in obj.values():
            total += estimate_nbytes(value, _depth + 1, _seen)
        return total
    if isinstance(obj, (list, tuple)):
        for value in obj:
            total += estimate_nbytes(value, _depth + 1, _seen)
        return total
    attrs = getattr(obj, "__dict__", None)
    if isinstance(attrs, dict):
        for value in attrs.values():
            total += estimate_nbytes(value, _depth + 1, _seen)
    return total


@dataclass(frozen=True)
class PoolEntry:
    """One cached fitted corrector plus its build-time metadata.

    ``meta`` carries whatever the builder needs to replay on a hit —
    the stream runner stores the pass-A read count there so a warm job
    can skip the scan entirely.  Frozen: entries are shared across
    threads and forked workers and must never be mutated in place.
    """

    key: PoolKey
    corrector: Any
    nbytes: int
    meta: dict = field(default_factory=dict)


class SpectrumPool:
    """Thread-safe bounded LRU of fitted correctors.

    ``max_bytes`` bounds the summed array payload; ``max_entries``
    bounds count (useful when inputs are tiny and the byte budget
    alone would let thousands of entries accumulate).
    """

    def __init__(
        self,
        max_bytes: int = 1 << 30,
        max_entries: int = 8,
    ) -> None:
        if max_bytes < 0 or max_entries < 0:
            raise ValueError("max_bytes and max_entries must be >= 0")
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[PoolKey, PoolEntry] = OrderedDict()
        self._bytes = 0
        self._building: dict[PoolKey, threading.Event] = {}
        self._counters = {"hits": 0, "misses": 0, "evictions": 0}

    # -- keys ---------------------------------------------------------
    @staticmethod
    def key_for(spec: JobSpec) -> PoolKey:
        """The cache key for a job spec (hashes the input file).

        ``stream`` is part of the key even though streamed and batch
        fits are bitwise-equivalent — the cached *metadata* differs
        (stream entries carry pass-A state) and conservatism is free
        here.  ``on_error`` changes which reads survive parsing, so it
        changes the fitted structures.
        """
        return (
            spec.input_fingerprint(),
            spec.method,
            spec.k,
            spec.genome_length,
            bool(spec.stream),
            spec.on_error,
        )

    # -- cache mechanics ----------------------------------------------
    def _evict_over_budget_locked(self) -> None:
        while self._entries and (
            self._bytes > self.max_bytes
            or len(self._entries) > self.max_entries
        ):
            _key, entry = self._entries.popitem(last=False)
            self._bytes -= entry.nbytes
            self._counters["evictions"] += 1

    def _lookup(self, key: PoolKey) -> PoolEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._counters["hits"] += 1
            return entry

    def get_or_build(
        self,
        key: PoolKey,
        builder: Callable[[], tuple[Any, dict]],
    ) -> tuple[PoolEntry, bool]:
        """Return ``(entry, hit)``; build (once) on miss.

        ``builder`` runs *outside* the pool lock (builds take seconds)
        and returns ``(corrector, meta)``.  Concurrent callers with
        the same key wait on the builder's latch and then take the
        hit path; if the build raises, one waiter is released to
        retry the build itself.
        """
        while True:
            entry = self._lookup(key)
            if entry is not None:
                return entry, True
            with self._lock:
                # Re-check under the lock: a builder may have finished
                # between the miss and here.
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._counters["hits"] += 1
                    return entry, True
                latch = self._building.get(key)
                if latch is None:
                    self._building[key] = threading.Event()
                    break
            latch.wait()
        try:
            corrector, meta = builder()
            entry = PoolEntry(
                key=key,
                corrector=corrector,
                nbytes=estimate_nbytes(corrector),
                meta=dict(meta),
            )
            with self._lock:
                self._counters["misses"] += 1
                if entry.nbytes <= self.max_bytes and self.max_entries > 0:
                    self._entries[key] = entry
                    self._entries.move_to_end(key)
                    self._bytes += entry.nbytes
                    self._evict_over_budget_locked()
            return entry, False
        finally:
            with self._lock:
                latch = self._building.pop(key, None)
            if latch is not None:
                latch.set()

    # -- introspection ------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counters plus current occupancy, one serializable dict."""
        with self._lock:
            return {
                **self._counters,
                "entries": len(self._entries),
                "bytes": self._bytes,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
