"""Masked-replica index for d-neighborhood retrieval (Sec. 2.3).

Reptile's space/time trade-off for finding all spectrum k-mers within
Hamming distance ``d`` of a query: replicate the sorted spectrum
``C(c, d)`` times, each replica sorted after *masking out* a different
choice of ``d`` of ``c`` position-chunks.  Any two k-mers differing in
at most ``d`` positions agree exactly under at least one mask (their
differing positions fall into at most ``d`` chunks, all of which some
replica masks away), so a binary-search range scan per replica finds
every true neighbor; a final Hamming filter discards spurious hits.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..seq.distance import kmer_hamming


def _chunk_positions(k: int, c: int) -> list[list[int]]:
    """Split positions ``0..k-1`` into ``c`` nearly-even chunks."""
    bounds = np.linspace(0, k, c + 1).astype(int)
    return [list(range(bounds[i], bounds[i + 1])) for i in range(c)]


def _mask_for_positions(k: int, positions: list[int]) -> int:
    """uint64 mask that *keeps* all 2-bit groups except ``positions``."""
    mask = (1 << (2 * k)) - 1
    for p in positions:
        mask &= ~(3 << (2 * (k - 1 - p)))
    return mask


class MaskedKmerIndex:
    """Exact d-neighborhood queries against a fixed sorted k-mer set."""

    def __init__(self, kmers: np.ndarray, k: int, d: int, c: int | None = None):
        self.k = int(k)
        self.d = int(d)
        if c is None:
            # A small default: enough chunks that each masked chunk is
            # a few bases wide, keeping per-replica hit lists short.
            c = min(k, max(d + 1, k // 3))
        if not (d < c <= k):
            raise ValueError("need d < c <= k")
        self.c = int(c)
        self.kmers = np.asarray(kmers, dtype=np.uint64)
        if self.kmers.size > 1 and not (self.kmers[:-1] <= self.kmers[1:]).all():
            raise ValueError("kmers must be sorted")

        chunks = _chunk_positions(self.k, self.c)
        self._masks: list[np.uint64] = []
        self._sorted_masked: list[np.ndarray] = []
        self._orders: list[np.ndarray] = []
        for chosen in combinations(range(self.c), self.d):
            positions = [p for ci in chosen for p in chunks[ci]]
            mask = np.uint64(_mask_for_positions(self.k, positions))
            masked = self.kmers & mask
            order = np.argsort(masked, kind="stable")
            self._masks.append(mask)
            self._sorted_masked.append(masked[order])
            self._orders.append(order)

    @property
    def n_replicas(self) -> int:
        return len(self._masks)

    def memory_bytes(self) -> int:
        """Approximate memory of the replicated structures."""
        return sum(a.nbytes for a in self._sorted_masked) + sum(
            a.nbytes for a in self._orders
        )

    def neighbors(self, code: int, include_self: bool = False) -> np.ndarray:
        """All indexed k-mers within Hamming distance ``d`` of ``code``.

        Returns the matching codes (sorted, deduplicated).
        """
        code_u = np.uint64(code)
        hits: list[np.ndarray] = []
        for mask, sorted_masked, order in zip(
            self._masks, self._sorted_masked, self._orders
        ):
            key = code_u & mask
            lo = int(np.searchsorted(sorted_masked, key, side="left"))
            hi = int(np.searchsorted(sorted_masked, key, side="right"))
            if hi > lo:
                hits.append(self.kmers[order[lo:hi]])
        if not hits:
            return np.empty(0, dtype=np.uint64)
        cand = np.unique(np.concatenate(hits))
        dist = kmer_hamming(cand, np.full(cand.shape, code_u, dtype=np.uint64))
        keep = dist <= self.d
        if not include_self:
            keep &= cand != code_u
        return cand[keep]

    def neighbors_batch(
        self, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(values, indptr)`` of :meth:`neighbors` for many codes
        (row ``i`` is ``values[indptr[i]:indptr[i+1]]``)."""
        rows = [
            self.neighbors(code)
            for code in np.asarray(codes, dtype=np.uint64).ravel().tolist()
        ]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([r.size for r in rows], out=indptr[1:])
        values = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.uint64)
        )
        return values, indptr
