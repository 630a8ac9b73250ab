"""Read similarity functions F for CLOSET (Sec. 4.1).

The framework accepts any pairwise similarity; two are provided:

- :func:`kmer_containment` — the sketch-compatible default:
  ``|H_i ∩ H_j| / min(|H_i|, |H_j|)`` over hashed k-mer sets.  The
  min-denominator captures containment so a read nested inside a
  longer one scores 100% (Sec. 4.3.1);
- :func:`banded_alignment_identity` — an optional alignment-based F
  (banded Needleman-Wunsch identity) for validation experiments.

:class:`HashSetTable` scores many pairs at once, bit for bit as
:func:`kmer_containment` does; edge validation runs it.

Hashing uses a splitmix64-style integer finalizer, vectorized over
packed k-mer codes.
"""

from __future__ import annotations

import numpy as np

from ...io.readset import ReadSet
from ...seq.encoding import kmer_codes_from_sequence, valid_kmer_mask


def hash64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — maps packed k-mers to 64-bit hashes."""
    x = np.asarray(values, dtype=np.uint64).copy()
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def read_hash_sets(reads: ReadSet, k: int) -> list[np.ndarray]:
    """Sorted unique k-mer hash set ``H_i`` of every read."""
    out: list[np.ndarray] = []
    for i in range(reads.n_reads):
        codes = reads.read_codes(i)
        if codes.size < k:
            out.append(np.empty(0, dtype=np.uint64))
            continue
        safe = np.where(codes < 4, codes, 0)
        kmers = kmer_codes_from_sequence(safe, k)
        valid = valid_kmer_mask(codes[None, :], k)[0]
        out.append(np.unique(hash64(kmers[valid])))
    return out


def intersect_size_sorted(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| for sorted unique uint64 arrays."""
    if a.size == 0 or b.size == 0:
        return 0
    if a.size > b.size:
        a, b = b, a
    idx = np.searchsorted(b, a)
    idx = np.minimum(idx, b.size - 1)
    return int((b[idx] == a).sum())


def kmer_containment(h_a: np.ndarray, h_b: np.ndarray) -> float:
    """``|H_a ∩ H_b| / min(|H_a|, |H_b|)`` (0 when either is empty)."""
    denom = min(h_a.size, h_b.size)
    if denom == 0:
        return 0.0
    return intersect_size_sorted(h_a, h_b) / denom


class HashSetTable:
    """Every read's hash set as dense ids in one flat CSR array.

    Read ``i``'s ids are ``ids[offsets[i]:offsets[i + 1]]``, ascending;
    equal ids mean equal hashes.  Built once per read set and shipped
    read-only to the validation reducers (Hadoop's distributed cache),
    it scores a read against all its partners in one numpy pass.  Its
    marker buffer is reused across calls: one table per thread.
    """

    def __init__(self, hash_sets: list[np.ndarray]):
        sizes = [h.size for h in hash_sets]
        self.offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        flat = np.concatenate([np.empty(0, dtype=np.uint64), *hash_sets])
        universe, self.ids = np.unique(flat, return_inverse=True)
        self.n_ids = universe.size
        self._mark: np.ndarray | None = None

    def containment(self, rid: int, partners) -> np.ndarray:
        """``kmer_containment(H_rid, H_p)`` for each ``p``, bit for bit.

        Marks ``rid``'s ids, gathers all partners' ids back to back and
        sums the marks per partner run; the quotient is the oracle's
        integer division.
        """
        partners = np.asarray(partners, dtype=np.int64)
        starts = self.offsets[partners]
        sizes = self.offsets[partners + 1] - starts
        ends = np.cumsum(sizes)
        gather = np.arange(ends[-1] if ends.size else 0)
        gather += np.repeat(starts - ends + sizes, sizes)
        if self._mark is None:
            self._mark = np.zeros(self.n_ids, dtype=bool)
        own = self.ids[self.offsets[rid] : self.offsets[rid + 1]]
        self._mark[own] = True
        hits = np.concatenate([[0], np.cumsum(self._mark[self.ids[gather]])])
        self._mark[own] = False
        denom = np.minimum(sizes, own.size)
        out = np.zeros(partners.size, dtype=np.float64)
        return np.divide(hits[ends] - hits[ends - sizes], denom, out=out, where=denom > 0)

    def pair_containment(self, pairs) -> np.ndarray:
        """Containment of each row of an ``(E, 2)`` pair array."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        out = np.empty(pairs.shape[0], dtype=np.float64)
        order = np.argsort(pairs[:, 0], kind="stable")
        rids, firsts = np.unique(pairs[order, 0], return_index=True)
        for rid, rows in zip(rids.tolist(), np.split(order, firsts[1:])):
            out[rows] = self.containment(rid, pairs[rows, 1])
        return out


def banded_alignment_identity(
    codes_a: np.ndarray, codes_b: np.ndarray, band: int = 32
) -> float:
    """Identity of a banded global alignment, normalized by the
    shorter read (so containment still scores high).

    Row-wise NumPy DP restricted to a diagonal band — O(len·band).
    """
    a = np.asarray(codes_a, dtype=np.int16)
    b = np.asarray(codes_b, dtype=np.int16)
    n, m = a.size, b.size
    if n == 0 or m == 0:
        return 0.0
    if n > m:
        a, b, n, m = b, a, m, n
    band = max(band, abs(m - n) + 1)
    NEG = -10**6
    # score[j] = best #matches aligning a[:i] with b[:j], band-limited.
    prev = np.full(m + 1, 0, dtype=np.int64)  # i = 0: gaps are free-ish
    for i in range(1, n + 1):
        lo = max(1, i - band)
        hi = min(m, i + band)
        cur = np.full(m + 1, NEG, dtype=np.int64)
        seg = slice(lo, hi + 1)
        match = (b[lo - 1 : hi] == a[i - 1]).astype(np.int64)
        diag = prev[lo - 1 : hi] + match
        up = prev[seg]  # gap in b
        cur[seg] = np.maximum(diag, up)
        # gap in a: left neighbor — sequential, resolve with cummax trick.
        np.maximum.accumulate(cur[seg], out=cur[seg])
        prev = cur
    best = int(prev[max(1, n - band) :].max())
    return best / n


def pairwise_similarity_matrix(
    reads: ReadSet, k: int, pairs: np.ndarray
) -> np.ndarray:
    """``kmer_containment`` evaluated on an ``(E, 2)`` pair index array."""
    return HashSetTable(read_hash_sets(reads, k)).pair_containment(pairs)
