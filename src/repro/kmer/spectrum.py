"""k-spectrum: the multiset of k-mers occurring in a read set or genome.

Stored as a sorted unique ``uint64`` code array plus counts, so
membership and count queries are vectorized ``np.searchsorted`` calls
— the memory-bounded representation Reptile relies on (Sec. 2.2):
``|R^k| = O(min(4^k, n(L-k+1)))`` regardless of input size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..io.readset import ReadSet
from ..seq.encoding import (
    check_k,
    kmer_codes_from_reads,
    kmer_codes_from_sequence,
    revcomp_kmer_codes,
    valid_kmer_mask,
)
from .prefilter import MIN_PREFILTER_BATCH, BloomPrefilter


@dataclass
class KmerSpectrum:
    """Sorted unique k-mer codes with occurrence counts.

    An optional :class:`~repro.kmer.prefilter.BloomPrefilter` fronts
    the sorted-array lookups: codes the filter rejects are answered
    absent in O(1) without the binary search.  Because the filter has
    zero false negatives, attaching one never changes any answer —
    it is a pure fast path.
    """

    k: int
    kmers: np.ndarray  # sorted uint64
    counts: np.ndarray  # int64, aligned with kmers
    #: Optional Bloom prefilter over ``kmers`` (never affects results).
    #: Its only remaining caller is perfbench's ``kmer-probe``.
    prefilter: BloomPrefilter | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.kmers = np.asarray(self.kmers, dtype=np.uint64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.kmers.shape != self.counts.shape:
            raise ValueError("kmers/counts shape mismatch")

    def with_prefilter(self, fp_rate: float = 0.01) -> "KmerSpectrum":
        """Copy of this spectrum (sharing its arrays) with a Bloom
        prefilter built over its k-mers; returns ``self`` if one is
        already attached."""
        if self.prefilter is not None:
            return self
        return replace(
            self, prefilter=BloomPrefilter.from_codes(self.kmers, fp_rate)
        )

    @property
    def n_kmers(self) -> int:
        return self.kmers.size

    def __len__(self) -> int:
        return self.n_kmers

    def __contains__(self, code: int) -> bool:
        # Explicit empty guard: membership in an empty spectrum is a
        # legitimate query (e.g. a chunk whose reads were all < k) and
        # must answer False, never raise.
        if self.kmers.size == 0:
            return False
        i = int(np.searchsorted(self.kmers, np.uint64(code)))
        return i < self.kmers.size and self.kmers[i] == np.uint64(code)

    def index_of(self, codes: np.ndarray) -> np.ndarray:
        """Index of each code in the spectrum, or -1 if absent."""
        codes = np.asarray(codes, dtype=np.uint64)
        if self.kmers.size == 0:
            return np.full(codes.shape, -1, dtype=np.int64)
        if self.prefilter is not None and codes.size >= MIN_PREFILTER_BATCH:
            # Zero false negatives => codes the filter rejects are
            # certainly absent; only the survivors hit the binary
            # search.  Result is exactly the unfiltered answer.
            # (Tiny batches skip the filter — hashing costs more than
            # the binary search it would save.)
            maybe = self.prefilter.maybe_contains(codes)
            out = np.full(codes.shape, -1, dtype=np.int64)
            if np.any(maybe):
                sub = codes[maybe]
                idx = np.searchsorted(self.kmers, sub)
                idx_c = np.minimum(idx, self.kmers.size - 1)
                found = self.kmers[idx_c] == sub
                out[maybe] = np.where(found, idx_c, -1)
            return out
        idx = np.searchsorted(self.kmers, codes)
        idx_clipped = np.minimum(idx, self.kmers.size - 1)
        found = self.kmers[idx_clipped] == codes
        return np.where(found, idx_clipped, -1).astype(np.int64)

    def contains(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized membership test."""
        return self.index_of(codes) >= 0

    def count(self, codes: np.ndarray) -> np.ndarray:
        """Occurrence count of each code (0 if absent)."""
        idx = self.index_of(codes)
        out = np.zeros(idx.shape, dtype=np.int64)
        hit = idx >= 0
        out[hit] = self.counts[idx[hit]]
        return out

    def count_scalar(self, code: int) -> int:
        return int(self.count(np.array([code], dtype=np.uint64))[0])


def read_kmer_codes(
    reads: ReadSet, k: int, both_strands: bool = True
) -> np.ndarray:
    """Flat array of all valid (N-free, in-bounds) k-mer codes in a
    read set, optionally including each k-mer's reverse complement.

    ``k`` is validated up front so an out-of-range value raises even
    when every read is shorter than ``k`` (previously that combination
    silently returned an empty array); reads shorter than a *valid*
    ``k`` simply contribute nothing.
    """
    check_k(k)
    pieces: list[np.ndarray] = []
    lengths = reads.lengths
    for ln in np.unique(lengths):
        if ln < k:
            continue
        rows = np.flatnonzero(lengths == ln)
        block = reads.codes[rows, :ln]
        valid = valid_kmer_mask(block, k)
        safe = np.where(block < 4, block, 0)
        codes = kmer_codes_from_reads(safe, k)[valid]
        pieces.append(codes)
        if both_strands:
            pieces.append(revcomp_kmer_codes(codes, k))
    if not pieces:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(pieces)


def spectrum_from_reads(
    reads: ReadSet, k: int, both_strands: bool = True
) -> KmerSpectrum:
    """Build the k-spectrum of a read set (forward + reverse strands by
    default, as Reptile does: 'R^k is already generated using both
    strands', Sec. 2.3)."""
    codes = read_kmer_codes(reads, k, both_strands=both_strands)
    kmers, counts = np.unique(codes, return_counts=True)
    return KmerSpectrum(k=k, kmers=kmers, counts=counts.astype(np.int64))


def spectrum_from_sequence(
    seq_codes: np.ndarray, k: int, both_strands: bool = False
) -> KmerSpectrum:
    """k-spectrum of one long sequence (e.g. the reference genome)."""
    check_k(k)
    codes = kmer_codes_from_sequence(
        np.where(np.asarray(seq_codes) < 4, seq_codes, 0), k
    )
    # Windows touching an ambiguous genome base are dropped.
    valid = valid_kmer_mask(np.asarray(seq_codes)[None, :], k)[0]
    codes = codes[valid]
    if both_strands:
        codes = np.concatenate([codes, revcomp_kmer_codes(codes, k)])
    kmers, counts = np.unique(codes, return_counts=True)
    return KmerSpectrum(k=k, kmers=kmers, counts=counts.astype(np.int64))
