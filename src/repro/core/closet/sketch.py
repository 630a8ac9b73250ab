"""Sketch-based candidate edge construction — Algorithm 3 (Sec. 4.3.1).

Avoids the O(n²) all-pairs comparison: each read is represented by the
hash set of its k-mers; in round ``l`` the *sketch* keeps hashes equal
to ``l`` modulo ``M``, and reads colliding on a sketch hash become
candidate pairs.  Hash values shared by more than ``Cmax`` reads are
postponed (ubiquitous substrings discriminate nothing and would
reintroduce the quadratic blowup); their contribution returns inside
the exact similarity computed for surviving candidates.  Multiple
rounds (different residues ``l``) exponentially shrink the chance a
truly similar pair is never proposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...io.readset import ReadSet
from .similarity import HashSetTable, read_hash_sets


@dataclass(frozen=True)
class SketchParams:
    """Knobs of Algorithm 3 (defaults follow Sec. 4.5.2)."""

    k: int = 15
    #: Sketch density modulus M: a fraction ~1/M of hashes survive.
    modulus: int = 20
    #: Number of sketch rounds l (residues 0..rounds-1).
    rounds: int = 3
    #: Hashes shared by more than this many reads are postponed.
    cmax: int = 64
    #: Candidate threshold on the sketch similarity estimate.
    cmin: float = 0.6

    def __post_init__(self) -> None:
        if min(self.modulus, self.rounds) < 1:
            raise ValueError(f"modulus and rounds must be >= 1: {self}")


@dataclass
class EdgeConstructionResult:
    """Candidate and confirmed edges with per-stage tallies."""

    #: (E, 2) int64 read-index pairs (i < j), confirmed.
    edges: np.ndarray
    #: Similarity score of each confirmed edge.
    similarities: np.ndarray
    #: Distinct candidate pairs proposed by sketching (pre-validation).
    n_predicted: int
    #: Candidate pairs after deduplication across rounds.
    n_unique: int
    #: Pairs surviving exact validation at cmin.
    n_confirmed: int
    #: Hash values postponed per round for exceeding Cmax.
    n_postponed: int = 0

    def fraction_of_all_pairs(self, n_reads: int) -> float:
        total = n_reads * (n_reads - 1) / 2
        return self.n_unique / total if total else 0.0


def _candidate_pairs_for_round(
    hash_sets: list[np.ndarray],
    residue: int,
    modulus: int,
    cmax: int,
) -> tuple[np.ndarray, int]:
    """Distinct colliding pairs from one sketch round.

    Returns ``(pairs, n_postponed_hashes)``; pairs are (i, j) with
    i < j, deduplicated within the round.
    """
    mod = np.uint64(modulus)
    res = np.uint64(residue)
    hash_chunks: list[np.ndarray] = []
    read_chunks: list[np.ndarray] = []
    for rid, h in enumerate(hash_sets):
        sk = h[(h % mod) == res]
        if sk.size:
            hash_chunks.append(sk)
            read_chunks.append(np.full(sk.size, rid, dtype=np.int64))
    if not hash_chunks:
        return np.empty((0, 2), dtype=np.int64), 0
    hashes = np.concatenate(hash_chunks)
    rids = np.concatenate(read_chunks)
    order = np.argsort(hashes, kind="stable")
    hashes, rids = hashes[order], rids[order]
    boundaries = np.flatnonzero(
        np.concatenate([[True], hashes[1:] != hashes[:-1], [True]])
    )
    pair_list: list[np.ndarray] = []
    n_postponed = 0
    for gi in range(boundaries.size - 1):
        lo, hi = boundaries[gi], boundaries[gi + 1]
        size = hi - lo
        if size < 2:
            continue
        if size > cmax:
            n_postponed += 1
            continue
        members = np.unique(rids[lo:hi])
        if members.size < 2:
            continue
        ii, jj = np.triu_indices(members.size, k=1)
        pair_list.append(
            np.column_stack([members[ii], members[jj]])
        )
    if not pair_list:
        return np.empty((0, 2), dtype=np.int64), n_postponed
    pairs = np.concatenate(pair_list)
    pairs = np.unique(pairs, axis=0)
    return pairs, n_postponed


def build_edges(
    reads: ReadSet,
    params: SketchParams,
    threshold: float | None = None,
    similarity_fn=None,
    hash_sets: list[np.ndarray] | None = None,
) -> EdgeConstructionResult:
    """Run Algorithm 3: sketch rounds, dedup, exact validation.

    ``threshold`` defaults to ``params.cmin``; ``similarity_fn(h_i,
    h_j)`` defaults to the k-mer containment score, batched per read
    through :class:`HashSetTable` (the thesis notes the sketch-based
    function is accurate enough to use directly, so line 18's external
    F is optional — pass any callable over hash sets to override).
    """
    if threshold is None:
        threshold = params.cmin
    if hash_sets is None:
        hash_sets = read_hash_sets(reads, params.k)

    all_pairs: list[np.ndarray] = []
    n_predicted = 0
    n_postponed = 0
    for l in range(params.rounds):
        pairs, postponed = _candidate_pairs_for_round(
            hash_sets, l, params.modulus, params.cmax
        )
        n_predicted += pairs.shape[0]
        n_postponed += postponed
        if pairs.size:
            all_pairs.append(pairs)
    if all_pairs:
        unique_pairs = np.unique(np.concatenate(all_pairs), axis=0)
    else:
        unique_pairs = np.empty((0, 2), dtype=np.int64)

    if similarity_fn is None:
        sims = HashSetTable(hash_sets).pair_containment(unique_pairs)
    else:
        pairs = unique_pairs.tolist()
        sims = np.array(
            [similarity_fn(hash_sets[i], hash_sets[j]) for i, j in pairs],
            dtype=np.float64,
        )
    keep = sims >= threshold
    return EdgeConstructionResult(
        edges=unique_pairs[keep],
        similarities=sims[keep],
        n_predicted=n_predicted,
        n_unique=int(unique_pairs.shape[0]),
        n_confirmed=int(keep.sum()),
        n_postponed=n_postponed,
    )
