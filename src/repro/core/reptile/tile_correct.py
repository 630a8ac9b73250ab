"""Tile correction — Algorithm 1 of the thesis.

Given a tile (two overlapping/adjacent k-mers from a read) and its
d-mutant tiles, decide whether the tile is VALID as observed, should
be CORRECTED to a specific mutant, or leaves INSUFFICIENT evidence.
The decision feeds the tiling walk of Algorithm 2 (``read_correct``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ...seq.distance import kmer_hamming
from ...kmer.tiles import compose_tiles_batch


class Decision(enum.Enum):
    """Outcome of one tile-correction attempt."""

    VALID = "valid"
    CORRECTED = "corrected"
    INSUFFICIENT = "insufficient"


@dataclass(frozen=True)
class TileOutcome:
    decision: Decision
    #: The corrected tile code (only for CORRECTED).
    new_tile: int | None = None
    #: Positions (within the tile) changed by the correction.
    changed_positions: tuple[int, ...] = ()


@dataclass(frozen=True)
class TileRule:
    """The quality-independent part of an Algorithm 1 decision.

    Given fixed tile/spectrum tables and thresholds, the outcome of
    ``correct_tile`` is a pure function of ``(tile_code, d1, d2)``
    *except* for the per-instance quality gate on lines 10-15 (a
    correction only fires if one of the changed bases is low-quality
    in this particular read).  Splitting the decision into a rule plus
    :func:`apply_tile_rule` is what lets the lockstep walk's per-run
    rule table evaluate each ``(tile_code, d1)`` once: the rule is
    shared, the gate is re-applied per instance.
    """

    decision: Decision
    new_tile: int | None = None
    changed_positions: tuple[int, ...] = ()
    #: True when the correction must pass the low-quality gate (the
    #: ``og >= cm`` branch); the rare-tile branch corrects regardless.
    quality_gated: bool = False


#: Shared immutable outcomes for the two payload-free decisions —
#: the hot path returns these instead of allocating per tile.
OUTCOME_VALID = TileOutcome(Decision.VALID)
OUTCOME_INSUFFICIENT = TileOutcome(Decision.INSUFFICIENT)


def apply_tile_rule(
    rule: TileRule, tile_quals: np.ndarray | None, qm: int
) -> TileOutcome:
    """Apply the per-instance quality gate to a cached rule."""
    if rule.decision is Decision.VALID:
        return OUTCOME_VALID
    if rule.decision is Decision.INSUFFICIENT:
        return OUTCOME_INSUFFICIENT
    if (
        rule.quality_gated
        and tile_quals is not None
        and not any(tile_quals[p] < qm for p in rule.changed_positions)
    ):
        return OUTCOME_INSUFFICIENT
    return TileOutcome(
        Decision.CORRECTED,
        new_tile=rule.new_tile,
        changed_positions=rule.changed_positions,
    )


def tile_diff_positions(a: int, b: int, tile_length: int) -> tuple[int, ...]:
    """Base positions (0-based within the tile) where two codes differ."""
    x = int(a) ^ int(b)
    out = []
    for pos in range(tile_length):
        shift = 2 * (tile_length - 1 - pos)
        if (x >> shift) & 3:
            out.append(pos)
    return tuple(out)


def enumerate_mutant_tiles(
    a1: int,
    a2: int,
    cand1: np.ndarray,
    cand2: np.ndarray,
    k: int,
    overlap: int,
) -> np.ndarray:
    """All distinct d-mutant tile codes from candidate k-mer sets.

    ``cand1``/``cand2`` are the allowed replacements of each
    constituent k-mer (each should already include the original).
    With a non-zero overlap, combinations disagreeing on the shared
    bases are dropped.  The unmutated tile itself is excluded.
    """
    c1 = np.asarray(cand1, dtype=np.uint64)
    c2 = np.asarray(cand2, dtype=np.uint64)
    g1 = np.repeat(c1, c2.size)
    g2 = np.tile(c2, c1.size)
    if overlap:
        suffix_mask = np.uint64((1 << (2 * overlap)) - 1)
        pre_shift = np.uint64(2 * (k - overlap))
        ok = (g1 & suffix_mask) == (g2 >> pre_shift)
        g1, g2 = g1[ok], g2[ok]
    tiles = compose_tiles_batch(g1, g2, k, overlap)
    original = compose_tiles_batch(
        np.array([a1], dtype=np.uint64), np.array([a2], dtype=np.uint64), k, overlap
    )[0]
    tiles = tiles[tiles != original]
    return np.unique(tiles)


def enumerate_mutant_tiles_batch(
    tile_codes: np.ndarray,
    nb1_vals: np.ndarray,
    nb1_indptr: np.ndarray,
    nb2_vals: np.ndarray,
    nb2_indptr: np.ndarray,
    k: int,
    overlap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Mutant tiles of **many** tiles in one vectorized cross product.

    Row ``i`` of the CSR inputs holds the spectrum neighbors of tile
    ``i``'s first / second constituent k-mer; the candidate set is that
    row plus the constituent itself, exactly as in the scalar
    ``_candidates`` helper.  Returns ``(mutants, tile_idx)`` — a flat
    mutant-tile array and the index of the tile each mutant belongs to,
    with overlap-incompatible pairs and the unmutated tile dropped.

    Per tile the set of mutants equals
    :func:`enumerate_mutant_tiles` (order differs; tile composition is
    injective, so there are no duplicates to collapse).
    """
    tile_codes = np.asarray(tile_codes, dtype=np.uint64)
    t = tile_codes.size
    if t == 0:
        return (
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.int64),
        )
    tlen = 2 * k - overlap
    a1 = tile_codes >> np.uint64(2 * (tlen - k))
    a2 = tile_codes & np.uint64((1 << (2 * k)) - 1)
    n1 = np.diff(nb1_indptr) + 1  # +1: the constituent itself
    n2 = np.diff(nb2_indptr) + 1
    pair = n1 * n2
    total = int(pair.sum())
    tidx = np.repeat(np.arange(t, dtype=np.int64), pair)
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(pair) - pair, pair
    )
    n2r = n2[tidx]
    i1 = local // n2r
    i2 = local - i1 * n2r
    # Candidate 0 is the constituent itself; candidate j >= 1 is
    # neighbor j-1 of the CSR row.  Index math is clipped so the
    # self-only case never touches an empty neighbor array.
    nb1_safe = nb1_vals if nb1_vals.size else np.zeros(1, dtype=np.uint64)
    nb2_safe = nb2_vals if nb2_vals.size else np.zeros(1, dtype=np.uint64)
    j1 = np.minimum(
        nb1_indptr[tidx] + np.maximum(i1 - 1, 0), nb1_safe.size - 1
    )
    j2 = np.minimum(
        nb2_indptr[tidx] + np.maximum(i2 - 1, 0), nb2_safe.size - 1
    )
    g1 = np.where(i1 == 0, a1[tidx], nb1_safe[j1])
    g2 = np.where(i2 == 0, a2[tidx], nb2_safe[j2])
    if overlap:
        suffix_mask = np.uint64((1 << (2 * overlap)) - 1)
        pre_shift = np.uint64(2 * (k - overlap))
        ok = (g1 & suffix_mask) == (g2 >> pre_shift)
        g1, g2, tidx = g1[ok], g2[ok], tidx[ok]
    mutants = compose_tiles_batch(g1, g2, k, overlap)
    keep = mutants != tile_codes[tidx]
    return mutants[keep], tidx[keep]


#: Integer encoding of :class:`Decision` used by the batched kernel.
DECISION_CODES = (Decision.VALID, Decision.CORRECTED, Decision.INSUFFICIENT)


def evaluate_tiles_batch(
    tile_codes: np.ndarray,
    og_tiles: np.ndarray,
    mutant_tiles: np.ndarray,
    og_mutants: np.ndarray,
    tile_idx: np.ndarray,
    cg: int,
    cm: int,
    cr: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`evaluate_tile` over many tiles at once.

    ``mutant_tiles``/``og_mutants`` are flat with ``tile_idx`` mapping
    each entry to its tile (as produced by
    :func:`enumerate_mutant_tiles_batch`).  Returns
    ``(decisions, new_tiles, quality_gated)`` where ``decisions[i]``
    indexes :data:`DECISION_CODES`; ``new_tiles`` is only meaningful
    where the decision is CORRECTED.  Branch for branch identical to
    the scalar function.
    """
    tile_codes = np.asarray(tile_codes, dtype=np.uint64)
    og_tiles = np.asarray(og_tiles, dtype=np.int64)
    t = tile_codes.size
    decisions = np.full(t, 2, dtype=np.uint8)  # default INSUFFICIENT
    new_tiles = np.zeros(t, dtype=np.uint64)
    gated = np.zeros(t, dtype=bool)
    if t == 0:
        return decisions, new_tiles, gated

    ge_cg = og_tiles >= cg
    ge_cm = og_tiles >= cm
    present = og_mutants > 0
    n_present = np.bincount(tile_idx[present], minlength=t)

    # Lines 4-9: no present mutant evidence.
    none_mask = (n_present == 0) & ~ge_cg
    decisions[none_mask & ge_cm] = 0

    # Lines 10-15: supported tile, correct on compelling relative
    # evidence from the closest contender.
    cmask = ~ge_cg & ge_cm & (n_present > 0)
    ratio_ok = present & (og_mutants >= cr * og_tiles[tile_idx])
    n_cont = np.bincount(tile_idx[ratio_ok], minlength=t)
    decisions[cmask & (n_cont == 0)] = 0
    if ratio_ok.any():
        d = kmer_hamming(
            mutant_tiles[ratio_ok], tile_codes[tile_idx[ratio_ok]]
        )
        dmin = np.full(t, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(dmin, tile_idx[ratio_ok], d.astype(np.int64))
        at_min = np.zeros(mutant_tiles.shape, dtype=bool)
        at_min[ratio_ok] = d.astype(np.int64) == dmin[tile_idx[ratio_ok]]
        n_min = np.bincount(tile_idx[at_min], minlength=t)
        target = np.zeros(t, dtype=np.uint64)
        target[tile_idx[at_min]] = mutant_tiles[at_min]
        corrected = cmask & (n_cont > 0) & (n_min == 1)
        decisions[corrected] = 1
        new_tiles[corrected] = target[corrected]
        gated[corrected] = True

    # Lines 16-21: rare tile, a unique strong mutant wins ungated.
    dmask = ~ge_cg & ~ge_cm & (n_present > 0)
    strong = present & (og_mutants >= cm)
    n_strong = np.bincount(tile_idx[strong], minlength=t)
    target2 = np.zeros(t, dtype=np.uint64)
    target2[tile_idx[strong]] = mutant_tiles[strong]
    corrected2 = dmask & (n_strong == 1)
    decisions[corrected2] = 1
    new_tiles[corrected2] = target2[corrected2]

    # Lines 1-3 win over everything: overwhelming support validates.
    decisions[ge_cg] = 0
    new_tiles[ge_cg] = 0
    gated[ge_cg] = False
    return decisions, new_tiles, gated


def evaluate_tile(
    tile_code: int,
    mutant_tiles: np.ndarray,
    og_tile: int,
    og_mutants: np.ndarray,
    tile_length: int,
    cg: int,
    cm: int,
    cr: float,
) -> TileRule:
    """Algorithm 1 minus the quality gate: the memoizable rule.

    Depends only on the tile code, its mutants' counts, and the
    thresholds — never on the individual read — so the result may be
    cached under ``(tile_code, d1, d2)`` for a fixed table/threshold
    set and replayed via :func:`apply_tile_rule`.
    """
    # Line 1-3: overwhelming support validates outright.
    if og_tile >= cg:
        return TileRule(Decision.VALID)

    mutant_tiles = np.asarray(mutant_tiles, dtype=np.uint64)
    og_mutants = np.asarray(og_mutants, dtype=np.int64)
    present = og_mutants > 0
    mutant_tiles = mutant_tiles[present]
    og_mutants = og_mutants[present]

    # Lines 4-9: no mutant evidence at all.
    if mutant_tiles.size == 0:
        if og_tile >= cm:
            return TileRule(Decision.VALID)
        return TileRule(Decision.INSUFFICIENT)

    if og_tile >= cm:
        # Lines 10-15: the tile has support; correct only on compelling
        # relative evidence.
        ratio_ok = og_mutants >= cr * og_tile
        contenders = mutant_tiles[ratio_ok]
        if contenders.size == 0:
            return TileRule(Decision.VALID)
        dists = kmer_hamming(
            contenders, np.full(contenders.shape, np.uint64(tile_code))
        )
        dmin = int(dists.min())
        closest = contenders[dists == dmin]
        if closest.size != 1:
            return TileRule(Decision.INSUFFICIENT)
        target = int(closest[0])
        changed = tile_diff_positions(tile_code, target, tile_length)
        return TileRule(
            Decision.CORRECTED,
            new_tile=target,
            changed_positions=changed,
            quality_gated=True,
        )

    # Lines 16-21: the tile itself is rare; a unique well-supported
    # mutant wins (no quality gate on this branch).
    strong = og_mutants >= cm
    if int(strong.sum()) == 1:
        target = int(mutant_tiles[strong][0])
        changed = tile_diff_positions(tile_code, target, tile_length)
        return TileRule(
            Decision.CORRECTED, new_tile=target, changed_positions=changed
        )
    return TileRule(Decision.INSUFFICIENT)


def correct_tile(
    tile_code: int,
    mutant_tiles: np.ndarray,
    og_tile: int,
    og_mutants: np.ndarray,
    tile_quals: np.ndarray | None,
    tile_length: int,
    cg: int,
    cm: int,
    cr: float,
    qm: int,
) -> TileOutcome:
    """Algorithm 1 — decide VALID / CORRECTED / INSUFFICIENT.

    ``mutant_tiles`` must contain only tiles observed in the data
    (Og > 0 entries may still be 0 if only low-quality copies exist).
    ``tile_quals`` holds the quality scores of this tile instance in
    its read (None when the dataset has no scores — then every base is
    treated as low-quality, per Sec. 2.5).

    Composition of :func:`evaluate_tile` and :func:`apply_tile_rule`;
    the split exists so the rule half can be memoized.
    """
    rule = evaluate_tile(
        tile_code=tile_code,
        mutant_tiles=mutant_tiles,
        og_tile=og_tile,
        og_mutants=og_mutants,
        tile_length=tile_length,
        cg=cg,
        cm=cm,
        cr=cr,
    )
    return apply_tile_rule(rule, tile_quals, qm)
