"""Read correction — Algorithm 2: the flexible tiling walk.

A read is traversed 5'→3' by tiles.  Each tile is validated/corrected
by Algorithm 1 (``tile_correct``); on success the next tile shares its
trailing k-mer (whose mutation allowance drops to 0 — it is already
trusted).  On insufficient evidence Reptile does *not* give up on the
read: it first tries an alternative tile placement shifted by one base
(decision D3(a) — a different read decomposition can isolate an error
cluster), and failing that skips past the stubborn region, leaving a
small unvalidated gap (D3(b)).  A second pass runs over the reverse
complement, covering the 3'→5' direction.

Two implementations of the same walk live here:

- :func:`correct_read_one_direction` — one read at a time, one tile
  at a time; the scalar reference (the differential oracle);
- :func:`correct_block_lockstep` — every read of an equal-length block
  advances one tile per step, with per-read walk state held in arrays
  and each step's Algorithm 1 rules resolved in one batch through a
  :class:`RuleTable`.  Codes, stats and per-base provenance are
  identical to the reference walk's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...seq.distance import kmer_hamming
from ...seq.encoding import pack_kmer, unpack_kmer
from ...kmer.tiles import compose_tile
from .params import ReptileParams
from .tile_correct import Decision, correct_tile, enumerate_mutant_tiles


@dataclass
class ReadCorrectionStats:
    """Aggregate statistics of a correction run."""

    tiles_examined: int = 0
    tiles_valid: int = 0
    tiles_corrected: int = 0
    tiles_insufficient: int = 0
    bases_changed: int = 0

    def merge(self, other: "ReadCorrectionStats") -> None:
        self.tiles_examined += other.tiles_examined
        self.tiles_valid += other.tiles_valid
        self.tiles_corrected += other.tiles_corrected
        self.tiles_insufficient += other.tiles_insufficient
        self.bases_changed += other.bases_changed


@dataclass
class TilingContext:
    """Everything the tiling walk needs, prebuilt once per dataset."""

    params: ReptileParams
    #: tile codes -> (Oc, Og) vectorized lookup.
    tile_lookup: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    #: k-mer code -> spectrum neighbors within params.d (excl. self).
    kmer_neighbors: Callable[[int], np.ndarray]
    #: Allow the D3 alternative-placement / skip moves (the ablation
    #: switch: False reduces Reptile to a fixed left-to-right tiling).
    flexible: bool = True


#: ``(tiles, og, allowance) -> (decisions, new_tiles, gated)`` over
#: unique tile codes; see :func:`~.tile_correct.evaluate_tiles_batch`.
RuleEvaluator = Callable[
    [np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray, np.ndarray]
]


class RuleTable:
    """Algorithm 1 rules resolved so far in one run.

    A rule (decision, replacement tile, quality-gate flag) is a pure
    function of ``(tile_code, d1)`` for fixed tables and thresholds
    (``d2`` is always ``params.d``), so each distinct key is evaluated
    once per run and looked up by binary search after that.  Misses
    are evaluated together, one ``evaluate`` call per allowance per
    walk step.

    ``evaluated`` counts the distinct keys evaluated, ``reused`` every
    other lookup; their sum is the number of examined unambiguous tiles
    with ``og < cg`` and depends only on the walk.
    """

    def __init__(self, evaluate: RuleEvaluator):
        self._evaluate = evaluate
        #: allowance -> (sorted tiles, decisions, new_tiles, gated)
        self._rules: dict[int, tuple[np.ndarray, ...]] = {}
        self.evaluated = 0
        self.reused = 0

    def resolve(
        self, tiles: np.ndarray, og: np.ndarray, d1: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rules of ``tiles`` (with Og counts ``og``) at allowance ``d1``."""
        known = self._rules.get(d1)
        if known is None:
            missing = np.ones(tiles.size, dtype=bool)
        else:
            idx = np.searchsorted(known[0], tiles)
            idx = np.minimum(idx, known[0].size - 1)
            missing = known[0][idx] != tiles
        n_new = 0
        if missing.any():
            new, first = np.unique(tiles[missing], return_index=True)
            n_new = new.size
            parts = (new, *self._evaluate(new, og[missing][first], d1))
            if known is not None:
                parts = tuple(np.concatenate(p) for p in zip(known, parts))
                order = np.argsort(parts[0], kind="stable")
                parts = tuple(a[order] for a in parts)
            known = self._rules[d1] = parts
            idx = np.searchsorted(known[0], tiles)
        self.evaluated += n_new
        self.reused += tiles.size - n_new
        return known[1][idx], known[2][idx], known[3][idx]


def _candidates(ctx: TilingContext, code: int, allowance: int) -> np.ndarray:
    """Allowed replacements of one constituent k-mer: itself plus its
    spectrum neighbors within ``allowance`` mismatches."""
    self_arr = np.array([code], dtype=np.uint64)
    if allowance <= 0:
        return self_arr
    nb = ctx.kmer_neighbors(int(code))
    if nb.size and allowance < ctx.params.d:
        dist = kmer_hamming(nb, np.full(nb.shape, np.uint64(code)))
        nb = nb[dist <= allowance]
    return np.concatenate([self_arr, nb]) if nb.size else self_arr


def _try_tile(
    codes: np.ndarray,
    quals: np.ndarray | None,
    pos: int,
    d1: int,
    d2: int,
    ctx: TilingContext,
):
    """Run Algorithm 1 on the tile starting at ``pos``; None when the
    window holds an ambiguous base and cannot be packed."""
    p = ctx.params
    tlen = p.tile_length
    window = codes[pos : pos + tlen]
    if (window >= 4).any():
        return None
    a1 = pack_kmer(window[: p.k])
    a2 = pack_kmer(window[tlen - p.k :])
    tile_code = compose_tile(a1, a2, p.k, p.overlap)
    _, og_t = ctx.tile_lookup(np.array([tile_code], dtype=np.uint64))
    cand1 = _candidates(ctx, a1, d1)
    cand2 = _candidates(ctx, a2, d2)
    mutants = enumerate_mutant_tiles(a1, a2, cand1, cand2, p.k, p.overlap)
    if mutants.size:
        _, og_m = ctx.tile_lookup(mutants)
    else:
        og_m = np.empty(0, dtype=np.int64)
    return correct_tile(
        tile_code=tile_code,
        mutant_tiles=mutants,
        og_tile=int(og_t[0]),
        og_mutants=og_m,
        tile_quals=quals[pos : pos + tlen] if quals is not None else None,
        tile_length=tlen,
        cg=p.cg,
        cm=p.cm,
        cr=p.cr,
        qm=p.qm,
    )


def _write_tile(codes: np.ndarray, pos: int, tile_code: int, tlen: int) -> int:
    """Overwrite read bases with a corrected tile; returns #changed."""
    new = unpack_kmer(tile_code, tlen)
    changed = int((codes[pos : pos + tlen] != new).sum())
    codes[pos : pos + tlen] = new
    return changed


def correct_read_one_direction(
    codes: np.ndarray,
    quals: np.ndarray | None,
    ctx: TilingContext,
    validated: np.ndarray | None = None,
) -> ReadCorrectionStats:
    """One 5'→3' tiling pass over (a mutable copy of) a read.

    When ``validated`` (a boolean array as long as the read) is given,
    positions covered by a validated or corrected tile are marked True
    — the per-base provenance needed to score ambiguous-base
    resolution (Table 2.4).
    """
    p = ctx.params
    stats = ReadCorrectionStats()
    tlen = p.tile_length
    L = codes.size
    if L < tlen:
        return stats
    step = p.k - p.overlap

    pos = 0
    d1 = p.d
    fail_streak = 0
    tried: set[tuple[int, int]] = set()
    guard = 0
    max_steps = 4 * L + 16
    while pos <= L - tlen and guard < max_steps:
        guard += 1
        pos = min(pos, L - tlen)
        state = (pos, d1)
        if state in tried:
            # Same placement already attempted: skip the region (D3(b)).
            pos += tlen
            d1 = p.d
            fail_streak = 0
            continue
        tried.add(state)

        outcome = _try_tile(codes, quals, pos, d1, p.d, ctx)
        stats.tiles_examined += 1
        if outcome is not None and outcome.decision is Decision.VALID:
            stats.tiles_valid += 1
            success = True
        elif outcome is not None and outcome.decision is Decision.CORRECTED:
            stats.tiles_corrected += 1
            stats.bases_changed += _write_tile(
                codes, pos, outcome.new_tile, tlen
            )
            success = True
        else:
            stats.tiles_insufficient += 1
            success = False

        if success:
            if validated is not None:
                validated[pos : pos + tlen] = True
            fail_streak = 0
            if pos == L - tlen:
                break
            pos = pos + step
            d1 = 0
        elif not ctx.flexible:
            # Fixed-tiling ablation: march on regardless.
            if pos == L - tlen:
                break
            pos = pos + step
            d1 = p.d
        elif fail_streak == 0:
            # D3(a): one alternative decomposition, shifted by a base,
            # with the leading (partially validated) k-mer allowed one
            # mutation.
            fail_streak = 1
            pos = pos + 1
            d1 = max(d1, 1)
        else:
            # D3(b): give up on this region; resume past it with a
            # fresh tile, leaving an unvalidated gap.
            fail_streak = 0
            pos = pos + tlen
            d1 = p.d
    return stats


def correct_block_lockstep(
    codes: np.ndarray,
    quals: np.ndarray | None,
    ctx: TilingContext,
    rules: RuleTable,
    validated: np.ndarray | None = None,
) -> ReadCorrectionStats:
    """One 5'→3' tiling pass over every row of an ``(n, L)`` block.

    All rows advance one tile per step.  Each row's walk state (tile
    position, leading-k-mer allowance ``d1``, D3 fail streak, tried
    placements, step guard) mirrors :func:`correct_read_one_direction`
    move for move, so ``codes``, ``validated`` (both edited in place)
    and the returned stats equal a per-row run of the reference walk.
    The reference's ``pos = min(pos, L - tlen)`` clamp is dead under
    its loop condition and has no counterpart here.
    """
    p = ctx.params
    stats = ReadCorrectionStats()
    n, L = codes.shape
    tlen = p.tile_length
    last = L - tlen
    if n == 0 or last < 0:
        return stats
    step = p.k - p.overlap
    offsets = np.arange(tlen)
    shifts = (2 * (tlen - 1 - offsets)).astype(np.uint64)

    pos = np.zeros(n, dtype=np.int64)
    d1 = np.full(n, p.d, dtype=np.int64)
    streak = np.zeros(n, dtype=bool)
    # d1 only takes the values 0, 1 (D3(a) on d = 0) and d.
    tried = np.zeros((n, last + 1, max(p.d, 1) + 1), dtype=bool)
    active = np.arange(n)
    # Every live row takes one step per iteration, so the reference's
    # per-read guard is the iteration count.
    for _ in range(4 * L + 16):
        active = active[pos[active] <= last]
        if not active.size:
            break
        seen = tried[active, pos[active], d1[active]]
        if seen.any():
            # Same placement already attempted: skip the region (D3(b)).
            skip = active[seen]
            pos[skip] += tlen
            d1[skip] = p.d
            streak[skip] = False
        rows = active[~seen]
        rpos, rd1 = pos[rows], d1[rows]
        tried[rows, rpos, rd1] = True

        cols = rpos[:, None] + offsets
        window = codes[rows[:, None], cols]
        packable = (window < 4).all(axis=1)
        tile = np.bitwise_or.reduce(
            window.astype(np.uint64) << shifts, axis=1
        )
        og = np.full(rows.size, -1, dtype=np.int64)
        og[packable] = ctx.tile_lookup(tile[packable])[1]
        decision = np.full(rows.size, 2, dtype=np.uint8)  # INSUFFICIENT
        decision[og >= p.cg] = 0  # Algorithm 1, lines 1-3: VALID
        new_tile = np.zeros(rows.size, dtype=np.uint64)
        gated = np.zeros(rows.size, dtype=bool)
        need = packable & (og < p.cg)
        for allowance in np.unique(rd1[need]).tolist():
            sel = np.flatnonzero(need & (rd1 == allowance))
            decision[sel], new_tile[sel], gated[sel] = rules.resolve(
                tile[sel], og[sel], allowance
            )

        fix = np.flatnonzero(decision == 1)
        if fix.size:
            new_window = (
                (new_tile[fix, None] >> shifts) & np.uint64(3)
            ).astype(codes.dtype)
            changed = new_window != window[fix]
            if quals is not None:
                # A gated correction fires only if a changed base is
                # low-quality in this read (Algorithm 1, lines 10-15).
                low = quals[rows[fix, None], cols[fix]] < p.qm
                fires = ~gated[fix] | (changed & low).any(axis=1)
                decision[fix[~fires]] = 2
                fix, new_window, changed = (
                    fix[fires], new_window[fires], changed[fires]
                )
            codes[rows[fix, None], cols[fix]] = new_window
            stats.bases_changed += int(changed.sum())

        tally = np.bincount(decision, minlength=3)
        stats.tiles_examined += rows.size
        stats.tiles_valid += int(tally[0])
        stats.tiles_corrected += int(tally[1])
        stats.tiles_insufficient += int(tally[2])

        ok = decision != 2
        if validated is not None:
            validated[rows[ok, None], cols[ok]] = True
        won, lost = rows[ok], rows[~ok]
        pos[won] += step
        d1[won] = 0
        streak[won] = False
        if not ctx.flexible:
            # Fixed-tiling ablation: march on regardless.
            pos[lost] += step
            d1[lost] = p.d
            continue
        # D3(a): shift by a base, leading k-mer allowed one mutation.
        shift = lost[~streak[lost]]
        # D3(b): give up on the region and resume past it.
        give_up = lost[streak[lost]]
        pos[shift] += 1
        d1[shift] = np.maximum(d1[shift], 1)
        streak[shift] = True
        pos[give_up] += tlen
        d1[give_up] = p.d
        streak[give_up] = False
    return stats
