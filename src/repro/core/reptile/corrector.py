"""ReptileCorrector — the public API of Chapter 2.

Typical use::

    from repro.core.reptile import ReptileCorrector

    corrector = ReptileCorrector.fit(reads)      # auto parameters
    corrected = corrector.correct(reads)         # ReadSet copy

Phase 1 (information extraction) happens in :meth:`fit`: the
k-spectrum, the precomputed Hamming-neighbor adjacency, and the
quality-gated tile table.  Phase 2 (:meth:`correct`) walks every read
with Algorithm 2 in both directions: each equal-length block of reads
advances in numpy lockstep, one tile per read per step, and the
Algorithm 1 rules a step needs are resolved in one batch through a
per-run rule table.  ``HotpathConfig(reference=True)`` selects the
scalar per-read walk instead — the differential oracle for tests and
benches; both produce identical codes, stats and per-base provenance.
Reads are never stored beyond their columnar ReadSet; spectra and
tiles are sorted arrays, so the memory footprint follows
``O(|R^k| + |R^{2k-l}|)`` (Sec. 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ... import telemetry
from ...io.readset import ReadSet
from ...kmer.masked_index import MaskedKmerIndex
from ...kmer.neighbor_index import PrecomputedNeighborIndex, ProbingNeighborIndex
from ...kmer.spectrum import KmerSpectrum, spectrum_from_reads
from ...kmer.tiles import TileTable, tile_table_from_reads
from ...seq.alphabet import reverse_complement_codes
from ...seq.distance import kmer_hamming
from ..api import ChunkedCorrectorMixin
from ..hotpath import HotpathConfig
from .ambiguous import convert_ambiguous
from .params import ReptileParams, select_parameters
from .tile_correct import enumerate_mutant_tiles_batch, evaluate_tiles_batch
from .read_correct import (
    ReadCorrectionStats,
    RuleTable,
    TilingContext,
    correct_block_lockstep,
    correct_read_one_direction,
)


@dataclass
class ReptileResult:
    """Corrected reads plus run statistics."""

    reads: ReadSet
    stats: ReadCorrectionStats
    n_ambiguous_converted: int = 0
    #: Per-base mask of positions covered by a validated/corrected
    #: tile in either direction (None unless requested).
    validated: np.ndarray | None = None
    #: Distinct (tile, allowance) rules evaluated, and every other
    #: rule-table lookup (both 0 on the reference walk).
    rules_evaluated: int = 0
    rules_reused: int = 0


class ReptileCorrector(ChunkedCorrectorMixin):
    """Tile-based error corrector for substitution-dominated short reads."""

    def __init__(
        self,
        params: ReptileParams,
        spectrum: KmerSpectrum,
        tiles: TileTable,
        neighbor_backend: str = "precomputed",
        flexible_tiling: bool = True,
        hotpath: HotpathConfig | None = None,
    ):
        if neighbor_backend not in ("precomputed", "probing", "masked"):
            raise ValueError(f"unknown neighbor backend {neighbor_backend!r}")
        self.hotpath = hotpath if hotpath is not None else HotpathConfig()
        self.params = params
        self.spectrum = spectrum
        self.tiles = tiles
        self.flexible_tiling = flexible_tiling
        if neighbor_backend == "precomputed":
            self._index = PrecomputedNeighborIndex(spectrum, params.d)
            self._neighbor_fn = self._index.neighbors
        elif neighbor_backend == "probing":
            self._index = ProbingNeighborIndex(spectrum, params.d)
            self._neighbor_fn = self._index.neighbors
        else:  # "masked" — the set was validated on entry
            self._index = MaskedKmerIndex(spectrum.kmers, params.k, params.d)
            self._neighbor_fn = self._index.neighbors
        self._ctx = TilingContext(
            params=params,
            tile_lookup=self.tiles.lookup,
            kmer_neighbors=self._neighbor_fn,
            flexible=flexible_tiling,
        )

    # -- construction -------------------------------------------------
    @classmethod
    def fit(
        cls,
        reads: ReadSet,
        params: ReptileParams | None = None,
        genome_length_estimate: int | None = None,
        neighbor_backend: str = "precomputed",
        flexible_tiling: bool = True,
        hotpath: HotpathConfig | None = None,
        **param_overrides,
    ) -> "ReptileCorrector":
        """Build all phase-1 structures from a read set.

        When ``params`` is None they are selected from the data
        (Sec. 2.3); keyword overrides land on the selected values via
        ``dataclasses.replace``.
        """
        if params is None:
            params = select_parameters(
                reads, genome_length_estimate=genome_length_estimate
            )
        if param_overrides:
            from dataclasses import replace

            params = replace(params, **param_overrides)
        with telemetry.span("reptile.spectrum", k=params.k):
            spectrum = spectrum_from_reads(reads, params.k, both_strands=True)
        with telemetry.span("reptile.tiles"):
            tiles = tile_table_from_reads(
                reads,
                k=params.k,
                overlap=params.overlap,
                quality_cutoff=params.qc,
                both_strands=True,
            )
        with telemetry.span("reptile.neighbor_index", backend=neighbor_backend):
            return cls(
                params=params,
                spectrum=spectrum,
                tiles=tiles,
                neighbor_backend=neighbor_backend,
                flexible_tiling=flexible_tiling,
                hotpath=hotpath,
            )

    @classmethod
    def fit_streaming(
        cls,
        chunks,
        params: ReptileParams,
        neighbor_backend: str = "precomputed",
        flexible_tiling: bool = True,
        max_memory_bytes: int | None = None,
        tmp_dir=None,
        hotpath: HotpathConfig | None = None,
    ) -> "ReptileCorrector":
        """Phase 1 over a stream of read chunks (Sec. 2.3's divide-and-
        merge for inputs larger than memory).

        The spectrum and tile table are built from **one** traversal of
        the stream (the earlier ``itertools.tee`` silently buffered
        every chunk), folded with the balanced merge — or spilled to
        disk when ``max_memory_bytes`` bounds the table memory.  The
        resulting corrector is bitwise identical to one fit on the
        whole input at once.  Parameters must be supplied (the
        auto-selection quantiles need their own streamed statistics;
        see :func:`repro.core.reptile.params.select_parameters_streaming`).
        """
        from ...kmer.streaming import (
            SpectrumAccumulator,
            TileAccumulator,
            build_from_chunks,
        )

        spec_acc = SpectrumAccumulator(
            params.k,
            both_strands=True,
            max_memory_bytes=max_memory_bytes,
            tmp_dir=tmp_dir,
        )
        tile_acc = TileAccumulator(
            params.k,
            overlap=params.overlap,
            quality_cutoff=params.qc,
            both_strands=True,
            max_memory_bytes=max_memory_bytes,
            tmp_dir=tmp_dir,
        )
        with telemetry.span("reptile.fit_streaming", k=params.k):
            spectrum, tiles = build_from_chunks(chunks, [spec_acc, tile_acc])
        telemetry.gauge(
            "spill_bytes", spec_acc.spill_bytes + tile_acc.spill_bytes
        )
        return cls(
            params=params,
            spectrum=spectrum,
            tiles=tiles,
            neighbor_backend=neighbor_backend,
            flexible_tiling=flexible_tiling,
            hotpath=hotpath,
        )

    # -- batched rule evaluation -------------------------------------
    def _neighbors_within(
        self, codes: np.ndarray, allowance: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR spectrum neighbors of ``codes`` within ``allowance``
        mismatches (self excluded), row for row the scalar walk's
        ``_candidates`` minus the leading self entry."""
        if allowance <= 0:
            return (
                np.empty(0, dtype=np.uint64),
                np.zeros(codes.size + 1, dtype=np.int64),
            )
        vals, indptr = self._index.neighbors_batch(codes)
        if allowance < self.params.d and vals.size:
            rows = np.repeat(np.arange(codes.size), np.diff(indptr))
            keep = kmer_hamming(vals, codes[rows]) <= allowance
            vals = vals[keep]
            indptr = np.zeros(codes.size + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(rows[keep], minlength=codes.size), out=indptr[1:]
            )
        return vals, indptr

    def _bulk_rules(self, tiles: np.ndarray, og: np.ndarray, d1: int):
        """Vectorized Algorithm-1 rules for unique tile codes.

        ``og`` holds the tiles' Og counts and ``d1`` (any allowance in
        ``0..max(d, 1)``) bounds the first k-mer's mutations; the second
        k-mer always gets ``params.d``.  Returns ``(decisions,
        new_tiles, gated)`` aligned with ``tiles`` — the batched
        equivalent of the scalar ``evaluate_tile``.
        """
        p = self.params
        a1 = tiles >> np.uint64(2 * (p.tile_length - p.k))
        a2 = tiles & np.uint64((1 << (2 * p.k)) - 1)
        nb1 = self._neighbors_within(a1, d1)
        nb2 = self._neighbors_within(a2, p.d)
        mutants, tidx = enumerate_mutant_tiles_batch(
            tiles, *nb1, *nb2, p.k, p.overlap
        )
        _, og_m = self.tiles.lookup(mutants)
        return evaluate_tiles_batch(
            tiles, og, mutants, og_m, tidx, p.cg, p.cm, p.cr
        )

    # -- correction ---------------------------------------------------
    def correct(self, reads: ReadSet) -> ReadSet:
        """Corrected copy of ``reads`` (convenience over :meth:`run`)."""
        return self.run(reads).reads

    def _walk(self, codes, quals, validated, rules) -> ReadCorrectionStats:
        """One tiling direction over an equal-length ``(n, L)`` block."""
        if not self.hotpath.reference:
            return correct_block_lockstep(
                codes, quals, self._ctx, rules, validated
            )
        stats = ReadCorrectionStats()
        for i in range(codes.shape[0]):
            stats.merge(
                correct_read_one_direction(
                    codes[i],
                    quals[i] if quals is not None else None,
                    self._ctx,
                    validated[i] if validated is not None else None,
                )
            )
        return stats

    def run(
        self,
        reads: ReadSet,
        handle_ambiguous: bool = True,
        ambiguous_default: int = 0,
        track_validated: bool = False,
    ) -> ReptileResult:
        """Correct every read; both tiling directions (Sec. 2.3).

        The reverse direction is realized by correcting the reverse
        complement of the (already forward-corrected) read — spectra
        and tile tables contain both strands, so lookups agree.  Reads
        are walked in blocks of equal length.
        """
        p = self.params
        n_conv = 0
        if handle_ambiguous and reads.has_ambiguous().any():
            reads, conv_mask = convert_ambiguous(
                reads,
                window=p.effective_n_window,
                max_n=p.effective_max_n,
                default_code=ambiguous_default,
            )
            n_conv = int(conv_mask.sum())
        out = reads.copy()
        total = ReadCorrectionStats()
        validated = (
            np.zeros(out.codes.shape, dtype=bool) if track_validated else None
        )
        rules = RuleTable(self._bulk_rules)
        for ln in np.unique(out.lengths).tolist():
            if ln < p.tile_length:
                continue
            rows = np.flatnonzero(out.lengths == ln)
            block = out.codes[rows, :ln]
            quals = out.quals[rows, :ln] if out.quals is not None else None
            fw_valid = rc_valid = None
            if validated is not None:
                fw_valid = np.zeros(block.shape, dtype=bool)
                rc_valid = np.zeros(block.shape, dtype=bool)
            # Forward (5'->3'), then reverse (3'->5') on the reverse
            # complement of the forward-corrected reads.
            total.merge(self._walk(block, quals, fw_valid, rules))
            rc = reverse_complement_codes(block)
            rq = quals[:, ::-1] if quals is not None else None
            total.merge(self._walk(rc, rq, rc_valid, rules))
            out.codes[rows, :ln] = reverse_complement_codes(rc)
            if validated is not None:
                validated[rows, :ln] = fw_valid | rc_valid[:, ::-1]
        return ReptileResult(
            reads=out,
            stats=total,
            n_ambiguous_converted=n_conv,
            validated=validated,
            rules_evaluated=rules.evaluated,
            rules_reused=rules.reused,
        )

    def correct_chunk(self, reads: ReadSet) -> tuple[ReadSet, dict]:
        """Correct one batch of reads; the per-chunk unit of the
        parallel engine.

        Correction is per-read against the fitted (immutable) phase-1
        structures, so chunking at any boundary yields output bitwise
        identical to one whole-set :meth:`run`.
        """
        result = self.run(reads)
        s = result.stats
        return result.reads, {
            "tiles_examined": s.tiles_examined,
            "tiles_valid": s.tiles_valid,
            "tiles_corrected": s.tiles_corrected,
            "tiles_insufficient": s.tiles_insufficient,
            "bases_changed": s.bases_changed,
            "ambiguous_converted": result.n_ambiguous_converted,
            # Rule-table traffic under the counter names reports and
            # perfbench have always used; merged across workers like
            # any other stat.
            "hotpath.memo_hits": result.rules_reused,
            "hotpath.memo_misses": result.rules_evaluated,
        }

    def correct_parallel(
        self,
        reads: ReadSet,
        workers: int = 1,
        chunk_size: int = 2048,
        policy=None,
        spectrum_backing: str = "inherit",
    ):
        """Batch correction across worker processes sharing this
        corrector's spectrum/tiles; see
        :func:`repro.parallel.correct_in_parallel`."""
        from ...parallel import correct_in_parallel

        return correct_in_parallel(
            self,
            reads,
            workers=workers,
            chunk_size=chunk_size,
            policy=policy,
            spectrum_backing=spectrum_backing,
        )

    def memory_estimate_bytes(self) -> int:
        """Rough footprint of the phase-1 structures."""
        total = self.spectrum.kmers.nbytes + self.spectrum.counts.nbytes
        total += (
            self.tiles.tiles.nbytes + self.tiles.oc.nbytes + self.tiles.og.nbytes
        )
        if isinstance(self._index, PrecomputedNeighborIndex):
            total += self._index.indptr.nbytes + self._index.indices.nbytes
        elif isinstance(self._index, MaskedKmerIndex):
            total += self._index.memory_bytes()
        return total
