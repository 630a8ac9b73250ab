"""Differential tests: the lockstep tiling walk is byte-exact.

The lockstep walk and its batched rule evaluation
(:mod:`repro.core.hotpath`) are *accelerations*, not approximations —
they must produce output bitwise identical to the scalar reference
walk (``HotpathConfig(reference=True)``).  These tests pin that
contract at every level:

- kernel level — batched neighbor/mutant/decision kernels vs their
  scalar counterparts on randomized inputs;
- corrector level — lockstep vs reference on the committed golden
  corpus across d, overlap, flexible tiling and quality scores, on
  variable-length reads and reads with Ns; Reptile and REDEEM, serial
  and through the parallel engine at ``workers=2``;
- CLI level — in-memory and ``--stream`` CLI output vs the in-process
  reference.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.api import build_corrector
from repro.core.hotpath import HotpathConfig
from repro.core.reptile import ReptileCorrector
from repro.core.reptile.tile_correct import (
    DECISION_CODES,
    enumerate_mutant_tiles,
    enumerate_mutant_tiles_batch,
    evaluate_tile,
    evaluate_tiles_batch,
)
from repro.io.fastq import read_fastq, write_fastq
from repro.io.readset import ReadSet
from repro.kmer.neighbor_index import (
    PrecomputedNeighborIndex,
    ProbingNeighborIndex,
)
from repro.kmer.spectrum import KmerSpectrum
from repro.parallel import correct_in_parallel

GOLDEN = Path(__file__).resolve().parent / "golden"

#: The default walk, compared against the reference below.
ABLATIONS = {"all_on": HotpathConfig()}
REFERENCE = HotpathConfig(reference=True)


@pytest.fixture(scope="module")
def reptile_reads():
    return read_fastq(GOLDEN / "reptile_reads.fastq")


@pytest.fixture(scope="module")
def scalar_corrector(reptile_reads):
    return ReptileCorrector.fit(reptile_reads, hotpath=REFERENCE)


@pytest.fixture(scope="module")
def scalar_result(scalar_corrector, reptile_reads):
    return scalar_corrector.run(reptile_reads, track_validated=True)


def _fast_corrector(base: ReptileCorrector, hp: HotpathConfig, **kw):
    """Same fitted tables/params as ``base``, a different walk."""
    return ReptileCorrector(
        params=base.params,
        spectrum=base.spectrum,
        tiles=base.tiles,
        hotpath=hp,
        **kw,
    )


# -- corrector-level differentials ------------------------------------


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_reptile_fast_paths_byte_identical(
    name, reptile_reads, scalar_corrector, scalar_result
):
    """The lockstep walk reproduces the scalar reference bit for bit:
    codes, stats, and per-base provenance."""
    fast = _fast_corrector(scalar_corrector, ABLATIONS[name])
    got = fast.run(reptile_reads, track_validated=True)
    assert np.array_equal(got.reads.codes, scalar_result.reads.codes)
    assert np.array_equal(got.reads.lengths, scalar_result.reads.lengths)
    assert got.stats == scalar_result.stats
    assert np.array_equal(got.validated, scalar_result.validated)


def _mixed_reads(reads: ReadSet, n: int = 300) -> ReadSet:
    """The first ``n`` reads trimmed to lengths 20..36 (some shorter
    than a tile), every fifth with a sparse N (converted before the
    walk) and every seventh with a dense N run (left ambiguous)."""
    seqs, quals = [], []
    for i in range(n):
        seq = list(reads.sequence(i)[: 36 - i % 17])
        if i % 5 == 0:
            seq[(3 * i) % len(seq)] = "N"
        if i % 7 == 0:
            start = (5 * i) % (len(seq) - 4)
            seq[start : start + 4] = "NNNN"
        seqs.append("".join(seq))
        quals.append(reads.read_quals(i)[: len(seq)])
    return ReadSet.from_strings(seqs, quals=quals)


def _assert_walks_equal(base: ReptileCorrector, reads: ReadSet, **kw):
    ref = _fast_corrector(base, REFERENCE, **kw)
    fast = _fast_corrector(base, HotpathConfig(), **kw)
    want = ref.run(reads, track_validated=True)
    got = fast.run(reads, track_validated=True)
    assert np.array_equal(got.reads.codes, want.reads.codes)
    assert got.stats == want.stats
    assert np.array_equal(got.validated, want.validated)
    assert want.stats.tiles_examined > 0


@pytest.mark.parametrize("with_quals", [True, False], ids=["quals", "noquals"])
@pytest.mark.parametrize("flexible", [True, False], ids=["flex", "fixed"])
@pytest.mark.parametrize("overlap", [0, 3])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_lockstep_matches_reference_grid(
    d, overlap, flexible, with_quals, reptile_reads
):
    """Lockstep vs reference across the walk's parameters, on golden
    reads with and without quality scores.  ``overlap=3`` leaves
    ``(L - tlen) % step != 0``, where the walk never reaches the last
    window."""
    reads = reptile_reads.subset(np.arange(300))
    if not with_quals:
        reads = ReadSet(codes=reads.codes, lengths=reads.lengths)
    base = ReptileCorrector.fit(
        reptile_reads, neighbor_backend="probing", d=d, overlap=overlap
    )
    _assert_walks_equal(base, reads, flexible_tiling=flexible)


@pytest.mark.parametrize("backend", ["precomputed", "probing", "masked"])
def test_lockstep_matches_reference_mixed_reads(backend, reptile_reads):
    """Variable-length reads, reads shorter than a tile, and reads
    with converted and unconverted Ns, under every neighbor backend."""
    base = ReptileCorrector.fit(reptile_reads, neighbor_backend=backend)
    _assert_walks_equal(base, _mixed_reads(reptile_reads))


@pytest.mark.parametrize("qm", [20, 30])
def test_lockstep_matches_reference_quality_gate(qm, reptile_reads):
    """With Og = Oc (qc=0) and cm=1 most corrections take Algorithm 1's
    quality-gated branch, so the gate decides many tiles: the
    vectorized gate must agree with the scalar one instance by
    instance."""
    reads = reptile_reads.subset(np.arange(300))
    base = ReptileCorrector.fit(reptile_reads, qc=0, cm=1, qm=qm)
    _assert_walks_equal(base, reads)


def test_bulk_rules_match_scalar_rules(reptile_reads):
    """``_bulk_rules`` at every allowance 0..d equals the scalar
    Algorithm 1 rule built from ``_candidates`` (which filters the
    first k-mer's neighbors to the allowance)."""
    from repro.core.reptile.read_correct import _candidates

    fast = ReptileCorrector.fit(
        reptile_reads, neighbor_backend="probing", d=2, qc=0, cm=1
    )
    p = fast.params
    windows = reptile_reads.codes[:200, : p.tile_length]
    shifts = (2 * np.arange(p.tile_length - 1, -1, -1)).astype(np.uint64)
    tiles = np.unique(
        np.bitwise_or.reduce(windows.astype(np.uint64) << shifts, axis=1)
    )
    _, og = fast.tiles.lookup(tiles)
    for d1 in range(p.d + 1):
        dec, new, gated = fast._bulk_rules(tiles, og, d1)
        for i, tile in enumerate(tiles.tolist()):
            a1 = tile >> (2 * (p.tile_length - p.k))
            a2 = tile & ((1 << (2 * p.k)) - 1)
            mutants = enumerate_mutant_tiles(
                a1,
                a2,
                _candidates(fast._ctx, a1, d1),
                _candidates(fast._ctx, a2, p.d),
                p.k,
                p.overlap,
            )
            rule = evaluate_tile(
                tile_code=tile,
                mutant_tiles=mutants,
                og_tile=int(og[i]),
                og_mutants=fast.tiles.lookup(mutants)[1],
                tile_length=p.tile_length,
                cg=p.cg,
                cm=p.cm,
                cr=p.cr,
            )
            assert DECISION_CODES[dec[i]] is rule.decision
            if rule.decision.name == "CORRECTED":
                assert int(new[i]) == rule.new_tile
                assert bool(gated[i]) == rule.quality_gated


def test_reptile_fast_path_idempotent_across_runs(
    reptile_reads, scalar_corrector, scalar_result
):
    """A second run on the same corrector still matches: nothing run
    to run leaks into the next."""
    fast = _fast_corrector(scalar_corrector, HotpathConfig())
    first = fast.run(reptile_reads)
    second = fast.run(reptile_reads)
    assert np.array_equal(first.reads.codes, scalar_result.reads.codes)
    assert np.array_equal(second.reads.codes, scalar_result.reads.codes)
    assert first.stats == second.stats == scalar_result.stats


@pytest.mark.parametrize("workers", [1, 2])
def test_reptile_parallel_chunked_matches_scalar(
    workers, reptile_reads, scalar_corrector, scalar_result
):
    """The lockstep walk through the parallel engine's chunk loop
    (serial and forked) equals the scalar whole-set run."""
    fast = _fast_corrector(scalar_corrector, HotpathConfig())
    report = correct_in_parallel(
        fast, reptile_reads, workers=workers, chunk_size=128
    )
    assert np.array_equal(report.reads.codes, scalar_result.reads.codes)
    merged = report.summary()
    assert merged["bases_changed"] == scalar_result.stats.bases_changed
    assert merged["tiles_corrected"] == scalar_result.stats.tiles_corrected


def test_memo_counters_harvested_per_chunk(reptile_reads, scalar_corrector):
    """Rule-table counters are reported per chunk.  The hit/miss split
    depends on chunking (each run() has its own table), but the number
    of lookups is fixed by the walk and equals the serial total."""
    fast = _fast_corrector(scalar_corrector, HotpathConfig())
    serial = fast.run(reptile_reads)
    report = correct_in_parallel(
        fast, reptile_reads, workers=1, chunk_size=256
    )
    merged = report.summary()
    lookups = merged["hotpath.memo_hits"] + merged["hotpath.memo_misses"]
    assert lookups == serial.rules_reused + serial.rules_evaluated
    assert merged["hotpath.memo_misses"] > 0


def test_redeem_hotpath_matches_scalar():
    """REDEEM built through the registry with the default and the
    reference config corrects identically: the hot-path config never
    changes a REDEEM base or attempt estimate."""
    reads = read_fastq(GOLDEN / "redeem_reads.fastq")
    scalar = build_corrector("redeem", reads, k=10, hotpath=REFERENCE)
    fast = build_corrector("redeem", reads, k=10, hotpath=HotpathConfig())
    assert np.array_equal(
        scalar.correct(reads).codes, fast.correct(reads).codes
    )
    assert np.array_equal(scalar.T, fast.T)


# -- CLI-level differentials (in-memory vs --stream) -------------------


@pytest.fixture(scope="module")
def cli_reference(tmp_path_factory):
    """The in-process reference walk's output on the golden corpus,
    written the way the CLI writes it."""
    reads = read_fastq(GOLDEN / "reptile_reads.fastq")
    corrector = build_corrector("reptile", reads, hotpath=REFERENCE)
    out = tmp_path_factory.mktemp("hotpath-cli") / "ref.fastq"
    write_fastq(corrector.correct(reads), out)
    return out.read_bytes()


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param([], id="memory-all-on"),
        pytest.param(["--stream"], id="stream-all-on"),
        pytest.param(["--stream", "--workers", "2"], id="stream-workers2"),
    ],
)
def test_cli_fast_paths_byte_identical(extra, tmp_path, cli_reference):
    from repro.tools.correct import main as correct_main

    out = tmp_path / "out.fastq"
    rc = correct_main(
        [
            str(GOLDEN / "reptile_reads.fastq"),
            str(out),
            "--chunk-size", "200",
            *extra,
        ]
    )
    assert rc == 0
    assert out.read_bytes() == cli_reference


# -- kernel-level differentials ---------------------------------------


def _random_spectrum(rng, k: int, n: int) -> KmerSpectrum:
    codes = np.unique(
        rng.integers(0, 4**k, size=n, dtype=np.uint64).astype(np.uint64)
    )
    counts = rng.integers(1, 20, size=codes.size).astype(np.int64)
    return KmerSpectrum(k=k, kmers=codes, counts=counts)


def _mixed_queries(rng, spectrum: KmerSpectrum, n: int) -> np.ndarray:
    """Half present, half (mostly) absent query codes, shuffled."""
    present = rng.choice(spectrum.kmers, size=n // 2, replace=True)
    absent = rng.integers(
        0, 4**spectrum.k, size=n - n // 2, dtype=np.uint64
    ).astype(np.uint64)
    out = np.concatenate([present, absent])
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("backend", ["probing", "precomputed"])
@pytest.mark.parametrize("index_self", [False, True])
@pytest.mark.parametrize("query_self", [False, True])
def test_neighbors_batch_matches_scalar(backend, index_self, query_self):
    """CSR batch neighborhoods row-for-row equal the scalar API, for
    present and absent queries under every include_self combination."""
    if backend == "probing" and index_self:
        pytest.skip("probing index has no include_self build flag")
    rng = np.random.default_rng(42)
    spectrum = _random_spectrum(rng, k=9, n=4000)
    if backend == "probing":
        index = ProbingNeighborIndex(spectrum, d=1)
    else:
        index = PrecomputedNeighborIndex(
            spectrum, d=1, include_self=index_self
        )
    queries = _mixed_queries(rng, spectrum, 64)
    vals, indptr = index.neighbors_batch(queries, include_self=query_self)
    assert indptr.shape == (queries.size + 1,)
    for i, code in enumerate(queries.tolist()):
        row = vals[indptr[i] : indptr[i + 1]]
        single = index.neighbors(int(code), include_self=query_self)
        assert row.tolist() == single.tolist()


@pytest.mark.parametrize("overlap", [0, 3])
def test_enumerate_mutant_tiles_batch_matches_scalar(overlap):
    """Per tile, the flat batched cross-product yields exactly the
    scalar mutant set (composition is injective: no duplicates)."""
    rng = np.random.default_rng(7)
    k = 8
    spectrum = _random_spectrum(rng, k=k, n=3000)
    index = ProbingNeighborIndex(spectrum, d=1)
    a1 = _mixed_queries(rng, spectrum, 40)
    if overlap:
        # Second constituent must agree with a1 on the shared bases.
        suffix = a1 & np.uint64((1 << (2 * overlap)) - 1)
        rest = rng.integers(
            0, 4 ** (k - overlap), size=a1.size, dtype=np.uint64
        ).astype(np.uint64)
        a2 = (suffix << np.uint64(2 * (k - overlap))) | rest
    else:
        a2 = _mixed_queries(rng, spectrum, 40)
    tiles = (a1 << np.uint64(2 * (k - overlap))) | (
        a2 & np.uint64((1 << (2 * (k - overlap))) - 1)
    )
    nb1_vals, nb1_indptr = index.neighbors_batch(a1)
    nb2_vals, nb2_indptr = index.neighbors_batch(a2)
    mutants, tidx = enumerate_mutant_tiles_batch(
        tiles, nb1_vals, nb1_indptr, nb2_vals, nb2_indptr, k, overlap
    )
    assert mutants.size == tidx.size
    for i in range(tiles.size):
        cand1 = np.concatenate(
            [a1[i : i + 1], nb1_vals[nb1_indptr[i] : nb1_indptr[i + 1]]]
        )
        cand2 = np.concatenate(
            [a2[i : i + 1], nb2_vals[nb2_indptr[i] : nb2_indptr[i + 1]]]
        )
        expected = enumerate_mutant_tiles(
            int(a1[i]), int(a2[i]), cand1, cand2, k, overlap
        )
        got = mutants[tidx == i]
        assert sorted(got.tolist()) == expected.tolist()
        assert len(set(got.tolist())) == got.size


def test_evaluate_tiles_batch_matches_scalar():
    """Decision, replacement tile, and gate flag agree with the scalar
    Algorithm 1 for every tile across randomized counts/thresholds."""
    rng = np.random.default_rng(13)
    k, overlap = 8, 0
    tlen = 2 * k - overlap
    spectrum = _random_spectrum(rng, k=k, n=3000)
    index = ProbingNeighborIndex(spectrum, d=1)
    a1 = _mixed_queries(rng, spectrum, 60)
    a2 = _mixed_queries(rng, spectrum, 60)
    tiles = (a1 << np.uint64(2 * k)) | a2
    nb1 = index.neighbors_batch(a1)
    nb2 = index.neighbors_batch(a2)
    mutants, tidx = enumerate_mutant_tiles_batch(
        tiles, nb1[0], nb1[1], nb2[0], nb2[1], k, overlap
    )
    # Randomized Og counts exercise every branch: zeros (absent), rare,
    # moderate, and overwhelming support.
    og_tiles = rng.integers(0, 9, size=tiles.size).astype(np.int64)
    og_mutants = rng.integers(0, 9, size=mutants.size).astype(np.int64)
    og_mutants[rng.random(mutants.size) < 0.5] = 0
    for cg, cm, cr in [(6, 2, 2.0), (4, 3, 1.5), (1, 1, 1.0)]:
        dec, new, gated = evaluate_tiles_batch(
            tiles, og_tiles, mutants, og_mutants, tidx, cg, cm, cr
        )
        for i in range(tiles.size):
            sel = tidx == i
            rule = evaluate_tile(
                tile_code=int(tiles[i]),
                mutant_tiles=mutants[sel],
                og_tile=int(og_tiles[i]),
                og_mutants=og_mutants[sel],
                tile_length=tlen,
                cg=cg,
                cm=cm,
                cr=cr,
            )
            assert DECISION_CODES[dec[i]] is rule.decision
            if rule.decision.name == "CORRECTED":
                assert int(new[i]) == rule.new_tile
                assert bool(gated[i]) == rule.quality_gated
