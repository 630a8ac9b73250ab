"""Differential tests: every hot-path fast path is byte-exact.

The batched kernels and the correction memo cache
(:mod:`repro.core.hotpath`) are *accelerations*, not approximations — any configuration must produce output bitwise
identical to the legacy scalar path.  These tests pin that contract
at every level:

- kernel level — batched neighbor/mutant/decision kernels vs their
  scalar counterparts on randomized inputs;
- corrector level — each fast path toggled alone and together, on the
  committed golden corpus, Reptile and REDEEM, serial and through the
  parallel engine at ``workers=2``;
- CLI level — in-memory vs ``--stream``, all-on vs all-off flags.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.api import build_corrector
from repro.core.hotpath import HotpathConfig
from repro.core.reptile import ReptileCorrector
from repro.core.reptile.read_correct import valid_walk_positions
from repro.core.reptile.tile_correct import (
    DECISION_CODES,
    enumerate_mutant_tiles,
    enumerate_mutant_tiles_batch,
    evaluate_tile,
    evaluate_tiles_batch,
)
from repro.io.fastq import read_fastq
from repro.kmer.neighbor_index import (
    PrecomputedNeighborIndex,
    ProbingNeighborIndex,
)
from repro.kmer.spectrum import KmerSpectrum
from repro.parallel import correct_in_parallel

GOLDEN = Path(__file__).resolve().parent / "golden"

ABLATIONS = {
    "all_on": HotpathConfig(),
    "batch_only": HotpathConfig(batch=True, memo=False),
    "memo_only": HotpathConfig(batch=False, memo=True),
}


@pytest.fixture(scope="module")
def reptile_reads():
    return read_fastq(GOLDEN / "reptile_reads.fastq")


@pytest.fixture(scope="module")
def scalar_corrector(reptile_reads):
    return ReptileCorrector.fit(
        reptile_reads, hotpath=HotpathConfig.all_off()
    )


@pytest.fixture(scope="module")
def scalar_result(scalar_corrector, reptile_reads):
    return scalar_corrector.run(reptile_reads, track_validated=True)


def _fast_corrector(base: ReptileCorrector, hp: HotpathConfig):
    """Same fitted tables/params as ``base``, different fast paths."""
    return ReptileCorrector(
        params=base.params,
        spectrum=base.spectrum,
        tiles=base.tiles,
        hotpath=hp,
    )


# -- corrector-level differentials ------------------------------------


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_reptile_fast_paths_byte_identical(
    name, reptile_reads, scalar_corrector, scalar_result
):
    """Each acceleration alone, and all together, reproduces the scalar
    path bit for bit: codes, stats, and per-base provenance."""
    fast = _fast_corrector(scalar_corrector, ABLATIONS[name])
    got = fast.run(reptile_reads, track_validated=True)
    assert np.array_equal(got.reads.codes, scalar_result.reads.codes)
    assert np.array_equal(got.reads.lengths, scalar_result.reads.lengths)
    assert got.stats == scalar_result.stats
    assert np.array_equal(got.validated, scalar_result.validated)


def test_reptile_fast_path_idempotent_across_runs(
    reptile_reads, scalar_corrector, scalar_result
):
    """A warmed memo (second run on the same corrector) still matches —
    cached rules replay, never drift."""
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
    """The all-on fast path through the parallel engine's chunk loop
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
    fast = _fast_corrector(scalar_corrector, HotpathConfig())
    report = correct_in_parallel(
        fast, reptile_reads, workers=1, chunk_size=256
    )
    merged = report.summary()
    assert merged["hotpath.memo_hits"] > 0
    assert merged["hotpath.memo_misses"] >= 0


def test_redeem_hotpath_matches_scalar():
    """REDEEM built through the registry with every fast path on and
    with the scalar config corrects identically: the hot-path config
    never changes a REDEEM base or attempt estimate."""
    reads = read_fastq(GOLDEN / "redeem_reads.fastq")
    scalar = build_corrector(
        "redeem", reads, k=10, hotpath=HotpathConfig.all_off()
    )
    fast = build_corrector("redeem", reads, k=10, hotpath=HotpathConfig())
    assert np.array_equal(
        scalar.correct(reads).codes, fast.correct(reads).codes
    )
    assert np.array_equal(scalar.T, fast.T)


# -- CLI-level differentials (in-memory vs --stream, flags) -----------

ALL_OFF_FLAGS = ["--no-batch-kernels", "--no-memo-cache"]


@pytest.fixture(scope="module")
def cli_reference(tmp_path_factory):
    """Scalar in-memory CLI output on the golden corpus."""
    from repro.tools.correct import main as correct_main

    out = tmp_path_factory.mktemp("hotpath-cli") / "ref.fastq"
    rc = correct_main(
        [
            str(GOLDEN / "reptile_reads.fastq"),
            str(out),
            "--chunk-size", "200",
            *ALL_OFF_FLAGS,
        ]
    )
    assert rc == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param([], id="memory-all-on"),
        pytest.param(["--stream"], id="stream-all-on"),
        pytest.param(["--stream", *ALL_OFF_FLAGS], id="stream-all-off"),
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


def test_valid_walk_positions_mirror_walk():
    """The closed-form all-valid walk sequence: starts at 0, advances
    by the step, clamps at the final window, visits it exactly once."""
    assert valid_walk_positions(36, 24, 12) == [0, 12]
    assert valid_walk_positions(24, 24, 12) == [0]
    assert valid_walk_positions(100, 24, 12) == [0, 12, 24, 36, 48, 60, 72, 76]
    for length in range(24, 60):
        pos = valid_walk_positions(length, 24, 12)
        assert pos[0] == 0 and pos[-1] == length - 24
        assert all(b > a for a, b in zip(pos, pos[1:]))
