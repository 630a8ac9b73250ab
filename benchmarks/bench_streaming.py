"""Extension — out-of-core streaming: balanced merges vs the quadratic
accumulator, and disk-spill external counting.

The paper's divide-and-merge strategy (Sec. 2.3) is only an
out-of-core answer if merge work stays near-linear.  This bench checks
three claims:

- **equivalence** — balanced-merge and external (disk-spill) spectra
  are bitwise identical to the monolithic spectrum at every chunk
  count (always asserted);
- **speedup** — the balanced merge (binary-counter stack, O(N log C))
  beats the old linear accumulator (re-merging the full table against
  every chunk, O(N·C)) once chunk counts grow (asserted at >= 16
  chunks unless ``--smoke``);
- **bounded memory** — the external counter's in-memory buffer stays
  under the configured budget as chunk count grows (always asserted),
  with spill traffic reported via telemetry gauges.

Runs under pytest (``python -m pytest benchmarks/bench_streaming.py``)
or standalone::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--smoke]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import telemetry
from repro.kmer import (
    SpectrumAccumulator,
    iter_read_chunks,
    merge_spectra,
    spectrum_from_reads,
)
from repro.simulate.errors import illumina_like_model
from repro.simulate.genome import repeat_spec, simulate_genome
from repro.simulate.illumina import simulate_reads

#: Memory budget for the external-counter rows (small on purpose, so
#: even bench-scale data spills).
EXTERNAL_BUDGET = 256 << 10


def build_dataset(genome_length: int, coverage: float, seed: int = 7):
    rng = np.random.default_rng(seed)
    genome = simulate_genome(repeat_spec(genome_length, 0.0), rng)
    model = illumina_like_model(36, base_rate=0.008, end_multiplier=4.0)
    return simulate_reads(genome, 36, model, rng, coverage=coverage).reads


def linear_spectrum_from_chunks(chunks, k):
    """The pre-balanced-merge accumulator: every chunk is merged into
    one ever-growing table, so chunk i pays for all i-1 predecessors —
    O(N·C) total merge work.  Kept here as the benchmark baseline."""
    from repro.kmer.spectrum import KmerSpectrum, read_kmer_codes

    acc = None
    for chunk in chunks:
        codes = read_kmer_codes(chunk, k, both_strands=True)
        kmers, counts = np.unique(codes, return_counts=True)
        part = KmerSpectrum(k=k, kmers=kmers, counts=counts.astype(np.int64))
        acc = part if acc is None else merge_spectra(acc, part)
    return acc


def _identical(a, b) -> bool:
    return bool(
        np.array_equal(a.kmers, b.kmers) and np.array_equal(a.counts, b.counts)
    )


def run_merge_scaling(reads, k: int, chunk_counts: tuple[int, ...]):
    """Time linear vs balanced vs external counting at each chunk count."""
    mono = spectrum_from_reads(reads, k)
    rows = []
    for n_chunks in chunk_counts:
        chunk_size = max(1, -(-reads.n_reads // n_chunks))
        chunks = list(iter_read_chunks(reads, chunk_size))

        t0 = time.perf_counter()
        linear = linear_spectrum_from_chunks(iter(chunks), k)
        t_linear = time.perf_counter() - t0

        t0 = time.perf_counter()
        acc = SpectrumAccumulator(k)
        for c in chunks:
            acc.add_chunk(c)
        balanced = acc.finalize()
        t_balanced = time.perf_counter() - t0

        t0 = time.perf_counter()
        ext_acc = SpectrumAccumulator(k, max_memory_bytes=EXTERNAL_BUDGET)
        for c in chunks:
            ext_acc.add_chunk(c)
        external = ext_acc.finalize()
        t_external = time.perf_counter() - t0

        assert _identical(balanced, mono), f"balanced diverged at {n_chunks}"
        assert _identical(external, mono), f"external diverged at {n_chunks}"

        # The spill buffer holds at most budget + one chunk's table
        # (it spills as soon as an add pushes it past the budget), so
        # peak memory is flat in the chunk count.
        mem_bound = EXTERNAL_BUDGET + ext_acc.max_add_bytes
        assert ext_acc.peak_bytes <= mem_bound, (
            f"external buffer {ext_acc.peak_bytes} exceeded "
            f"budget+chunk bound {mem_bound} at {n_chunks} chunks"
        )
        telemetry.gauge(f"spill_bytes_{n_chunks}", ext_acc.spill_bytes)
        telemetry.gauge(f"balanced_peak_bytes_{n_chunks}", acc.peak_bytes)
        rows.append(
            {
                "chunks": len(chunks),
                "linear_s": round(t_linear, 4),
                "balanced_s": round(t_balanced, 4),
                "speedup": round(t_linear / max(t_balanced, 1e-9), 2),
                "external_s": round(t_external, 4),
                "ext_peak_mem": ext_acc.peak_bytes,
                "ext_spill": ext_acc.spill_bytes,
                "identical": True,
            }
        )
    return rows


def _print_rows(title: str, rows: list[dict]) -> None:
    print(f"\n=== {title} ===")
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))


def _check_speedup(rows: list[dict], require: bool) -> None:
    judged = [r for r in rows if r["chunks"] >= 16]
    if not judged:
        return
    if require:
        for r in judged:
            assert r["balanced_s"] < r["linear_s"], (
                f"balanced merge not faster at {r['chunks']} chunks: "
                f"{r['balanced_s']}s vs {r['linear_s']}s linear"
            )
    # Flat memory: the buffer peak must not scale with chunk count.
    # Either more chunks shrank the peak (large per-chunk tables
    # dominated, as at real scale), or the peak sits within budget
    # plus one buffered add (the append-then-spill bound).
    if len(rows) > 1:
        last = rows[-1]["ext_peak_mem"]
        assert (
            last <= rows[0]["ext_peak_mem"] or last <= 2 * EXTERNAL_BUDGET
        ), "external counter memory grew with chunk count"


def test_streaming_merge_scaling():
    reads = build_dataset(genome_length=30_000, coverage=25.0)
    rows = run_merge_scaling(reads, k=12, chunk_counts=(4, 16, 64))
    _print_rows(f"Streaming spectrum construction, {reads.n_reads} reads", rows)
    _check_speedup(rows, require=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--smoke", action="store_true",
        help="tiny dataset, equivalence-only — the CI bit-rot guard",
    )
    p.add_argument("--genome-length", type=int, default=60_000)
    p.add_argument("--coverage", type=float, default=30.0)
    p.add_argument("--k", type=int, default=12)
    p.add_argument(
        "--chunks", type=int, nargs="+", default=[4, 16, 64, 256],
        help="chunk counts to measure",
    )
    p.add_argument(
        "--report", default=None, metavar="PATH",
        help="write a repro-run-report/1 JSON report (rows in `extra`)",
    )
    args = p.parse_args(argv)
    if args.smoke:
        args.genome_length = 4_000
        args.coverage = 10.0
        args.chunks = [4, 16]
    with telemetry.session("bench-streaming") as tel:
        with telemetry.span("build_dataset"):
            reads = build_dataset(args.genome_length, args.coverage)
        with telemetry.span("merge_scaling"):
            rows = run_merge_scaling(reads, args.k, tuple(args.chunks))
    _print_rows(
        f"Streaming spectrum construction, {reads.n_reads} reads "
        f"(k={args.k})",
        rows,
    )
    # Timing is asserted only at real scale: a smoke dataset is noise.
    _check_speedup(rows, require=not args.smoke)
    print("equivalence: all streamed spectra bitwise identical to monolithic")
    if args.report:
        path = tel.report(
            argv=list(argv) if argv is not None else None,
            extra={"merge_rows": rows},
        ).write(args.report)
        print(f"wrote run report to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
