"""Seeded inputs for every workload.

Every input is a pure function of the ``--seed`` the benchmark was
given (plus a fixed salt per input), so the same seed always gives the
same bytes.  The program only ever sees the generated files.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Standard correction corpus: ``repro simulate --genome-length 12000
#: --coverage 30`` gives 10k reads of 36 bp.
CORPUS_GENOME = 12000
CORPUS_COVERAGE = 30.0

#: Service jobs: ~2k reads of 36 bp from a 2.4 kbp genome, 20% of which
#: is made of repeats.
JOB_GENOME = 2400
JOB_COVERAGE = 30.0
JOB_REPEAT_FRACTION = 0.2
READ_LENGTH = 36

#: CLOSET input: 454-like reads from the chapter-4 taxonomy simulator.
#: 1000 reads keep one MapReduce clustering near 8 s, so a run measures
#: at least two of them.
META_READS = 1000

#: Memory budget of fresh streaming service jobs: far below the ~240 KB
#: spectrum of a job input, so phase 1 must spill to disk.
STREAM_MAX_MEMORY = 64 * 1024


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), *salt])


@dataclass
class Corpus:
    reads: Path
    truth: Path
    n_reads: int


def standard_corpus(seed: int, outdir: Path) -> Corpus:
    """The ``repro simulate`` corpus, made by the simulate tool itself."""
    from repro.tools.simulate import main as simulate_main

    with contextlib.redirect_stdout(sys.stderr):
        rc = simulate_main([
            str(outdir), "--genome-length", str(CORPUS_GENOME),
            "--coverage", str(CORPUS_COVERAGE),
            "--read-length", str(READ_LENGTH),
            "--seed", str(seed % (1 << 32)),
        ])
    if rc != 0:
        raise RuntimeError(f"repro simulate exited {rc}")
    return Corpus(outdir / "reads.fastq", outdir / "truth.fastq",
                  _count_fastq(outdir / "reads.fastq"))


def _count_fastq(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) // 4


@dataclass
class JobInput:
    path: Path
    true_codes: np.ndarray
    n_reads: int


def job_input(seed: int, index: int, outdir: Path) -> JobInput:
    """Service job input ``index`` (a 2k-read FASTQ with its truth)."""
    from repro.io.fastq import write_fastq
    from repro.simulate.errors import illumina_like_model
    from repro.simulate.genome import repeat_spec, simulate_genome
    from repro.simulate.illumina import simulate_reads

    rng = rng_for(seed, 2, index)
    genome = simulate_genome(
        repeat_spec(JOB_GENOME, JOB_REPEAT_FRACTION, unit_length=200), rng
    )
    model = illumina_like_model(READ_LENGTH, base_rate=0.005,
                                end_multiplier=4.0)
    sim = simulate_reads(genome, READ_LENGTH, model, rng,
                         coverage=JOB_COVERAGE)
    sim.reads.names = [f"read{i}" for i in range(sim.n_reads)]
    path = outdir / f"job{index:04d}.fastq"
    write_fastq(sim.reads, path)
    return JobInput(path, sim.true_codes, sim.n_reads)


@dataclass
class Metagenome:
    path: Path
    names: list[str]
    genus: np.ndarray
    n_reads: int


def metagenome(seed: int, outdir: Path) -> Metagenome:
    """A 454-like 16S pool with true genus labels, written as FASTA."""
    from repro.io.fasta import write_fasta
    from repro.simulate.metagenome import (
        TaxonomySpec,
        simulate_metagenome,
        simulate_taxonomy,
    )

    rng = rng_for(seed, 3)
    sample = simulate_metagenome(simulate_taxonomy(TaxonomySpec(), rng),
                                 META_READS, rng)
    names = [f"r{i}" for i in range(sample.n_reads)]
    path = outdir / "meta.fasta"
    write_fasta([(n, sample.reads.sequence(i)) for i, n in enumerate(names)],
                path)
    return Metagenome(path, names, sample.true_labels("genus"),
                      sample.n_reads)

