"""Pinned golden-corpus pipelines, shared by the regression test and
``regenerate.py``.

Every function here must stay **deterministic**: fixed seeds, no
wall-clock, no hash-seed dependence (CLOSET's hashing is splitmix64,
not Python ``hash``).  The committed ``*_reads.fastq`` inputs are the
contract — the test never re-simulates them — so changing a simulator
does not invalidate the corpus; changing a *correction or clustering
rule* does, loudly.

To accept an intentional behavior change, rerun::

    PYTHONPATH=src python tests/golden/regenerate.py

and commit the updated expected files together with the change that
caused them (see docs/parallel_correction.md).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent

#: Dataset recipes (used only by regenerate.py; tests read the
#: committed FASTQ files).
DATASETS = {
    "reptile": dict(
        genome_length=2500, coverage=15.0, read_length=36,
        error_rate=0.01, seed=101,
    ),
    "redeem": dict(
        genome_length=900, coverage=12.0, read_length=32,
        error_rate=0.012, seed=202,
    ),
    # Two unrelated genomes -> two similarity islands for CLOSET.
    "closet": dict(
        genome_length=400, coverage=10.0, read_length=50,
        error_rate=0.004, seeds=(303, 404),
    ),
}

#: Cases that rerun another case's committed input through a different
#: pipeline: case -> the case whose ``*_reads.fastq`` they read.
SHARED_INPUT = {"closet_mapreduce": "closet"}

#: Pinned REDEEM k (auto-selection is Reptile-only).
REDEEM_K = 10
#: Pinned CLOSET thresholds, loosest last.
CLOSET_THRESHOLDS = [0.9, 0.5]


def simulate_case(spec: dict):
    """One deterministic simulated ReadSet (reptile/redeem recipes)."""
    from repro.simulate.errors import illumina_like_model
    from repro.simulate.genome import repeat_spec, simulate_genome
    from repro.simulate.illumina import simulate_reads

    rng = np.random.default_rng(spec["seed"])
    genome = simulate_genome(repeat_spec(spec["genome_length"], 0.0), rng)
    model = illumina_like_model(
        spec["read_length"], base_rate=spec["error_rate"], end_multiplier=4.0
    )
    reads = simulate_reads(
        genome, spec["read_length"], model, rng, coverage=spec["coverage"]
    ).reads
    reads.names = [f"read{i}" for i in range(reads.n_reads)]
    return reads


def simulate_closet_case(spec: dict):
    """Reads drawn from two independent genomes, interleaved by origin."""
    from repro.io.readset import ReadSet

    parts = []
    for seed in spec["seeds"]:
        parts.append(simulate_case({**spec, "seed": seed}))
    codes = np.concatenate([p.codes for p in parts], axis=0)
    lengths = np.concatenate([p.lengths for p in parts])
    quals = np.concatenate([p.quals for p in parts], axis=0)
    reads = ReadSet(codes=codes, lengths=lengths, quals=quals)
    reads.names = [f"read{i}" for i in range(reads.n_reads)]
    return reads


def run_reptile(reads):
    """The default public Reptile path: auto parameters, both passes."""
    from repro.core.reptile import ReptileCorrector

    return ReptileCorrector.fit(reads).correct(reads)


def run_redeem(reads):
    """The default public REDEEM path at the pinned k."""
    from repro.core.redeem import RedeemCorrector

    return RedeemCorrector.fit(reads, k=REDEEM_K).correct(reads)


def run_closet(reads) -> str:
    """CLOSET clustering (plain backend) rendered as a canonical TSV.

    One line per (threshold, cluster, read): clusters are ordered by
    their smallest read index, members ascending — so the text is a
    pure function of the clustering, not of traversal order.
    """
    from repro.core.closet import ClosetClusterer

    result = ClosetClusterer().run(reads, thresholds=CLOSET_THRESHOLDS)
    return _closet_tsv(reads, result)


def run_closet_mapreduce(reads, policy=None) -> str:
    """The Task 1–8 MapReduce backend on 2 workers, same TSV form.

    ``policy`` selects the fault-tolerant runner; the clustering must
    not depend on it.
    """
    from repro.core.closet import ClosetClusterer

    result = ClosetClusterer().run(
        reads,
        thresholds=CLOSET_THRESHOLDS,
        backend="mapreduce",
        n_workers=2,
        policy=policy,
    )
    return _closet_tsv(reads, result)


def _closet_tsv(reads, result) -> str:
    lines = ["#threshold\tcluster\tread"]
    for t in sorted(result.clusters, reverse=True):
        clusters = sorted(
            result.clusters[t], key=lambda c: int(c[0]) if c.size else -1
        )
        for cid, members in enumerate(clusters):
            for r in members.tolist():
                lines.append(f"{t:g}\t{cid}\t{reads.names[r]}")
    return "\n".join(lines) + "\n"


def reads_path(case: str) -> Path:
    return GOLDEN_DIR / f"{SHARED_INPUT.get(case, case)}_reads.fastq"


def expected_path(case: str) -> Path:
    closet = SHARED_INPUT.get(case, case) == "closet"
    suffix = "expected.tsv" if closet else "expected.fastq"
    return GOLDEN_DIR / f"{case}_{suffix}"
