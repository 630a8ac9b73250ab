"""Independent references for every output the benchmark checks.

Each reference is computed in-process, once per invocation, through a
different entry point than the measured operation: the correction
registry (``build_corrector(...).correct``) for Reptile and REDEEM
outputs, and the ``plain`` CLOSET backend for the confirmed-edge count
of a MapReduce clustering.  Cluster files are not compared: the two
CLOSET backends may legitimately split clusters differently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Correction:
    sha256: str
    tp: int
    fp: int
    fn: int

    @property
    def gain(self) -> float:
        return pooled_gain([self])


def correction(method: str, reads_path: Path, true_codes: np.ndarray,
               scratch: Path) -> Correction:
    """Reference output of ``method`` on a FASTQ, with its accuracy
    against the simulator's truth."""
    from repro.core.api import build_corrector
    from repro.eval.correction import evaluate_correction
    from repro.io.fastq import read_fastq, write_fastq

    reads = read_fastq(reads_path)
    corrected = build_corrector(method, reads).correct(reads)
    write_fastq(corrected, scratch)
    digest = sha256_file(scratch)
    scratch.unlink()
    m = evaluate_correction(reads.codes, corrected.codes, true_codes,
                            lengths=reads.lengths)
    return Correction(digest, m.tp, m.fp, m.fn)


def pooled_gain(results) -> float:
    """Correction gain over several inputs, counted base by base."""
    tp = sum(r.tp for r in results)
    fp = sum(r.fp for r in results)
    fn = sum(r.fn for r in results)
    return (tp - fp) / (tp + fn)


_EDGES = re.compile(rb"edges: predicted=(\d+) unique=(\d+) confirmed=(\d+)")


def parse_edges(stdout: bytes) -> tuple[int, int, int] | None:
    """``(predicted, unique, confirmed)`` from ``repro cluster`` output."""
    m = _EDGES.search(stdout)
    return tuple(int(g) for g in m.groups()) if m else None


def closet_confirmed_edges(fasta: Path, outdir: Path) -> int:
    """Confirmed edges of the ``plain`` backend on the same input."""
    from repro.tools.cluster import main as cluster_main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cluster_main([str(fasta), str(outdir), "--backend", "plain"])
    edges = parse_edges(buf.getvalue().encode())
    if rc != 0 or edges is None:
        raise RuntimeError(f"plain CLOSET reference failed (exit {rc})")
    return edges[2]


def cluster_purity_of(tsv: Path, names: list[str], labels: np.ndarray) -> float:
    """Purity of a ``clusters_t*.tsv`` file against true labels."""
    from repro.eval.clustering import cluster_purity

    index = {n: i for i, n in enumerate(names)}
    members: dict[str, list[int]] = {}
    with open(tsv) as fh:
        for line in fh:
            cid, name = line.rstrip("\n").split("\t")
            members.setdefault(cid, []).append(index[name])
    clusters = [np.array(v, dtype=np.int64) for v in members.values()]
    return cluster_purity(clusters, labels)
