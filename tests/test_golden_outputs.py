"""Golden regression corpus: byte-identical outputs for the three
flagship pipelines.

The inputs under ``tests/golden/`` are committed fixed-seed FASTQ
files; each test runs the pinned pipeline (``tests/golden/pipelines.py``)
on them and compares the freshly written output byte-for-byte with the
committed expected file.  Any refactor that silently changes a
correction or clustering decision — parameter selection, tile
validation, posterior votes, sketch confirmation — fails these tests
loudly.  Intentional changes are accepted by rerunning
``tests/golden/regenerate.py`` and committing the new expectations.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_pipelines", GOLDEN_DIR / "pipelines.py"
)
P = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(P)


def _load_reads(case: str):
    from repro.io.fastq import read_fastq

    path = P.reads_path(case)
    assert path.exists(), (
        f"golden input {path} missing — run tests/golden/regenerate.py"
    )
    return read_fastq(path)


def _assert_fastq_golden(case: str, corrected, tmp_path) -> None:
    from repro.io.fastq import write_fastq

    out = tmp_path / "out.fastq"
    write_fastq(corrected, out)
    expected = P.expected_path(case)
    assert out.read_bytes() == expected.read_bytes(), (
        f"{case} corrections changed relative to the golden corpus; "
        "if intentional, regenerate via tests/golden/regenerate.py"
    )


def test_reptile_golden(tmp_path):
    reads = _load_reads("reptile")
    _assert_fastq_golden("reptile", P.run_reptile(reads), tmp_path)


def test_redeem_golden(tmp_path):
    reads = _load_reads("redeem")
    _assert_fastq_golden("redeem", P.run_redeem(reads), tmp_path)


def test_closet_golden():
    reads = _load_reads("closet")
    got = P.run_closet(reads)
    expected = P.expected_path("closet").read_text()
    assert got == expected, (
        "CLOSET clustering changed relative to the golden corpus; "
        "if intentional, regenerate via tests/golden/regenerate.py"
    )


@pytest.mark.parametrize("retries", [None, 1], ids=["no-policy", "policy"])
def test_closet_mapreduce_golden(retries):
    """The 2-worker MapReduce backend renders the pinned clustering
    whether or not the fault-tolerant runner is asked for."""
    from repro.mapreduce import RetryPolicy

    reads = _load_reads("closet_mapreduce")
    policy = None if retries is None else RetryPolicy(max_retries=retries)
    got = P.run_closet_mapreduce(reads, policy=policy)
    expected = P.expected_path("closet_mapreduce").read_text()
    assert got == expected, (
        "CLOSET MapReduce clustering changed relative to the golden "
        "corpus; if intentional, regenerate via tests/golden/regenerate.py"
    )


def test_golden_corpus_is_nontrivial():
    """The corpus must actually exercise corrections (guards against a
    regenerate that silently produced a no-op dataset)."""
    for case in ("reptile", "redeem"):
        assert (
            P.reads_path(case).read_bytes()
            != P.expected_path(case).read_bytes()
        ), f"{case} golden expected output equals its input"
    tsv = P.expected_path("closet").read_text().splitlines()
    assert len(tsv) > 10 and tsv[0].startswith("#threshold")


def test_golden_inputs_parse_roundtrip(tmp_path):
    """Committed inputs survive a read/write cycle unchanged, so the
    byte comparison above measures pipeline behavior, not IO drift."""
    from repro.io.fastq import read_fastq, write_fastq

    for case in ("reptile", "redeem", "closet"):
        src = P.reads_path(case)
        out = tmp_path / src.name
        write_fastq(read_fastq(src), out)
        assert out.read_bytes() == src.read_bytes()


@pytest.mark.parametrize("case", ["reptile", "redeem"])
def test_golden_matches_parallel_engine(case, tmp_path):
    """The parallel engine at 2 workers reproduces the golden outputs
    exactly (golden corpus doubles as a serial/parallel oracle)."""
    from repro.core.redeem import RedeemCorrector
    from repro.core.reptile import ReptileCorrector

    reads = _load_reads(case)
    if case == "reptile":
        corrector = ReptileCorrector.fit(reads)
    else:
        corrector = RedeemCorrector.fit(reads, k=P.REDEEM_K)
    report = corrector.correct_parallel(reads, workers=2, chunk_size=97)
    _assert_fastq_golden(case, report.reads, tmp_path)
