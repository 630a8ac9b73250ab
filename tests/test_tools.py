"""Tests for the command-line tools (in-process main() invocation)."""

import numpy as np
import pytest

from repro.tools.assemble import main as assemble_main
from repro.tools.cluster import main as cluster_main
from repro.tools.correct import main as correct_main
from repro.tools.simulate import main as simulate_main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    rc = simulate_main(
        [
            str(out),
            "--genome-length", "5000",
            "--coverage", "35",
            "--seed", "5",
        ]
    )
    assert rc == 0
    return out


def test_simulate_outputs(dataset_dir):
    assert (dataset_dir / "genome.fasta").exists()
    assert (dataset_dir / "reads.fastq").exists()
    assert (dataset_dir / "truth.fastq").exists()
    from repro.io import read_fastq

    reads = read_fastq(dataset_dir / "reads.fastq")
    truth = read_fastq(dataset_dir / "truth.fastq")
    assert reads.n_reads == truth.n_reads
    # There are actual simulated errors between reads and truth.
    assert (reads.codes != truth.codes).any()


@pytest.mark.parametrize("method", ["reptile", "sap"])
def test_correct_tool(dataset_dir, tmp_path, method, capsys):
    out = tmp_path / f"{method}.fastq"
    rc = correct_main(
        [
            str(dataset_dir / "reads.fastq"),
            str(out),
            "--method", method,
            "--genome-length", "5000",
            "--truth", str(dataset_dir / "truth.fastq"),
        ]
    )
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "gain=" in captured
    gain = float(captured.split("gain=")[1].split()[0])
    assert gain > 0.3


def test_correct_tool_hybrid(dataset_dir, tmp_path):
    out = tmp_path / "hybrid.fastq"
    rc = correct_main(
        [
            str(dataset_dir / "reads.fastq"),
            str(out),
            "--method", "hybrid",
            "--k", "10",
            "--genome-length", "5000",
        ]
    )
    assert rc == 0
    assert out.exists()


def test_assemble_tool(dataset_dir, tmp_path, capsys):
    out = tmp_path / "contigs.fasta"
    rc = assemble_main(
        [str(dataset_dir / "reads.fastq"), str(out), "--k", "15"]
    )
    assert rc == 0
    from repro.io import parse_fasta

    contigs = list(parse_fasta(out))
    assert len(contigs) > 0
    assert "N50" in capsys.readouterr().out


def test_cluster_tool(tmp_path, capsys):
    # A small metagenome written as FASTQ.
    from repro.io import write_fastq
    from repro.simulate import (
        TaxonomySpec,
        simulate_metagenome,
        simulate_taxonomy,
    )

    spec = TaxonomySpec(
        gene_length=600,
        branching={"phylum": 2, "family": 2, "genus": 1, "species": 2},
    )
    tax = simulate_taxonomy(spec, np.random.default_rng(0))
    sample = simulate_metagenome(
        tax, 120, np.random.default_rng(1), read_length_mean=250,
        read_length_sd=20, min_length=200, max_length=300,
    )
    sample.reads.names = [f"r{i}" for i in range(sample.n_reads)]
    fq = tmp_path / "sample.fastq"
    write_fastq(sample.reads, fq)

    outdir = tmp_path / "clusters"
    rc = cluster_main(
        [str(fq), str(outdir), "--thresholds", "0.6", "--k", "14",
         "--modulus", "8"]
    )
    assert rc == 0
    tsv = outdir / "clusters_t0.6.tsv"
    assert tsv.exists()
    lines = tsv.read_text().strip().splitlines()
    assert lines and all("\t" in ln for ln in lines)
    assert "confirmed=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "0"],
        ["--k", "33"],
        ["--modulus", "0"],
        ["--rounds", "0"],
        ["--gamma", "0"],
        ["--gamma", "1.5"],
        ["--thresholds", "1.5"],
        ["--thresholds", "0.9", "0"],
        ["--thresholds", "nan"],
    ],
    ids=lambda f: " ".join(f),
)
def test_cluster_tool_rejects_out_of_range_flags(flags, tmp_path, capsys):
    fa = tmp_path / "in.fasta"
    fa.write_text(">a\nACGTACGTACGTACGTACGTACGT\n")
    with pytest.raises(SystemExit) as exc:
        cluster_main([str(fa), str(tmp_path / "c"), *flags])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_cluster_tool_accepts_range_edges(tmp_path):
    fa = tmp_path / "in.fasta"
    fa.write_text(">a\nACGTACGTACGTACGTACGTACGTACGTACGTAC\n")
    rc = cluster_main(
        [str(fa), str(tmp_path / "c"), "--k", "31", "--thresholds", "1",
         "--gamma", "1", "--modulus", "1", "--rounds", "1"]
    )
    assert rc == 0


def test_cluster_tool_fasta_input(tmp_path):
    from repro.io import write_fasta

    fa = tmp_path / "in.fasta"
    seqs = [("a", "ACGTACGTACGTACGTACGTACGT"), ("b", "ACGTACGTACGTACGTACGTACGT")]
    write_fasta(seqs, fa)
    outdir = tmp_path / "c"
    rc = cluster_main(
        [str(fa), str(outdir), "--thresholds", "0.9", "--k", "8",
         "--modulus", "1", "--rounds", "1"]
    )
    assert rc == 0
    tsv = outdir / "clusters_t0.9.tsv"
    body = tsv.read_text()
    assert "a" in body and "b" in body
