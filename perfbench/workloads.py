"""The four workloads, measured untraced.

Each is a closed loop driven from this process: the next operation
starts only after the previous one finished (service_mixed runs two
such clients).  Every operation's output is checked against a
reference from :mod:`oracles`; a non-zero exit, a mismatch, a job that
did not succeed or a timeout counts as one failed operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
import inputs
import oracles
import service

#: Metric name -> unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "reads_per_s": "reads/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}

SETUP_REPEATS = 3
SOCKET_FLAGS = ("--backend", "socket", "--shards", "4", "--workers", "2")
CLUSTER_FLAGS = ("--backend", "mapreduce", "--workers", "2",
                 "--max-retries", "1")
#: CLOSET purity is taken at the lowest of the CLI's default thresholds.
CLUSTER_PURITY_FILE = "clusters_t0.5.tsv"


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


def _cli_loop(seconds: float, run_op) -> list:
    """Run operations back to back for ``seconds`` (at least one);
    ``run_op(i)`` returns ``(ProcResult, checked output value)``."""
    ops = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        ops.append(run_op(len(ops)))
    return ops


def count_failed(ops, expected) -> int:
    """Operations that exited non-zero, timed out, or whose checked
    output value differs from the reference's."""
    return sum(1 for res, value in ops if not res.ok or value != expected)


def reptile_cli(seed: int, seconds: float, workdir: Path,
                socket: bool) -> Outcome:
    """reptile_batch (``socket=False``) and reptile_socket."""
    corpus = inputs.standard_corpus(seed, workdir / "corpus")
    setup = harness.cli_setup_s("repro.tools.correct", workdir, SETUP_REPEATS)
    flags = SOCKET_FLAGS if socket else ()

    def run_op(i: int):
        out = workdir / f"corrected{i}.fastq"
        res = harness.run_process(
            harness.repro_argv("correct", str(corpus.reads), str(out),
                               *flags), workdir)
        digest = oracles.sha256_file(out) if out.exists() else None
        out.unlink(missing_ok=True)
        return res, digest

    ops = _cli_loop(seconds, run_op)
    # The reference runs after the loop: Linux starts an exec'd child's
    # peak-RSS mark at its parent's, so this process stays small while
    # the measured processes run.
    ref = oracles.correction("reptile", corpus.reads,
                             read_codes(corpus.truth),
                             workdir / "reference.fastq")
    walls = [res.wall_s for res, _ in ops]
    return Outcome(
        metrics={
            "setup_s": setup,
            "reads_per_s": corpus.n_reads / harness.median(walls),
            "latency_p50_s": harness.median(walls),
            "peak_rss_mb": harness.median([r.peak_rss_mb for r, _ in ops]),
            "quality": ref.gain,
        },
        attempted=len(ops),
        failed=count_failed(ops, ref.sha256),
        detail={"walls_s": walls, "reads": corpus.n_reads,
                "reference_sha256": ref.sha256},
    )


def read_codes(path: Path):
    from repro.io.fastq import read_fastq

    return read_fastq(path).codes


def closet_cluster(seed: int, seconds: float, workdir: Path) -> Outcome:
    meta = inputs.metagenome(seed, workdir)
    setup = harness.cli_setup_s("repro.tools.cluster", workdir, SETUP_REPEATS)

    def run_op(i: int):
        stdout = workdir / f"cluster{i}.out"
        res = harness.run_process(
            harness.repro_argv("cluster", str(meta.path),
                               str(workdir / f"clusters{i}"), *CLUSTER_FLAGS),
            workdir, stdout_path=stdout)
        edges = oracles.parse_edges(stdout.read_bytes())
        return res, edges[2] if edges else None

    ops = _cli_loop(seconds, run_op)
    reference = oracles.closet_confirmed_edges(meta.path, workdir / "plain")
    good = [i for i, (res, confirmed) in enumerate(ops)
            if res.ok and confirmed == reference]
    purity = (
        oracles.cluster_purity_of(
            workdir / f"clusters{good[0]}" / CLUSTER_PURITY_FILE,
            meta.names, meta.genus)
        if good else float("nan")
    )
    walls = [res.wall_s for res, _ in ops]
    return Outcome(
        metrics={
            "setup_s": setup,
            "reads_per_s": meta.n_reads / harness.median(walls),
            "latency_p50_s": harness.median(walls),
            "peak_rss_mb": harness.median([r.peak_rss_mb for r, _ in ops]),
            "quality": purity,
        },
        attempted=len(ops),
        failed=count_failed(ops, reference),
        detail={"walls_s": walls, "reads": meta.n_reads,
                "confirmed_edges_reference": reference},
    )


def service_mixed(seed: int, seconds: float, workdir: Path) -> Outcome:
    server, setups = service.start_server(workdir, SETUP_REPEATS)
    try:
        traffic = service.Traffic(server, seed, workdir)
        traffic.warm(fresh=service.fresh_inputs_for(seconds))
        wall = traffic.run(seconds)
    finally:
        stopped = server.stop()
    return service_outcome(traffic, wall, setups, stopped, workdir)


def check_service(traffic, workdir: Path):
    """Compare every download with the reference for its (input, method)
    pair; returns ``(failed jobs, references)``."""
    refs: dict[tuple[int, str], oracles.Correction] = {}
    failed = 0
    for rec in traffic.records:
        if not rec.ok:
            failed += 1
            continue
        key = (rec.input_index, rec.method)
        if key not in refs:
            job_in = traffic.inputs[rec.input_index]
            refs[key] = oracles.correction(
                rec.method, job_in.path, job_in.true_codes,
                workdir / "reference.fastq")
        if oracles.sha256_file(rec.download) != refs[key].sha256:
            failed += 1
        rec.download.unlink()
    return failed, refs


def service_outcome(traffic, wall: float, setups, stopped,
                    workdir: Path) -> Outcome:
    failed, refs = check_service(traffic, workdir)
    by_method: dict[str, list] = {}
    for (_idx, method), ref in refs.items():
        by_method.setdefault(method, []).append(ref)
    quality = (min(oracles.pooled_gain(v) for v in by_method.values())
               if by_method else float("nan"))
    done = [r for r in traffic.records if r.ok]
    latencies = [r.latency_s for r in done] or [float("nan")]
    hits = sum(1 for r in done if r.pool_hit)
    return Outcome(
        metrics={
            "setup_s": harness.median(setups),
            "reads_per_s": sum(r.reads for r in done) / wall,
            "latency_p50_s": harness.median(latencies),
            "peak_rss_mb": stopped.peak_rss_mb,
            "quality": quality,
        },
        # The server process is one more operation: it must exit cleanly.
        attempted=len(traffic.records) + 1,
        failed=failed + (0 if stopped.ok else 1),
        detail={"setups_s": setups, "loop_wall_s": wall,
                "pool_hits": f"{hits}/{len(done)}"},
    )
