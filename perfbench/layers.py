"""The traced run: per-layer metrics for every layer, every time.

``--trace 1`` runs one traced operation of each workload on the seed's
inputs and a few standalone probes, so every per-layer metric is
reported whichever workload is named.  Each layer is measured on the
workload that exercises it (table in perfbench/README.md); the named
workload only selects which operation is also run untraced, to report
the tracing overhead.

Spans are recorded from outside the program: the benchmark wraps the
calls into each layer's public functions (``Tracer.wrap``) around an
in-process run of the same CLI entry point users run.  The CLI runs in
a child process (``python perfbench/layers.py child ...``) so its peak
RSS and module state are its own; the child writes its spans and wall
time as JSON and its counters through the CLI's ``--report``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import harness
import inputs
import oracles
import service
import workloads

#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    # import (python -X importtime of repro.tools.correct)
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.core_closet_s": "s",
    "import.core_redeem_s": "s",
    "import.eval_s": "s",
    # io
    "io.read_fastq_s": "s",
    "io.write_fastq_s": "s",
    # core.reptile and kmer
    "core.reptile.params_s": "s",
    "kmer.spectrum_s": "s",
    "kmer.tiles_s": "s",
    "core.reptile.construct_s": "s",
    "core.reptile.construct_rss_mb": "MB",
    "kmer.spectrum_kmers": "count",
    "kmer.tiles_n": "count",
    "kmer.neighbor_edges": "count",
    "kmer.prefilter_build_s": "s",
    "kmer.neighbor_index_s": "s",
    "kmer.neighbor_index_rss_mb": "MB",
    # parallel and core.hotpath
    "parallel.correct_s": "s",
    "parallel.correct_self_s": "s",
    "parallel.chunk_p50_s": "s",
    "parallel.chunks": "count",
    "core.reptile.tiles_examined": "count",
    "core.reptile.tiles_corrected": "count",
    "core.reptile.tiles_insufficient": "count",
    "core.hotpath.memo_hit_ratio": "ratio",
    "core.hotpath.memo_lookups": "count",
    # distributed
    "distributed.install_s": "s",
    "distributed.state_bytes": "bytes",
    "distributed.chunk_p50_s": "s",
    "backend.rpc_calls": "count",
    "backend.rpc_bytes_sent": "bytes",
    "shard.rpc_calls": "count",
    "shard.lookup_total": "count",
    "shard.remote_fraction": "ratio",
    "shard.prefiltered_fraction": "ratio",
    "distributed.frame_roundtrip_us": "us",
    "distributed.frame_bytes": "bytes",
    # core.redeem and kmer.streaming
    "core.redeem.fit_s": "s",
    "kmer.stream_build_s": "s",
    "kmer.spill_bytes": "bytes",
    # service
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_hit_s": "s",
    "service.run_miss_s": "s",
    "service.result_s": "s",
    "service.polls_per_job": "count",
    "service.pool_hit_ratio": "ratio",
    "service.jobs": "count",
    "service.jobs_per_s": "1/s",
    "service.latency_p50_s": "s",
    "service.latency_tail_s": "s",
    "service.latency_tail_pct": "percentile",
    "service.hit_latency_p50_s": "s",
    "service.miss_latency_p50_s": "s",
    "service.store_cycle_s": "s",
    # mapreduce and core.closet
    "mapreduce.run_task_s": "s",
    "mapreduce.tasks": "count",
    "mapreduce.task_attempts": "count",
    "core.closet.self_s": "s",
    "core.closet.edges_predicted": "count",
    "core.closet.edges_confirmed_ratio": "ratio",
    # the trace itself
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Every ratio is reported next to the count it is taken over.
RATIO_BASES = {
    "core.hotpath.memo_hit_ratio": "core.hotpath.memo_lookups",
    "shard.remote_fraction": "shard.lookup_total",
    "shard.prefiltered_fraction": "shard.lookup_total",
    "service.pool_hit_ratio": "service.jobs",
    "core.closet.edges_confirmed_ratio": "core.closet.edges_predicted",
    "trace.overhead_ratio": "trace.untraced_wall_s",
}

IMPORT_MODULE = "repro.tools.correct"
IMPORT_PACKAGES = {
    "import.scipy_s": "scipy",
    "import.core_closet_s": "repro.core.closet",
    "import.core_redeem_s": "repro.core.redeem",
    "import.eval_s": "repro.eval",
}
IMPORT_REPEATS = 3
#: The service traffic runs until both ``--seconds`` passed and this
#: many jobs started, so the latency tail has at least ten samples
#: beyond it.
SERVICE_MIN_JOBS = 24
FRAME_CODES = 4096
FRAME_REPEATS = 200
STORE_CYCLES = 20


# -- span arithmetic over a list of spans --------------------------------

def named(spans, name: str) -> list:
    return [s for s in spans if s.name == name]


def total(spans, name: str) -> float:
    return sum(s.duration for s in named(spans, name))


def self_total(spans, name: str) -> float:
    st = harness.self_times(spans)
    return sum(st[s.span_id] for s in named(spans, name))


def median_duration(spans, name: str) -> float:
    return harness.median([s.duration for s in named(spans, name)])


# -- child process: one CLI run, traced or not --------------------------

def install_correct(tracer: harness.Tracer) -> None:
    import repro.core.reptile.corrector as corrector_mod
    import repro.distributed.socket_backend as socket_mod
    import repro.io.fastq as fastq_mod
    import repro.parallel as parallel_pkg
    import repro.tools.correct as correct_tool
    from repro.core.reptile import ReptileCorrector
    from repro.distributed.socket_backend import SocketBackend

    def count_of(attr):
        def hook(span, result, _args):
            span.attrs["n"] = int(getattr(result, attr))
        return hook

    def message_bytes(span, result, args):
        msg = args[1]
        span.attrs["type"] = msg.get("type") if isinstance(msg, dict) else None
        span.attrs["bytes"] = int(result)

    def future_done(result, done):
        result[0].add_done_callback(lambda _f: done())

    tracer.wrap(fastq_mod, "read_fastq", "io.read_fastq")
    tracer.wrap(fastq_mod, "write_fastq", "io.write_fastq")
    tracer.wrap(correct_tool, "build_corrector", "core.api.build_corrector")
    tracer.wrap(corrector_mod, "select_parameters",
                "core.reptile.select_parameters")
    tracer.wrap(corrector_mod, "spectrum_from_reads",
                "kmer.spectrum_from_reads", on_result=count_of("n_kmers"))
    tracer.wrap(corrector_mod, "tile_table_from_reads",
                "kmer.tile_table_from_reads", on_result=count_of("n_tiles"))
    tracer.wrap(ReptileCorrector, "__init__", "core.reptile.construct",
                rss=True)
    tracer.wrap(ReptileCorrector, "correct_chunk", "core.reptile.correct_chunk")
    tracer.wrap(parallel_pkg, "correct_in_parallel",
                "parallel.correct_in_parallel")
    tracer.wrap(SocketBackend, "install_state", "distributed.install_state")
    tracer.wrap(SocketBackend, "submit", "distributed.submit",
                async_end=future_done)
    tracer.wrap(socket_mod, "send_msg", "distributed.send_msg",
                on_result=message_bytes)


def install_cluster(tracer: harness.Tracer) -> None:
    import repro.core.closet.driver as driver_mod
    from repro.core.closet import ClosetClusterer

    tracer.wrap(ClosetClusterer, "run", "core.closet.run")
    tracer.wrap(driver_mod, "run_task", "mapreduce.run_task")


def child_main(argv: list[str]) -> int:
    """``child <correct|cluster> <out.json> <run_id> <traced 0|1> -- args``"""
    tool, out_path, run_id, traced = argv[:4]
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, str(harness.SRC))
    if tool == "correct":
        from repro.tools.correct import main as tool_main
        install = install_correct
    else:
        from repro.tools.cluster import main as tool_main
        install = install_cluster
    tracer = harness.Tracer(run_id)
    if traced == "1":
        install(tracer)
    t0 = time.perf_counter()
    rc = tool_main(cli_args)
    wall = time.perf_counter() - t0
    tracer.restore()
    Path(out_path).write_text(json.dumps({
        "rc": rc, "wall_s": wall,
        "spans": [asdict(s) for s in tracer.spans],
    }))
    return rc


def kmer_probe_main(argv: list[str]) -> int:
    """``kmer-probe <out.json> <reads.fastq>``: the prefilter and the
    neighbor index built alone on the corpus's own spectrum, in a
    process that has built nothing larger before (so peak-RSS growth
    is the index's)."""
    out_path, reads_path = argv
    sys.path.insert(0, str(harness.SRC))
    from repro.core.hotpath import HotpathConfig
    from repro.core.reptile.params import select_parameters
    from repro.io.fastq import read_fastq
    from repro.kmer.neighbor_index import PrecomputedNeighborIndex
    from repro.kmer.spectrum import spectrum_from_reads
    from repro.kmer.tiles import tile_table_from_reads

    reads = read_fastq(reads_path)
    params = select_parameters(reads)
    spectrum = spectrum_from_reads(reads, params.k, both_strands=True)
    tiles = tile_table_from_reads(reads, k=params.k, overlap=params.overlap,
                                  quality_cutoff=params.qc, both_strands=True)
    fp = HotpathConfig().prefilter_fp_rate
    t0 = time.perf_counter()
    spectrum = spectrum.with_prefilter(fp)
    tiles = tiles.with_prefilter(fp)
    prefilter_s = time.perf_counter() - t0
    rss0 = harness.peak_rss_kb()
    t0 = time.perf_counter()
    index = PrecomputedNeighborIndex(spectrum, params.d)
    index_s = time.perf_counter() - t0
    Path(out_path).write_text(json.dumps({
        "kmer.prefilter_build_s": prefilter_s,
        "kmer.neighbor_index_s": index_s,
        "kmer.neighbor_index_rss_mb": (harness.peak_rss_kb() - rss0) / 1024.0,
        "kmer.neighbor_edges": index.n_edges,
    }))
    return 0


@dataclass
class ChildRun:
    rc: int
    wall_s: float
    spans: list
    report: dict
    stdout: bytes


def run_child(tool: str, cli_args: list[str], workdir: Path, run_id: str,
              tag: str, traced: bool = True) -> ChildRun:
    out_json = workdir / f"{tag}.json"
    report = workdir / f"{tag}.report.json"
    stdout = workdir / f"{tag}.out"
    res = harness.run_process(
        harness.python_argv(
            str(Path(__file__)), "child", tool, str(out_json), run_id,
            "1" if traced else "0", "--", *cli_args,
            "--report", str(report)),
        workdir, stdout_path=stdout)
    if not res.ok or not out_json.exists():
        return ChildRun(res.returncode or 1, res.wall_s, [], {},
                        stdout.read_bytes())
    data = json.loads(out_json.read_text())
    return ChildRun(
        data["rc"], data["wall_s"],
        [harness.Span(**row) for row in data["spans"]],
        json.loads(report.read_text()) if report.exists() else {},
        stdout.read_bytes(),
    )


# -- per-layer metrics ---------------------------------------------------

def import_metrics(workdir: Path) -> dict[str, float]:
    """``import.*`` from the interpreter's own ``-X importtime`` trace:
    the CLI module's cumulative time, and the self time summed over the
    modules of each named package."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        err = workdir / "importtime.err"
        with open(err, "wb") as fh:
            res = harness.wait_process(
                harness.spawn(
                    harness.python_argv("-X", "importtime", "-c",
                                        f"import {IMPORT_MODULE}"),
                    workdir, stdout=subprocess.DEVNULL, stderr=fh),
                time.perf_counter())
        if not res.ok:
            raise RuntimeError(f"importing {IMPORT_MODULE} failed")
        runs.append(parse_importtime(err.read_text(), IMPORT_MODULE,
                                     IMPORT_PACKAGES))
    return {k: harness.median([r[k] for r in runs]) for k in runs[0]}


def parse_importtime(text: str, module: str,
                     packages: dict[str, str]) -> dict[str, float]:
    """Seconds from ``-X importtime`` lines
    (``import time: <self us> | <cumulative us> | <indented name>``)."""
    out = {"import.total_s": 0.0, **{k: 0.0 for k in packages}}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cum_us = int(fields[0]), int(fields[1])
        name = fields[2].strip()
        if fields[2] == " " + module:  # top level: not indented
            out["import.total_s"] = cum_us / 1e6
        for key, pkg in packages.items():
            if name == pkg or name.startswith(pkg + "."):
                out[key] += self_us / 1e6
    return out


def reptile_metrics(run: ChildRun) -> dict[str, float]:
    spans, counters = run.spans, run.report.get("counters", {})
    construct = named(spans, "core.reptile.construct")
    hits = counters.get("hotpath.memo_hits", 0)
    lookups = hits + counters.get("hotpath.memo_misses", 0)
    return {
        "io.read_fastq_s": total(spans, "io.read_fastq"),
        "io.write_fastq_s": total(spans, "io.write_fastq"),
        "core.reptile.params_s": total(spans,
                                       "core.reptile.select_parameters"),
        "kmer.spectrum_s": total(spans, "kmer.spectrum_from_reads"),
        "kmer.tiles_s": total(spans, "kmer.tile_table_from_reads"),
        "core.reptile.construct_s": total(spans, "core.reptile.construct"),
        "core.reptile.construct_rss_mb": sum(
            s.attrs["rss_growth_kb"] for s in construct) / 1024.0,
        "kmer.spectrum_kmers": sum(
            s.attrs["n"] for s in named(spans, "kmer.spectrum_from_reads")),
        "kmer.tiles_n": sum(
            s.attrs["n"] for s in named(spans, "kmer.tile_table_from_reads")),
        "parallel.correct_s": total(spans, "parallel.correct_in_parallel"),
        "parallel.correct_self_s": self_total(spans,
                                              "parallel.correct_in_parallel"),
        "parallel.chunk_p50_s": median_duration(spans,
                                                "core.reptile.correct_chunk"),
        "parallel.chunks": len(named(spans, "core.reptile.correct_chunk")),
        "core.reptile.tiles_examined": counters.get("tiles_examined", 0),
        "core.reptile.tiles_corrected": counters.get("tiles_corrected", 0),
        "core.reptile.tiles_insufficient": counters.get(
            "tiles_insufficient", 0),
        "core.hotpath.memo_hit_ratio": harness.ratio(hits, lookups),
        "core.hotpath.memo_lookups": lookups,
    }


def distributed_metrics(run: ChildRun) -> dict[str, float]:
    spans, counters = run.spans, run.report.get("counters", {})
    lookups = counters.get("shard.lookup_total", 0)
    return {
        "distributed.install_s": total(spans, "distributed.install_state"),
        "distributed.state_bytes": sum(
            s.attrs["bytes"] for s in named(spans, "distributed.send_msg")
            if s.attrs["type"] == "setup"),
        "distributed.chunk_p50_s": median_duration(spans,
                                                   "distributed.submit"),
        "backend.rpc_calls": counters.get("backend.rpc_calls", 0),
        "backend.rpc_bytes_sent": counters.get("backend.rpc_bytes_sent", 0),
        "shard.rpc_calls": counters.get("shard.rpc_calls", 0),
        "shard.lookup_total": lookups,
        "shard.remote_fraction": harness.ratio(
            counters.get("shard.lookup_remote", 0), lookups),
        "shard.prefiltered_fraction": harness.ratio(
            counters.get("shard.lookup_prefiltered", 0), lookups),
    }


def frame_probe() -> dict[str, float]:
    """One 4096-code shard lookup request and its reply, over a
    socketpair through the framing layer, repeated."""
    import numpy as np
    from repro.distributed.framing import recv_msg, send_msg

    codes = np.arange(FRAME_CODES, dtype=np.uint64) * np.uint64(2654435761)
    request = {"type": "lookup", "shard": 0, "codes": codes}
    reply = {"type": "counts",
             "counts": np.zeros(FRAME_CODES, dtype=np.int64)}
    a, b = socket.socketpair()
    with a, b:
        times = []
        for _ in range(FRAME_REPEATS):
            t0 = time.perf_counter()
            size = send_msg(a, request)
            recv_msg(b)
            send_msg(b, reply)
            recv_msg(a)
            times.append(time.perf_counter() - t0)
    return {"distributed.frame_roundtrip_us": harness.median(times) * 1e6,
            "distributed.frame_bytes": size}


def closet_metrics(run: ChildRun) -> dict[str, float]:
    spans, report = run.spans, run.report
    gauges = report.get("gauges", {})
    predicted = int(gauges.get("edges_predicted", 0))
    return {
        "mapreduce.run_task_s": total(spans, "mapreduce.run_task"),
        "mapreduce.tasks": len(named(spans, "mapreduce.run_task")),
        "mapreduce.task_attempts": report.get("counters", {}).get(
            "task_attempts", 0),
        "core.closet.self_s": self_total(spans, "core.closet.run"),
        "core.closet.edges_predicted": predicted,
        "core.closet.edges_confirmed_ratio": harness.ratio(
            int(gauges.get("edges_confirmed", 0)), predicted),
    }


def service_layer_metrics(traffic: service.Traffic, wall: float,
                          spans) -> dict[str, float]:
    done = [r for r in traffic.records if r.ok]
    hits = [r for r in done if r.pool_hit]
    misses = [r for r in done if not r.pool_hit]

    def stamps(recs, a, b):
        return harness.median([r.raw[b] - r.raw[a] for r in recs])

    tail = harness.tail_percentile([r.latency_s for r in done])
    if tail is None:
        raise RuntimeError(f"only {len(done)} service jobs: no tail")
    return {
        "service.submit_s": median_duration(spans, "service.submit"),
        "service.queue_wait_s": stamps(done, "submitted_at", "started_at"),
        "service.run_hit_s": stamps(hits, "started_at", "finished_at"),
        "service.run_miss_s": stamps(misses, "started_at", "finished_at"),
        "service.result_s": median_duration(spans, "service.result"),
        "service.polls_per_job": len(named(spans, "service.poll")) / len(done),
        "service.pool_hit_ratio": harness.ratio(len(hits), len(done)),
        "service.jobs": len(done),
        "service.jobs_per_s": len(done) / wall,
        "service.latency_p50_s": harness.median(
            [r.latency_s for r in done]),
        "service.latency_tail_s": tail[0],
        "service.latency_tail_pct": tail[1],
        "service.hit_latency_p50_s": harness.median(
            [r.latency_s for r in hits]),
        "service.miss_latency_p50_s": harness.median(
            [r.latency_s for r in misses]),
    }


def install_service(tracer: harness.Tracer) -> None:
    from repro.service.client import HTTPTransport, JobsClient

    tracer.wrap(service.Traffic, "run_one", "service.job")
    tracer.wrap(JobsClient, "submit", "service.submit")
    tracer.wrap(JobsClient, "wait", "service.wait")
    tracer.wrap(JobsClient, "result", "service.result")
    tracer.wrap(HTTPTransport, "get", "service.poll")


def service_traffic(seed: int, seconds: float, workdir: Path,
                    tracer: harness.Tracer | None):
    """One server, warmed pool, closed-loop clients; traced when a
    tracer is given."""
    workdir.mkdir(parents=True, exist_ok=True)
    server, _setups = service.start_server(workdir, launches=1)
    try:
        traffic = service.Traffic(server, seed, workdir)
        traffic.warm(fresh=service.fresh_inputs_for(seconds))
        if tracer is not None:
            install_service(tracer)
        try:
            wall = traffic.run(seconds, min_jobs=SERVICE_MIN_JOBS)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        stopped = server.stop()
    return traffic, wall, stopped


def redeem_stream_probes(job_in: inputs.JobInput,
                         workdir: Path) -> dict[str, float]:
    """REDEEM fit and the spilling streamed phase 1, on one fresh
    service input."""
    from repro.core.api import build_corrector
    from repro.core.reptile.params import select_parameters
    from repro.io.fastq import read_fastq, read_fastq_chunks
    from repro.kmer.streaming import (
        SpectrumAccumulator,
        TileAccumulator,
        build_from_chunks,
    )

    reads = read_fastq(job_in.path)
    t0 = time.perf_counter()
    build_corrector("redeem", reads)
    redeem_s = time.perf_counter() - t0
    params = select_parameters(reads)
    accs = [
        SpectrumAccumulator(params.k, max_memory_bytes=inputs.STREAM_MAX_MEMORY,
                            tmp_dir=workdir),
        TileAccumulator(params.k, overlap=params.overlap,
                        quality_cutoff=params.qc,
                        max_memory_bytes=inputs.STREAM_MAX_MEMORY,
                        tmp_dir=workdir),
    ]
    t0 = time.perf_counter()
    build_from_chunks(read_fastq_chunks(job_in.path, 2048), accs)
    stream_s = time.perf_counter() - t0
    return {"core.redeem.fit_s": redeem_s,
            "kmer.stream_build_s": stream_s,
            "kmer.spill_bytes": sum(a.spill_bytes for a in accs)}


def store_cycle_probe(job_in: inputs.JobInput, workdir: Path) -> float:
    """Median time of one submit/claim/renew/finish cycle on a scratch
    job store."""
    from repro.service.spec import JobSpec
    from repro.service.store import JobStore

    spec = JobSpec(input=str(job_in.path), output=str(workdir / "x.fastq"))
    times = []
    with JobStore(workdir / "probe-spool" / "jobs.db") as store:
        for _ in range(STORE_CYCLES):
            t0 = time.perf_counter()
            job_id = store.submit(spec)
            store.claim("probe")
            store.renew(job_id, "probe")
            store.finish(job_id, "probe", {})
            times.append(time.perf_counter() - t0)
    return harness.median(times)


# -- the suite -------------------------------------------------------------

@dataclass
class Suite:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def run_suite(workload: str, seed: int, seconds: float,
              workdir: Path) -> Suite:
    """Every layer, traced, on the seed's inputs.

    Work done inside this process that could raise its peak RSS above
    a measured child's (the references) runs after every child: Linux
    starts an exec'd child's peak-RSS mark at its parent's.
    """
    run_id = f"{workload}-{seed}-{os.getpid()}"
    suite = Suite()
    m: dict[str, float] = {}
    span_groups = []

    def overhead(traced_wall: float, untraced_wall: float) -> None:
        m["trace.wall_s"] = traced_wall
        m["trace.untraced_wall_s"] = untraced_wall
        m["trace.overhead_ratio"] = traced_wall / untraced_wall

    corpus = inputs.standard_corpus(seed, workdir / "corpus")
    m.update(import_metrics(workdir))

    digests = []

    def correct_child(tag, flags, traced=True):
        out = workdir / f"{tag}.fastq"
        run = run_child("correct", [str(corpus.reads), str(out), *flags],
                        workdir, run_id, tag, traced)
        digests.append(oracles.sha256_file(out)
                       if run.rc == 0 and out.exists() else None)
        out.unlink(missing_ok=True)
        span_groups.append(run.spans)
        return run

    # The untraced twin of the named workload's operation runs right
    # after the traced one, so both see the same machine.
    batch = correct_child("batch", [])
    m.update(reptile_metrics(batch))
    if workload == "reptile_batch":
        overhead(batch.wall_s, correct_child("batch-untraced", [],
                                             traced=False).wall_s)
    probe_json = workdir / "kmer-probe.json"
    res = harness.run_process(
        harness.python_argv(str(Path(__file__)), "kmer-probe",
                            str(probe_json), str(corpus.reads)), workdir)
    suite.check(res.ok)
    m.update(json.loads(probe_json.read_text()))

    sock = correct_child("socket", list(workloads.SOCKET_FLAGS))
    m.update(distributed_metrics(sock))
    if workload == "reptile_socket":
        overhead(sock.wall_s, correct_child(
            "socket-untraced", list(workloads.SOCKET_FLAGS),
            traced=False).wall_s)
    m.update(frame_probe())

    tracer = harness.Tracer(run_id)
    traffic, wall, stopped = service_traffic(seed, seconds,
                                             workdir / "service", tracer)
    span_groups.append(tracer.spans)
    if workload == "service_mixed":
        traffic_u, wall_u, stopped_u = service_traffic(
            seed, seconds, workdir / "service-untraced", None)
        suite.check(stopped_u.ok and all(r.ok for r in traffic_u.records))
        overhead(wall / len(traffic.records),
                 wall_u / len(traffic_u.records))
    m.update(service_layer_metrics(traffic, wall, tracer.spans))

    meta = inputs.metagenome(seed, workdir)

    def cluster_child(tag, traced=True):
        run = run_child(
            "cluster",
            [str(meta.path), str(workdir / tag), *workloads.CLUSTER_FLAGS],
            workdir, run_id, tag, traced)
        span_groups.append(run.spans)
        return run

    closet = cluster_child("closet")
    m.update(closet_metrics(closet))
    if workload == "closet_cluster":
        overhead(closet.wall_s,
                 cluster_child("closet-untraced", traced=False).wall_s)

    # References and in-process probes, last.
    failed, _refs = workloads.check_service(traffic, workdir / "service")
    suite.attempted += len(traffic.records) + 1
    suite.failed += failed + (0 if stopped.ok else 1)
    fresh = traffic.inputs[2]
    m.update(redeem_stream_probes(fresh, workdir))
    m["service.store_cycle_s"] = store_cycle_probe(fresh, workdir)
    reference = oracles.closet_confirmed_edges(meta.path, workdir / "plain")
    edges = oracles.parse_edges(closet.stdout)
    suite.check(closet.rc == 0 and edges is not None
                and edges[2] == reference)
    ref = oracles.correction("reptile", corpus.reads,
                             workloads.read_codes(corpus.truth),
                             workdir / "reference.fastq")
    for digest in digests:
        suite.check(digest == ref.sha256)

    _print_self_times(span_groups)
    for name, base in RATIO_BASES.items():
        print(f"{name} = {m[name]:.4f} over {base} = {m[base]:g}",
              file=sys.stderr)
    suite.metrics = {name: (float(m[name]), unit)
                     for name, unit in PER_LAYER.items()}
    return suite


def _print_self_times(span_groups) -> None:
    """Total and self time per span name, to stderr (largest self
    first).  Span ids are unique within a group (one tracer)."""
    by_name: dict[str, list[float]] = {}
    for spans in span_groups:
        st = harness.self_times(spans)
        for s in spans:
            row = by_name.setdefault(s.name, [0.0, 0.0])
            row[0] += s.duration
            row[1] += st[s.span_id]
    print(f"{'span':40s} {'total_s':>9s} {'self_s':>9s}", file=sys.stderr)
    for name, (tot, self_s) in sorted(by_name.items(),
                                      key=lambda kv: -kv[1][1]):
        print(f"{name:40s} {tot:9.4f} {self_s:9.4f}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1] == "child":
        sys.exit(child_main(sys.argv[2:]))
    if sys.argv[1] == "kmer-probe":
        sys.exit(kmer_probe_main(sys.argv[2:]))
    sys.exit(f"unknown mode {sys.argv[1]!r}")
