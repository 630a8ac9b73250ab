"""The service_mixed traffic: ``repro serve-http`` driven by closed-loop
clients doing submit -> wait -> download.

The job mix cycles through four kinds.  Half the jobs repeat one of two
hot inputs, which the warm ``SpectrumPool`` already holds, so they only
run correction; the other half use an input never submitted before and
run a full fit.  Fresh Reptile jobs stream under a memory budget small
enough to force a disk spill.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import harness
import inputs

#: (input is hot, method, streamed).  Hot Reptile uses hot input 0, hot
#: REDEEM hot input 1; fresh inputs are numbered from 2.
KINDS = (
    (True, "reptile", False),
    (False, "reptile", True),
    (True, "redeem", False),
    (False, "redeem", False),
)
CLIENTS = 2
#: Fixed small poll intervals: the 0.5 s defaults would quantize latency.
CLIENT_POLL_S = 0.05
SERVER_POLL_S = 0.05
JOB_TIMEOUT_S = 90.0


def fresh_inputs_for(seconds: float) -> int:
    """Fresh inputs made before timing: more than a run is expected to
    use, so the clients rarely simulate reads inside the loop."""
    return int(seconds * 2) + 4
READY_TIMEOUT_S = 60.0


@dataclass
class JobRecord:
    index: int
    hot: bool
    method: str
    stream: bool
    input_index: int
    latency_s: float = 0.0
    ok: bool = False
    pool_hit: bool | None = None
    reads: int = 0
    raw: dict = field(default_factory=dict)
    download: Path | None = None


class Server:
    """One ``serve-http`` process with one embedded worker."""

    def __init__(self, workdir: Path, name: str) -> None:
        self.spool = workdir / f"spool-{name}"
        ready = workdir / f"ready-{name}"
        log = open(workdir / f"server-{name}.log", "wb")
        self.t0 = time.perf_counter()
        try:
            self.proc = harness.spawn(
                harness.repro_argv(
                    "serve-http", "--spool", str(self.spool), "--port", "0",
                    "--ready-file", str(ready), "--serve-workers", "1",
                    "--poll-seconds", str(SERVER_POLL_S),
                ),
                workdir, stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        self.setup_s = self._wait_healthy(ready)

    def _wait_healthy(self, ready: Path) -> float:
        from repro.service.client import (
            HTTPTransport,
            JobsClient,
            ServiceError,
            TransportError,
        )

        deadline = self.t0 + READY_TIMEOUT_S
        while not ready.exists():
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("serve-http did not become ready")
            time.sleep(0.002)
        self.url = ready.read_text().strip()
        probe = JobsClient(HTTPTransport(self.url, retries=0))
        self.client = JobsClient(HTTPTransport(self.url))
        while True:
            try:
                probe.health()
                return time.perf_counter() - self.t0
            except (TransportError, ServiceError, OSError):
                if time.perf_counter() > deadline:
                    self.stop()
                    raise
                time.sleep(0.002)

    def stop(self) -> harness.ProcResult:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            return harness.wait_process(self.proc, self.t0, timeout=60.0)
        return harness.ProcResult(0.0, 0.0, self.proc.returncode, False)


def start_server(workdir: Path, launches: int) -> tuple[Server, list[float]]:
    """Launch ``launches`` servers one after another, timing each from
    spawn to the first healthy answer; keep the last one running."""
    setups = []
    server = None
    for i in range(launches):
        if server is not None:
            server.stop()
        server = Server(workdir, str(i))
        setups.append(server.setup_s)
    return server, setups


class Traffic:
    """Closed-loop clients over one server; inputs made on demand."""

    def __init__(self, server: Server, seed: int, workdir: Path) -> None:
        self.server = server
        self.seed = seed
        self.workdir = workdir
        self.inputs: dict[int, inputs.JobInput] = {}
        self._lock = threading.Lock()
        self._next_job = 0
        self._next_fresh = 2
        self.records: list[JobRecord] = []

    def job_input(self, index: int) -> inputs.JobInput:
        with self._lock:
            if index not in self.inputs:
                self.inputs[index] = inputs.job_input(self.seed, index,
                                                      self.workdir)
            return self.inputs[index]

    def _next(self) -> JobRecord:
        with self._lock:
            n = self._next_job
            self._next_job += 1
            hot, method, stream = KINDS[n % len(KINDS)]
            if hot:
                idx = 0 if method == "reptile" else 1
            else:
                idx = self._next_fresh
                self._next_fresh += 1
        return JobRecord(n, hot, method, stream, idx)

    def run_one(self, rec: JobRecord, count: bool = True) -> JobRecord:
        from repro.service.client import ServiceError, TransportError
        from repro.service.spec import JobSpec

        job_in = self.job_input(rec.input_index)
        spec = JobSpec(
            input=str(job_in.path),
            output=str(self.workdir / f"served{rec.index:05d}.fastq"),
            method=rec.method,
            stream=rec.stream,
            max_memory=inputs.STREAM_MAX_MEMORY if rec.stream else None,
        )
        rec.download = self.workdir / f"download{rec.index:05d}.fastq"
        client = self.server.client
        t0 = time.perf_counter()
        try:
            job = client.submit(spec)
            job = client.wait(job.id, timeout=JOB_TIMEOUT_S,
                              poll=CLIENT_POLL_S)
            if job.state == "succeeded":
                client.result(job.id, rec.download)
                rec.ok = True
            rec.raw = job.raw
        except (ServiceError, TransportError, TimeoutError, OSError):
            # The job counts as failed (rec.ok stays False).
            traceback.print_exc(file=sys.stderr)
        rec.latency_s = time.perf_counter() - t0
        result = rec.raw.get("result") or {}
        if "pool_hit" in result:
            rec.pool_hit = bool(result["pool_hit"])
        rec.reads = job_in.n_reads
        if count:
            with self._lock:
                self.records.append(rec)
        return rec

    def warm(self, fresh: int) -> None:
        """Fit both hot inputs into the pool and make ``fresh`` fresh
        inputs before anything is timed (more are made on demand)."""
        for method, idx in (("reptile", 0), ("redeem", 1)):
            rec = self.run_one(JobRecord(-1 - idx, True, method, False, idx),
                               count=False)
            if not rec.ok:
                raise RuntimeError(f"warm-up {method} job failed")
            rec.download.unlink(missing_ok=True)
        for idx in range(2, 2 + fresh):
            self.job_input(idx)

    def run(self, seconds: float, min_jobs: int = 0) -> float:
        """Run the clients until ``seconds`` have passed and at least
        ``min_jobs`` jobs started; returns the loop wall."""
        t0 = time.perf_counter()
        deadline = t0 + seconds

        def client() -> None:
            while True:
                with self._lock:
                    started = self._next_job
                if time.perf_counter() >= deadline and started >= min_jobs:
                    return
                self.run_one(self._next())

        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0
