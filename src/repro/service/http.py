"""``repro serve-http`` — the stdlib HTTP/JSON front end of the service.

One process is a complete deployment: a :class:`ThreadingHTTPServer`
answering the ``/v1`` API plus (optionally) embedded worker threads
claiming and executing jobs against the same spool — all sharing one
warm :class:`~repro.service.pool.SpectrumPool`.  Scale out by running
more ``serve-http`` or plain ``serve`` processes on the spool host;
they coordinate through the SQLite store exactly as before.

Endpoints (every body is a versioned ``repro-job/1`` envelope, see
:mod:`repro.service.spec`)::

    POST   /v1/jobs               submit   (429 when rate-limited)
    GET    /v1/jobs               list     (?state=...&tenant=...)
    GET    /v1/jobs/{id}          status
    GET    /v1/jobs/{id}/result   corrected FASTQ (streamed bytes)
    POST   /v1/jobs/{id}/retry    requeue a failed/cancelled job
    DELETE /v1/jobs/{id}          cancel
    GET    /v1/healthz            liveness + per-state job counts
    GET    /v1/metrics            telemetry registry dump

The transport-independent half lives in :class:`ServiceAPI`: every
verb validates its request envelope, executes one store transaction,
and returns ``(status, envelope)``.  The HTTP handler and the local
(in-process) client transport both call it, so wire behavior cannot
drift between "over the network" and "same process" — the layering
the ISSUE's client satellite requires.

Crash story: the server holds **no job state** — SIGKILL it mid-job
and the store's leases, checkpoints, and claim fencing recover exactly
as for ``repro serve`` workers; a restarted server answers polls for
the same job ids from the same spool.  Clients retry connection
refusals with backoff (:mod:`repro.service.client`), so a restart is
invisible to a polling submitter.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterator
from urllib.parse import parse_qs, unquote, urlparse

from ..io.atomic import atomic_write_text
from ..telemetry.metrics import MetricsRegistry
from . import spec as wire
from .pool import SpectrumPool
from .serve import add_fairness_flags, add_pool_flags, pool_from_args
from .spec import DEFAULT_TENANT, JobSpec
from .store import STATES, SUCCEEDED, JobStore
from .tenants import TenantRateLimiter, parse_tenant_weights
from .worker import ServeWorker, SpoolError, default_worker_id, \
    open_spool_store

__all__ = ["ApiError", "ServiceAPI", "JobsHTTPServer", "main"]

#: Largest request body read (413 beyond it).  A ``repro-job/1`` submit
#: envelope is a few hundred bytes of paths and options, so this leaves
#: orders of magnitude of headroom while bounding what one request can
#: make the server allocate.
MAX_BODY_BYTES = 1 << 20


class ApiError(Exception):
    """A verb failed in a way the wire schema can express."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def envelope(self) -> dict:
        return wire.error_envelope(self.code, self.message)


class ServiceAPI:
    """Transport-independent service verbs over one spool.

    Thread-safe: request threads borrow a :class:`JobStore` from a
    small free-list (one SQLite connection is never used by two
    threads at once; WAL + IMMEDIATE transactions coordinate the
    concurrent borrowers and any external workers).  Registry counters
    (``tenants.submitted/throttled/rejected``, ``http.requests``) are
    process-wide and surface on ``GET /v1/metrics`` together with live
    store counts and warm-pool occupancy.
    """

    def __init__(
        self,
        spool: str | Path,
        tenant_weights: dict[str, float] | None = None,
        rate_limiter: TenantRateLimiter | None = None,
        registry: MetricsRegistry | None = None,
        pool: SpectrumPool | None = None,
    ) -> None:
        self.spool = Path(spool)
        self._weights = dict(tenant_weights or {})
        self.rate_limiter = rate_limiter
        self.registry = registry if registry is not None else MetricsRegistry()
        self.pool = pool
        self._free: list[JobStore] = []
        self._all: list[JobStore] = []
        self._stores_lock = threading.Lock()
        # Open (and thereby create) the spool eagerly so an unusable
        # path fails at startup with a clear SpoolError, not on the
        # first request.
        with self._store():
            pass

    @contextmanager
    def _store(self) -> Iterator[JobStore]:
        """Borrow a store for one verb (exclusive while borrowed)."""
        with self._stores_lock:
            store = self._free.pop() if self._free else None
        if store is None:
            store = open_spool_store(
                self.spool, tenant_weights=self._weights
            )
            with self._stores_lock:
                self._all.append(store)
        try:
            yield store
        finally:
            with self._stores_lock:
                self._free.append(store)

    def close(self) -> None:
        with self._stores_lock:
            stores, self._all = self._all, []
            self._free = []
        for store in stores:
            store.close()

    # -- verbs --------------------------------------------------------
    def submit(self, document: object) -> tuple[int, dict]:
        problems = wire.validate_envelope_dict(document)
        if not problems and "submit" not in document:  # type: ignore[operator]
            problems = ["expected a submit envelope"]
        if problems:
            raise ApiError(400, "invalid-request", "; ".join(problems))
        sub = document["submit"]  # type: ignore[index]
        tenant = sub.get("tenant", DEFAULT_TENANT)
        if self.rate_limiter is not None \
                and not self.rate_limiter.allow(tenant):
            self.registry.incr("tenants.throttled")
            raise ApiError(
                429, "rate-limited",
                f"tenant {tenant!r} is over its submission rate; "
                "retry later",
            )
        spec = JobSpec.from_dict(sub["spec"])
        with self._store() as store:
            try:
                job_id = store.submit(
                    spec,
                    max_attempts=sub.get("max_attempts", 3),
                    job_id=sub.get("job_id"),
                    tenant=tenant,
                )
            except ValueError as e:
                self.registry.incr("tenants.rejected")
                raise ApiError(409, "conflict", str(e)) from None
            self.registry.incr("tenants.submitted")
            record = store.get(job_id)
        assert record is not None
        return 201, wire.job_envelope(record.as_dict())

    def get(self, job_id: str) -> tuple[int, dict]:
        with self._store() as store:
            record = store.get(job_id)
        if record is None:
            raise ApiError(404, "not-found", f"no such job: {job_id}")
        return 200, wire.job_envelope(record.as_dict())

    def list(
        self, state: str | None = None, tenant: str | None = None
    ) -> tuple[int, dict]:
        if state is not None and state not in STATES:
            raise ApiError(
                400, "invalid-request",
                f"unknown state {state!r}; expected one of {STATES}",
            )
        with self._store() as store:
            records = store.list_jobs(state=state, tenant=tenant)
            counts = store.counts()
        return 200, wire.jobs_envelope(
            [r.as_dict() for r in records], counts
        )

    def cancel(self, job_id: str) -> tuple[int, dict]:
        with self._store() as store:
            if not store.cancel(job_id):
                if store.get(job_id) is None:
                    raise ApiError(
                        404, "not-found", f"no such job: {job_id}"
                    )
                raise ApiError(
                    409, "not-cancellable",
                    f"{job_id}: not cancellable (must be "
                    "pending/running)",
                )
            record = store.get(job_id)
        assert record is not None
        return 200, wire.job_envelope(record.as_dict())

    def retry(self, job_id: str) -> tuple[int, dict]:
        with self._store() as store:
            if not store.retry(job_id):
                if store.get(job_id) is None:
                    raise ApiError(
                        404, "not-found", f"no such job: {job_id}"
                    )
                raise ApiError(
                    409, "not-retryable",
                    f"{job_id}: not retryable (must be "
                    "failed/cancelled)",
                )
            record = store.get(job_id)
        assert record is not None
        return 200, wire.job_envelope(record.as_dict())

    def result_path(self, job_id: str) -> Path:
        """Path of a succeeded job's corrected FASTQ (for streaming)."""
        with self._store() as store:
            record = store.get(job_id)
        if record is None:
            raise ApiError(404, "not-found", f"no such job: {job_id}")
        if record.state != SUCCEEDED:
            raise ApiError(
                409, "not-ready",
                f"{job_id} is {record.state}, result available once "
                "succeeded",
            )
        path = Path(record.spec.output)
        if not path.is_file():
            raise ApiError(
                404, "output-missing",
                f"{job_id} succeeded but its output {path} is gone",
            )
        return path

    def health(self) -> tuple[int, dict]:
        with self._store() as store:
            counts = store.counts()
        return 200, wire.health_envelope(counts)

    def metrics(self) -> tuple[int, dict]:
        snap = self.registry.snapshot()
        gauges = dict(snap["gauges"])
        with self._store() as store:
            counts = store.counts()
        for state, n in counts.items():
            gauges[f"jobs_{state}"] = float(n)
        if self.pool is not None:
            for name, value in self.pool.stats().items():
                gauges[f"pool_{name}"] = float(value)
        if self.rate_limiter is not None:
            gauges["tenants.buckets"] = float(self.rate_limiter.n_buckets)
            gauges["tenants.bucket_evictions"] = float(
                self.rate_limiter.evictions
            )
        return 200, wire.metrics_envelope(
            {"counters": snap["counters"], "gauges": gauges}
        )


class JobsHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServiceAPI`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], api: ServiceAPI) -> None:
        super().__init__(address, JobsHTTPHandler)
        self.api = api


class JobsHTTPHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve-http/1"
    protocol_version = "HTTP/1.1"
    #: Streaming block size for result bodies.
    BLOCK = 1 << 20

    # Quiet by default: one counter instead of a per-request log line
    # (operators scrape /v1/metrics).
    def log_message(self, format: str, *args: object) -> None:
        pass

    @property
    def api(self) -> ServiceAPI:
        return self.server.api  # type: ignore[attr-defined]

    # -- plumbing -----------------------------------------------------
    def _send_json(self, status: int, envelope: dict) -> None:
        body = json.dumps(envelope, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_file(self, path: Path) -> None:
        size = path.stat().st_size
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(size))
        self.end_headers()
        with open(path, "rb") as fh:
            while True:
                block = fh.read(self.BLOCK)
                if not block:
                    break
                self.wfile.write(block)

    def _read_json(self) -> object:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        # A rejected body is never read, so the connection cannot be
        # reused: its unread bytes would parse as the next request.
        if length < 0:
            self.close_connection = True
            raise ApiError(
                400, "invalid-request", f"bad Content-Length {header!r}"
            )
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ApiError(
                413, "too-large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ApiError(
                400, "invalid-json", "request body is not valid JSON"
            ) from None

    def _segments(self) -> tuple[list[str], dict[str, str]]:
        parsed = urlparse(self.path)
        # Split *before* unquoting: a %2F inside a job id must stay
        # part of its segment, not become a path separator.
        segments = [unquote(s) for s in parsed.path.split("/") if s]
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        return segments, query

    def _dispatch(self, method: str) -> None:
        self.api.registry.incr("http.requests")
        try:
            segments, query = self._segments()
            if not segments or segments[0] != "v1":
                raise ApiError(
                    404, "not-found", f"unknown path {self.path!r}"
                )
            route = segments[1:]
            if method == "GET" and route == ["healthz"]:
                self._send_json(*self.api.health())
            elif method == "GET" and route == ["metrics"]:
                self._send_json(*self.api.metrics())
            elif method == "GET" and route == ["jobs"]:
                self._send_json(*self.api.list(
                    state=query.get("state"), tenant=query.get("tenant")
                ))
            elif method == "GET" and len(route) == 2 \
                    and route[0] == "jobs":
                self._send_json(*self.api.get(route[1]))
            elif method == "GET" and len(route) == 3 \
                    and route[0] == "jobs" and route[2] == "result":
                self._send_file(self.api.result_path(route[1]))
            elif method == "POST" and route == ["jobs"]:
                self._send_json(*self.api.submit(self._read_json()))
            elif method == "POST" and len(route) == 3 \
                    and route[0] == "jobs" and route[2] == "retry":
                self._send_json(*self.api.retry(route[1]))
            elif method == "DELETE" and len(route) == 2 \
                    and route[0] == "jobs":
                self._send_json(*self.api.cancel(route[1]))
            else:
                raise ApiError(
                    404, "not-found",
                    f"no route for {method} {self.path!r}",
                )
        except ApiError as e:
            self.api.registry.incr("http.errors")
            self._send_json(e.status, e.envelope())
        except BrokenPipeError:
            # Client went away mid-response; nothing to answer.
            self.api.registry.incr("http.broken_pipes")
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as e:
            self.api.registry.incr("http.errors")
            self._send_json(
                500,
                wire.error_envelope(
                    "internal", f"{type(e).__name__}: {e}"
                ),
            )

    # -- HTTP verbs ---------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-serve-http",
        description="HTTP/JSON job API (plus embedded workers) over a "
                    "correction spool.",
    )
    p.add_argument(
        "--spool", type=Path, required=True,
        help="spool directory holding the job store (created durably "
             "if missing)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument(
        "--port", type=int, default=8765,
        help="bind port (default 8765; 0 picks a free port — see "
             "--ready-file)",
    )
    p.add_argument(
        "--serve-workers", type=int, default=1, metavar="N",
        help="embedded worker threads executing jobs in this process "
             "(0: API only, pair with separate `repro serve` workers)",
    )
    p.add_argument(
        "--lease-seconds", type=float, default=30.0,
        help="claim lease duration for embedded workers",
    )
    p.add_argument(
        "--poll-seconds", type=float, default=0.2,
        help="embedded workers' idle sleep between empty claims",
    )
    p.add_argument(
        "--ready-file", type=Path, default=None,
        help="atomically write the base URL here once listening "
             "(scripts wait on this to learn an ephemeral port)",
    )
    g = p.add_argument_group("rate limiting")
    g.add_argument(
        "--rate", type=float, default=None, metavar="PER_SECOND",
        help="token-bucket refill per tenant for submissions "
             "(default: no rate limit)",
    )
    g.add_argument(
        "--burst", type=float, default=10.0,
        help="token-bucket burst per tenant (default 10)",
    )
    add_fairness_flags(p)
    add_pool_flags(p)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        weights = parse_tenant_weights(args.tenant_weight)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    pool = pool_from_args(args)
    limiter = None
    if args.rate is not None:
        limiter = TenantRateLimiter(args.rate, args.burst)
    try:
        api = ServiceAPI(
            args.spool,
            tenant_weights=weights,
            rate_limiter=limiter,
            pool=pool,
        )
    except SpoolError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    server = JobsHTTPServer((args.host, args.port), api)
    host, port = server.server_address[:2]

    workers: list[ServeWorker] = []
    threads: list[threading.Thread] = []
    base_id = default_worker_id()
    for i in range(max(0, args.serve_workers)):
        worker = ServeWorker(
            args.spool,
            store=open_spool_store(args.spool, tenant_weights=weights),
            worker_id=f"{base_id}-wt{i}",
            lease_seconds=args.lease_seconds,
            poll_seconds=args.poll_seconds,
            pool=pool,
        )
        thread = threading.Thread(
            target=worker.run, name=f"serve-worker-{i}", daemon=True
        )
        workers.append(worker)
        threads.append(thread)
        thread.start()

    def request_shutdown(signum: int, frame: object) -> None:
        # serve_forever() runs on this (main) thread; shutdown() blocks
        # until its loop exits, so it must run elsewhere.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        signum: signal.signal(signum, request_shutdown)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    url = f"http://{host}:{port}"
    print(
        f"[serve-http] listening on {url} "
        f"({len(workers)} embedded worker(s), spool {args.spool})",
        flush=True,
    )
    if args.ready_file is not None:
        atomic_write_text(args.ready_file, url + "\n")
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        for worker in workers:
            worker.stop()
        for thread in threads:
            thread.join(timeout=30.0)
        for worker in workers:
            worker.store.close()
        api.close()
    print("[serve-http] exiting", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
