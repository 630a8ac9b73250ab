"""Measurement primitives shared by every workload.

Statistics (median, the tail-percentile rule, ratios),
the span tracer used by the traced run, and a process runner that
takes wall time and peak RSS from ``os.wait4``.  Nothing here imports
the program under test.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Beyond this a single operation counts as failed (timeout).
OP_TIMEOUT_S = 150.0


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- statistics ---------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, min_beyond: int = 10):
    """The highest whole percentile with at least ``min_beyond`` samples
    above it, as ``(value, percentile, n)``; ``None`` when there are
    too few samples for any.

    Nearest-rank: percentile ``p`` is the ``ceil(p * n / 100)``-th
    smallest sample, so ``n - rank`` samples lie beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            return xs[rank - 1], p, n
    return None


def ratio(part: int, base: int) -> float:
    """Useful outcomes over attempts; an empty base is an error, never
    a silent 0."""
    if base <= 0:
        raise ValueError("ratio has an empty base")
    return part / base


# -- spans --------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    span_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (overlapping children are
    counted once; parts outside the parent are clipped)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.span_id, [])
            if c.end > s.start and c.start < s.end
        ]
        out[s.span_id] = s.duration - _covered(kids)
    return out


class Tracer:
    """Records spans around calls into the program, from outside it.

    :meth:`wrap` replaces an attribute (module function or class
    method) with a timing wrapper; :meth:`restore` puts every original
    back.  Spans opened on one thread nest under that thread's open
    span; a span started on another thread has no parent.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"span-{id(self)}", default=None
        )
        self._patched: list = []

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, rss: bool = False,
             on_result=None, async_end=None):
        """Time every call of ``owner.attr`` as span ``name``.

        ``rss`` records the growth of this process's peak RSS across
        the call; ``on_result(span, result, args)`` may annotate the
        span; ``async_end(result, done)`` defers the span end until the
        returned object calls ``done()`` (a future completing).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer._current.get()
            span = Span(name, time.perf_counter(), 0.0, parent,
                        tracer.run_id, next(tracer._ids))
            rss0 = peak_rss_kb() if rss else 0
            token = tracer._current.set(span.span_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._current.reset(token)
                span.end = time.perf_counter()
                if rss:
                    span.attrs["rss_growth_kb"] = peak_rss_kb() - rss0
            if on_result is not None:
                on_result(span, result, args)
            if async_end is None:
                tracer._record(span)
            else:
                def done() -> None:
                    span.end = time.perf_counter()
                    tracer._record(span)
                async_end(result, done)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        return wrapper

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- processes ----------------------------------------------------------

def peak_rss_kb() -> int:
    """Peak RSS of this process so far (Linux reports KiB)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass
class ProcResult:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def run_process(argv, cwd: Path, stdout_path: Path | None = None,
                timeout: float = OP_TIMEOUT_S) -> ProcResult:
    """Run ``argv`` to completion; wall from spawn to exit, peak RSS from
    ``wait4`` (the child's own peak or that of any descendant it
    reaped, whichever is larger)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = spawn(argv, cwd, stdout=out, stderr=subprocess.DEVNULL)
        return wait_process(proc, t0, timeout)
    finally:
        if stdout_path:
            out.close()


def spawn(argv, cwd: Path, **kwargs) -> subprocess.Popen:
    """Start ``argv`` in its own process group, so a timeout can stop
    everything it started (socket and mapreduce workers too)."""
    return subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            start_new_session=True, **kwargs)


def wait_process(proc: subprocess.Popen, t0: float,
                 timeout: float = OP_TIMEOUT_S) -> ProcResult:
    """Reap ``proc``; past ``timeout`` its whole process group is killed
    and the operation counts as timed out."""
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # exited just now
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # Interrupted (SIGTERM, Ctrl-C): leave nothing running behind.
        kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                      killed.is_set())


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def repro_argv(*args: str) -> list[str]:
    return python_argv("-m", "repro", *args)


def import_wall_s(module: str, cwd: Path) -> float:
    """Wall time of a fresh interpreter that imports ``module``."""
    res = run_process(python_argv("-c", f"import {module}"), cwd)
    if not res.ok:
        raise RuntimeError(f"importing {module} failed ({res.returncode})")
    return res.wall_s


def cli_setup_s(module: str, cwd: Path, repeats: int = 3) -> float:
    """Median wall of ``repeats`` fresh interpreters importing ``module``
    (the median also absorbs the one-off bytecode compile of a fresh
    checkout)."""
    return median([import_wall_s(module, cwd) for _ in range(repeats)])
