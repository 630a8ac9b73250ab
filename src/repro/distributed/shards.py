"""Spectrum sharding by high-bit code partitions, plus lookup routing.

The k-spectrum is the structure that stops single-box scaling: every
fork worker holds the whole sorted table.  This module splits it the
same way :class:`repro.kmer.external.ExternalCodeCounter` splits its
disk spills — by the **top bits of the 2k-bit code** — so each shard
is a contiguous, still-sorted slice of code space that can be owned by
one remote worker:

- :class:`ShardPlan` maps codes → partitions → owning shards
  (partitions are assigned round-robin, so any shard count works, not
  just powers of two);
- :func:`split_spectrum` cuts a fitted spectrum into
  :class:`SpectrumShard` pieces with two ``searchsorted`` calls;
- :class:`ShardRouter` is the worker-side *view* that stands in for
  the monolithic :class:`~repro.kmer.spectrum.KmerSpectrum` during
  correction: locally-owned shards answer directly, everything else
  is batched into one lookup RPC per remote shard.

The router guarantees bitwise-identical answers to the monolithic
spectrum: shard counts are exact and routing is a pure partition of
code space.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..kmer.spectrum import KmerSpectrum
from .framing import recv_msg, send_msg

__all__ = [
    "ShardPlan",
    "SpectrumShard",
    "ShardRouter",
    "ShardClientPool",
    "ShardLookupError",
    "split_spectrum",
]


class ShardLookupError(ConnectionError):
    """A remote shard could not be reached after reconnect attempts."""


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic code → partition → shard mapping.

    ``partition_bits`` keys on the top bits of the ``2k``-bit code
    (keying on raw uint64 high bits would put every k-mer in partition
    0, exactly as in ``ExternalCodeCounter``); partitions are assigned
    to shards round-robin so ``n_shards`` need not divide the
    partition count.
    """

    k: int
    n_shards: int
    partition_bits: int

    @classmethod
    def for_spectrum(cls, k: int, n_shards: int) -> "ShardPlan":
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        code_bits = 2 * k
        bits = 0
        while (1 << bits) < n_shards:
            bits += 1
        bits = max(0, min(bits, code_bits - 1))
        return cls(k=k, n_shards=n_shards, partition_bits=bits)

    @property
    def code_bits(self) -> int:
        return 2 * self.k

    @property
    def n_partitions(self) -> int:
        return 1 << self.partition_bits

    @property
    def _shift(self) -> np.uint64:
        return np.uint64(self.code_bits - self.partition_bits)

    def partition_of(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.uint64)
        return (codes >> self._shift).astype(np.int64)

    def shard_of_partition(self, partition: int) -> int:
        return int(partition) % self.n_shards

    def shard_of(self, codes: np.ndarray) -> np.ndarray:
        return self.partition_of(codes) % self.n_shards

    def partition_edges(self) -> np.ndarray:
        """Code-space lower bounds of partitions 1..n-1 (for
        ``searchsorted`` splits of sorted code arrays)."""
        return (
            np.arange(1, self.n_partitions, dtype=np.uint64) << self._shift
        )


@dataclass
class SpectrumShard:
    """One shard's slice of the spectrum: sorted codes + counts."""

    shard_id: int
    k: int
    kmers: np.ndarray
    counts: np.ndarray

    @property
    def n_kmers(self) -> int:
        return int(self.kmers.size)

    @property
    def nbytes(self) -> int:
        return int(self.kmers.nbytes + self.counts.nbytes)

    def count(self, codes: np.ndarray) -> np.ndarray:
        """Occurrence counts (0 if absent) for codes routed here."""
        codes = np.asarray(codes, dtype=np.uint64)
        out = np.zeros(codes.shape, dtype=np.int64)
        if self.kmers.size == 0:
            return out
        idx = np.searchsorted(self.kmers, codes)
        idx_c = np.minimum(idx, self.kmers.size - 1)
        hit = self.kmers[idx_c] == codes
        out[hit] = self.counts[idx_c[hit]]
        return out


def split_spectrum(spectrum: KmerSpectrum, plan: ShardPlan) -> list[SpectrumShard]:
    """Cut a spectrum into ``plan.n_shards`` shards.

    The spectrum's code array is already globally sorted, so each
    partition is one contiguous slice (one ``searchsorted`` over the
    partition edges); a shard owning several partitions concatenates
    slices in increasing code order, so every shard stays sorted.
    """
    if spectrum.k != plan.k:
        raise ValueError(
            f"plan is for k={plan.k}, spectrum has k={spectrum.k}"
        )
    edges = plan.partition_edges()
    bounds = np.concatenate(
        [[0], np.searchsorted(spectrum.kmers, edges), [spectrum.kmers.size]]
    )
    pieces: dict[int, list[tuple[int, int]]] = {
        s: [] for s in range(plan.n_shards)
    }
    for p in range(plan.n_partitions):
        lo, hi = int(bounds[p]), int(bounds[p + 1])
        pieces[plan.shard_of_partition(p)].append((lo, hi))
    shards = []
    for s in range(plan.n_shards):
        ranges = pieces[s]
        kmers = np.concatenate(
            [spectrum.kmers[lo:hi] for lo, hi in ranges]
        ) if ranges else np.empty(0, dtype=np.uint64)
        counts = np.concatenate(
            [spectrum.counts[lo:hi] for lo, hi in ranges]
        ) if ranges else np.empty(0, dtype=np.int64)
        shards.append(
            SpectrumShard(
                shard_id=s, k=spectrum.k, kmers=kmers, counts=counts
            )
        )
    return shards


class ShardClientPool:
    """Persistent framed connections to remote shard servers.

    One connection per shard address, lazily opened, lock-protected
    (a worker's shard lookups are issued from its single chunk thread,
    but respawn route updates arrive from the control thread).  A send
    or receive failure closes the connection and retries against the
    *current* routing table — which the coordinator refreshes after
    respawning a dead worker — with short deterministic backoff.

    ``call_timeout`` bounds every send and receive on an open
    connection, so an owner that accepts but never answers (or stops
    mid-frame) fails into the same close-and-retry loop and finally
    raises :class:`ShardLookupError` instead of blocking forever.
    """

    def __init__(
        self,
        routes: dict[int, tuple[str, int]],
        connect_timeout: float = 10.0,
        call_timeout: float = 60.0,
        retries: int = 4,
        backoff: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._routes = dict(routes)
        self._conns: dict[int, socket.socket] = {}
        self._lock = threading.Lock()
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep

    def update_routes(self, routes: dict[int, tuple[str, int]]) -> None:
        with self._lock:
            stale = {
                s: conn
                for s, conn in self._conns.items()
                if routes.get(s) != self._routes.get(s)
            }
            for s in stale:
                self._conns.pop(s, None)
            self._routes = dict(routes)
        for conn in stale.values():
            conn.close()

    def _connect(self, shard_id: int) -> socket.socket:
        addr = self._routes.get(shard_id)
        if addr is None:
            raise ShardLookupError(f"no route for shard {shard_id}")
        conn = socket.create_connection(
            tuple(addr), timeout=self.connect_timeout
        )
        conn.settimeout(self.call_timeout)
        return conn

    def lookup(self, shard_id: int, codes: np.ndarray) -> np.ndarray:
        """Counts for ``codes`` from the shard's owner (exact)."""
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            with self._lock:
                conn = self._conns.pop(shard_id, None)
            try:
                if conn is None:
                    conn = self._connect(shard_id)
                send_msg(
                    conn,
                    {"type": "lookup", "shard": shard_id, "codes": codes},
                )
                reply = recv_msg(conn)
            except (ConnectionError, OSError, ValueError) as e:
                # The owner may be mid-respawn or stalled past the call
                # timeout (socket.timeout is an OSError): retry against
                # whatever the routing table says *now* (accounted by
                # callers via the router's rpc_retries counter).
                if conn is not None:
                    conn.close()
                last = e
                continue
            if not isinstance(reply, dict) or "counts" not in reply:
                conn.close()
                last = ShardLookupError(
                    f"shard {shard_id}: malformed reply {type(reply)}"
                )
                continue
            with self._lock:
                old = self._conns.get(shard_id)
                self._conns[shard_id] = conn
            if old is not None and old is not conn:
                old.close()
            return np.asarray(reply["counts"], dtype=np.int64)
        raise ShardLookupError(
            f"shard {shard_id} unreachable after {self.retries + 1} "
            f"attempt(s): {last}"
        ) from last

    def close(self) -> None:
        with self._lock:
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            conn.close()


@dataclass
class ShardRouter:
    """Sharded stand-in for a :class:`KmerSpectrum` during correction.

    Implements the exact query surface correction uses
    (``contains`` / ``count`` / ``count_scalar`` / ``__contains__`` /
    ``k`` / ``n_kmers``): locally owned shards answer in-process and
    remote codes are batched into one RPC per shard.  Every answer is
    bitwise identical to the monolithic spectrum's.
    """

    k: int
    plan: ShardPlan
    local: dict[int, SpectrumShard]
    clients: ShardClientPool | None = None
    n_kmers: int = 0
    #: Monotonic lookup counters, harvested per chunk into the run's
    #: Counters (``shard.lookup_*`` in reports).
    counters: dict[str, int] = field(default_factory=dict)
    _harvested: dict[str, int] = field(default_factory=dict, repr=False)

    def _incr(self, name: str, n: int = 1) -> None:
        if n:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def harvest(self) -> dict[str, int]:
        """Counter deltas since the previous harvest."""
        out = {}
        for name, total in self.counters.items():
            delta = total - self._harvested.get(name, 0)
            if delta:
                out[name] = delta
            self._harvested[name] = total
        return out

    # -- KmerSpectrum query surface -----------------------------------
    def count(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.uint64)
        flat = codes.ravel()
        out = np.zeros(flat.shape, dtype=np.int64)
        self._incr("shard.lookup_total", flat.size)
        if flat.size == 0:
            return out.reshape(codes.shape)
        shard_ids = self.plan.shard_of(flat)
        for s in np.unique(shard_ids).tolist():
            sel = shard_ids == s
            sub = flat[sel]
            shard = self.local.get(int(s))
            if shard is not None:
                self._incr("shard.lookup_local", sub.size)
                counts = shard.count(sub)
            else:
                if self.clients is None:
                    raise ShardLookupError(
                        f"shard {s} is remote but no client pool "
                        "is attached"
                    )
                self._incr("shard.lookup_remote", sub.size)
                self._incr("shard.rpc_calls")
                counts = self.clients.lookup(int(s), sub)
                if counts.shape != sub.shape:
                    raise ShardLookupError(
                        f"shard {s}: count shape {counts.shape} for "
                        f"query shape {sub.shape}"
                    )
            out[sel] = counts
        return out.reshape(codes.shape)

    def contains(self, codes: np.ndarray) -> np.ndarray:
        return self.count(codes) > 0

    def count_scalar(self, code: int) -> int:
        return int(self.count(np.array([code], dtype=np.uint64))[0])

    def __contains__(self, code: int) -> bool:
        return self.count_scalar(code) > 0
