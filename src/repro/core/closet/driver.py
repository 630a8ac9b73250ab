"""CLOSET driver — the public clustering API of Chapter 4.

Typical use::

    from repro.core.closet import ClosetClusterer, ClosetParams

    clusterer = ClosetClusterer(ClosetParams())
    result = clusterer.run(reads, thresholds=[0.95, 0.92, 0.90])
    result.clusters[0.92]      # list of read-index arrays

Two backends confirm identical edge sets; their clusterings differ,
because the greedy quasi-clique merges run in different orders (on a
1000-read 454-like sample at t=0.5, plain makes 697 clusters and
mapreduce 1,667 from the same 2,926 confirmed edges):

- ``backend='plain'`` — vectorized single-process reference;
- ``backend='mapreduce'`` — the Task 1–8 pipeline of Sec. 4.4 on the
  local MapReduce engine (optionally multiprocess, every job on one
  warm worker pool), with per-stage wall times recorded (Table 4.3's
  rows).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ... import telemetry
from ...io.readset import ReadSet
from ...mapreduce import CheckpointStore, MapReduceTask, RetryPolicy, run_task, worker_pool
from .quasiclique import QuasiCliqueClusterer
from .similarity import HashSetTable, read_hash_sets
from .sketch import EdgeConstructionResult, SketchParams, build_edges
from . import tasks as T


@dataclass(frozen=True)
class ClosetParams:
    """All CLOSET knobs: sketching plus clustering density.

    ``gamma`` may be a single density or a per-threshold mapping —
    Sec. 4.1 notes the requirement "can even be tuned as a function of
    the threshold t".
    """

    sketch: SketchParams = field(default_factory=SketchParams)
    gamma: float | dict = 2.0 / 3.0
    #: Clique-merge sweeps per threshold in the MapReduce backend.
    merge_iterations: int = 4

    def gamma_at(self, threshold: float) -> float:
        if isinstance(self.gamma, dict):
            return self.gamma[threshold]
        return self.gamma


@dataclass
class ClosetResult:
    """Edges, per-threshold clusters, and per-stage statistics."""

    edge_result: EdgeConstructionResult
    #: threshold -> list of sorted read-index arrays.
    clusters: dict[float, list[np.ndarray]]
    #: stage name -> seconds.
    stage_seconds: dict[str, float]
    #: threshold -> clusters processed (created or merged).
    clusters_processed: dict[float, int] = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "predicted_edges": self.edge_result.n_predicted,
            "unique_edges": self.edge_result.n_unique,
            "confirmed_edges": self.edge_result.n_confirmed,
            "clusters": {t: len(c) for t, c in self.clusters.items()},
            "clusters_processed": dict(self.clusters_processed),
            "stage_seconds": {
                k: round(v, 4) for k, v in self.stage_seconds.items()
            },
        }


@contextmanager
def _stage(stage: dict, name: str):
    """Time one CLOSET stage: accumulates into ``stage[name]`` (the
    Table 4.3 record) and mirrors the region as a telemetry span."""
    with telemetry.span(f"closet.{name}"):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stage[name] = stage.get(name, 0.0) + (time.perf_counter() - t0)


class ClosetClusterer:
    """Sketch + quasi-clique metagenomic read clustering."""

    def __init__(self, params: ClosetParams | None = None):
        self.params = params or ClosetParams()

    def run(
        self,
        reads: ReadSet,
        thresholds: list[float],
        backend: str = "plain",
        n_workers: int = 1,
        policy: RetryPolicy | None = None,
        checkpoint_dir: str | None = None,
    ) -> ClosetResult:
        """Cluster ``reads`` at each threshold.

        ``policy`` routes the MapReduce backend through the
        fault-tolerant engine (retries, timeouts, bad-record skipping);
        ``checkpoint_dir`` materializes the expensive edge-construction
        phase so a rerun over identical inputs resumes past it.  Both
        are ignored by the plain (single-process, vectorized) backend.
        """
        thresholds = sorted(thresholds, reverse=True)
        if backend == "plain":
            return self._run_plain(reads, thresholds)
        if backend == "mapreduce":
            with worker_pool(n_workers) as pool:

                def job(task: MapReduceTask, inputs: list) -> list:
                    # The module-level run_task, once per job: tracers wrap it.
                    return run_task(
                        task, inputs, n_workers=n_workers, policy=policy,
                        backend=pool,
                    )

                return self._run_mapreduce(reads, thresholds, job, checkpoint_dir)
        raise ValueError(f"unknown backend {backend!r}")

    # -- plain backend -------------------------------------------------
    def _run_plain(
        self, reads: ReadSet, thresholds: list[float]
    ) -> ClosetResult:
        p = self.params
        stage: dict[str, float] = {}
        with _stage(stage, "hashing"):
            hash_sets = read_hash_sets(reads, p.sketch.k)

        with _stage(stage, "sketching+validation"):
            # Validate candidates at the loosest threshold we will need.
            floor = min([p.sketch.cmin] + thresholds)
            edge_result = build_edges(
                reads, p.sketch, threshold=floor, hash_sets=hash_sets
            )

        with _stage(stage, "clustering"):
            clusterer = QuasiCliqueClusterer(
                gamma=p.gamma_at(thresholds[0]) if thresholds else 2.0 / 3.0
            )
            clusters: dict[float, list[np.ndarray]] = {}
            processed: dict[float, int] = {}
            for t in thresholds:
                clusterer.gamma = p.gamma_at(t)
                batch = edge_result.edges[edge_result.similarities >= t]
                clusterer.add_edges(batch)
                clusters[t] = clusterer.cluster_index_arrays()
                processed[t] = clusterer.n_processed
        telemetry.count("closet_confirmed_edges", edge_result.n_confirmed)
        return ClosetResult(
            edge_result=edge_result,
            clusters=clusters,
            stage_seconds=stage,
            clusters_processed=processed,
        )

    def _edge_fingerprint(self, reads: ReadSet, floor: float) -> str:
        """Identity of the edge-construction phase: reads + sketch knobs."""
        sk = self.params.sketch
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(reads.codes).tobytes())
        h.update(repr((sk.k, sk.modulus, sk.rounds, sk.cmax, floor)).encode())
        return h.hexdigest()

    # -- mapreduce backend ---------------------------------------------
    def _run_mapreduce(
        self,
        reads: ReadSet,
        thresholds: list[float],
        job: Callable[[MapReduceTask, list], list],
        checkpoint_dir: str | None = None,
    ) -> ClosetResult:
        """Tasks 1-8, each MapReduce job run through ``job``."""
        p = self.params
        sk = p.sketch
        stage: dict[str, float] = {}

        with _stage(stage, "hashing"):
            hash_sets = read_hash_sets(reads, sk.k)
            read_inputs = [(rid, h) for rid, h in enumerate(hash_sets)]

        floor = min([sk.cmin] + thresholds)
        store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        fingerprint = self._edge_fingerprint(reads, floor) if store else ""
        cached = (
            store.load("closet-edges", 0, fingerprint) if store else None
        )
        if cached is not None:
            payload, _manifest = cached
            validated = payload["validated"]
            n_predicted = payload["n_predicted"]
            n_unique = payload["n_unique"]
            stage["sketching"] = 0.0
            stage["validation"] = 0.0
            telemetry.count("closet_edge_checkpoint_resumes")
        else:
            # Tasks 1-2 per sketch round, then Task 3 dedup.
            with _stage(stage, "sketching"):
                pair_outputs = []
                n_predicted = 0
                for l in range(sk.rounds):
                    task = T.task_sketch_selection(sk.modulus, l, sk.cmax)
                    groups = job(task, read_inputs)
                    pairs = job(T.task_edge_generation(), groups)
                    n_predicted += len(pairs)
                    pair_outputs.extend(pairs)
                    telemetry.tick(
                        "sketch-rounds", total=sk.rounds, unit="rounds"
                    )

            with _stage(stage, "validation"):
                directed = job(T.task_redundant_removal(), pair_outputs)
                n_unique = len(directed)
                joined = job(T.task_data_aggregation(), directed)
                table = HashSetTable(hash_sets)
                validated = job(T.task_edge_validation(table, floor), joined)
                validated.sort()  # (i, j) order, as the plain backend
            if store is not None:
                store.save(
                    "closet-edges",
                    0,
                    fingerprint,
                    {
                        "validated": validated,
                        "n_predicted": n_predicted,
                        "n_unique": n_unique,
                    },
                    seconds=stage["sketching"] + stage["validation"],
                )

        edges = np.array([e for e, _ in validated], dtype=np.int64).reshape(-1, 2)
        sims = np.array([s for _, s in validated], dtype=np.float64)
        edge_result = EdgeConstructionResult(
            edges=edges,
            similarities=sims,
            n_predicted=n_predicted,
            n_unique=n_unique,
            n_confirmed=edges.shape[0],
        )

        # Tasks 6-8 per threshold (incremental, clusters carried over).
        clusters: dict[float, list[np.ndarray]] = {}
        processed: dict[float, int] = {}
        stage["filtering"] = 0.0
        stage["clustering"] = 0.0
        cluster_state: list[tuple] = []  # list of edge tuples
        seen_edges: set[tuple[int, int]] = set()
        n_processed = 0
        for t in thresholds:
            with _stage(stage, "filtering"):
                filtered = job(
                    T.task_edge_filtering(t),
                    list(zip(map(tuple, edges.tolist()), sims.tolist())),
                )

            with _stage(stage, "clustering"):
                new_edges = [
                    pair for pair, _ in filtered if pair not in seen_edges
                ]
                seen_edges.update(new_edges)
                state = list(cluster_state) + [
                    ((int(i), int(j)),) for i, j in new_edges
                ]
                n_processed += len(new_edges)
                for _ in range(p.merge_iterations):
                    inputs = [(f"c{idx}", es) for idx, es in enumerate(state)]
                    merged = job(T.task_quasiclique_merge(p.gamma_at(t)), inputs)
                    deduped = job(T.task_cluster_dedup(), merged)
                    new_state = [es for _, es in deduped]
                    n_processed += len(new_state)
                    if sorted(new_state) == sorted(state):
                        state = new_state
                        break
                    state = new_state
                cluster_state = state
            arrays = []
            seen_sets: set[frozenset] = set()
            for es in cluster_state:
                verts = sorted({v for e in es for v in e})
                key = frozenset(verts)
                if len(verts) >= 2 and key not in seen_sets:
                    seen_sets.add(key)
                    arrays.append(np.array(verts, dtype=np.int64))
            clusters[t] = arrays
            processed[t] = n_processed
        return ClosetResult(
            edge_result=edge_result,
            clusters=clusters,
            stage_seconds=stage,
            clusters_processed=processed,
        )
