"""Chained MapReduce jobs with timing, counters, and stage checkpoints.

The CLOSET implementation is 'a series of data transformations, where
each transformation is a single map-reduce task' (Sec. 4.4); a
:class:`Pipeline` runs such a series, feeding each task's output to the
next and recording the wall time and counters of every stage — the raw
material of Table 4.3.

With a ``checkpoint_dir``, each completed stage's output is
materialized to disk next to a JSON manifest (stage name, input
fingerprint, counters) — the local analogue of Hadoop persisting every
job's output to HDFS.  A later :meth:`Pipeline.run` over the same
inputs resumes from the last completed checkpoint instead of stage 0,
so a crash mid-pipeline costs only the unfinished stage.  Fingerprints
chain — stage *i*'s identity covers the original inputs plus every
upstream stage name — so a checkpoint is only reused when everything
that produced it is unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import telemetry
from .engine import run_task
from .reliable import worker_pool
from .types import KV, Counters, MapReduceTask, RetryPolicy


@dataclass
class StageReport:
    """Execution record of one pipeline stage."""

    name: str
    seconds: float
    n_output: int
    counters: dict = field(default_factory=dict)
    task_attempts: int = 0
    retries: int = 0
    skipped_records: int = 0
    from_checkpoint: bool = False

    @classmethod
    def from_counters(
        cls,
        name: str,
        seconds: float,
        n_output: int,
        counters: dict,
        from_checkpoint: bool = False,
    ) -> "StageReport":
        return cls(
            name=name,
            seconds=seconds,
            n_output=n_output,
            counters=counters,
            task_attempts=counters.get("task_attempts", 0),
            retries=counters.get("retries", 0),
            skipped_records=counters.get("skipped_records", 0),
            from_checkpoint=from_checkpoint,
        )


def fingerprint_data(data) -> str:
    """Stable content fingerprint of picklable stage inputs."""
    return hashlib.sha256(
        pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def chain_fingerprint(prev: str, stage_name: str, index: int) -> str:
    """Fingerprint of stage ``index + 1``'s input, given stage ``index``'s.

    The engine is deterministic, so (input fingerprint, stage chain)
    identifies every intermediate dataset without hashing it.
    """
    return hashlib.sha256(
        f"{prev}|{index}|{stage_name}".encode()
    ).hexdigest()


class CheckpointStore:
    """Materialized stage outputs + manifests under a run directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _stem(self, name: str, index: int) -> Path:
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", name)
        return self.root / f"stage{index:03d}-{slug}"

    def save(
        self,
        name: str,
        index: int,
        fingerprint: str,
        data,
        *,
        seconds: float = 0.0,
        counters: dict | None = None,
    ) -> None:
        """Atomically persist one stage's output and its manifest."""
        stem = self._stem(name, index)
        tmp = stem.with_suffix(".pkl.tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, stem.with_suffix(".pkl"))
        manifest = {
            "stage": name,
            "index": index,
            "fingerprint": fingerprint,
            "seconds": seconds,
            "n_output": len(data) if hasattr(data, "__len__") else None,
            "counters": counters or {},
            "written_at": time.time(),  # repro: noqa[REP103] -- checkpoint manifest metadata; never compared or fed back into algorithm output
        }
        tmp = stem.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=1, default=str))
        os.replace(tmp, stem.with_suffix(".json"))

    def load(self, name: str, index: int, fingerprint: str):
        """Return ``(data, manifest)`` if a matching checkpoint exists."""
        stem = self._stem(name, index)
        manifest_path = stem.with_suffix(".json")
        data_path = stem.with_suffix(".pkl")
        if not (manifest_path.exists() and data_path.exists()):
            return None
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if manifest.get("fingerprint") != fingerprint:
            return None
        try:
            with open(data_path, "rb") as fh:
                data = pickle.load(fh)  # repro: noqa[REP605] -- same-process trust: fingerprint-checked checkpoint this pipeline wrote itself
        except (OSError, pickle.UnpicklingError, EOFError):
            return None
        return data, manifest

    def clear(self) -> None:
        for path in self.root.glob("stage*"):
            path.unlink(missing_ok=True)


class Pipeline:
    """Run MapReduce tasks back to back, collecting stage reports.

    ``policy`` routes every stage through the fault-tolerant engine;
    ``checkpoint_dir`` enables stage materialization and crash resume.
    With ``n_workers > 1`` every stage runs on one warm worker pool.
    """

    def __init__(
        self,
        tasks: list[MapReduceTask],
        n_workers: int = 1,
        spill_dir: str | None = None,
        policy: RetryPolicy | None = None,
        checkpoint_dir: str | Path | None = None,
    ):
        self.tasks = list(tasks)
        self.n_workers = n_workers
        self.spill_dir = spill_dir
        self.policy = policy
        self.store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        self.reports: list[StageReport] = []

    def run(self, inputs: list[KV], resume: bool = True) -> list[KV]:
        """Execute every stage; returns the final stage's output.

        With checkpointing enabled and ``resume=True``, the longest
        prefix of stages whose checkpoints match the input fingerprint
        chain is loaded from disk instead of re-executed.
        """
        data = inputs
        self.reports = []
        fingerprint = fingerprint_data(inputs) if self.store else ""
        start = 0
        if self.store is not None and resume:
            for i, task in enumerate(self.tasks):
                cached = self.store.load(task.name, i, fingerprint)
                if cached is None:
                    break
                data, manifest = cached
                telemetry.count("pipeline_stages_resumed")
                self.reports.append(
                    StageReport.from_counters(
                        name=task.name,
                        seconds=float(manifest.get("seconds", 0.0)),
                        n_output=len(data),
                        counters=manifest.get("counters", {}),
                        from_checkpoint=True,
                    )
                )
                fingerprint = chain_fingerprint(fingerprint, task.name, i)
                start = i + 1

        with worker_pool(self.n_workers) as pool:
            for i in range(start, len(self.tasks)):
                task = self.tasks[i]
                counters = Counters()
                with telemetry.span(f"pipeline.{task.name}", index=i):
                    t0 = time.perf_counter()
                    data = run_task(
                        task,
                        data,
                        n_workers=self.n_workers,
                        counters=counters,
                        spill_dir=self.spill_dir,
                        policy=self.policy,
                        backend=pool,
                    )
                    seconds = time.perf_counter() - t0
                    if self.store is not None:
                        with telemetry.span("pipeline.checkpoint_save"):
                            self.store.save(
                                task.name,
                                i,
                                fingerprint,
                                data,
                                seconds=seconds,
                                counters=counters.as_dict(),
                            )
                        fingerprint = chain_fingerprint(fingerprint, task.name, i)
                telemetry.merge_counters(counters)
                telemetry.count("pipeline_stages_run")
                telemetry.tick("stages", total=len(self.tasks), unit="stages")
                self.reports.append(
                    StageReport.from_counters(
                        name=task.name,
                        seconds=seconds,
                        n_output=len(data),
                        counters=counters.as_dict(),
                    )
                )
        return data

    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.reports)

    def total_counter(self, name: str) -> int:
        """Sum one counter across every stage (e.g. ``skipped_records``)."""
        return sum(r.counters.get(name, 0) for r in self.reports)

    def report_table(self) -> list[dict]:
        """Stage timings as plain dicts (bench-friendly)."""
        return [
            {
                "stage": r.name,
                "seconds": r.seconds,
                "outputs": r.n_output,
                "attempts": r.task_attempts,
                "retries": r.retries,
                "skipped": r.skipped_records,
                "cached": r.from_checkpoint,
            }
            for r in self.reports
        ]
