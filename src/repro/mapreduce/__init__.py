"""Local MapReduce engine: tasks, serial/multiprocess execution,
fault-tolerant attempts with bad-record skipping, deterministic fault
injection, and checkpointed pipelines (the Hadoop stand-in for CLOSET)."""

from .engine import SpilledPartition, run_task, stable_partition
from .faults import CORRUPTED, FaultPlan, FaultSpec, InjectedFault
from .pipeline import (
    CheckpointStore,
    Pipeline,
    StageReport,
    chain_fingerprint,
    fingerprint_data,
)
from .reliable import call_with_retries, run_task_reliable, worker_pool
from .types import (
    Counters,
    FatalTaskError,
    MapReduceTask,
    RetryPolicy,
    SkipBudgetExceeded,
    identity_mapper,
    identity_reducer,
)

__all__ = [
    "MapReduceTask",
    "Counters",
    "RetryPolicy",
    "FatalTaskError",
    "SkipBudgetExceeded",
    "identity_mapper",
    "identity_reducer",
    "run_task",
    "run_task_reliable",
    "worker_pool",
    "call_with_retries",
    "stable_partition",
    "SpilledPartition",
    "Pipeline",
    "StageReport",
    "CheckpointStore",
    "fingerprint_data",
    "chain_fingerprint",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "CORRUPTED",
]
