"""Tests for the local MapReduce engine."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mapreduce import (
    Counters,
    FatalTaskError,
    MapReduceTask,
    Pipeline,
    SpilledPartition,
    identity_mapper,
    identity_reducer,
    run_task,
    stable_partition,
)


# Module-level functions so the multiprocess mode can pickle them.
def wc_mapper(key, value):
    for word in value.split():
        yield word, 1


def wc_reducer(key, values):
    yield key, sum(values)


def double_mapper(key, value):
    yield key, value * 2


WORDCOUNT = MapReduceTask("wordcount", wc_mapper, wc_reducer, combiner=wc_reducer)


def wordcount_inputs():
    return [
        (0, "the quick brown fox"),
        (1, "the lazy dog"),
        (2, "the quick dog"),
    ]


EXPECTED = {"the": 3, "quick": 2, "dog": 2, "brown": 1, "fox": 1, "lazy": 1}


def bad_mapper(key, value):
    if key == 1:
        raise ValueError(f"bad record {key}")
    yield key, value


def test_multiprocess_without_policy_fails_fast():
    """No policy, 2 workers: one attempt, no skipping, and the mapper's
    own exception chained under FatalTaskError."""
    task = MapReduceTask("bad", bad_mapper, identity_reducer)
    with pytest.raises(FatalTaskError) as exc:
        run_task(task, wordcount_inputs(), n_workers=2, chunk_size=1)
    assert isinstance(exc.value.__cause__, ValueError)
    assert "bad record 1" in str(exc.value.__cause__)


def test_wordcount_serial():
    out = dict(run_task(WORDCOUNT, wordcount_inputs()))
    assert out == EXPECTED


def test_wordcount_serial_sorted_keys():
    out = run_task(WORDCOUNT, wordcount_inputs())
    keys = [k for k, _ in out]
    assert keys == sorted(keys)


def test_wordcount_parallel_matches_serial():
    serial = dict(run_task(WORDCOUNT, wordcount_inputs()))
    par = dict(run_task(WORDCOUNT, wordcount_inputs(), n_workers=2))
    assert par == serial


def test_wordcount_parallel_with_spill(tmp_path):
    out = dict(
        run_task(
            WORDCOUNT,
            wordcount_inputs(),
            n_workers=2,
            spill_dir=str(tmp_path),
        )
    )
    assert out == EXPECTED
    # Spill files are cleaned up.
    assert list(tmp_path.iterdir()) == []


def test_counters_serial():
    counters = Counters()
    run_task(WORDCOUNT, wordcount_inputs(), counters=counters)
    assert counters["map_input_records"] == 3
    assert counters["map_output_records"] == 10
    assert counters["reduce_input_groups"] == 6
    assert counters["reduce_output_records"] == 6


def test_counters_parallel_aggregate():
    counters = Counters()
    run_task(WORDCOUNT, wordcount_inputs(), n_workers=2, counters=counters)
    assert counters["map_input_records"] == 3
    assert counters["reduce_output_records"] == 6


def test_combiner_reduces_traffic():
    counters = Counters()
    run_task(WORDCOUNT, [(0, "a a a a a")], counters=counters)
    assert counters["map_output_records"] == 5
    assert counters["combine_output_records"] == 1


def test_identity_task():
    task = MapReduceTask("id", identity_mapper, identity_reducer)
    data = [(1, "x"), (2, "y"), (1, "z")]
    out = run_task(task, data)
    assert sorted(out) == sorted(data)


def test_counters_merge_and_dict():
    c1 = Counters()
    c1.incr("a", 2)
    c2 = Counters()
    c2.incr("a")
    c2.incr("b", 5)
    c1.merge(c2)
    assert c1.as_dict() == {"a": 3, "b": 5}
    assert c1["missing"] == 0


def test_unsortable_keys_grouped():
    def kmap(key, value):
        yield (key, "tag"), value  # tuple keys w/ mixed types sort via repr

    def kred(key, values):
        yield key, len(values)

    task = MapReduceTask("k", kmap, kred)
    out = run_task(task, [(1, "a"), ("x", "b"), (1, "c")])
    assert dict(out) == {(1, "tag"): 2, ("x", "tag"): 1}


def test_pipeline_chains_and_reports():
    t1 = MapReduceTask("double", double_mapper, identity_reducer)
    t2 = MapReduceTask("count", wc_mapper, wc_reducer)
    pipe = Pipeline([t1])
    out = pipe.run([(0, 3), (1, 4)])
    assert dict(out) == {0: 6, 1: 8}
    assert len(pipe.reports) == 1
    assert pipe.reports[0].name == "double"
    assert pipe.reports[0].n_output == 2
    assert pipe.total_seconds() >= 0
    assert pipe.report_table()[0]["stage"] == "double"


def test_pipeline_two_stages():
    t1 = MapReduceTask("id", identity_mapper, identity_reducer)
    t2 = MapReduceTask("wc", wc_mapper, wc_reducer)
    pipe = Pipeline([t1, t2])
    out = dict(pipe.run(wordcount_inputs()))
    assert out == EXPECTED
    assert [r.name for r in pipe.reports] == ["id", "wc"]


def test_spilled_partitions_are_lazy(tmp_path):
    """Spilling must hand back file-backed handles, not reloaded lists —
    otherwise peak memory is unchanged and the spill is pointless."""
    from repro.mapreduce.engine import _spill_partitions

    parts = [[("a", 1)], [("b", 2), ("b", 3)]]
    spills = _spill_partitions(parts, str(tmp_path))
    assert all(isinstance(s, SpilledPartition) for s in spills)
    assert parts == [[], []]  # in-memory copies released at spill time
    assert len(list(tmp_path.iterdir())) == 2
    assert spills[1].load() == [("b", 2), ("b", 3)]
    assert [s.n_pairs for s in spills] == [1, 2]
    for s in spills:
        s.delete()
        s.delete()  # idempotent
    assert list(tmp_path.iterdir()) == []


def test_stable_partition_properties():
    for n in (1, 2, 7):
        for key in ("word", 42, ("tuple", 1), 3.5):
            p = stable_partition(key, n)
            assert 0 <= p < n
            assert p == stable_partition(key, n)  # pure function


# The job a subprocess runs to expose partition assignment: with the
# old hash()-based partitioner, the output order (concatenated in
# partition order) and the partition map changed with PYTHONHASHSEED.
_HASHSEED_SCRIPT = """
import json
from repro.mapreduce import MapReduceTask, run_task, stable_partition

def m(k, v):
    for w in v.split():
        yield w, 1

def r(k, vs):
    yield k, sum(vs)

words = "apple banana cherry date elderberry fig grape honeydew"
data = [(i, words) for i in range(20)]
out = run_task(MapReduceTask("wc", m, r), data, n_workers=2, n_partitions=4,
               chunk_size=5)
print(json.dumps({
    "order": [k for k, _ in out],
    "parts": {w: stable_partition(w, 4) for w, _ in out},
}))
"""


def test_shuffle_partitioning_stable_across_hash_seeds():
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run_with_seed(seed: str) -> dict:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    a = run_with_seed("1")
    b = run_with_seed("4242")
    assert a == b
    # str hashes really do differ between the two interpreters, so the
    # agreement above is the partitioner's doing, not luck.
    assert len(set(a["parts"].values())) > 1


def test_parallel_large_input_consistency():
    rng = np.random.default_rng(0)
    data = [(int(i), " ".join(rng.choice(["a", "b", "c", "d"], 5))) for i in range(2000)]
    serial = dict(run_task(WORDCOUNT, data))
    par = dict(run_task(WORDCOUNT, data, n_workers=3, chunk_size=100))
    assert par == serial
