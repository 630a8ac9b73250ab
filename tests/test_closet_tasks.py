"""Unit tests for the individual CLOSET MapReduce tasks (Sec. 4.4)."""

import pickle

import pytest

from repro.core.closet import kmer_containment, read_hash_sets
from repro.core.closet.similarity import HashSetTable
from repro.core.closet import tasks as T
from repro.io import ReadSet
from repro.mapreduce import run_task


@pytest.fixture()
def hash_inputs():
    rs = ReadSet.from_strings(
        ["ACGTACGTACGTACGT", "ACGTACGTACGTACGT", "TTGGCCAATTGGCCAA"]
    )
    hsets = read_hash_sets(rs, 6)
    return [(i, h) for i, h in enumerate(hsets)]


def test_task1_sketch_selection(hash_inputs):
    task = T.task_sketch_selection(modulus=1, residue=0, cmax=10)
    groups = run_task(task, hash_inputs)
    # Reads 0 and 1 are identical: every shared hash groups them.
    assert all(isinstance(k, int) or k == T._REM for k, _ in groups)
    pair_groups = [v for k, v in groups if k != T._REM]
    assert any(set(v) == {0, 1} for v in pair_groups)


def test_task1_postpones_large_groups(hash_inputs):
    task = T.task_sketch_selection(modulus=1, residue=0, cmax=1)
    groups = run_task(task, hash_inputs)
    assert groups  # something emitted
    assert all(k == T._REM for k, _ in groups)


def test_task2_edge_generation():
    groups = [(2, (0, 1)), (2, (1, 2)), (T._REM, (0, 1, 2))]
    edges = dict(run_task(T.task_edge_generation(), groups))
    # Postponed groups generate nothing.
    assert set(edges) == {(0, 1), (1, 2)}
    assert edges[(0, 1)] == 1


def test_task2_counts_shared_hashes():
    groups = [(2, (0, 1)), (2, (0, 1)), (2, (0, 1))]
    edges = dict(run_task(T.task_edge_generation(), groups))
    assert edges[(0, 1)] == 3


def test_task3_dedup_keys_by_smaller_read():
    pairs = [((0, 1), 3), ((0, 1), 2), ((1, 2), 1)]
    directed = run_task(T.task_redundant_removal(), pairs)
    # Each unique pair once, keyed by its smaller read.
    assert sorted(directed) == [(0, (1, 5)), (1, (2, 1))]


def test_task4_aggregation_groups_partners():
    directed = [(0, (2, 1)), (0, (1, 4)), (1, (2, 3))]
    joined = dict(run_task(T.task_data_aggregation(), directed))
    assert joined == {0: (1, 2), 1: (2,)}
    # Read 2 is nobody's smaller read: no record of its own.
    assert 2 not in joined


def test_task5_validation(hash_inputs):
    table = HashSetTable([h for _, h in hash_inputs])
    joined = [(0, (1, 2))]
    validated = dict(run_task(T.task_edge_validation(table, 0.0), joined))
    assert validated[(0, 1)] == 1.0  # identical reads
    assert validated[(0, 2)] == kmer_containment(
        hash_inputs[0][1], hash_inputs[2][1]
    )
    assert all(type(i) is int and type(j) is int for i, j in validated)


def test_task5_threshold_rejects(hash_inputs):
    table = HashSetTable([h for _, h in hash_inputs])
    joined = [(0, (2,))]
    validated = dict(run_task(T.task_edge_validation(table, 0.9), joined))
    assert (0, 2) not in validated


def test_task5_mapper_does_not_carry_the_table(hash_inputs):
    table = HashSetTable([h for _, h in hash_inputs])
    task = T.task_edge_validation(table, 0.9)
    assert task.reducer.keywords["table"] is table
    assert len(pickle.dumps(task.mapper)) < 200


def test_task6_filtering():
    pairs = [((0, 1), 0.95), ((1, 2), 0.7)]
    out = dict(run_task(T.task_edge_filtering(0.9), pairs))
    assert out == {(0, 1): 0.95}


def test_task7_quasiclique_merging():
    # Three edges of a triangle as singleton clusters.
    inputs = [
        ("c0", ((0, 1),)),
        ("c1", ((1, 2),)),
        ("c2", ((0, 2),)),
    ]
    merged = run_task(T.task_quasiclique_merge(2.0 / 3.0), inputs)
    deduped = run_task(T.task_cluster_dedup(), merged)
    # After one round all three edges share anchor vertex 0 and merge.
    keys = [k for k, _ in deduped]
    assert (0, 1, 2) in keys


def test_task7_respects_gamma():
    # Two disjoint-anchor edges sharing only vertex 5: path, gamma=1.
    inputs = [("a", ((0, 5),)), ("b", ((5, 9),))]
    merged = run_task(T.task_quasiclique_merge(1.0), inputs)
    deduped = run_task(T.task_cluster_dedup(), merged)
    vertex_sets = {k for k, _ in deduped}
    assert (0, 5, 9) not in vertex_sets


def test_task8_dedup_unions_edges():
    inputs = [
        ((0, 1, 2), ((0, 1), (1, 2))),
        ((0, 1, 2), ((0, 2),)),
    ]
    out = dict(run_task(T.task_cluster_dedup(), inputs))
    assert out[(0, 1, 2)] == ((0, 1), (0, 2), (1, 2))
