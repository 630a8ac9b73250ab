"""CLOSET as MapReduce jobs — Tasks 1–8 of Sec. 4.4.

Each stage is a :class:`~repro.mapreduce.MapReduceTask` runnable on
the local engine (serial or multiprocess).  Data flows as picklable
key/value pairs:

1. **sketch selection** — (rID, hash set) → (sketch hash, rID); the
   reducer groups rIDs per hash, postponing groups above Cmax.
2. **edge generation** — hash groups → candidate (i, j) pairs; the
   reducer counts shared sketch hashes and keeps pairs at Cmin.
3. **redundant edge removal** — dedup; each unique pair (i, j), i < j,
   is emitted once as (i, (j, count)), keyed by its smaller read.
4. **data aggregation** — group each read's partners: (i, (j, ...)).
5. **edge validation** — exact similarity of a read against its whole
   partner list, threshold at t: ((i, j), similarity).
6. **edge filtering** — keep edges at the current threshold t_k.
7. **quasi-clique merging** — edges + prior clusters → merged
   candidates (γ density check).
8. **cluster dedup** — merge clusters sharing the same vertex set.

Mappers/reducers close over parameters via ``functools.partial`` so
the multiprocess engine can pickle them.  Task 5's reducer closes over
a :class:`~repro.core.closet.similarity.HashSetTable` of every read's
hash set, built once per clustering (Hadoop's distributed cache), so no
record carries a hash set.  Keys are plain Python ints and tuples: the
shuffle partitions by ``repr(key)``, which differs for numpy scalars.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ...mapreduce import MapReduceTask, identity_mapper
from .similarity import HashSetTable

_REM = "__postponed__"


# -- Task 1: sketch selection -------------------------------------------------
def sketch_mapper(rid, hashes, modulus, residue):
    mod = np.uint64(modulus)
    res = np.uint64(residue)
    for h in hashes[(hashes % mod) == res].tolist():
        yield int(h), rid


def sketch_reducer(hash_value, rids, cmax):
    rids = sorted(set(rids))
    if len(rids) < 2:
        return
    if len(rids) > cmax:
        yield _REM, tuple(rids)
    else:
        yield len(rids), tuple(rids)


def task_sketch_selection(modulus: int, residue: int, cmax: int) -> MapReduceTask:
    return MapReduceTask(
        name=f"sketch[l={residue}]",
        mapper=partial(sketch_mapper, modulus=modulus, residue=residue),
        reducer=partial(sketch_reducer, cmax=cmax),
    )


# -- Task 2: edge generation ------------------------------------------------
def edge_gen_mapper(key, rids):
    if key == _REM:
        return
    rids = list(rids)
    for a in range(len(rids)):
        for b in range(a + 1, len(rids)):
            yield (rids[a], rids[b]), 1


def edge_gen_reducer(pair, ones):
    yield pair, sum(ones)


def task_edge_generation() -> MapReduceTask:
    return MapReduceTask(
        name="edge-generation",
        mapper=edge_gen_mapper,
        reducer=edge_gen_reducer,
        combiner=edge_gen_reducer,
    )


# -- Task 3: redundant edge removal -------------------------------------------
def dedup_reducer(pair, counts):
    # Keyed by the smaller read so Task 4 can group partners per read.
    i, j = pair
    yield i, (j, sum(counts))


def task_redundant_removal() -> MapReduceTask:
    return MapReduceTask(
        name="dedup-edges", mapper=identity_mapper, reducer=dedup_reducer
    )


# -- Task 4/5: aggregation + validation -----------------------------------------
def aggregate_reducer(rid, values):
    """Collect the read's partners into one sorted tuple."""
    yield rid, tuple(sorted({j for j, _count in values}))


def task_data_aggregation() -> MapReduceTask:
    return MapReduceTask(
        name="aggregate", mapper=identity_mapper, reducer=aggregate_reducer
    )


def validation_reducer(rid, partner_lists, table, threshold):
    """Score the read against every partner in one table pass."""
    partners = sorted({p for ps in partner_lists for p in ps})
    sims = table.containment(rid, partners)
    for p, sim in zip(partners, sims.tolist()):
        if sim >= threshold:
            yield (rid, p), sim


def task_edge_validation(table: HashSetTable, threshold: float) -> MapReduceTask:
    return MapReduceTask(
        name="validate",
        mapper=identity_mapper,
        reducer=partial(validation_reducer, table=table, threshold=threshold),
    )


# -- Task 6: edge filtering --------------------------------------------------
def filter_mapper(pair, sim, threshold):
    if sim >= threshold:
        yield pair, sim


def filter_reducer(pair, sims):
    yield pair, max(sims)


def task_edge_filtering(threshold: float) -> MapReduceTask:
    return MapReduceTask(
        name=f"filter[t={threshold}]",
        mapper=partial(filter_mapper, threshold=threshold),
        reducer=filter_reducer,
    )


# -- Task 7/8: quasi-clique merging -----------------------------------------
def clique_mapper(key, value):
    """Route every cluster (edge set) to its smallest vertex, so
    clusters anchored at the same vertex meet at one reducer."""
    edges = value  # tuple of (i, j) edges
    verts = sorted({v for e in edges for v in e})
    anchor = verts[0]
    yield anchor, edges


def clique_reducer(anchor, edge_sets, gamma):
    """Greedy local merging of the clusters meeting at this vertex."""
    clusters = [set(es) for es in edge_sets]
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        out = []
        while clusters:
            c = clusters.pop()
            placed = False
            for o in out:
                verts = {v for e in (o | c) for v in e}
                n = len(verts)
                if len(o | c) >= gamma * (n * (n - 1) / 2):
                    o |= c
                    placed = True
                    merged = True
                    break
            if not placed:
                out.append(c)
        clusters = out
    for c in clusters:
        key = tuple(sorted({v for e in c for v in e}))
        yield key, tuple(sorted(c))


def task_quasiclique_merge(gamma: float) -> MapReduceTask:
    return MapReduceTask(
        name="quasi-clique",
        mapper=clique_mapper,
        reducer=partial(clique_reducer, gamma=gamma),
    )


def vertexset_dedup_reducer(vertex_key, edge_sets):
    union: set = set()
    for es in edge_sets:
        union |= set(es)
    yield vertex_key, tuple(sorted(union))


def task_cluster_dedup() -> MapReduceTask:
    return MapReduceTask(
        name="cluster-dedup",
        mapper=identity_mapper,
        reducer=vertexset_dedup_reducer,
    )
