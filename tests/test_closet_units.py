"""Unit tests for CLOSET pieces: similarity, sketching, quasi-cliques."""

import numpy as np
import pytest

from repro.core.closet import (
    QuasiCliqueClusterer,
    SketchParams,
    banded_alignment_identity,
    build_edges,
    cluster_at_thresholds,
    hash64,
    kmer_containment,
    read_hash_sets,
)
from repro.io import ReadSet
from repro.seq import encode


@pytest.mark.parametrize("bad", [dict(modulus=0), dict(rounds=0), dict(modulus=-3)])
def test_sketch_params_reject_nonpositive_modulus_and_rounds(bad):
    with pytest.raises(ValueError, match="must be >= 1"):
        SketchParams(**bad)


# -- hashing / similarity ----------------------------------------------------
def test_hash64_deterministic_and_spread():
    x = np.arange(1000, dtype=np.uint64)
    h1 = hash64(x)
    h2 = hash64(x)
    assert (h1 == h2).all()
    assert len(set(h1.tolist())) == 1000
    # Bits look balanced.
    bits = np.unpackbits(h1.view(np.uint8))
    assert 0.45 < bits.mean() < 0.55


def test_read_hash_sets_shapes():
    rs = ReadSet.from_strings(["ACGTACGTACGT", "ACG"])
    hs = read_hash_sets(rs, 5)
    assert hs[0].size == len(set(hs[0].tolist()))
    assert hs[1].size == 0  # shorter than k
    assert (np.diff(hs[0].astype(np.int64)) > 0).all()


def test_kmer_containment_identical():
    rs = ReadSet.from_strings(["ACGTACGTACGT", "ACGTACGTACGT"])
    hs = read_hash_sets(rs, 5)
    assert kmer_containment(hs[0], hs[1]) == 1.0


def test_kmer_containment_substring_scores_one():
    rs = ReadSet.from_strings(["ACGTACGTACGTTTGACA", "ACGTACGTACGT"])
    hs = read_hash_sets(rs, 5)
    assert kmer_containment(hs[0], hs[1]) == 1.0


def test_kmer_containment_disjoint():
    rs = ReadSet.from_strings(["AAAAAAAAAA", "CCCCCCCCCC"])
    hs = read_hash_sets(rs, 5)
    assert kmer_containment(hs[0], hs[1]) == 0.0
    assert kmer_containment(hs[0], np.empty(0, dtype=np.uint64)) == 0.0


def test_banded_alignment_identity():
    a = encode("ACGTACGTAC")
    assert banded_alignment_identity(a, a) == 1.0
    b = encode("ACGTTCGTAC")  # one substitution
    assert banded_alignment_identity(a, b) == pytest.approx(0.9)
    # Containment: substring of a longer read scores 1.
    assert banded_alignment_identity(encode("ACGTA"), a) == 1.0
    assert banded_alignment_identity(encode(""), a) == 0.0


# -- sketch edge construction ------------------------------------------------
def _mutate(rng, s, rate):
    out = list(s)
    for i in range(len(out)):
        if rng.random() < rate:
            out[i] = "ACGT"[(("ACGT".index(out[i])) + rng.integers(1, 4)) % 4]
    return "".join(out)


@pytest.fixture(scope="module")
def family_reads():
    """Three families of similar reads + singles."""
    rng = np.random.default_rng(0)
    bases = [
        "".join(rng.choice(list("ACGT"), 200)) for _ in range(3)
    ]
    seqs = []
    for b in bases:
        for _ in range(5):
            seqs.append(_mutate(rng, b, 0.01))
    seqs.append("".join(rng.choice(list("ACGT"), 200)))  # loner
    return ReadSet.from_strings(seqs)


def test_build_edges_finds_families(family_reads):
    params = SketchParams(k=12, modulus=4, rounds=3, cmax=64, cmin=0.5)
    res = build_edges(family_reads, params)
    assert res.n_confirmed > 0
    # All confirmed edges connect reads of the same family.
    fam = np.repeat(np.arange(3), 5).tolist() + [3]
    for i, j in res.edges.tolist():
        assert fam[i] == fam[j]
    # Each family should be (nearly) fully connected: 3 * C(5,2) = 30.
    assert res.n_confirmed >= 24
    assert res.fraction_of_all_pairs(family_reads.n_reads) < 0.5


def test_build_edges_similarity_range(family_reads):
    params = SketchParams(k=12, modulus=4, rounds=3, cmin=0.5)
    res = build_edges(family_reads, params)
    assert (res.similarities >= 0.5).all()
    assert (res.similarities <= 1.0).all()
    assert res.n_unique <= res.n_predicted
    assert res.n_confirmed <= res.n_unique


def test_build_edges_batched_kernel_matches_scalar_oracle(family_reads):
    params = SketchParams(k=12, modulus=4, rounds=3, cmin=0.3)
    batched = build_edges(family_reads, params)
    scalar = build_edges(family_reads, params, similarity_fn=kmer_containment)
    assert np.array_equal(batched.edges, scalar.edges)
    assert np.array_equal(batched.similarities, scalar.similarities)


def test_build_edges_cmax_postpones():
    # Reads all sharing one massive common region: Cmax=1 postpones all.
    rs = ReadSet.from_strings(["ACGTACGTACGTACGTACGT"] * 5)
    params = SketchParams(k=8, modulus=1, rounds=1, cmax=1, cmin=0.1)
    res = build_edges(rs, params)
    assert res.n_postponed > 0
    assert res.n_unique == 0


def test_build_edges_more_rounds_no_fewer_candidates(family_reads):
    p1 = SketchParams(k=12, modulus=8, rounds=1, cmin=0.5)
    p3 = SketchParams(k=12, modulus=8, rounds=3, cmin=0.5)
    r1 = build_edges(family_reads, p1)
    r3 = build_edges(family_reads, p3)
    assert r3.n_unique >= r1.n_unique


# -- quasi-clique clustering -------------------------------------------------
def test_quasiclique_triangle_merges():
    # gamma = 2/3 lets two edges sharing a vertex merge (2 of 3 possible
    # edges), after which the closing edge joins for a full triangle —
    # the paper's default setting (Sec. 4.5.2).
    qc = QuasiCliqueClusterer(gamma=2.0 / 3.0)
    qc.add_edges(np.array([[0, 1], [1, 2], [0, 2]]))
    clusters = qc.clusters()
    assert len(clusters) == 1
    assert clusters[0].vertices == {0, 1, 2}
    assert clusters[0].density() == 1.0


def test_quasiclique_path_stays_split_at_gamma_1():
    qc = QuasiCliqueClusterer(gamma=1.0)
    qc.add_edges(np.array([[0, 1], [1, 2]]))  # path, no triangle
    clusters = qc.clusters()
    assert sorted(tuple(sorted(c.vertices)) for c in clusters) == [
        (0, 1),
        (1, 2),
    ]


def test_quasiclique_path_merges_at_low_gamma():
    qc = QuasiCliqueClusterer(gamma=2.0 / 3.0)
    qc.add_edges(np.array([[0, 1], [1, 2]]))
    clusters = qc.clusters()
    assert any(c.vertices == {0, 1, 2} for c in clusters)


def test_quasiclique_duplicate_and_self_edges_ignored():
    qc = QuasiCliqueClusterer(gamma=1.0)
    qc.add_edges(np.array([[0, 1], [1, 0], [2, 2]]))
    assert len(qc.clusters()) == 1


def test_quasiclique_gamma_validation():
    with pytest.raises(ValueError):
        QuasiCliqueClusterer(gamma=0.0)


def test_quasiclique_two_components():
    qc = QuasiCliqueClusterer(gamma=2.0 / 3.0)
    qc.add_edges(np.array([[0, 1], [1, 2], [0, 2], [10, 11]]))
    vsets = sorted(tuple(sorted(c.vertices)) for c in qc.clusters())
    assert vsets == [(0, 1, 2), (10, 11)]


def test_cluster_at_thresholds_incremental():
    edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])
    sims = np.array([0.95, 0.95, 0.9, 0.7])
    out = cluster_at_thresholds(edges, sims, [0.95, 0.9, 0.6], gamma=2.0 / 3.0)
    # At 0.95: one edge pair cluster(s); at 0.9 the triangle closes.
    assert any(set(c.tolist()) == {0, 1, 2} for c in out[0.9])
    # At 0.6 vertex 3 attaches somewhere.
    all_members = set(np.concatenate(out[0.6]).tolist())
    assert 3 in all_members


def test_cluster_at_thresholds_requires_decreasing():
    with pytest.raises(ValueError):
        cluster_at_thresholds(
            np.array([[0, 1]]), np.array([0.9]), [0.5, 0.9]
        )


def test_clusters_processed_monotone():
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    sims = np.array([0.95, 0.9, 0.85])
    qc = QuasiCliqueClusterer(gamma=2.0 / 3.0)
    qc.add_edges(edges[:1])
    p1 = qc.n_processed
    qc.add_edges(edges[1:])
    assert qc.n_processed > p1
