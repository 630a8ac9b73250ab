"""Cross-module property tests on core invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closet import hash64, kmer_containment, read_hash_sets
from repro.core.closet.similarity import HashSetTable
from repro.eval import evaluate_correction
from repro.io import ReadSet
from repro.kmer import (
    compose_tile,
    spectrum_from_reads,
    split_tile,
    tile_table_from_reads,
)
from repro.mapreduce import MapReduceTask, run_task
from repro.seq import (
    kmer_hamming_scalar,
    reverse_complement,
    string_to_kmer,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=60)
dna_sets = st.lists(dna, min_size=1, max_size=12)


# -- spectrum invariants --------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(dna_sets)
def test_spectrum_invariant_under_read_order(seqs):
    k = 4
    a = spectrum_from_reads(ReadSet.from_strings(seqs), k)
    b = spectrum_from_reads(ReadSet.from_strings(list(reversed(seqs))), k)
    assert (a.kmers == b.kmers).all()
    assert (a.counts == b.counts).all()


@settings(max_examples=25, deadline=None)
@given(dna_sets)
def test_spectrum_invariant_under_revcomp_of_input(seqs):
    """With both-strands counting, reverse-complementing any read
    leaves the spectrum unchanged."""
    k = 4
    a = spectrum_from_reads(ReadSet.from_strings(seqs), k, both_strands=True)
    flipped = [reverse_complement(s) for s in seqs]
    b = spectrum_from_reads(
        ReadSet.from_strings(flipped), k, both_strands=True
    )
    assert (a.kmers == b.kmers).all()
    assert (a.counts == b.counts).all()


@settings(max_examples=25, deadline=None)
@given(dna_sets, dna_sets)
def test_spectrum_additive_over_concatenation(seqs_a, seqs_b):
    """Counting reads in two batches sums to counting them together."""
    k = 5
    sa = spectrum_from_reads(ReadSet.from_strings(seqs_a), k)
    sb = spectrum_from_reads(ReadSet.from_strings(seqs_b), k)
    sboth = spectrum_from_reads(ReadSet.from_strings(seqs_a + seqs_b), k)
    merged: dict[int, int] = {}
    for spec in (sa, sb):
        for km, c in zip(spec.kmers.tolist(), spec.counts.tolist()):
            merged[km] = merged.get(km, 0) + c
    assert merged == dict(
        zip(sboth.kmers.tolist(), sboth.counts.tolist())
    )


# -- tiles ------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(dna, st.integers(2, 6))
def test_tile_counts_match_longer_kmer_spectrum(seq, k):
    """A zero-overlap tile table is exactly the 2k-spectrum."""
    rs = ReadSet.from_strings([seq])
    tt = tile_table_from_reads(rs, k=k, both_strands=False)
    spec = spectrum_from_reads(rs, 2 * k, both_strands=False)
    assert (tt.tiles == spec.kmers).all()
    assert (tt.oc == spec.counts).all()


# -- hamming vs containment -----------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="ACGT", min_size=12, max_size=40))
def test_identical_reads_full_containment(s):
    rs = ReadSet.from_strings([s, s])
    hs = read_hash_sets(rs, 6)
    assert kmer_containment(hs[0], hs[1]) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(0, 40), max_size=25), min_size=1, max_size=8))
def test_table_containment_equals_scalar_oracle(sets):
    """The batched table kernel reproduces ``kmer_containment`` bit for
    bit — empty, disjoint, subset and identical sets included."""
    hsets = [hash64(np.array(sorted(s), dtype=np.uint64)) for s in sets]
    hsets = [np.unique(h) for h in hsets]
    first = hsets[0]
    hsets += [first.copy(), first[::2].copy(), np.empty(0, dtype=np.uint64)]
    table = HashSetTable(hsets)
    n = len(hsets)
    for i in range(n):
        got = table.containment(i, list(range(n)))
        want = [kmer_containment(hsets[i], hsets[j]) for j in range(n)]
        assert got.tolist() == want
    pairs = np.array([(i, j) for i in range(n) for j in range(n)])[::-1]
    want = [kmer_containment(hsets[i], hsets[j]) for i, j in pairs.tolist()]
    assert table.pair_containment(pairs).tolist() == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**40), st.integers(0, 2**40))
def test_hash64_injective_on_samples(a, b):
    ha = hash64(np.array([a], dtype=np.uint64))[0]
    hb = hash64(np.array([b], dtype=np.uint64))[0]
    assert (a == b) == (ha == hb)


# -- mapreduce determinism ----------------------------------------------------
def _emit_mapper(key, value):
    for c in value:
        yield c, 1


def _sum_reducer(key, values):
    yield key, sum(values)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.text(alphabet="abcd", max_size=8), max_size=20))
def test_mapreduce_matches_python_counter(strings):
    from collections import Counter

    task = MapReduceTask("cc", _emit_mapper, _sum_reducer)
    out = dict(run_task(task, list(enumerate(strings))))
    assert out == dict(Counter("".join(strings)))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.text(alphabet="abcd", max_size=8), max_size=30))
def test_mapreduce_input_order_invariant(strings):
    task = MapReduceTask("cc", _emit_mapper, _sum_reducer)
    a = dict(run_task(task, list(enumerate(strings))))
    rev = list(enumerate(reversed(strings)))
    b = dict(run_task(task, rev))
    assert a == b


# -- correction metrics algebra -----------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=6, max_size=6),
    st.lists(st.integers(0, 3), min_size=6, max_size=6),
)
def test_identity_correction_has_no_tp_fp(orig, true):
    o = np.array([orig], dtype=np.uint8)
    t = np.array([true], dtype=np.uint8)
    m = evaluate_correction(o, o, t)
    assert m.tp == 0 and m.fp == 0 and m.ne == 0
    assert m.fn == int((o != t).sum())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=6, max_size=6),
    st.lists(st.integers(0, 3), min_size=6, max_size=6),
)
def test_perfect_correction_has_no_fn(orig, true):
    o = np.array([orig], dtype=np.uint8)
    t = np.array([true], dtype=np.uint8)
    m = evaluate_correction(o, t, t)
    assert m.fn == 0 and m.fp == 0 and m.ne == 0
    assert m.tp == int((o != t).sum())
    if m.tp:
        assert m.gain == 1.0


# -- tile packing round trip -----------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    st.text(alphabet="ACGT", min_size=5, max_size=5),
    st.text(alphabet="ACGT", min_size=5, max_size=5),
)
def test_tile_pack_is_concatenation(sa, sb):
    t = compose_tile(string_to_kmer(sa), string_to_kmer(sb), 5, 0)
    assert t == string_to_kmer(sa + sb)
    a, b = split_tile(t, 5, 0)
    assert a == string_to_kmer(sa) and b == string_to_kmer(sb)
    # Hamming distance decomposes over the two halves.
    t2 = compose_tile(string_to_kmer(sb), string_to_kmer(sa), 5, 0)
    d = kmer_hamming_scalar(t, t2)
    assert d == kmer_hamming_scalar(
        string_to_kmer(sa), string_to_kmer(sb)
    ) * 2
