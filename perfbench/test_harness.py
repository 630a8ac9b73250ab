"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest perfbench/test_harness.py -q

They cover the statistics rules, span arithmetic, the importtime
parser and failure counting on deliberately corrupted outputs; the
last two tests run the program on tiny inputs.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

import harness
import layers
import oracles
import workloads


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(range(10)) is None
    assert harness.tail_percentile(range(11)) == (0, 9, 11)
    assert harness.tail_percentile(range(1, 21)) == (10, 50, 20)
    value, pct, n = harness.tail_percentile(range(1, 101))
    assert (value, pct, n) == (90, 90, 100)
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_tail_percentile_ignores_input_order():
    xs = [5.0, 1.0, 9.0, 3.0] * 5
    assert harness.tail_percentile(xs) == harness.tail_percentile(sorted(xs))


def test_ratio_refuses_an_empty_base():
    assert harness.ratio(3, 4) == 0.75
    with pytest.raises(ValueError):
        harness.ratio(0, 0)


def test_every_ratio_is_reported_with_its_base():
    ratios = {n for n, unit in layers.PER_LAYER.items() if unit == "ratio"}
    assert ratios == set(layers.RATIO_BASES)
    for base in layers.RATIO_BASES.values():
        assert base in layers.PER_LAYER


def _span(name, start, end, parent, span_id):
    return harness.Span(name, start, end, parent, "run", span_id)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span("parent", 0.0, 10.0, None, 1),
        _span("a", 1.0, 3.0, 1, 2),
        _span("b", 2.0, 5.0, 1, 3),     # overlaps a: counted once
        _span("c", 9.0, 12.0, 1, 4),    # runs past the parent: clipped
        _span("grandchild", 1.5, 2.5, 2, 5),
    ]
    st = harness.self_times(spans)
    assert st[1] == pytest.approx(10.0 - (4.0 + 1.0))
    assert st[2] == pytest.approx(2.0 - 1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[5] == pytest.approx(1.0)
    assert layers.self_total(spans, "parent") == pytest.approx(5.0)


class _Layer:
    @staticmethod
    def outer():
        time.sleep(0.02)
        return _Layer.inner() + 1

    @staticmethod
    def inner():
        time.sleep(0.03)
        return 1


def test_tracer_nests_spans_and_restores_originals():
    original = _Layer.__dict__["inner"]
    tracer = harness.Tracer("run-1")
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner",
                on_result=lambda span, result, _args:
                span.attrs.update(result=result))
    assert _Layer.outer() == 2
    tracer.restore()
    assert _Layer.__dict__["inner"] is original
    outer, = layers.named(tracer.spans, "outer")
    inner, = layers.named(tracer.spans, "inner")
    assert inner.parent == outer.span_id and outer.parent is None
    assert {outer.run_id, inner.run_id} == {"run-1"}
    assert inner.attrs["result"] == 1
    self_outer = harness.self_times(tracer.spans)[outer.span_id]
    assert self_outer == pytest.approx(outer.duration - inner.duration)
    assert 0.015 < self_outer < inner.duration


def test_parse_importtime_sums_self_time_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     repro.eval.x",
        "import time:        25 |        375 |   repro.eval",
        "import time:        10 |        400 | repro.tools.correct",
        "import time:         7 |          7 |   repro.tools.correct_not",
    ])
    out = layers.parse_importtime(
        text, "repro.tools.correct",
        {"s": "scipy", "e": "repro.eval", "c": "repro.core.closet"})
    assert out == pytest.approx({"import.total_s": 400e-6, "s": 300e-6,
                                 "e": 75e-6, "c": 0.0})


def _proc(ok=True):
    return harness.ProcResult(1.0, 10.0, 0 if ok else 1, False)


def test_corrupted_cli_output_counts_as_failed(tmp_path: Path):
    good = tmp_path / "good.fastq"
    good.write_bytes(b"@r0\nACGT\n+\nIIII\n")
    bad = tmp_path / "bad.fastq"
    bad.write_bytes(b"@r0\nACGA\n+\nIIII\n")
    ref = oracles.sha256_file(good)
    ops = [(_proc(), oracles.sha256_file(good)),
           (_proc(), oracles.sha256_file(bad)),
           (_proc(ok=False), ref),      # right bytes, non-zero exit
           (_proc(), None)]             # no output at all
    assert workloads.count_failed(ops, ref) == 3
    timed_out = harness.ProcResult(1.0, 10.0, 0, True)
    assert workloads.count_failed([(timed_out, ref)], ref) == 1


def test_cluster_edge_mismatch_counts_as_failed():
    out = b"threshold 0.5: 3 clusters\nedges: predicted=10 unique=6 confirmed=4\n"
    assert oracles.parse_edges(out) == (10, 6, 4)
    assert oracles.parse_edges(b"Traceback ...") is None
    ops = [(_proc(), 4), (_proc(), 5), (_proc(), None)]
    assert workloads.count_failed(ops, 4) == 2


def test_corrupted_service_download_counts_as_failed(tmp_path: Path):
    """Runs REDEEM on a small simulated input for the reference."""
    import service

    job_in = workloads.inputs.job_input(7, 0, tmp_path)

    class Traffic:
        inputs = {0: job_in}
        records = []

    ref = oracles.correction("redeem", job_in.path, job_in.true_codes,
                             tmp_path / "ref.fastq")
    from repro.core.api import build_corrector
    from repro.io.fastq import read_fastq, write_fastq

    reads = read_fastq(job_in.path)
    for i in range(3):
        rec = service.JobRecord(i, True, "redeem", False, 0, ok=True,
                                reads=job_in.n_reads,
                                download=tmp_path / f"dl{i}.fastq")
        write_fastq(build_corrector("redeem", reads).correct(reads),
                    rec.download)
        Traffic.records.append(rec)
    assert oracles.sha256_file(Traffic.records[0].download) == ref.sha256
    data = bytearray(Traffic.records[1].download.read_bytes())
    data[data.index(b"\n") + 1] ^= 0x02     # change the first base
    Traffic.records[1].download.write_bytes(bytes(data))
    Traffic.records.append(service.JobRecord(3, False, "redeem", False, 0))
    stopped = harness.ProcResult(1.0, 100.0, 0, False)
    outcome = workloads.service_outcome(Traffic, 1.0, [0.5], stopped,
                                        tmp_path)
    assert (outcome.attempted, outcome.failed) == (5, 2)
    assert outcome.metrics["quality"] == pytest.approx(ref.gain)
