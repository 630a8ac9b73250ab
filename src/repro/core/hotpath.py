"""Hot-path configuration shared by the correctors.

Reptile's phase 2 has one production path: the lockstep tiling walk
(:func:`repro.core.reptile.read_correct.correct_block_lockstep`).
Every equal-length block of reads advances one tile per step in
numpy, and the Algorithm 1 rules each step needs are resolved in one
batch through a per-run :class:`~repro.core.reptile.read_correct.RuleTable`.
``reference=True`` selects the scalar per-read walk instead; it
exists as the differential oracle for tests and benches (there is no
CLI flag for it), and ``tests/test_hotpath_equivalence.py`` proves
both produce identical codes, stats and per-base provenance.

The rule table lives inside one ``run()`` call — never on the
corrector or at module scope — so forked workers share nothing
mutable.  Its traffic is reported per chunk under the counter names
``hotpath.memo_misses`` (distinct rules evaluated) and
``hotpath.memo_hits`` (every other lookup) and merged by the parallel
engine like any other stat.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HotpathConfig:
    """Which tiling walk Reptile runs."""

    #: Run the scalar per-read reference walk (the test/bench oracle).
    reference: bool = False
    #: Bloom false-positive rate; only perfbench's ``kmer-probe`` reads it.
    prefilter_fp_rate: float = 0.01
