"""Regenerate the golden regression corpus.

Run from the repo root **only when an intentional behavior change to a
correction/clustering rule lands**, then commit the updated files with
that change::

    PYTHONPATH=src python tests/golden/regenerate.py

Writes, per case, the fixed-seed input reads and the expected output of
the pinned pipeline (see ``pipelines.py``).  ``--check`` regenerates to
a temporary location and reports differences without touching the
committed files.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pipelines as P  # noqa: E402


def _write_case(case: str, outdir: Path) -> list[Path]:
    from repro.io.fastq import read_fastq, write_fastq

    if case in P.SHARED_INPUT:
        # Reads the committed input of the case it shares; writes only
        # its own expected output.
        reads = read_fastq(P.reads_path(case))
        expected_file = outdir / P.expected_path(case).name
        expected_file.write_text(P.run_closet_mapreduce(reads))
        return [expected_file]
    spec = P.DATASETS[case]
    if case == "closet":
        reads = P.simulate_closet_case(spec)
    else:
        reads = P.simulate_case(spec)
    reads_file = outdir / P.reads_path(case).name
    expected_file = outdir / P.expected_path(case).name
    write_fastq(reads, reads_file)

    if case == "reptile":
        write_fastq(P.run_reptile(reads), expected_file)
    elif case == "redeem":
        write_fastq(P.run_redeem(reads), expected_file)
    else:
        expected_file.write_text(P.run_closet(reads))
    return [reads_file, expected_file]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--check", action="store_true",
        help="diff against the committed corpus instead of overwriting",
    )
    cases = sorted([*P.DATASETS, *P.SHARED_INPUT])
    ap.add_argument("--cases", nargs="+", default=cases, choices=cases)
    args = ap.parse_args(argv)

    rc = 0
    with contextlib.ExitStack() as stack:
        outdir = P.GOLDEN_DIR
        if args.check:
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="golden-check-")
            )
            outdir = Path(tmp)
        for case in args.cases:
            written = _write_case(case, outdir)
            for f in written:
                committed = P.GOLDEN_DIR / f.name
                if args.check:
                    if not committed.exists():
                        print(f"MISSING  {committed.name}")
                        rc = 1
                    elif committed.read_bytes() != f.read_bytes():
                        print(f"DIFFERS  {committed.name}")
                        rc = 1
                    else:
                        print(f"ok       {committed.name}")
                else:
                    print(f"wrote    {f}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
