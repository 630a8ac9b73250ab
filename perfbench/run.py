"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload reptile_batch --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of the workload with
nothing traced; ``--trace 1`` runs the traced layer suite instead and
prints the per-layer metrics (see perfbench/README.md).  Progress and
details go to stderr; the last stdout line is the result::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

Exits 2 when the program's sources are missing, 1 when the benchmark
itself fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import traceback

import harness

WORKLOADS = ("reptile_batch", "reptile_socket", "service_mixed",
             "closet_cluster")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, workdir) -> tuple[dict, int, int]:
    """``(metrics as {name: (value, unit)}, attempted, failed)``."""
    if args.trace:
        import layers

        suite = layers.run_suite(args.workload, args.seed, args.seconds,
                                 workdir)
        return suite.metrics, suite.attempted, suite.failed
    import workloads

    if args.workload == "reptile_batch":
        out = workloads.reptile_cli(args.seed, args.seconds, workdir, False)
    elif args.workload == "reptile_socket":
        out = workloads.reptile_cli(args.seed, args.seconds, workdir, True)
    elif args.workload == "service_mixed":
        out = workloads.service_mixed(args.seed, args.seconds, workdir)
    else:
        out = workloads.closet_cluster(args.seed, args.seconds, workdir)
    print(f"{args.workload}: {out.detail}", file=sys.stderr)
    metrics = {name: (out.metrics[name], unit)
               for name, unit in workloads.END_TO_END.items()}
    return metrics, out.attempted, out.failed


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every child process is stopped.
    signal.signal(signal.SIGTERM, _terminate)
    if not harness.program_present():
        print(f"error: no program sources under {harness.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    workdir = harness.ROOT / ".perfbench_work" / (
        f"{args.workload}-{os.getpid()}")
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # Temporary files of the program and its workers stay in the checkout.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        metrics, attempted, failed = measure(args, workdir)
    except Exception:  # repro: noqa[REP401] -- top-level boundary: the traceback is printed and the run exits 1 without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    finite = all(math.isfinite(v) for v, _unit in metrics.values())
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": v if math.isfinite(v) else 0.0, "unit": unit}
            for name, (v, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
