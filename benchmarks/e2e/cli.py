"""Argument handling for the benchmark command.

With ``--workload`` this is the driver's contract: run that workload in this
process and print one JSON result as the last line of stdout. Without it,
every workload runs, untraced then traced, each in a fresh child process,
and a report of every metric is printed and written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from . import validate
from .metrics import RUN_SECONDS, WORKLOAD_NAMES

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: spans on, print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.01, one set-up, one measured cycle")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for run-<seed>.json, trace-*.json "
                        "and aa.json")
    parser.add_argument("--aa", type=int, metavar="N", default=0,
                        help="run the same code twice on N seeds and compare")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problems = validate.check_manifest()
    if problems:
        print("BENCHMARK.json is invalid:", *problems, sep="\n  ",
              file=sys.stderr)
        return 2
    if args.workload:
        try:
            from .harness import run_workload
            from .workloads import WORKLOADS
        except ImportError as exc:
            print(f"cannot import the program under test: {exc}",
                  file=sys.stderr)
            return 2
        # Let a TERM from the driver unwind through the finally blocks, so
        # the server subprocess and the work directory never outlive us.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), smoke=args.smoke, out=args.out,
        )
        print(json.dumps(result))
        return 0
    from . import report

    out = args.out or RESULTS_DIR
    if args.aa:
        return report.run_aa(args.aa, args.seed, args.seconds, args.smoke, out)
    return report.run_report(args.seed, args.seconds, args.smoke, out)
