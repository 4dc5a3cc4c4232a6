"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hh-cluster --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with spans, adds
the in-process per-layer measurements, and prints the per-layer metrics.
The exit code is 0 only if every answer passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("hh-cluster", "freq-stream", "sim-six")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import become_subreaper, result_line, stop_descendants

    # Whatever way the run ends (a SIGTERM too), no process it started
    # outlives it: orphans are adopted, then killed and waited for.
    become_subreaper()
    terminated = []

    def on_sigterm(signum, frame):
        terminated.append(signum)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        outcome, host = _measure(args)
    finally:
        leftovers = stop_descendants()
    if terminated:
        print("perfbench: terminated; no result", file=sys.stderr)
        return 128 + terminated[0]
    if leftovers:
        print(f"perfbench: killed {len(leftovers)} leftover processes: "
              f"{leftovers}", file=sys.stderr)
    host["loadavg_after"] = list(os.getloadavg())
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "leftover_processes": len(leftovers), **outcome.details}
    print(json.dumps(header, sort_keys=True))
    for line in outcome.lines:
        print(line)
    for note in outcome.ledger.notes:
        print(f"FAILED {note}")
    print(f"error_rate {outcome.ledger.error_rate:.6g} "
          f"({outcome.ledger.total_failed} failed of "
          f"{outcome.ledger.total_attempted} attempted)")
    correct = outcome.ledger.total_failed == 0
    print(result_line(correct, outcome.ledger, outcome.metrics), flush=True)
    return 0 if correct else 1


def _measure(args):
    """Run the workload; returns its outcome and the host record."""
    from perfbench import workloads
    from perfbench.common import Ledger, cpu_probe_ms, host_record

    work_dir = ROOT / ".perfbench_work"
    work_dir.mkdir(exist_ok=True)
    host = host_record(work_dir)
    ledger = Ledger()
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), work_dir, ledger)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        ledger.record("run", 1, 1, f"{type(exc).__name__}: {exc}")
        outcome = workloads.Outcome(ledger=ledger, metrics={})
    host["cpu_probe_ms_after"] = cpu_probe_ms()
    return outcome, host


if __name__ == "__main__":
    sys.exit(main())
