"""Noise report: run one workload N times, one process at a time.

Usage, from the repository root::

    python3 nocbench/noise.py --workload paper-parsec --runs 10 --seconds 20

Each run is a fresh ``run.py`` process with its own seed (``--first-seed``
upwards); the next starts only after the last has exited, because two
benchmark processes on a 2-vCPU host slow each other by ~30 %.  Prints
every run's metrics next to its raw host seconds and reference slowdown,
then per metric the median, quartiles, range and the quartile spread as
a share of the median (``statistics.quantiles(values, n=4)``), which is
what the benchmark's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns its host line and its result object."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    host = next(json.loads(line[len("host: "):]) for line in lines if line.startswith("host: "))
    return host, json.loads(lines[-1])


def summarize(name: str, values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return (
        f"{name:<28s} median {q2:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}  "
        f"range {min(values):.5f}..{max(values):.5f}  spread {100 * spread:5.2f}%"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    series: dict[str, list[float]] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        host, result = run_once(args.workload, seed, args.seconds, args.trace)
        failed += result["failed"]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values["host.raw_wall_s"] = host["raw_wall_s"]
        values["host.ref_slowdown"] = host["ref_slowdown"]
        for name, value in values.items():
            series.setdefault(name, []).append(value)
        print(
            f"seed {seed:3d}: "
            + "  ".join(f"{name}={value:.4f}" for name, value in values.items())
            + f"  passes={host['passes']} failed={result['failed']}/{result['attempted']}",
            flush=True,
        )
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s, {failed} failed operations")
    for name, values in series.items():
        print(summarize(name, values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
