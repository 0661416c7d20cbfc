"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 nocbench/run.py --workload paper-parsec --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics, taken from
passes that carry a ``SimProfiler``.  Every timing is reference-adjusted
(see ``refclock.py``).  Progress goes to standard output first; the last
line is always the result object::

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}

The sources must sit under ``src/`` next to this directory; without them
the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from refclock import AdjustedTimer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Times the import and the input build are repeated to take their median.
SETUP_REPEATS = 5

#: ``workloads.WORKLOADS``, named here because importing ``workloads``
#: imports ``repro``, which belongs to the timed set-up.
WORKLOAD_NAMES = ("paper-parsec", "uniform-saturated", "fabrics-faulted")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_workloads() -> Any:
    """Import ``repro`` (through ``workloads``) afresh, as a new process would.

    Numpy and the standard library stay loaded, so repeats after the first
    measure the import of this repository's own modules.
    """
    for name in list(sys.modules):
        if name == "workloads" or name == "repro" or name.startswith("repro."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(timer: AdjustedTimer, workload: str, seed: int) -> tuple[Any, Any, float, float]:
    """Import and build the inputs ``SETUP_REPEATS`` times.

    Returns the module, the inputs, and the medians of adjusted set-up
    seconds and of the input build alone.
    """
    totals = []
    builds = []
    module = inputs = None
    for _ in range(SETUP_REPEATS):
        module = timer.call("import", _import_workloads)
        inputs = timer.call("traffic.gen", module.build_inputs, workload, seed)
        spent = timer.take()
        totals.append(spent.adjusted_s)
        builds.append(spent.bucket("traffic.gen"))
    return module, inputs, statistics.median(totals), statistics.median(builds)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def per_layer(
    untraced: list[Any], traced: list[Any], gen_s: float, host: dict[str, Any], wl: Any
) -> dict[str, Any]:
    """The per-layer metrics of a traced run (see README.md for the glossary)."""
    counts = untraced[0].counts
    run_s = statistics.median([p.totals.bucket("noc.run") for p in untraced])
    wall = wl.composed_wall_s(untraced)
    traced_wall = wl.composed_wall_s(traced)
    metrics: dict[str, Any] = {}
    for phase in wl.STEP_PHASES:
        metrics[f"noc.step.{phase}_s"] = _metric(
            statistics.median([p.phases.get(phase, 0.0) for p in traced]), "s"
        )
    for bucket in ("rl.pretrain", "noc.build", "noc.run", "metrics.summarize", "core.figures"):
        metrics[f"{bucket}_s"] = _metric(
            statistics.median([p.totals.bucket(bucket) for p in untraced]), "s"
        )
    metrics["traffic.gen_s"] = _metric(gen_s, "s")
    metrics["noc.us_per_router_cycle"] = _metric(
        1e6 * run_s / max(1, counts["noc.router_cycles"]), "us"
    )
    metrics["noc.us_per_flit_hop"] = _metric(
        1e6 * run_s / max(1, counts["noc.flit_hops"]), "us"
    )
    for key in (
        "traffic.packets",
        "noc.cycles",
        "noc.flit_hops",
        "channels.bypass_traversals",
        "noc.wakeups",
        "ecc.retransmitted_flits",
        "rl.control_steps",
        "rl.qtable_entries",
        "faults.routers_failed",
        "faults.links_failed",
        "faults.packets_dropped",
    ):
        metrics[key] = _metric(counts.get(key, 0), "count")
    metrics["noc.mode0_share"] = _metric(
        counts["noc.mode0_cycles"] / max(1, counts["noc.mode_cycles"]), "ratio"
    )
    traced_counts = traced[0].counts
    metrics["noc.idle_router_share"] = _metric(
        1.0 - traced_counts["noc.busy_router_steps"] / max(1, traced_counts["noc.router_steps"]),
        "ratio",
    )
    metrics["faults.delivery_ratio"] = _metric(
        counts["packets.completed"] / max(1, counts["packets.injected"]), "ratio"
    )
    metrics["host.raw_wall_s"] = _metric(host["raw_wall_s"], "s")
    metrics["host.ref_slowdown"] = _metric(host["ref_slowdown"], "ratio")
    metrics["trace.overhead_pct"] = _metric(100.0 * (traced_wall - wall) / wall, "%")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"nocbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    timer = AdjustedTimer()
    wl, inputs, setup_s, gen_s = set_up(timer, args.workload, args.seed)
    runner = wl.PassRunner(timer, wl.reference_for(wl.load_golden(), inputs))
    traced_runner = wl.PassRunner(timer, runner.reference, traced=True)
    untraced: list[Any] = []
    traced: list[Any] = []
    started = time.perf_counter()
    # Whole passes until the time is spent; a traced run alternates
    # untraced and traced passes so both see the same host conditions.
    while True:
        want_traced = args.trace == 1 and len(traced) < len(untraced)
        gc.collect()  # the last pass's garbage must not raise this one's peak
        result = (traced_runner if want_traced else runner).run(inputs)
        (traced if want_traced else untraced).append(result)
        print(
            f"pass {len(untraced) + len(traced)}{' traced' if want_traced else ''}: "
            f"wall {result.wall_s:.4f} s (raw {result.totals.raw_s:.4f} s), "
            f"{len(result.operations) - result.failed}/{len(result.operations)} ops ok",
            flush=True,
        )
        for op in result.operations:
            if op.failed:
                print(f"  FAILED {op.name}: {op.error}", flush=True)
        enough = time.perf_counter() - started >= args.seconds
        if enough and (args.trace == 0 or traced):
            break
    passes = untraced + traced
    attempted = sum(len(p.operations) for p in passes)
    failed = sum(p.failed for p in passes)
    host = {
        "raw_wall_s": statistics.median([p.totals.raw_s for p in untraced]),
        "ref_slowdown": statistics.median([s for p in untraced for s in p.totals.slowdowns]),
        "passes": len(untraced),
    }
    print("host: " + json.dumps(host))
    if args.trace == 1:
        metrics = per_layer(untraced, traced, gen_s, host, wl)
    else:
        metrics = {
            "wall_s": _metric(wl.composed_wall_s(untraced), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
