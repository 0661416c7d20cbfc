"""The cycle-throughput bench matrix behind ``repro bench``.

Runs the canonical simulator-speed matrix — mesh/torus × injection
0.1/0.4 × fault scenario off/on, plus one light-load mesh point at 0.02
where most routers sit gated, 8×8 grid, uniform synthetic traffic, full
IntelliNoC control stack — appends a metadata-stamped record to the
committed history (:mod:`repro.perf.history`), optionally attributes
wall time per ``Network.step`` phase with a
:class:`~repro.telemetry.simprof.SimProfiler` pass over the mesh cells,
and gates the result against the previous comparable record
(:mod:`repro.perf.gate`).

Two rules keep records comparable across commits:

* **Timing cells never carry a profiler.**  The profiled pass runs on a
  *separate* network over a shorter window, so throughput numbers always
  measure the unobserved hot path.
* **A fixed simulated-cycle window** (not run-to-completion), so the
  measured work is identical across commits (see
  ``benchmarks/bench_cycle_throughput.py`` for the history of this
  choice).

Wall-clock numbers are machine-dependent — the gate compares ratios on
records from the same duration/seed/quick class, and every record stamps
a host fingerprint so cross-host deltas are at least visible.
"""

from __future__ import annotations

import argparse
import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.perf import gate as gate_mod
from repro.perf import history as history_mod
from repro.perf import report as report_mod

_LOG = logging.getLogger("repro.perf")

FULL_DURATION = 3_000
QUICK_DURATION = 600
DEFAULT_SEED = 7
INJECTION_RATES = (0.1, 0.4)
TOPOLOGIES = ("mesh", "torus")
SCENARIOS = ("", "aging-cliff")  # "" = hooks present but disabled
# The paper's regime: light load, most routers power-gated behind the
# bypass.  The saturated points above never reach it.
LIGHT_POINT = ("mesh", 0.02, "")


@dataclass(frozen=True)
class BenchOptions:
    """Resolved ``repro bench`` invocation."""

    quick: bool = False
    check: bool = False
    threshold: float = gate_mod.DEFAULT_THRESHOLD
    warn_only: bool = False
    report_only: bool = False
    report_out: Path | None = None
    top: int = 5
    out: Path = history_mod.DEFAULT_HISTORY_PATH
    duration: int | None = None
    seed: int = DEFAULT_SEED
    label: str | None = None
    profile: bool = True

    @property
    def effective_duration(self) -> int:
        if self.duration is not None:
            return self.duration
        return QUICK_DURATION if self.quick else FULL_DURATION


def matrix(quick: bool) -> list[tuple[str, float, str]]:
    """The (topology, injection_rate, scenario) cells to time.

    Quick mode trims to the two mesh scenario-off cells so CI smoke stays
    under a minute while still covering both load regimes.
    """
    if quick:
        return [("mesh", rate, "") for rate in INJECTION_RATES]
    return [
        (topology, rate, scenario)
        for topology in TOPOLOGIES
        for rate in INJECTION_RATES
        for scenario in SCENARIOS
    ] + [LIGHT_POINT]


def _build_network(
    topology: str,
    injection_rate: float,
    scenario: str,
    duration: int,
    seed: int,
    simprof: Any = None,
) -> Any:
    """One fresh simulator for a matrix cell (lazy imports keep CLI fast)."""
    from repro.config import INTELLINOC, SimulationConfig
    from repro.noc.network import Network
    from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
    from repro.utils.rng import make_rng

    technique = replace(
        INTELLINOC,
        noc=replace(
            INTELLINOC.noc, topology=topology, fault_scenario=scenario
        ),
    )
    noc = technique.noc
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM,
        noc.num_nodes,
        noc.width,
        duration,
        injection_rate,
        noc.flits_per_packet,
        make_rng(
            seed,
            f"bench/{technique.name}/{topology}/{injection_rate}/{scenario or 'off'}",
        ),
    )
    config = SimulationConfig(technique=technique, seed=seed)
    if simprof is None:
        return Network(config, trace)
    return Network(config, trace, simprof=simprof)


def time_cell(
    topology: str,
    injection_rate: float,
    scenario: str,
    duration: int,
    seed: int,
) -> dict[str, Any]:
    """Time one unprofiled cell over a fixed simulated-cycle window."""
    network = _build_network(topology, injection_rate, scenario, duration, seed)
    started = time.perf_counter()
    network.run(duration)
    elapsed = time.perf_counter() - started
    stats = network.stats
    noc = network.config.technique.noc
    return {
        "technique": network.config.technique.name,
        "topology": topology,
        "grid": f"{noc.width}x{noc.height}",
        "scenario": scenario,
        "injection_rate": injection_rate,
        "simulated_cycles": duration,
        "wall_seconds": round(elapsed, 4),
        "cycles_per_second": round(duration / elapsed, 1),
        "flits_delivered": stats.flits_delivered,
        "flits_per_second": round(stats.flits_delivered / elapsed, 1),
        "packets_completed": stats.packets_completed,
    }


def profile_cell(
    topology: str,
    injection_rate: float,
    scenario: str,
    duration: int,
    seed: int,
) -> dict[str, Any]:
    """Phase-attribution pass: a fresh network with a stride-1 SimProfiler."""
    from repro.telemetry.simprof import OVERHEAD_PHASE, SimProfiler

    prof = SimProfiler(stride=1)
    network = _build_network(
        topology, injection_rate, scenario, duration, seed, simprof=prof
    )
    network.run(duration)
    heat = prof.router_heat()
    hottest = max(heat, key=lambda r: r["busy_share"]) if heat else None
    return {
        "stride": prof.stride,
        "steps_profiled": prof.steps_profiled,
        "profiled_cycles": duration,
        "top_phase": prof.top_phase(),
        "hot_spots": [
            [name, round(seconds, 6), round(share, 6)]
            for name, seconds, share in prof.hot_spots(top_n=8)
        ],
        "overhead_share": round(prof.phase_shares()[OVERHEAD_PHASE], 6),
        "hottest_router": hottest,
    }


def run_matrix(options: BenchOptions) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Time every cell, then profile the mesh scenario-off cells."""
    duration = options.effective_duration
    cells = matrix(options.quick)
    points: list[dict[str, Any]] = []
    for topology, rate, scenario in cells:
        point = time_cell(topology, rate, scenario, duration, options.seed)
        points.append(point)
        print(
            f"{point['technique']:>10s} {topology:>5s} @ {rate:<4g} "
            f"[{scenario or 'scenario off'}]: "
            f"{point['cycles_per_second']:>8.0f} cyc/s  "
            f"{point['flits_per_second']:>9.0f} flit/s  "
            f"({point['wall_seconds']:.2f}s wall)"
        )
    profiles: dict[str, Any] = {}
    if options.profile:
        profile_window = max(200, duration // 3)
        for topology, rate, scenario in cells:
            if topology != "mesh" or scenario != "":
                continue
            key = history_mod.point_key(
                {
                    "technique": "IntelliNoC",
                    "topology": topology,
                    "injection_rate": rate,
                    "scenario": scenario,
                }
            )
            profiles[key] = profile_cell(
                topology, rate, scenario, profile_window, options.seed
            )
            _LOG.info(
                "profiled %s over %d cycles: top phase %s",
                key,
                profile_window,
                profiles[key]["top_phase"],
            )
    return points, profiles


def run_bench_cli(options: BenchOptions) -> int:
    """Full ``repro bench`` flow; returns the process exit code."""
    history = history_mod.load_history(options.out)

    if options.report_only:
        if not history.get("history"):
            _LOG.error("no bench history at %s; run `repro bench` first", options.out)
            return 2
        text = report_mod.render_report(history, top_n=options.top)
        print(text)
        if options.report_out is not None:
            options.report_out.parent.mkdir(parents=True, exist_ok=True)
            options.report_out.write_text(text + "\n", encoding="utf-8")
            _LOG.info("wrote hot-spot report to %s", options.report_out)
        return 0

    points, profiles = run_matrix(options)
    record = history_mod.append_record(
        history,
        points,
        duration=options.effective_duration,
        seed=options.seed,
        quick=options.quick,
        label=options.label,
        profiles=profiles,
    )
    history_mod.save_history(history, options.out)
    deltas = record.get("deltas")
    if deltas:
        print(
            f"record #{record['id']} appended to {options.out.name} "
            f"(geomean {deltas['geomean']:.2%} of record "
            f"#{deltas['baseline_id']} cycles/s)"
        )
    else:
        print(
            f"record #{record['id']} appended to {options.out.name} "
            f"(no comparable baseline for deltas)"
        )

    if options.report_out is not None:
        text = report_mod.render_report(history, top_n=options.top)
        options.report_out.parent.mkdir(parents=True, exist_ok=True)
        options.report_out.write_text(text + "\n", encoding="utf-8")
        _LOG.info("wrote hot-spot report to %s", options.report_out)

    if options.check:
        result = gate_mod.evaluate_record(record, options.threshold)
        print(result.describe())
        if not result.ok and not options.warn_only:
            return 1
        if not result.ok:
            _LOG.warning("perf gate failed but --warn-only is set")
    return 0


def add_cli_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro bench`` flags (shared with the benchmarks wrapper)."""
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"trimmed mesh-only matrix at {QUICK_DURATION} cycles (CI smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate cycles/s against the previous comparable record",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=gate_mod.DEFAULT_THRESHOLD,
        help="gate ratio: fail points below THRESHOLD x baseline cycles/s "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report gate failures without a non-zero exit (CI smoke mode)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="render the hot-spot report for the latest record and exit "
        "(no simulation)",
    )
    parser.add_argument(
        "--report-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the markdown hot-spot report to PATH",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="phases per hot-spot table (default %(default)s)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=history_mod.DEFAULT_HISTORY_PATH,
        metavar="PATH",
        help="history file to append to (default: committed "
        "BENCH_cycle_throughput.json)",
    )
    parser.add_argument(
        "--duration",
        type=int,
        default=None,
        metavar="CYCLES",
        help=f"simulated cycles per cell (default {FULL_DURATION}, "
        f"quick {QUICK_DURATION})",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="base RNG seed"
    )
    parser.add_argument(
        "--label", default=None, help="free-form label stored on the record"
    )
    parser.add_argument(
        "--no-profile",
        action="store_true",
        help="skip the SimProfiler phase-attribution pass",
    )


def options_from_args(args: argparse.Namespace) -> BenchOptions:
    return BenchOptions(
        quick=args.quick,
        check=args.check,
        threshold=args.threshold,
        warn_only=args.warn_only,
        report_only=args.report,
        report_out=args.report_out,
        top=args.top,
        out=args.out,
        duration=args.duration,
        seed=args.seed,
        label=args.label,
        profile=not args.no_profile,
    )
