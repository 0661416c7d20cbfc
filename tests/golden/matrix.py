"""Pinned golden fingerprints: technique x fabric x scenario cells.

Every other identity test in the suite is *relative* (run A equals run B
within one test), so an optimisation that moves the plain step path and
its profiled mirror the same way would pass them all.  This matrix pins
absolute outcomes instead: each cell is a short light-load run, reduced
to exact counters plus energy, power and temperature at
``FLOAT_DIGITS`` significant digits, and compared against the committed
``fingerprints.json``.

Re-record (prints every field that moved, rewrites the file)::

    PYTHONPATH=src python -m tests.golden.matrix
    PYTHONPATH=src python -m tests.golden.matrix --check   # diff only, exit 1 on change

A change meant to keep results identical must leave the diff empty; any
other re-record needs its reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.config import (
    CP,
    CPD,
    EB,
    INTELLINOC,
    SECDED_BASELINE,
    SimulationConfig,
    TechniqueConfig,
)
from repro.metrics.summary import RunMetrics
from repro.noc.network import Network
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.utils.rng import make_rng

GOLDEN_PATH = Path(__file__).resolve().parent / "fingerprints.json"

#: Significant digits kept of every float statistic.
FLOAT_DIGITS = 10

SEED = 5
#: Light uniform load: most routers sit idle long enough to gate.
INJECTION_RATE = 0.01
CYCLES = 500
#: Scenario cells run past aging-cliff's first router death (cycle 900).
SCENARIO_CYCLES = 1_000


@dataclass(frozen=True)
class Cell:
    technique: TechniqueConfig
    topology: str = "mesh"
    scenario: str = ""

    @property
    def name(self) -> str:
        return f"{self.technique.name}/{self.topology}/{self.scenario or 'none'}"

    @property
    def cycles(self) -> int:
        return SCENARIO_CYCLES if self.scenario else CYCLES


def cells() -> list[Cell]:
    """Five techniques on the mesh; IntelliNoC on the other fabrics with
    and without the aging-cliff pack."""
    out = [Cell(t) for t in (SECDED_BASELINE, EB, CP, CPD, INTELLINOC)]
    for topology in ("torus", "cmesh", "ring"):
        for scenario in ("", "aging-cliff"):
            out.append(Cell(INTELLINOC, topology, scenario))
    return out


def build_network(cell: Cell) -> Network:
    noc = replace(
        cell.technique.noc,
        topology=cell.topology,
        concentration=4 if cell.topology == "cmesh" else 1,
        fault_scenario=cell.scenario,
    )
    technique = replace(cell.technique, noc=noc)
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM,
        noc.num_nodes,
        noc.width,
        cell.cycles,
        INJECTION_RATE,
        noc.flits_per_packet,
        make_rng(SEED, f"golden/{cell.name}"),
    )
    return Network(SimulationConfig(technique=technique, seed=SEED), trace)


def _digits(value: float) -> str:
    return f"{value:.{FLOAT_DIGITS}g}"


def fingerprint(network: Network) -> dict[str, Any]:
    """Exact counters plus float statistics of one finished run."""
    stats = network.stats
    metrics = RunMetrics.from_network(network)
    rel = metrics.reliability
    return {
        "cycles": network.cycle,
        "injected": stats.packets_injected,
        "completed": stats.packets_completed,
        "latency_sum": stats.latency_sum,
        "flit_hops": stats.flits_delivered,
        "flits_ejected": stats.flits_ejected_total,
        "hop_retx": stats.hop_retransmissions,
        "e2e_retx": stats.e2e_retransmission_flits,
        "corrected": stats.corrected_flits,
        "silent": stats.silent_corruptions,
        "bypass": stats.bypass_traversals,
        "wakeups": stats.wakeups,
        "gates": sum(r.gating.gate_count for r in network.routers),
        "wakes": sum(r.gating.wake_count for r in network.routers),
        "mfac_switches": sum(c.function_switches for c in network.channels),
        "mode_cycles": [stats.mode_cycles.get(m, 0) for m in range(5)],
        "dropped": [
            stats.packets_dropped_dead_router,
            stats.packets_dropped_dead_link,
            stats.packets_undeliverable,
            stats.flits_dropped,
        ],
        "failed": [rel.routers_failed, rel.links_failed],
        "qtable_max": metrics.qtable_entries_max,
        "energy_j": _digits(metrics.total_energy_j),
        "static_w": _digits(metrics.static_power_w),
        "dynamic_w": _digits(metrics.dynamic_power_w),
        "mean_temp_k": _digits(metrics.mean_temperature_k),
        "max_temp_k": _digits(metrics.max_temperature_k),
        "max_aging": _digits(rel.max_aging_factor),
    }


def run_cell(cell: Cell) -> dict[str, Any]:
    network = build_network(cell)
    network.run(cell.cycles)
    return fingerprint(network)


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, dict[str, Any]]:
    return json.loads(path.read_text(encoding="utf-8"))


def diff(old: dict[str, Any], new: dict[str, Any], name: str) -> list[str]:
    """One line per fingerprint field that differs."""
    return [
        f"~ {name} {key}: {old.get(key)} -> {new.get(key)}"
        for key in sorted(set(old) | set(new))
        if old.get(key) != new.get(key)
    ]


def render(golden: dict[str, dict[str, Any]]) -> str:
    """JSON with one line per cell, for readable diffs."""
    rows = [
        f"  {json.dumps(name)}: {json.dumps(golden[name], sort_keys=True)}"
        for name in sorted(golden)
    ]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="print the diff only; exit 1 when any fingerprint moved",
    )
    args = parser.parse_args(argv)
    old = load_golden() if GOLDEN_PATH.exists() else {}
    new = {cell.name: run_cell(cell) for cell in cells()}
    lines: list[str] = []
    for name in sorted(set(old) | set(new)):
        if name not in old:
            lines.append(f"+ {name}")
        elif name not in new:
            lines.append(f"- {name}")
        else:
            lines.extend(diff(old[name], new[name], name))
    print("\n".join(lines) if lines else "no fingerprint changed")
    if args.check:
        return 1 if lines else 0
    GOLDEN_PATH.write_text(render(new), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
