"""The benchmark's three workloads: seed-derived inputs, windowed passes, checks.

A *pass* runs every operation of a workload once — the pre-training step
and each cell — through the public API of ``repro``:

* ``paper-parsec``: RL pre-training of IntelliNoC, then all five
  techniques on three PARSEC profiles (8x8 mesh) to completion, each cell
  summarised into ``RunMetrics`` and Figs. 9-16 rendered from them.
* ``uniform-saturated``: SECDED and IntelliNoC on the 8x8 mesh and torus
  under uniform traffic past saturation, over a fixed cycle window.
* ``fabrics-faulted``: IntelliNoC at light load on three fabric/fault-pack
  pairs, each run to completion through its router and link deaths.

Every simulation is driven in short windows (``Network.run(k)`` repeated,
or ``run_to_completion`` with a rising cap), each timed by an
:class:`~refclock.AdjustedTimer`, so host speed swings are scaled out.
Windowing never changes what is simulated; ``tests/test_windowed.py``
checks that against single calls.

Each operation's outcome is reduced to a *fingerprint* — exact counters
plus float statistics at ``FLOAT_DIGITS`` significant digits — and
compared with the reference recorded in ``golden.json``.
"""

from __future__ import annotations

import copy
import itertools
import json
import statistics
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.config import (
    INTELLINOC,
    SECDED_BASELINE,
    SimulationConfig,
    TechniqueConfig,
    all_techniques,
)
from repro.control.policies import RlPolicy
from repro.core import figures
from repro.core.intellinoc import pretrain_agents
from repro.metrics.summary import RunMetrics
from repro.noc.network import Network
from repro.telemetry import SimProfiler
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.traffic.trace import Trace
from repro.utils.rng import make_rng

from refclock import AdjustedTimer, TimerTotals

WORKLOADS = ("paper-parsec", "uniform-saturated", "fabrics-faulted")

#: ``--seed`` selects one of this many recorded input sets (seed modulo).
VARIANTS = 16

#: Significant digits kept of every float statistic in a fingerprint.
FLOAT_DIGITS = 10

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# paper-parsec: three profiles spanning the paper's range (quiet swa,
# mid fac, heavy x264s).  Each trace keeps its first N packets (about 260
# cycles' worth), so seeds vary the traffic but not its amount; a pass
# stays a few seconds.
PARSEC_PACKETS = {"swa": 100, "fac": 300, "x264s": 400}
PARSEC_HORIZON = 450  # cycles generated, enough for N packets on every seed
PRETRAIN_CYCLES = 1_000

# uniform-saturated: 0.1 pkt/node/cycle is past the 8x8 saturation point.
SATURATED_RATE = 0.1
SATURATED_WINDOW = 250

# fabrics-faulted: long enough to pass every scripted death (last at
# cycle 2400), light enough that each fabric drains after it.
FAULTED_DURATION = 2_600
FAULTED_FABRICS = (
    # (label, topology, concentration, fault pack, uniform rate)
    ("cmesh4", "cmesh", 4, "hotspot-meltdown", 0.006),
    ("ring", "ring", 1, "link-rot", 0.002),
    ("torus", "torus", 1, "aging-cliff", 0.006),
)

#: Simulated cycles per timed window, per workload: ~50-150 ms of host
#: time, far shorter than the host's slow stretches.  Fixed, so every pass
#: of one input set times the same windows (see ``composed_wall_s``).
WINDOW_CYCLES = {"paper-parsec": 64, "uniform-saturated": 16, "fabrics-faulted": 100}

#: ``Network.step`` phases reported per layer (``noc.step.<phase>_s``).
STEP_PHASES = (
    "router.bypass",
    "router.gating",
    "gating.tick",
    "router.switch",
    "router.vc_alloc",
    "router.rc_scan",
    "link.deliver",
    "control.rl",
    "scenario.tick",
    "drops.flush",
    "stats.epoch",
    "inject",
    "trace.admit",
)


# --- inputs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One simulation: a technique on a trace, to completion or for a window."""

    name: str
    config: SimulationConfig
    trace: Trace
    cycles: int  # the cycle cap (to completion) or the window length
    to_completion: bool
    pretrained: bool = False  # runs a copy of the pass's pre-trained policy
    benchmark: str = ""  # PARSEC profile, for the figure tables


@dataclass(frozen=True)
class Inputs:
    """Everything a pass needs, built from the seed before timing starts."""

    workload: str
    variant: int
    cells: tuple[Cell, ...]
    pretrain: TechniqueConfig | None = None

    @property
    def sim_seed(self) -> int:
        return self.variant + 1

    @property
    def packets(self) -> int:
        """Trace packets over the distinct traces (cells may share one)."""
        traces = {id(cell.trace): cell.trace for cell in self.cells}
        return sum(len(trace) for trace in traces.values())

    @property
    def figure_benchmarks(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(c.benchmark for c in self.cells if c.benchmark))


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _cap(duration: int) -> int:
    return 4 * duration + 2_000


def _uniform_trace(
    technique: TechniqueConfig, duration: int, rate: float, variant: int, label: str
) -> Trace:
    noc = technique.noc
    return generate_synthetic_trace(
        SyntheticPattern.UNIFORM,
        noc.num_nodes,
        noc.width,
        duration,
        rate,
        noc.flits_per_packet,
        make_rng(variant, f"nocbench/{label}"),
    )


def _paper_parsec(variant: int) -> Inputs:
    seed = variant + 1
    cells = []
    for benchmark, packets in PARSEC_PACKETS.items():
        # All five techniques share the 8x8 geometry and packet size.
        noc = SECDED_BASELINE.noc
        full = generate_parsec_trace(
            benchmark, noc.width, noc.height, PARSEC_HORIZON,
            noc.flits_per_packet, seed,
        )
        if len(full) < packets:
            raise ValueError(f"{benchmark} trace holds only {len(full)} packets")
        trace = Trace(full.events[:packets], name=full.name)
        for technique in all_techniques():
            cells.append(
                Cell(
                    name=f"{benchmark}/{technique.name}",
                    config=SimulationConfig(technique=technique, seed=seed),
                    trace=trace,
                    cycles=_cap(PARSEC_HORIZON),
                    to_completion=True,
                    pretrained=technique is INTELLINOC,
                    benchmark=benchmark,
                )
            )
    return Inputs("paper-parsec", variant, tuple(cells), INTELLINOC)


def _uniform_saturated(variant: int) -> Inputs:
    cells = []
    for topology in ("mesh", "torus"):
        trace = _uniform_trace(
            SECDED_BASELINE, SATURATED_WINDOW, SATURATED_RATE, variant,
            f"uniform-saturated/{topology}",
        )
        for base in (SECDED_BASELINE, INTELLINOC):
            technique = replace(base, noc=replace(base.noc, topology=topology))
            cells.append(
                Cell(
                    name=f"{topology}/{technique.name}",
                    config=SimulationConfig(technique=technique, seed=variant + 1),
                    trace=trace,
                    cycles=SATURATED_WINDOW,
                    to_completion=False,
                )
            )
    return Inputs("uniform-saturated", variant, tuple(cells))


def _fabrics_faulted(variant: int) -> Inputs:
    cells = []
    for label, topology, concentration, pack, rate in FAULTED_FABRICS:
        technique = replace(
            INTELLINOC,
            noc=replace(
                INTELLINOC.noc,
                topology=topology,
                concentration=concentration,
                fault_scenario=pack,
            ),
        )
        trace = _uniform_trace(
            technique, FAULTED_DURATION, rate, variant, f"fabrics-faulted/{label}"
        )
        cells.append(
            Cell(
                name=f"{label}/{pack}",
                config=SimulationConfig(technique=technique, seed=variant + 1),
                trace=trace,
                cycles=_cap(FAULTED_DURATION),
                to_completion=True,
            )
        )
    return Inputs("fabrics-faulted", variant, tuple(cells))


_INPUT_SETS: dict[str, Callable[[int], Inputs]] = {
    "paper-parsec": _paper_parsec,
    "uniform-saturated": _uniform_saturated,
    "fabrics-faulted": _fabrics_faulted,
}


def build_inputs(workload: str, seed: int) -> Inputs:
    """The workload's traces and configs for *seed* (same seed, same inputs)."""
    return _INPUT_SETS[workload](variant_of(seed))


# --- fingerprints ---------------------------------------------------------------


def _digits(value: float) -> str:
    return f"{value:.{FLOAT_DIGITS}g}"


def cell_fingerprint(network: Network, metrics: RunMetrics) -> dict[str, Any]:
    """Exact counters plus float statistics of one finished cell."""
    stats = network.stats
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
        "mttf_s": _digits(rel.mttf_seconds),
        "max_aging": _digits(rel.max_aging_factor),
    }


def policy_fingerprint(policy: RlPolicy) -> dict[str, Any]:
    """Size, experience and value mass of a pre-trained policy."""
    table = copy.deepcopy(policy.agents[0].qtable)  # reads reorder the LRU
    return {
        "entries": len(table),
        "agent_steps": sum(agent.steps for agent in policy.agents),
        "q_sum": _digits(sum(float(table.q_values(s).sum()) for s in table.states())),
    }


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, Any]:
    if not path.is_file():
        return {}
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def reference_for(golden: dict[str, Any], inputs: Inputs) -> dict[str, Any]:
    """The recorded fingerprints of one input set (empty when unrecorded)."""
    return golden.get("workloads", {}).get(inputs.workload, {}).get(str(inputs.variant), {})


# --- passes ---------------------------------------------------------------------


@dataclass
class Operation:
    """One checked unit of work: a cell or the pre-training step."""

    name: str
    fingerprint: dict[str, Any] | None = None
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass
class PassResult:
    """What one pass did, what it cost and how it checked out."""

    operations: list[Operation]
    totals: TimerTotals
    counts: dict[str, int] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)  # adjusted seconds

    @property
    def wall_s(self) -> float:
        return self.totals.adjusted_s

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.operations)


class PassRunner:
    """Runs passes of one workload's inputs under an :class:`AdjustedTimer`."""

    def __init__(
        self,
        timer: AdjustedTimer,
        reference: dict[str, Any],
        traced: bool = False,
    ) -> None:
        self.timer = timer
        self.reference = reference
        self.traced = traced

    def run(self, inputs: Inputs) -> PassResult:
        self.timer.take()  # start the pass's totals afresh
        window = WINDOW_CYCLES[inputs.workload]
        counts: dict[str, int] = {}
        phases: dict[str, float] = {}
        operations = []
        policy = None
        if inputs.pretrain is not None:
            op = Operation("pretrain")
            try:
                policy = self.timer.call(
                    "rl.pretrain", pretrain_agents, inputs.pretrain,
                    PRETRAIN_CYCLES, inputs.sim_seed,
                )
                op.fingerprint = policy_fingerprint(policy)
                _add(counts, "rl.control_steps", op.fingerprint["agent_steps"])
            except Exception as exc:  # a failed operation is counted, not fatal
                op.error = f"raised {exc!r}"
            self._check(op)
            operations.append(op)
        results: dict[tuple[str, str], RunMetrics] = {}
        for cell in inputs.cells:
            op = Operation(cell.name)
            try:
                metrics = self._run_cell(cell, window, policy, op, counts, phases)
                if cell.benchmark:
                    results[(cell.config.technique.name, cell.benchmark)] = metrics
            except Exception as exc:  # a failed operation is counted, not fatal
                op.error = op.error or f"raised {exc!r}"
            self._check(op)
            operations.append(op)
        if inputs.figure_benchmarks:
            self.timer.call("core.figures", _render_figures, results, inputs.figure_benchmarks)
        counts["traffic.packets"] = inputs.packets
        return PassResult(operations, self.timer.take(), counts, phases)

    def _check(self, op: Operation) -> None:
        if op.failed:
            return
        expected = self.reference.get(op.name)
        if expected is None:
            op.error = "no reference fingerprint recorded"
        elif expected != op.fingerprint:
            op.error = "fingerprint differs from the reference"

    def _run_cell(
        self,
        cell: Cell,
        window: int,
        policy: RlPolicy | None,
        op: Operation,
        counts: dict[str, int],
        phases: dict[str, float],
    ) -> RunMetrics:
        prof = SimProfiler(stride=1) if self.traced else None
        if cell.pretrained and policy is None:
            raise RuntimeError("cell needs the pre-trained policy, which failed")
        network = self.timer.call("noc.build", _build_network, cell, policy, prof)
        steps_before = _rl_steps(network)  # a pre-trained copy carries its steps
        end = drive(network, cell, self.timer, itertools.repeat(window), prof, phases)
        metrics = self.timer.call("metrics.summarize", RunMetrics.from_network, network)
        stats = network.stats
        if cell.to_completion and end >= cell.cycles:
            op.error = f"hit its cycle cap ({cell.cycles})"
        elif cell.to_completion and stats.packets_resolved != stats.packets_injected:
            op.error = (
                f"delivery ledger unbalanced: {stats.packets_injected} injected, "
                f"{stats.packets_resolved} resolved"
            )
        op.fingerprint = cell_fingerprint(network, metrics)
        _count_cell(counts, network, metrics)
        _add(counts, "rl.control_steps", _rl_steps(network) - steps_before)
        if prof is not None:
            # Heat rows hold busy_share = busy steps / profiled steps (6 digits).
            steps = prof.steps_profiled
            _add(counts, "noc.router_steps", steps * network.topology.num_routers)
            _add(counts, "noc.busy_router_steps", sum(
                round(row["busy_share"] * steps) for row in prof.router_heat()
            ))
        return metrics


def _build_network(cell: Cell, policy: RlPolicy | None, prof: SimProfiler | None) -> Network:
    own_policy = copy.deepcopy(policy) if cell.pretrained else None
    return Network(cell.config, cell.trace, policy=own_policy, simprof=prof)


def drive(
    network: Network,
    cell: Cell,
    timer: AdjustedTimer,
    windows: Iterator[int],
    prof: SimProfiler | None = None,
    phases: dict[str, float] | None = None,
) -> int:
    """Run *cell* on *network* in timed windows; returns the final cycle.

    To completion, each window is ``run_to_completion`` with a cap raised
    by the window length (the call resumes where the last one stopped);
    otherwise each is ``run(k)`` until the cell's window is covered.
    """
    while True:
        start = network.cycle
        k = next(windows)
        if cell.to_completion:
            target = min(start + k, cell.cycles)
            before = _phase_snapshot(prof)
            end = timer.call("noc.run", network.run_to_completion, target)
        else:
            k = min(k, cell.cycles - start)
            before = _phase_snapshot(prof)
            timer.call("noc.run", network.run, k)
            end = network.cycle
        if prof is not None and phases is not None:
            _fold_phases(phases, before, prof, timer.last_scale)
        if cell.to_completion and (end < target or end >= cell.cycles):
            return end
        if not cell.to_completion and end >= cell.cycles:
            return end


def _phase_snapshot(prof: SimProfiler | None) -> dict[str, float]:
    return prof.phase_totals() if prof is not None else {}


def _fold_phases(
    phases: dict[str, float], before: dict[str, float], prof: SimProfiler, scale: float
) -> None:
    for name, seconds in prof.phase_totals().items():
        delta = seconds - before.get(name, 0.0)
        if delta:
            phases[name] = phases.get(name, 0.0) + delta * scale


def _add(counts: dict[str, int], key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_cell(counts: dict[str, int], network: Network, metrics: RunMetrics) -> None:
    stats = network.stats
    _add(counts, "noc.cycles", network.cycle)
    _add(counts, "noc.router_cycles", network.cycle * network.topology.num_routers)
    _add(counts, "noc.flit_hops", stats.flits_delivered)
    _add(counts, "channels.bypass_traversals", stats.bypass_traversals)
    _add(counts, "noc.wakeups", stats.wakeups)
    _add(counts, "ecc.retransmitted_flits", stats.total_retransmitted_flits)
    _add(counts, "noc.mode0_cycles", stats.mode_cycles.get(0, 0))
    _add(counts, "noc.mode_cycles", sum(stats.mode_cycles.values()))
    _add(counts, "faults.routers_failed", metrics.reliability.routers_failed)
    _add(counts, "faults.links_failed", metrics.reliability.links_failed)
    _add(counts, "faults.packets_dropped", stats.packets_dropped)
    _add(counts, "packets.injected", stats.packets_injected)
    _add(counts, "packets.completed", stats.packets_completed)
    if isinstance(network.policy, RlPolicy):
        _add(counts, "rl.qtable_entries", network.policy.total_table_entries())


def _rl_steps(network: Network) -> int:
    """Control decisions taken so far by the network's RL agents."""
    policy = network.policy
    return sum(a.steps for a in policy.agents) if isinstance(policy, RlPolicy) else 0


def _render_figures(
    results: dict[tuple[str, str], RunMetrics], benchmarks: tuple[str, ...]
) -> int:
    """Render Figs. 9-16 from the pass's cells; returns the text size."""
    names = [t.name for t in all_techniques()]
    tables = [
        figures.figure9_speedup(results, names, benchmarks),
        figures.figure10_latency(results, names, benchmarks),
        figures.figure11_static_power(results, names, benchmarks),
        figures.figure12_dynamic_power(results, names, benchmarks),
        figures.figure13_energy_efficiency(results, names, benchmarks),
        figures.figure14_mode_breakdown(results, benchmarks),
        figures.figure15_retransmissions(results, names, benchmarks),
        figures.figure16_mttf(results, names, benchmarks),
    ]
    return sum(len(table) for table, _ in tables)


def composed_wall_s(passes: list[PassResult]) -> float:
    """One pass's adjusted seconds, as the median of each window across passes.

    Passes of one input set time the same window sequence, so the median
    per window discards a slow stretch that hit one pass and not the others.
    """
    if len({len(p.totals.windows) for p in passes}) != 1:
        return statistics.median(p.wall_s for p in passes)
    return sum(statistics.median(column) for column in zip(*(p.totals.windows for p in passes)))
