"""``repro.perf`` — tracked benchmark history and regression gating.

Orchestration-layer package behind the ``repro bench`` subcommand
(ROADMAP item 1's "tracked perf trajectory"):

* :mod:`repro.perf.bench` — runs the cycle-throughput matrix
  (mesh/torus × injection 0.1/0.4 × scenario off/on, plus a light-load
  mesh point at 0.02), with an optional
  :class:`~repro.telemetry.simprof.SimProfiler` pass per mesh cell for
  phase-level hot-spot attribution.
* :mod:`repro.perf.history` — the committed, append-only
  ``BENCH_cycle_throughput.json`` history: schema v2 records stamped
  with git SHA, Python version, and a host fingerprint, plus deltas
  against the previous comparable record.
* :mod:`repro.perf.gate` — the regression gate (``repro bench --check``):
  fails when any matrix point's cycles/s drops below ``threshold`` ×
  the baseline record.
* :mod:`repro.perf.report` — markdown/terminal hot-spot report
  (``repro bench --report``): per-point throughput deltas and top-N
  phases by wall share.

Layering: sits with the orchestration packages (it may import the
simulator to run it); simulation packages must not import it.
"""

from repro.perf.bench import BenchOptions, add_cli_arguments, run_bench_cli
from repro.perf.gate import GateResult, evaluate_gate
from repro.perf.history import (
    BENCH_SCHEMA,
    DEFAULT_HISTORY_PATH,
    append_record,
    find_baseline,
    load_history,
    run_metadata,
)
from repro.perf.report import render_report, top_phases_line

__all__ = [
    "BENCH_SCHEMA",
    "BenchOptions",
    "DEFAULT_HISTORY_PATH",
    "GateResult",
    "add_cli_arguments",
    "append_record",
    "evaluate_gate",
    "find_baseline",
    "load_history",
    "render_report",
    "run_bench_cli",
    "run_metadata",
    "top_phases_line",
]
