"""Driving a cell in timed windows (and tracing it) changes nothing simulated."""

import itertools
from dataclasses import replace

import pytest

import workloads as wl
from refclock import AdjustedTimer
from repro.core.intellinoc import pretrain_agents
from repro.metrics.summary import RunMetrics
from repro.noc.network import Network
from repro.telemetry import SimProfiler


def _fingerprint(network: Network) -> dict:
    return wl.cell_fingerprint(network, RunMetrics.from_network(network))


def _single_call(cell: wl.Cell, policy=None) -> dict:
    network = wl._build_network(cell, policy, None)
    if cell.to_completion:
        network.run_to_completion(cell.cycles)
    else:
        network.run(cell.cycles)
    return _fingerprint(network)


def _windowed(cell: wl.Cell, sizes: list[int], policy=None, traced: bool = False) -> dict:
    prof = SimProfiler(stride=1) if traced else None
    network = wl._build_network(cell, policy, prof)
    phases: dict[str, float] = {}
    wl.drive(network, cell, AdjustedTimer(), itertools.cycle(sizes), prof, phases)
    if traced:
        assert phases.get("link.deliver", 0.0) > 0.0
    return _fingerprint(network)


@pytest.fixture(scope="module")
def faulted_cells():
    return wl.build_inputs("fabrics-faulted", 3).cells


def test_to_completion_windows_match_one_call(faulted_cells):
    cell = faulted_cells[0]  # cmesh c=4 through a router death
    reference = _single_call(cell)
    assert reference["failed"] == [1, 0]
    assert _windowed(cell, [1, 7, 64, 333]) == reference
    assert _windowed(cell, [5000]) == reference


def test_traced_run_matches_untraced(faulted_cells):
    cell = faulted_cells[1]  # ring through a link death
    assert _windowed(cell, [97], traced=True) == _single_call(cell)


def test_fixed_window_matches_one_run_call():
    cell = wl.build_inputs("uniform-saturated", 5).cells[0]
    cell = replace(cell, cycles=60)
    assert _windowed(cell, [3, 11, 50]) == _single_call(cell)


def test_pretrained_cell_matches_and_leaves_the_policy_alone():
    inputs = wl.build_inputs("paper-parsec", 2)
    cell = next(c for c in inputs.cells if c.pretrained)
    policy = pretrain_agents(inputs.pretrain, 300, inputs.sim_seed)
    before = wl.policy_fingerprint(policy)
    assert _windowed(cell, [13, 40], policy=policy) == _single_call(cell, policy)
    assert wl.policy_fingerprint(policy) == before
