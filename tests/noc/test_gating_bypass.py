"""Integration tests for power gating and the stress-relaxing bypass."""

from dataclasses import replace

import pytest

from repro.channels.mfac import Channel, ChannelGeometryError
from repro.config import CP, FaultConfig, INTELLINOC, SimulationConfig
from repro.control.policies import ModePolicy
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.power_gating import PowerState
from repro.noc.routing import Direction
from repro.traffic.trace import Trace, TraceEvent

NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)


class FixedModePolicy(ModePolicy):
    """Drives every router into a fixed operation mode (for testing)."""

    def __init__(self, mode: int):
        self.mode = mode

    def control_step(self, observations, cycle):
        return [self.mode] * len(observations)


def intellinoc_network(events, mode, time_step=200, network_cls=Network):
    technique = INTELLINOC.with_rl(time_step=time_step)
    config = SimulationConfig(technique=technique, seed=1, faults=NO_FAULTS)
    return network_cls(config, Trace(list(events)), policy=FixedModePolicy(mode))


class TestIdleGating(object):
    def test_cp_routers_gate_when_idle(self):
        config = SimulationConfig(technique=CP, seed=1, faults=NO_FAULTS)
        net = Network(config, Trace([]))
        net.run(CP.idle_gate_threshold + 50)
        gated = sum(1 for r in net.routers if r.gating.state is PowerState.GATED)
        assert gated == len(net.routers)

    def test_cp_wakes_on_traffic_and_delivers(self):
        config = SimulationConfig(technique=CP, seed=1, faults=NO_FAULTS)
        events = [TraceEvent(CP.idle_gate_threshold + 100, 0, 9, 4)]
        net = Network(config, Trace(events))
        net.run_to_completion(4000)
        assert net.stats.packets_completed == 1
        assert any(r.gating.wake_count > 0 for r in net.routers)

    def test_cp_gating_saves_static_energy(self):
        config = SimulationConfig(technique=CP, seed=1, faults=NO_FAULTS)
        idle = Network(config, Trace([]))
        idle.run(2000)
        from dataclasses import replace

        no_gate = replace(CP, power_gating=False, idle_gate_threshold=10**9)
        busy_cfg = SimulationConfig(technique=no_gate, seed=1, faults=NO_FAULTS)
        awake = Network(busy_cfg, Trace([]))
        awake.run(2000)
        assert idle.accountant.total_static_pj() < awake.accountant.total_static_pj()


class TestStressRelaxingBypass:
    def test_mode0_gates_but_traffic_flows(self):
        events = [TraceEvent(500 + i * 40, 0, 9, 4) for i in range(10)]
        net = intellinoc_network(events, mode=0)
        net.run_to_completion(8000)
        assert net.stats.packets_completed == net.stats.packets_injected
        assert net.stats.bypass_traversals > 0

    def test_gating_saves_power_vs_baseline(self):
        from repro.config import SECDED_BASELINE

        events = [TraceEvent(500 + i * 100, 0, 9, 4) for i in range(5)]
        gated = intellinoc_network(events, mode=0)
        baseline_cfg = SimulationConfig(
            technique=SECDED_BASELINE, seed=1, faults=NO_FAULTS
        )
        baseline = Network(baseline_cfg, Trace(list(events)))
        gated.run(4000)
        baseline.run(4000)
        assert (
            gated.accountant.total_static_pj()
            < 0.6 * baseline.accountant.total_static_pj()
        )

    def test_idle_gating_engages_without_mode0(self):
        """IntelliNoC gates idle routers even in mode 1 (Section 1)."""
        net = intellinoc_network([], mode=1)
        net.run(1000)
        assert all(r.gating.state is PowerState.GATED for r in net.routers)

    def test_bypass_fast_at_light_load(self):
        """At sporadic loads the bypass beats the 4-stage pipeline: no
        buffering, no VA/SA — the paper's no-wakeup-latency benefit."""
        from repro.config import SECDED_BASELINE

        events = [TraceEvent(500 + i * 100, i % 8, 56 + (i % 8), 4) for i in range(10)]
        gated = intellinoc_network(events, mode=0)
        baseline_cfg = SimulationConfig(
            technique=SECDED_BASELINE, seed=1, faults=NO_FAULTS
        )
        baseline = Network(baseline_cfg, Trace(list(events)))
        gated.run_to_completion(30_000)
        baseline.run_to_completion(30_000)
        assert gated.stats.average_latency < baseline.stats.average_latency

    def test_watchdog_protects_crossing_flows(self):
        """The single-flit-per-cycle bypass serializes flows a powered
        router would switch in parallel; the congestion watchdog wakes the
        crossing-point router so latency stays close to the powered run."""
        # Flow A: along row 3 (24 -> 31); flow B: up column 3 (3 -> 59).
        # Both transit router 27.
        events = []
        for i in range(60):
            events.append(TraceEvent(400 + i * 2, 24, 31, 4))
            events.append(TraceEvent(400 + i * 2, 3, 59, 4))
        gated = intellinoc_network(events, mode=0, time_step=100)
        powered = intellinoc_network(events, mode=1, time_step=100)
        gated.run_to_completion(60_000)
        powered.run_to_completion(60_000)
        assert gated.stats.wakeups > 0
        assert gated.stats.average_latency < 1.5 * powered.stats.average_latency

    def test_bypass_handles_local_injection_without_wakeup(self):
        events = [TraceEvent(500, 0, 9, 4)]
        net = intellinoc_network(events, mode=0)
        net.run_to_completion(8000)
        source_router = net.routers[0]
        assert net.stats.packets_completed == 1
        # The source router never woke for the injection.
        assert source_router.gating.state is PowerState.GATED

    def test_draining_precedes_gating_under_load(self):
        """Mode 0 requested mid-burst: router drains, never drops flits."""
        events = [TraceEvent(i, 0, 9, 4) for i in range(0, 160, 8)]
        net = intellinoc_network(events, mode=0, time_step=100)
        net.run_to_completion(20_000)
        assert net.stats.packets_completed == net.stats.packets_injected

    def test_sustained_overload_completes(self):
        # Crossing flows through router 27, starting after mode 0 engaged.
        events = []
        for i in range(100):
            events.append(TraceEvent(150 + i, 24, 31, 4))
            events.append(TraceEvent(150 + i, 3, 59, 4))
        net = intellinoc_network(events, mode=0, time_step=100)
        net.run_to_completion(80_000)
        assert net.stats.packets_completed == net.stats.packets_injected
        assert net.stats.wakeups > 0


class TestBstUnderGating:
    def test_wormhole_state_survives_power_off(self):
        """A packet whose head passes powered and body passes gated relies
        on the BST; delivery must still be complete and in order."""
        # Long packet stream through the middle of the mesh.
        events = [TraceEvent(i * 6, 16, 23, 4) for i in range(20)]
        net = intellinoc_network(events, mode=0, time_step=50)
        net.run_to_completion(20_000)
        assert net.stats.packets_completed == net.stats.packets_injected
        assert net.stats.corrupted_packets_delivered == 0


class StepEverything(Network):
    """Oracle: every router counts as woken each cycle, so every gated
    bypass router runs its watchdog and bypass switch every cycle."""

    def _deliver_channels(self, cycle):
        super()._deliver_channels(cycle)
        self._woken = set(range(len(self.routers)))


def oracle_network(events, mode, time_step=200):
    return intellinoc_network(events, mode, time_step, network_cls=StepEverything)


def cycle_state(net):
    s = net.stats
    return (
        s.bypass_traversals,
        s.flits_delivered,
        s.flits_ejected_total,
        s.packets_completed,
        s.wakeups,
        tuple(len(ch.queue) for ch in net.channels),
        tuple(r.gating.state for r in net.routers),
    )


def lockstep(events, mode, cycles, time_step=200, probe=None):
    """Run the active-set network and the step-everything oracle side by
    side, asserting identical state after every cycle."""
    net = intellinoc_network(events, mode, time_step)
    oracle = oracle_network(events, mode, time_step)
    for _ in range(cycles):
        net.step()
        oracle.step()
        assert cycle_state(net) == cycle_state(oracle), f"cycle {net.cycle}"
        if probe is not None:
            probe(net)
    return net


def gate_all(net, cycles=250):
    net.run(cycles)
    assert all(r.gating.state is PowerState.GATED for r in net.routers)


class TestActiveSetScheduling:
    def test_matches_step_everything_on_light_traffic(self):
        events = [
            TraceEvent(250 + 7 * i, (5 * i) % 64, (11 * i + 3) % 64, 4)
            for i in range(40)
        ]
        net = lockstep(events, mode=0, cycles=900)
        assert net.stats.bypass_traversals > 0
        assert net.stats.packets_completed == net.stats.packets_injected

    def test_flits_from_lower_and_higher_neighbour_in_one_cycle(self):
        # 8 -> 11 crosses router 9 eastward; 10 -> 1 crosses it westward.
        # Router 9 sits between a lower-id (8) and a higher-id (10)
        # upstream, both forwarding into it through their bypasses.
        events = [TraceEvent(300, 8, 11, 4), TraceEvent(300, 10, 1, 4)]
        both_full = []

        def probe(net):
            r9 = net.routers[9]
            from_west = r9.incoming[Direction.WEST]  # from router 8
            from_east = r9.incoming[Direction.EAST]  # from router 10
            if from_west.queue and from_east.queue:
                both_full.append(net.cycle)

        net = lockstep(events, mode=0, cycles=450, probe=probe)
        assert both_full, "router 9 never held flits from both sides at once"
        assert net.routers[9].gating.state is PowerState.GATED
        assert net.stats.packets_completed == 2

    @pytest.mark.parametrize("full_channels, fires", [(1, False), (2, True)])
    def test_watchdog_fires_when_two_incoming_mfacs_fill(self, full_channels, fires):
        net = intellinoc_network([], mode=0)
        gate_all(net)
        router = net.routers[27]
        filler = iter(Packet.create(0, 1, 64, 0).make_flits())
        for port in sorted(router.incoming)[:full_channels]:
            channel = router.incoming[port]
            sent = 0
            while not channel.congested:
                while channel.can_accept(sent):
                    # Parked far in the future: congested, never deliverable.
                    channel.send(next(filler), sent, extra_latency=10**6)
                sent += 1
        net.step()
        assert net.stats.wakeups == int(fires)
        expected = PowerState.ON if fires else PowerState.GATED
        assert router.gating.state is expected

    def test_local_only_traffic_injects_through_the_bypass(self):
        net = intellinoc_network([TraceEvent(260, 36, 37, 4)], mode=0)
        gate_all(net)
        router = net.routers[36]
        net.run(260 - net.cycle)
        assert all(not ch.queue for ch in router.incoming.values())
        net.step()  # cycle 260: admitted, then injected by the bypass
        assert net.sources[36].flits_popped == 1
        assert net.stats.bypass_traversals == 1
        assert router.gating.state is PowerState.GATED

    def test_dead_routers_are_never_stepped(self):
        events = [TraceEvent(300 + i, (3 * i) % 64, (7 * i + 5) % 64, 4) for i in range(30)]
        for factory in (intellinoc_network, oracle_network):
            net = factory(events, mode=0)
            net.run(280)
            net.fail_router(20, net.cycle)
            dead = net.routers[20]

            def boom(*args, **kwargs):
                raise AssertionError("dead router stepped")

            for name in ("step", "step_profiled", "bypass_step", "bypass_overloaded"):
                setattr(dead, name, boom)
            dead.gating.observe_idle = boom
            net.run(400)
            assert net.stats.packets_resolved == net.stats.packets_injected


class TestChannelGeometryGuard:
    def test_capacity_not_above_bandwidth_is_refused(self):
        with pytest.raises(ChannelGeometryError, match="capacity 2 must exceed bandwidth 2"):
            Channel(0, Direction.EAST, 1, buffer_depth=2, links=2, is_mfac=True)

    def test_mfac_refuses_a_function_it_could_switch_into(self):
        # NORMAL holds 8 > 4, but RETRANSMISSION would hold 2 at bandwidth 2.
        with pytest.raises(ChannelGeometryError, match="retransmission"):
            Channel(0, Direction.EAST, 1, buffer_depth=4, links=2, subnetworks=2,
                    is_mfac=True)

    def test_zero_latency_traversal_is_refused(self):
        with pytest.raises(ChannelGeometryError, match="traversal latency 0"):
            Channel(0, Direction.EAST, 1, buffer_depth=8, link_latency=0)

    def test_network_build_surfaces_the_error(self):
        noc = replace(INTELLINOC.noc, channel_buffer_depth=2)
        config = SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=1)
        with pytest.raises(ChannelGeometryError):
            Network(config, Trace([]))

    def test_is_a_value_error(self):
        assert issubclass(ChannelGeometryError, ValueError)
