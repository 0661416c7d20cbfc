"""Tests for the MFAC channel datapath."""

import pytest

from repro.channels.mfac import Channel, ChannelFunction
from repro.noc.flit import Packet
from repro.noc.routing import Direction


def make_channel(depth=8, links=2, mfac=True, subnets=1):
    return Channel(
        0,
        Direction.EAST,
        1,
        buffer_depth=depth,
        links=links,
        subnetworks=subnets,
        link_latency=1,
        is_mfac=mfac,
    )


def flits(n=4):
    return Packet.create(0, 1, n, cycle=0).make_flits()


class TestGeometry:
    def test_mfac_two_links_four_stages(self):
        ch = make_channel()
        assert ch.stages_per_link == 4
        assert ch.capacity == 8
        assert ch.bandwidth == 2

    def test_wire_has_no_storage(self):
        ch = make_channel(depth=0, links=1, mfac=False)
        assert ch.is_wire
        assert ch.bandwidth == 1

    def test_mfac_requires_two_links(self):
        with pytest.raises(ValueError):
            make_channel(links=1)

    def test_eb_subnetworks_double_resources(self):
        ch = make_channel(depth=8, links=1, mfac=False, subnets=2)
        assert ch.capacity == 16
        assert ch.bandwidth == 2


class TestFunctions:
    def test_retransmission_mode_halves_bandwidth(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        assert ch.bandwidth == 1
        assert ch.capacity == 4  # one link carries data, the other copies

    def test_relaxed_mode_doubles_latency(self):
        ch = make_channel()
        normal = ch.traversal_latency
        ch.set_function(ChannelFunction.RELAXED)
        assert ch.traversal_latency == 2 * normal

    def test_non_mfac_cannot_use_extra_functions(self):
        ch = make_channel(mfac=False, links=1)
        with pytest.raises(ValueError):
            ch.set_function(ChannelFunction.RETRANSMISSION)

    def test_function_switch_clears_stale_copies(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        f = flits(1)[0]
        ch.send(f, 0, keep_copy=True)
        ch.set_function(ChannelFunction.NORMAL)
        assert not ch.copies


class TestSendDeliver:
    def test_traversal_latency_respected(self):
        ch = make_channel()
        f = flits(1)[0]
        ch.send(f, cycle=5)
        assert ch.deliverable(5) == []
        ready = ch.deliverable(6)
        assert ready and ready[0][0] is f

    def test_bandwidth_budget_per_cycle(self):
        ch = make_channel()  # bandwidth 2
        fs = flits(4)
        ch.send(fs[0], 0)
        ch.send(fs[1], 0)
        assert not ch.can_accept(0)
        assert ch.can_accept(1)

    def test_capacity_backpressure(self):
        ch = make_channel(depth=4, links=2)
        fs = flits(4)
        ch.send(fs[0], 0)
        ch.send(fs[1], 0)
        ch.send(fs[2], 1)
        ch.send(fs[3], 1)
        assert not ch.can_accept(2)  # full: storage function holds 4

    def test_congestion_signal(self):
        ch = make_channel(depth=4, links=2)
        for i, f in enumerate(flits(4)):
            ch.send(f, i // 2)
        assert ch.congested

    def test_ecc_extra_latency(self):
        ch = make_channel()
        f = flits(1)[0]
        ch.send(f, 0, extra_latency=2)
        assert not ch.deliverable(2)
        assert ch.deliverable(3)

    def test_overflow_raises(self):
        # depth 2 (capacity == bandwidth) is refused by ChannelGeometryError
        # now; depth 4 overflows both the per-cycle budget and the capacity.
        ch = make_channel(depth=4, links=2)
        fs = flits(5)
        ch.send(fs[0], 0)
        ch.send(fs[1], 0)
        with pytest.raises(OverflowError):
            ch.send(fs[2], 0)  # budget: two flits per cycle
        ch.send(fs[2], 1)
        ch.send(fs[3], 1)
        with pytest.raises(OverflowError):
            ch.send(fs[4], 2)  # capacity: four flits held


class TestRetransmission:
    def test_copies_kept_and_acked(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        f = flits(1)[0]
        ch.send(f, 0, keep_copy=True)
        assert list(ch.copies) == [f]
        ch.acknowledge(f)
        assert not ch.copies

    def test_copy_buffer_backpressure(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        packet_flits = flits(8)
        sent = 0
        for cycle in range(16):
            if ch.can_accept(cycle) and sent < 8:
                ch.send(packet_flits[sent], cycle, keep_copy=True)
                sent += 1
            # drain the data queue but never ACK -> copies pile up
            for entry in ch.deliverable(cycle):
                ch.remove(entry)
        assert sent == 4  # stalled once the copy link filled

    def test_nack_resend_preserves_vc_order(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        fs = flits(2)
        ch.send(fs[0], 0, keep_copy=True)
        entry = ch.deliverable(1)[0]
        ch.nack_resend(entry, 1)
        assert ch.flits_retransmitted == 1
        # The replayed flit is at the queue front with a fresh sample slot.
        front = ch.queue[0]
        assert front[0] is fs[0]
        assert front[2] is None

    def test_keep_copy_requires_retransmission_mode(self):
        ch = make_channel()
        with pytest.raises(RuntimeError):
            ch.send(flits(1)[0], 0, keep_copy=True)


class TestStats:
    def test_stored_flits_counts_only_overdue(self):
        ch = make_channel()
        fs = flits(2)
        ch.send(fs[0], 0)
        ch.send(fs[1], 0)
        assert ch.stored_flits(0) == 0  # still in flight
        assert ch.stored_flits(5) == 2  # held by congestion

    def test_remove_unknown_entry_rejected(self):
        ch = make_channel()
        with pytest.raises(ValueError):
            ch.remove([None, 0, None])
