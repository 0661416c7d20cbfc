"""Channel datapath model (Section 3.1, Figs. 2-3).

One :class:`Channel` connects an upstream router output port to a
downstream router input port.  Three physical organizations share it:

* **wire** — the baseline's repeated link: no storage, sends require a
  free downstream buffer slot.
* **channel buffers** (iDEAL / EB / CP) — the link's repeater stages can
  hold flits, so sends only require channel space; storage happens
  automatically when the downstream stalls (the congestion-signal-driven
  hold of Fig. 3(a)/(b)).
* **MFAC** — adds the re-transmission buffer and relaxed timing functions
  (Fig. 3(c)/(d)), selected at runtime by the MFAC controller.

Error handling hooks: flits are handed to the network's delivery logic
together with the channel's current function, and NACKed flits re-enter
the channel from the re-transmission copy store (MFAC) or from the
reserved upstream VC slot (baseline SECDED).
"""

from __future__ import annotations

import enum
from collections import deque

from repro.noc.flit import Flit
from repro.noc.routing import Direction

# Delivery may look past queued-but-blocked flits of *other* VCs: the
# unified BST's dynamic buffer allocation (Section 3.1.2).  The scan is
# unbounded: a finite window can be saturated by blocked VCs and starve a
# VC that has buffer space — a wormhole deadlock that per-VC buffering
# (which this shared-FIFO channel model abstracts) would never exhibit.
HOL_SCAN_WINDOW = None


class ChannelGeometryError(ValueError):
    """A channel geometry that a single cycle of traffic could fill.

    The network steps a gated bypass router only when one of its incoming
    channels was non-empty at delivery.  That skip is exact because a
    channel empty at delivery can take at most ``bandwidth`` flits in the
    cycle (so it cannot turn congested when ``capacity > bandwidth``) and
    none of them is deliverable before the next cycle (so
    ``traversal_latency >= 1``).  Geometries breaking either are refused.
    """


class ChannelFunction(enum.Enum):
    """Runtime function of an MFAC (collapsing Fig. 3's four circuits).

    Fig. 3(a) transmission and (b) link storage are one datapath state —
    propagate when the congestion signal is low, hold when high — so they
    share ``NORMAL``; the distinct re-transmission and relaxed-timing
    circuits get their own states.
    """

    NORMAL = "normal"  # transmission + congestion-driven storage
    RETRANSMISSION = "retransmission"  # one link carries copies for NACK replay
    RELAXED = "relaxed"  # doubled traversal time, near-zero timing errors


class Channel:
    """A directed inter-router channel."""

    __slots__ = (
        "src",
        "direction",
        "dst",
        "is_wire",
        "is_mfac",
        "stages_per_link",
        "links",
        "subnetworks",
        "link_latency",
        "function",
        "queue",
        "copies",
        "pending_acks",
        "_accepted_this_cycle",
        "_cycle_of_budget",
        "flits_sent",
        "flits_retransmitted",
        "function_switches",
        "held_flit_cycles",
        "capacity",
        "bandwidth",
        "traversal_latency",
        "down",
        "dead",
        "dead_reason",
    )

    def __init__(
        self,
        src: int,
        direction: Direction,
        dst: int,
        *,
        buffer_depth: int,
        links: int = 1,
        subnetworks: int = 1,
        link_latency: int = 1,
        is_mfac: bool = False,
    ):
        if buffer_depth < 0:
            raise ValueError("buffer depth cannot be negative")
        if is_mfac and links < 2:
            raise ValueError("an MFAC needs two physical links (Fig. 2)")
        self.src = src
        self.direction = direction
        self.dst = dst
        self.is_wire = buffer_depth == 0
        self.is_mfac = is_mfac
        self.links = max(1, links)
        self.subnetworks = max(1, subnetworks)
        self.stages_per_link = (
            buffer_depth // self.links if buffer_depth else 0
        )
        self.link_latency = link_latency
        self.function = ChannelFunction.NORMAL
        # queue entries: [flit, ready_cycle]
        self.queue: deque[list] = deque()
        self.copies: deque[Flit] = deque()  # retransmission copies (MFAC upper link)
        # Baseline SECDED keeps copies in the *upstream* VC until ACK
        # (Section 3.2); this maps each in-flight flit to the reserved VC.
        self.pending_acks: dict[Flit, object] = {}
        self._accepted_this_cycle = 0
        self._cycle_of_budget = -1
        self.flits_sent = 0
        self.flits_retransmitted = 0
        self.function_switches = 0  # runtime reconfigurations of this MFAC
        self.held_flit_cycles = 0
        # Fault-scenario state.  ``down`` refuses new sends (intermittent
        # outage: queued flits are *held*, not lost); ``dead`` additionally
        # marks the outage permanent — routing treats the channel as gone
        # and packets committed to it are dropped with ``dead_reason``.
        self.down = False
        self.dead = False
        self.dead_reason: str | None = None
        if is_mfac:
            # Refuse at build time any function the MFAC could later switch to.
            for function in ChannelFunction:
                self._geometry(function)
        self._refresh_geometry()

    # --- fault-scenario state transitions ------------------------------------

    def set_down(self, down: bool) -> None:
        """Duty-cycled outage: hold traffic while down (dead stays down)."""
        self.down = down or self.dead

    def kill(self, reason: str) -> None:
        """Permanent failure: the channel never carries traffic again."""
        self.dead = True
        self.down = True
        self.dead_reason = reason

    # --- capacity / bandwidth ------------------------------------------------

    def _refresh_geometry(self) -> None:
        """Recompute the function-dependent geometry (cached: these are
        read on every send/delivery attempt, i.e. the hot path)."""
        self.capacity, self.bandwidth, self.traversal_latency = self._geometry(
            self.function
        )

    def _geometry(self, function: ChannelFunction) -> tuple[int, int, int]:
        """(capacity, bandwidth, traversal_latency) under *function*.

        * capacity — flits the channel can hold.  Wires hold in-flight
          pipeline slots only (wire + ECC encode/decode stages are all
          pipelined); storage there is enforced by the sender's credit
          check against the downstream buffer.  Retransmission mode gives
          one physical link's stages to copies.
        * bandwidth — flits accepted per cycle (one link's worth in the
          retransmission/relaxed functions).
        * traversal_latency — cycles from send to earliest delivery
          (doubled under relaxed timing).

        Raises :class:`ChannelGeometryError` unless capacity exceeds
        bandwidth and the traversal takes at least one cycle.
        """
        if self.is_wire:
            capacity = (self.link_latency + 4) * self.subnetworks
        elif function is ChannelFunction.RETRANSMISSION:
            capacity = self.stages_per_link
        else:
            capacity = self.stages_per_link * self.links * self.subnetworks
        if function in (ChannelFunction.RETRANSMISSION, ChannelFunction.RELAXED):
            bandwidth = self.subnetworks
        else:
            bandwidth = (
                self.links * self.subnetworks if not self.is_wire else self.subnetworks
            )
        latency = (
            2 * self.link_latency
            if function is ChannelFunction.RELAXED
            else self.link_latency
        )
        where = f"channel r{self.src}->r{self.dst} ({function.value})"
        if capacity <= bandwidth:
            raise ChannelGeometryError(
                f"{where}: capacity {capacity} must exceed bandwidth {bandwidth}"
            )
        if latency < 1:
            raise ChannelGeometryError(f"{where}: traversal latency {latency} < 1 cycle")
        return capacity, bandwidth, latency

    @property
    def occupancy(self) -> int:
        return len(self.queue)

    @property
    def congested(self) -> bool:
        """The 1-bit congestion signal the control block forwards."""
        return len(self.queue) >= self.capacity

    def set_function(self, function: ChannelFunction) -> None:
        """Reconfigure the MFAC (no-op states for non-MFAC channels are
        rejected — only MFACs have the extra circuits of Fig. 3(c)/(d))."""
        if function is not ChannelFunction.NORMAL and not self.is_mfac:
            raise ValueError(f"{function} requires MFAC hardware")
        if function is not self.function:
            # Copies from a previous retransmission phase age out; any
            # still-unacked flit has already been delivered or replayed.
            if function is not ChannelFunction.RETRANSMISSION:
                self.copies.clear()
            self.function = function
            self.function_switches += 1
            self._refresh_geometry()

    # --- sending -------------------------------------------------------------

    def _budget_left(self, cycle: int) -> int:
        if cycle != self._cycle_of_budget:
            return self.bandwidth
        return self.bandwidth - self._accepted_this_cycle

    def can_accept(self, cycle: int) -> bool:
        """Whether the upstream router may push one flit this cycle."""
        if self.down:
            return False
        if self._budget_left(cycle) <= 0:
            return False
        if len(self.queue) >= self.capacity:
            return False
        if self.function is ChannelFunction.RETRANSMISSION:
            if len(self.copies) >= self.stages_per_link:
                return False  # copy link full until ACKs drain
        return True

    def send(
        self, flit: Flit, cycle: int, keep_copy: bool = False, extra_latency: int = 0
    ) -> None:
        """Push *flit* into the channel (upstream switch traversal done).

        *extra_latency* models the upstream encoder's pipeline cost
        (SECDED +1 cycle, DECTED +2 — the per-hop ECC overhead the paper's
        CRC-only mode eliminates).
        """
        if not self.can_accept(cycle):
            raise OverflowError("channel overflow: caller must check can_accept")
        if cycle != self._cycle_of_budget:
            self._cycle_of_budget = cycle
            self._accepted_this_cycle = 0
        self._accepted_this_cycle += 1
        # Entry layout: [flit, ready_cycle, cached error sample (None until
        # the delivery logic draws the traversal's bit-error count)].
        self.queue.append([flit, cycle + self.traversal_latency + extra_latency, None])
        self.flits_sent += 1
        if keep_copy:
            if self.function is not ChannelFunction.RETRANSMISSION:
                raise RuntimeError("copies are only kept in retransmission mode")
            self.copies.append(flit)

    # --- delivery ------------------------------------------------------------

    def deliverable(self, cycle: int, limit: int | None = HOL_SCAN_WINDOW) -> list[list]:
        """Queue entries ready to leave the channel this cycle, in order.

        All ready entries are exposed so delivery can skip blocked flits
        of other VCs — the BST-driven HoL mitigation.  Per-VC order is
        preserved because same-VC flits stay FIFO in the queue.
        Each entry is ``[flit, ready_cycle, cached_error_sample]``.
        """
        ready: list[list] = []
        for entry in self.queue:
            if limit is not None and len(ready) >= limit:
                break
            if entry[1] <= cycle:
                ready.append(entry)
            else:
                break  # later entries are younger and cannot be ready
        return ready

    def remove(self, entry: list) -> None:
        """Take a delivered entry out of the queue."""
        try:
            self.queue.remove(entry)
        except ValueError:
            raise ValueError("entry is not in this channel") from None

    def acknowledge(self, flit: Flit) -> None:
        """ACK received downstream: drop the retransmission copy."""
        if not self.copies:
            return  # no copies kept (the common case outside retransmission)
        try:
            self.copies.remove(flit)
        except ValueError:
            pass  # copy already aged out by a function switch

    def nack_resend(self, entry: list, cycle: int) -> None:
        """NACK: replay the flit from its copy (or upstream reservation).

        The flit re-enters the channel at the front so per-VC order holds;
        the fresh traversal gets a fresh error sample.
        """
        self.remove(entry)
        self.queue.appendleft([entry[0], cycle + self.traversal_latency, None])
        self.flits_retransmitted += 1

    def stored_flits(self, cycle: int) -> int:
        """Flits currently *stored* (past their ready time): they are being
        held by the congestion signal, which costs hold energy per cycle."""
        return sum(1 for entry in self.queue if entry[1] <= cycle)

    def __repr__(self) -> str:
        return (
            f"Channel(r{self.src}->{self.direction.name}->r{self.dst}, "
            f"{self.function.value}, {len(self.queue)}/{self.capacity})"
        )
