"""Reference-adjusted timing: host seconds scaled by a fixed reference loop.

The benchmark host's CPU speed swings (slow stretches of 0.2 s to over
5 s run a pure-Python loop ~1.45x slower), so raw wall time spreads far
more across runs than any change worth measuring.  The remedy is to time
a fixed pure-Python *reference loop* between short windows of work and to
scale each window by ``NOMINAL_REF_S / local``, where ``local`` is the
mean of the reference loops just before and just after the window.  A
stretch that slows the interpreter slows the reference loop alike, so
the scaled window keeps the length it would have had at nominal speed.

Consecutive windows share the loop between them, so the measuring cost
is one reference loop per window.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from collections.abc import Callable
from typing import Any, TypeVar

T = TypeVar("T")

#: Cycles of :func:`reference_loop`; sized to ~10 ms on the host below.
REF_CYCLES = 40

#: Seconds one :func:`reference_loop` takes at nominal host speed: about
#: the fast end of its samples on a 2-vCPU x86-64 VM (Python 3.11), where
#: the local / nominal ratio then ran 0.9-1.8.  Adjusted seconds are
#: "seconds at this speed"; the constant sets their scale, not their spread.
NOMINAL_REF_S = 0.0087


class _Port:
    """Four FIFO virtual channels behind a round-robin arbiter."""

    __slots__ = ("vcs", "pointer")

    def __init__(self) -> None:
        self.vcs: list[deque[tuple[int, int]]] = [deque() for _ in range(4)]
        self.pointer = 0

    def grant(self) -> int | None:
        requests = [i for i, vc in enumerate(self.vcs) if vc]
        if not requests:
            return None
        self.pointer = (self.pointer + 1) % 4
        for i in requests:
            if i >= self.pointer:
                return i
        return requests[0]


class _Router:
    """Five ports forwarding one flit each per cycle to a fixed neighbour."""

    __slots__ = ("ports", "rid", "counters")

    def __init__(self, rid: int) -> None:
        self.rid = rid
        self.ports = [_Port() for _ in range(5)]
        self.counters = {"out": 0}

    def step(self, cycle: int, routers: list["_Router"]) -> int:
        moved = 0
        for index, port in enumerate(self.ports):
            vc = port.grant()
            if vc is None:
                continue
            _, hops = port.vcs[vc].popleft()
            target = routers[(self.rid + hops + index) & 63]
            target.ports[(index + 1) % 5].vcs[vc].append((cycle, (hops + 1) & 7))
            self.counters["out"] += 1
            moved += 1
        return moved


def reference_loop(cycles: int = REF_CYCLES) -> int:
    """A fixed pure-Python workload shaped like the simulator's cycle loop.

    A 64-router toy network of slotted objects, deques, list
    comprehensions, dict counters and method calls moves a fixed flit
    population around.  Its host time reacts to the host's slow stretches
    the way ``Network.step`` does, closer than a tight arithmetic loop
    (which over-reacts).  Returns the flit moves so the work is observable.
    """
    routers = [_Router(rid) for rid in range(64)]
    for rid in range(0, 64, 3):
        routers[rid].ports[rid % 5].vcs[rid % 4].append((0, rid % 7))
    moves = 0
    for cycle in range(cycles):
        for router in routers:
            moves += router.step(cycle, routers)
    return moves


def time_reference(clock: Callable[[], float] = time.perf_counter) -> float:
    """Host seconds of one :func:`reference_loop`, with the collector off.

    A collection triggered by the loop's allocations would scan the
    simulator's whole heap and bill it to the reference, making the
    reference depend on what ran before it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        reference_loop()
        return clock() - start
    finally:
        if was_enabled:
            gc.enable()


class AdjustedTimer:
    """Runs callables as timed windows and accounts reference-adjusted seconds.

    Every :meth:`call` is one window: its raw host seconds are scaled by
    ``nominal_s / local``, where ``local`` is the mean reference time just
    before and just after it.  Totals accumulate per named bucket until
    :meth:`take` hands them out and starts afresh.

    *clock* and *reference* are injectable so tests can drive a fake host
    whose speed changes between windows.
    """

    def __init__(
        self,
        nominal_s: float = NOMINAL_REF_S,
        clock: Callable[[], float] = time.perf_counter,
        reference: Callable[[], float] | None = None,
    ) -> None:
        if nominal_s <= 0.0:
            raise ValueError("nominal reference time must be positive")
        self.nominal_s = nominal_s
        self._clock = clock
        self._reference = (
            reference if reference is not None else (lambda: time_reference(clock))
        )
        self._previous_ref = self._reference()
        #: Scale (nominal / local) applied to the most recent window.
        self.last_scale = 1.0
        self._adjusted: dict[str, float] = {}
        self._raw_s = 0.0
        self._slowdowns: list[float] = []
        self._windows: list[float] = []

    def call(self, bucket: str, fn: Callable[..., T], *args: Any) -> T:
        """Run ``fn(*args)`` as one window charged to *bucket*."""
        start = self._clock()
        result = fn(*args)
        raw = self._clock() - start
        after = self._reference()
        local = 0.5 * (self._previous_ref + after)
        self._previous_ref = after
        self.last_scale = self.nominal_s / local
        adjusted = raw * self.last_scale
        self._adjusted[bucket] = self._adjusted.get(bucket, 0.0) + adjusted
        self._windows.append(adjusted)
        self._raw_s += raw
        self._slowdowns.append(local / self.nominal_s)
        return result

    def take(self) -> "TimerTotals":
        """The totals since the last ``take`` (or construction); then reset."""
        totals = TimerTotals(
            dict(self._adjusted), self._raw_s, list(self._slowdowns), list(self._windows)
        )
        self._adjusted.clear()
        self._raw_s = 0.0
        self._slowdowns.clear()
        self._windows.clear()
        return totals


class TimerTotals:
    """Adjusted seconds per bucket and per window, plus the raw view."""

    def __init__(
        self,
        adjusted: dict[str, float],
        raw_s: float,
        slowdowns: list[float],
        windows: list[float],
    ) -> None:
        self.adjusted = adjusted
        self.raw_s = raw_s
        self.slowdowns = slowdowns  # local / nominal reference, per window
        self.windows = windows  # adjusted seconds, per window in call order

    @property
    def adjusted_s(self) -> float:
        return sum(self.adjusted.values())

    def bucket(self, name: str) -> float:
        return self.adjusted.get(name, 0.0)
