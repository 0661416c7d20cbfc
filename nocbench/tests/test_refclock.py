"""Reference adjustment cancels host slowdowns that the reference loop sees."""

import pytest

from refclock import AdjustedTimer, reference_loop, time_reference


class FakeHost:
    """A clock whose speed the test sets; work advances it by units x speed."""

    def __init__(self) -> None:
        self.now = 0.0
        self.speed = 1.0

    def clock(self) -> float:
        return self.now

    def spend(self, units: float) -> None:
        self.now += units * self.speed

    def reference(self) -> float:
        start = self.now
        self.spend(1.0)  # the reference loop is one unit of work
        return self.now - start


def _run(slow_windows: set[int], windows: int = 30, work: float = 5.0):
    host = FakeHost()
    timer = AdjustedTimer(nominal_s=1.0, clock=host.clock, reference=host.reference)

    def window(index: int) -> None:
        host.speed = 1.45 if index in slow_windows else 1.0
        host.spend(work)

    for index in range(windows):
        timer.call("noc.run", window, index)
    return timer.take()


def test_steady_host_measures_nominal_work():
    totals = _run(set())
    assert totals.adjusted_s == pytest.approx(150.0)
    assert totals.raw_s == pytest.approx(150.0)


def test_slow_stretches_are_scaled_out():
    fast = _run(set())
    slow = _run(set(range(4, 13)) | set(range(20, 24)))
    # Raw time grows by the slow windows' extra 45 % ...
    assert slow.raw_s == pytest.approx(fast.raw_s + 13 * 5.0 * 0.45)
    # ... and the adjusted time does not move.
    assert slow.adjusted_s == pytest.approx(fast.adjusted_s, rel=1e-12)
    assert max(slow.slowdowns) == pytest.approx(1.45)


def test_uniformly_slow_host_measures_nominal_work():
    host = FakeHost()
    host.speed = 1.45
    timer = AdjustedTimer(nominal_s=1.0, clock=host.clock, reference=host.reference)
    for _ in range(10):
        timer.call("noc.run", host.spend, 3.0)
    totals = timer.take()
    assert totals.adjusted_s == pytest.approx(30.0)
    assert totals.bucket("noc.run") == pytest.approx(30.0)
    assert not timer.take().windows  # take() starts afresh


def test_reference_loop_is_fixed_work():
    assert reference_loop() == reference_loop() > 0
    assert time_reference() > 0.0


def test_rejects_non_positive_nominal():
    with pytest.raises(ValueError):
        AdjustedTimer(nominal_s=0.0)
