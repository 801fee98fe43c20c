"""Discrete-event engine semantics."""

import heapq

import pytest

from repro.sim.engine import DeadlockError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.at(30, lambda: log.append("c"))
    sim.at(10, lambda: log.append("a"))
    sim.at(20, lambda: log.append("b"))
    sim.run_until(100)
    assert log == ["a", "b", "c"]


def test_fifo_at_equal_times():
    sim = Simulator()
    log = []
    for i in range(5):
        sim.at(42, lambda i=i: log.append(i))
    sim.run_until(42)
    assert log == [0, 1, 2, 3, 4]


def test_now_advances_with_events():
    sim = Simulator()
    seen = []
    sim.at(7, lambda: seen.append(sim.now))
    sim.run_until(50)
    assert seen == [7]
    assert sim.now == 50


def test_after_is_relative():
    sim = Simulator()
    seen = []
    sim.at(10, lambda: sim.after(5, lambda: seen.append(sim.now)))
    sim.run_until(20)
    assert seen == [15]


def test_scheduling_in_past_rejected():
    sim = Simulator()
    sim.at(10, lambda: None)
    sim.run_until(10)
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)


def test_run_until_leaves_future_events():
    sim = Simulator()
    log = []
    sim.at(10, lambda: log.append(1))
    sim.at(30, lambda: log.append(2))
    sim.run_until(20)
    assert log == [1]
    assert sim.pending_events == 1
    sim.run_until(30)
    assert log == [1, 2]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    log = []

    def cascade():
        log.append(sim.now)
        if sim.now < 30:
            sim.after(10, cascade)

    sim.at(10, cascade)
    sim.run_until(100)
    assert log == [10, 20, 30]


def test_run_until_idle():
    sim = Simulator()
    log = []
    sim.at(5, lambda: log.append(1))
    sim.at(15, lambda: log.append(2))
    sim.run_until_idle()
    assert log == [1, 2]
    assert sim.pending_events == 0


def test_run_until_idle_with_cap():
    sim = Simulator()
    log = []
    sim.at(5, lambda: log.append(1))
    sim.at(50, lambda: log.append(2))
    sim.run_until_idle(max_time_ps=20)
    assert log == [1]
    assert sim.now == 20


def test_peek_time():
    sim = Simulator()
    assert sim.peek_time() is None
    sim.at(9, lambda: None)
    assert sim.peek_time() == 9


def test_watchdog_fires_periodically():
    sim = Simulator()
    ticks = []
    sim.set_watchdog(10, lambda: ticks.append(sim.now))
    sim.run_until(35)
    assert ticks == [10, 20, 30]


def test_watchdog_can_abort():
    sim = Simulator()

    def check():
        raise DeadlockError("stuck")

    sim.set_watchdog(10, check)
    with pytest.raises(DeadlockError):
        sim.run_until(100)


def test_watchdog_bad_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.set_watchdog(0, lambda: None)


def test_watchdog_reinstall_replaces_the_chain():
    """A second set_watchdog replaces the check and its interval; the
    first chain ends instead of calling the new check on its own
    beat."""
    sim = Simulator()
    first, second = [], []
    sim.set_watchdog(10, lambda: first.append(sim.now))
    sim.run_until(5)
    sim.set_watchdog(10, lambda: second.append(sim.now))
    sim.run_until(40)
    assert first == []
    assert second == [15, 25, 35]
    sim.set_watchdog(4, lambda: second.append(sim.now))
    sim.run_until(50)
    assert second == [15, 25, 35, 44, 48]


def test_entry_pushed_late_runs_in_its_reserved_order():
    """An entry keeps the (t, seq) place it reserved however late it
    is pushed: ties at one instant run by seq, not by push order."""
    sim = Simulator()
    log = []
    reserved = sim.next_seq()
    sim.at(10, log.append, "scheduled after the reservation")

    def push_reserved():
        heapq.heappush(sim.heap, (10, reserved, log.append, ("reserved",)))

    sim.at(5, push_reserved)
    sim.run_until(20)
    assert log == ["reserved", "scheduled after the reservation"]


def test_at_draws_from_the_public_counter():
    sim = Simulator()
    before = sim.next_seq()
    sim.at(3, lambda: None)
    assert sim.heap[0][1] == before + 1
    assert sim.next_seq() == before + 2


def test_cur_seq_inside_an_event_and_between_runs():
    sim = Simulator()
    assert sim.cur_seq == float("inf")
    seen = []
    sim.at(3, lambda: seen.append(sim.cur_seq))
    seq = sim.heap[0][1]
    sim.run_until(10)
    assert seen == [seq]
    # between runs every reserved (t, seq) with t <= now is past
    assert sim.cur_seq == float("inf")
    assert (sim.now, sim.next_seq()) < (sim.now, sim.cur_seq)
    sim.at(12, lambda: seen.append(sim.cur_seq))
    sim.run_until_idle()
    assert seen[-1] > seq and sim.cur_seq == float("inf")


def test_cur_seq_reset_when_an_event_raises():
    sim = Simulator()

    def boom():
        raise DeadlockError("stuck")

    sim.at(1, boom)
    with pytest.raises(DeadlockError):
        sim.run_until(5)
    assert sim.cur_seq == float("inf")
