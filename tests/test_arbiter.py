"""Demand-slotted round-robin arbitration."""

import pytest

from repro.sim.arbiter import RoundRobinArbiter


def grants_of(arb, requests):
    """Issue (key, token) requests, then drain by releasing the owner
    repeatedly; returns the token grant order."""
    order = []
    for key, token in requests:
        arb.request(key, token, lambda t=token: order.append(t))
    while arb.busy:
        owner = arb.owner
        arb.release(owner)
    return order


def test_free_resource_grants_immediately():
    arb = RoundRobinArbiter()
    got = []
    assert arb.request("a", "t1", lambda: got.append(1)) is True
    assert got == [1]
    assert arb.owner == "t1"


def test_busy_resource_queues():
    arb = RoundRobinArbiter()
    got = []
    arb.request("a", "t1", lambda: got.append(1))
    assert arb.request("b", "t2", lambda: got.append(2)) is False
    assert got == [1]
    assert arb.waiting() == 1
    arb.release("t1")
    assert got == [1, 2]
    assert arb.owner == "t2"


def test_release_by_non_owner_rejected():
    arb = RoundRobinArbiter()
    arb.request("a", "t1", lambda: None)
    with pytest.raises(RuntimeError):
        arb.release("t2")


def test_fifo_within_one_key():
    arb = RoundRobinArbiter()
    order = grants_of(arb, [("a", f"t{i}") for i in range(4)])
    assert order == ["t0", "t1", "t2", "t3"]


def test_round_robin_across_keys():
    """With every input backlogged, grants must interleave inputs."""
    arb = RoundRobinArbiter()
    reqs = []
    for i in range(3):
        for key in ("a", "b", "c"):
            reqs.append((key, f"{key}{i}"))
    order = grants_of(arb, reqs)
    # a0 granted immediately; then RR pointer starts after 'a'
    assert order[0] == "a0"
    assert order == ["a0", "b0", "c0", "a1", "b1", "c1", "a2", "b2", "c2"]


def test_rr_skips_empty_queues():
    arb = RoundRobinArbiter()
    got = []
    arb.request("a", "A", lambda: got.append("A"))
    arb.request("b", "B", lambda: got.append("B"))
    arb.request("c", "C", lambda: got.append("C"))
    arb.release("A")          # grants B (next after a)
    arb.release("B")          # grants C
    arb.request("a", "A2", lambda: got.append("A2"))
    arb.release("C")          # back to a
    assert got == ["A", "B", "C", "A2"]


def test_no_starvation_under_asymmetric_load():
    """A key with one request must be served even when another key has
    many."""
    arb = RoundRobinArbiter()
    got = []
    arb.request("busy", "b0", lambda: got.append("b0"))
    for i in range(1, 5):
        arb.request("busy", f"b{i}", lambda i=i: got.append(f"b{i}"))
    arb.request("quiet", "q", lambda: got.append("q"))
    arb.release("b0")
    # quiet must be granted next (RR pointer moved past 'busy')
    assert got[-1] == "q"


def test_waiting_counter_consistent():
    arb = RoundRobinArbiter()
    arb.request("a", "t0", lambda: None)
    arb.request("a", "t1", lambda: None)
    arb.request("b", "t2", lambda: None)
    assert arb.waiting() == 2
    arb.release("t0")
    assert arb.waiting() == 1
    arb.release(arb.owner)
    arb.release(arb.owner)
    assert arb.waiting() == 0
    assert not arb.busy


def test_grant_after_idle_period():
    arb = RoundRobinArbiter()
    got = []
    arb.request("a", "t0", lambda: got.append(0))
    arb.release("t0")
    assert not arb.busy
    arb.request("a", "t1", lambda: got.append(1))
    assert got == [0, 1]


# -- arbitration state is sized by contention --------------------------------
# A key joins the round-robin order on its first request, granted or not,
# but gets a FIFO only when one of its requests waits.  These pin that the
# lazy FIFOs change no grant and no token order.

def _fifo_keys(arb):
    return [k for k in arb._order if k in arb._queues]


def test_granted_key_keeps_its_first_seen_place():
    """``a`` and ``b`` are granted at once and never queue; once ``c``,
    ``d`` and then ``b`` and ``a`` queue, the scan still visits them in
    first-seen order a, b, c, d from just past the last grantee."""
    arb = RoundRobinArbiter()
    got = []
    for key in ("a", "b"):
        arb.request(key, key, lambda k=key: got.append(k))
        arb.release(key)
    assert _fifo_keys(arb) == []
    arb.request("c", "c0", lambda: got.append("c0"))    # granted
    arb.request("d", "d0", lambda: got.append("d0"))
    arb.request("b", "b1", lambda: got.append("b1"))
    arb.request("a", "a1", lambda: got.append("a1"))
    arb.request("c", "c1", lambda: got.append("c1"))
    assert _fifo_keys(arb) == ["a", "b", "c", "d"]
    while arb.busy:
        arb.release(arb.owner)
    # last grantee c -> d, then wrap to a, b, c
    assert got == ["a", "b", "c0", "d0", "a1", "b1", "c1"]


def _partly_queued():
    """Keys k0..k5 in first-seen order; only k1, k3 and k4 hold a FIFO
    (k4's FIFO was created before k1's and k3's)."""
    arb = RoundRobinArbiter()
    for i in range(6):
        token = object()
        arb.request(f"k{i}", token, lambda: None)
        arb.release(token)
    arb.request("k0", "own", lambda: None)
    arb.request("k4", "x", lambda: None)
    arb.request("k3", "y", lambda: None)
    arb.request("k1", "x", lambda: None)
    arb.request("k4", "z", lambda: None)
    assert sorted(_fifo_keys(arb)) == ["k1", "k3", "k4"]
    return arb


def test_waiting_tokens_in_key_order_when_some_keys_have_no_fifo():
    arb = _partly_queued()
    assert arb.waiting_tokens() == ["x", "y", "x", "z"]
    assert arb.waiting() == 4


def test_cancel_waiting_in_key_order_when_some_keys_have_no_fifo():
    arb = _partly_queued()
    assert arb.cancel_waiting() == ["x", "y", "x", "z"]
    assert arb.waiting() == 0 and arb.waiting_tokens() == []
    assert arb.owner == "own"
    arb.release("own")
    assert not arb.busy


def test_cancel_when_some_keys_have_no_fifo():
    arb = _partly_queued()
    assert arb.cancel("x") == 2
    assert arb.cancel("absent") == 0
    assert arb.waiting_tokens() == ["y", "z"]
    assert arb.waiting() == 2
    arb.release("own")
    assert arb.owner == "y"          # k3 is next after k0
    arb.release("y")
    assert arb.owner == "z"
    arb.release("z")
    assert not arb.busy and arb.waiting() == 0


def test_no_fifo_when_every_request_is_granted_at_once():
    arb = RoundRobinArbiter()
    for i in range(50):
        key = i % 7
        assert arb.request(key, i, lambda: None) is True
        arb.release(i)
    assert arb._queues == {}
    assert arb._order == list(range(7))
    assert arb.waiting_tokens() == [] and arb.cancel_waiting() == []


def test_nic_source_queue_stays_fifo():
    """Key 0 -- a NIC's injection channel -- queues a long source
    backlog and grants it strictly in request order."""
    arb = RoundRobinArbiter()
    n = 1500
    order = grants_of(arb, [(0, i) for i in range(n)])
    assert order == list(range(n))
    assert arb.waiting() == 0 and _fifo_keys(arb) == [0]
