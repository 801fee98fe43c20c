"""Demand-slotted round-robin output-port arbitration.

Myrinet switches assign an output port to waiting packets "in a
demand-slotted round-robin fashion" (Section 4.4): when the port frees,
the next *input port* with a waiting header (scanning round-robin from
the last grantee) wins.  Within one input port, packets are strictly
FIFO -- a wormhole input channel only ever presents one header at a
time anyway.

NIC injection channels use the same class with a single key, which
degenerates to plain FIFO (the NIC serialises its own sends and
re-injections in request order).

A request is two steps, so that the hot path pays for a callback only
when a request really waits: :meth:`RoundRobinArbiter.take` grants a
free resource on the spot (the caller then runs its grant body
directly), and :meth:`RoundRobinArbiter.enqueue` queues the grant body
for a later :meth:`RoundRobinArbiter.release`.  A key joins the
round-robin order on its first request, granted or not, but gets its
FIFO (a plain list) only when one of its requests waits: arbitration
state grows with contention, not with fabric size.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

GrantCallback = Callable[..., None]


class RoundRobinArbiter:
    """Grants exclusive ownership of one resource among keyed requesters."""

    __slots__ = ("_queues", "_order", "_key_index", "_last_key",
                 "nwaiting", "owner")

    def __init__(self) -> None:
        #: FIFOs of the keys that have ever had a request wait
        self._queues: Dict[
            Hashable, List[Tuple[object, GrantCallback, tuple]]] = {}
        self._order: List[Hashable] = []       # keys in first-seen order
        self._key_index: Dict[Hashable, int] = {}
        self._last_key: Optional[Hashable] = None  # key of the last grantee
        #: queued (ungranted) requests
        self.nwaiting: int = 0
        self.owner: Optional[object] = None

    @property
    def busy(self) -> bool:
        return self.owner is not None

    def waiting(self) -> int:
        """Number of queued (ungranted) requests."""
        return self.nwaiting

    def waiting_tokens(self) -> List[object]:
        """The queued (ungranted) tokens in key order, without mutating
        any queue -- the invariant auditor and the deadlock diagnoser
        read the wait-for graph through this."""
        queues = self._queues
        return [e[0] for key in self._order for e in queues.get(key, ())]

    def take(self, key: Hashable, token: object) -> bool:
        """First step of a request for ``token`` arriving on input
        ``key``: if the resource is free, ``token`` owns it on return
        and the answer is ``True`` -- the caller runs its grant body
        itself.  Otherwise nothing is queued yet and the caller goes on
        to :meth:`enqueue`."""
        if key not in self._key_index:
            self._key_index[key] = len(self._order)
            self._order.append(key)
        if self.owner is None and self.nwaiting == 0:
            self.owner = token
            self._last_key = key
            return True
        return False

    def enqueue(self, key: Hashable, token: object,
                grant: GrantCallback, args: tuple = ()) -> None:
        """Second step, after :meth:`take` refused: queue the request;
        ``grant(*args)`` runs on the :meth:`release` that hands
        ``token`` the resource.  Pass the grant context through
        ``args`` rather than a capturing closure."""
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = []
        q.append((token, grant, args))
        self.nwaiting += 1

    def request(self, key: Hashable, token: object,
                grant: GrantCallback, *args) -> bool:
        """Both steps in one call: ``grant(*args)`` fires now and
        ``True`` is returned if the resource is free, otherwise the
        request queues and ``False`` is returned."""
        if self.take(key, token):
            grant(*args)
            return True
        self.enqueue(key, token, grant, args)
        return False

    def cancel_waiting(self) -> List[object]:
        """Drop every queued (ungranted) request; the current owner is
        untouched.  Returns the cancelled tokens in queue order --
        dynamic link faults use this to drain a dead channel's waiters
        before dropping its owner, so the release cannot grant the dead
        resource to a stale requester."""
        tokens = self.waiting_tokens()
        for q in self._queues.values():
            q.clear()
        self.nwaiting = 0
        return tokens

    def cancel(self, token: object) -> int:
        """Remove every queued request of ``token`` (the owner is not
        affected); returns how many were removed."""
        removed = 0
        for q in self._queues.values():
            kept = [e for e in q if e[0] is not token]
            if len(kept) != len(q):
                removed += len(q) - len(kept)
                q[:] = kept
        self.nwaiting -= removed
        return removed

    def release(self, token: object) -> None:
        """Release ownership; the next waiting input (round-robin scan
        from the last grantee) is granted synchronously."""
        if self.owner is not token:
            raise RuntimeError("release by non-owner")
        self.owner = None
        if self.nwaiting == 0:
            return
        order = self._order
        queues = self._queues
        n = len(order)
        # scan round-robin starting just past the last grantee's key,
        # resolved against the *current* key set (keys may have joined
        # since the grant)
        start = ((self._key_index[self._last_key] + 1) % n
                 if self._last_key is not None else 0)
        for i in range(n):
            key = order[(start + i) % n]
            q = queues.get(key)
            if q:
                nxt_token, nxt_grant, nxt_args = q.pop(0)
                self.nwaiting -= 1
                self.owner = nxt_token
                self._last_key = key
                nxt_grant(*nxt_args)
                return
        raise AssertionError("waiting count out of sync with queues")
