"""Source-route representation.

A Myrinet source route is the ordered list of output-port selections the
packet header carries.  Between two *switches* a route is a sequence of
legs:

* a plain up*/down* route is a single leg;
* an in-transit-buffer route has one leg per deadlock-free sub-path, with
  an **in-transit host** between consecutive legs where the packet is
  ejected and re-injected (the ITB mark of Section 3).

Routes are computed at switch granularity (all hosts of a switch share
the same switch-level paths); the NIC layer prepends/appends the host
cables at simulation time.

**The store form** -- what a routing table holds and every engine
reads -- has no object per route or per leg, only tuples of ints:

* a *leg* is the tuple of directed hops it crosses, each
  ``link_id << 1 | dir`` with ``dir`` 0 from the link's lower switch
  id to its higher one (:func:`hop`); the engines index their
  directed channels by exactly these numbers;
* a *route* is ``(overheads, itb_hosts, leg_0, ..., leg_k)``:
  ``route[0]`` is the header bytes carried during each leg
  (:func:`leg_overheads`), ``route[1]`` the in-transit host between
  ``leg_i`` and ``leg_i+1``, ``route[2 + i]`` leg ``i``.

Equal legs, equal overhead tuples and equal in-transit host tuples are
one object each (a table interns them), and the hop numbers are the
interned ints of :func:`hop_ints`.  A leg does not name its switches:
the pair key gives the first, and the links fix every later one.

This is the only spelling of a route.  A hand-written table spells
each leg from its switch path with :func:`path_hops` and joins the
legs with :func:`make_route`; a reader that names switches -- a test,
a digest, a stall report -- walks the hops back with
:func:`leg_switches` / :func:`route_switches`.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

from ..topology.graph import NetworkGraph

#: one leg in store form: its directed hops
Leg = Tuple[int, ...]
#: one route in store form: ``(overheads, itb_hosts, leg_0, ...)``
Route = tuple

#: every distinct leg-hop-count tuple's header overheads, once: they
#: depend only on the legs' hop counts, so a handful of values serve
#: every route of every table (an intern table of immutable values:
#: nothing behaves differently for what it holds)
_OVERHEADS: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
#: ``_HOPS[h] is`` the one int object for hop ``h`` (ints above 256 are
#: otherwise a new 28-byte object per occurrence)
_HOPS: List[int] = []


def hop(link_id: int, frm: int, to: int) -> int:
    """The directed hop crossing ``link_id`` from switch ``frm`` to
    ``to``: a link joins its lower switch id to its higher one, so the
    direction bit is 0 exactly when ``frm < to``."""
    return (link_id << 1) | (frm > to)


def path_hops(g: NetworkGraph, path: Sequence[int]) -> Leg:
    """The directed hops along switch path ``path`` of ``g``;
    :class:`ValueError` where no link joins two consecutive switches."""
    return tuple(map(hop, g.path_links(path), path, path[1:]))


def hop_ints(num_links: int) -> List[int]:
    """A list whose item ``h`` is the shared int object for directed hop
    ``h``, covering every hop of a graph with ``num_links`` links."""
    if len(_HOPS) < 2 * num_links:
        _HOPS.extend(range(len(_HOPS), 2 * num_links))
    return _HOPS


def hop_array(num_links: int) -> array:
    """An empty array for the hops of a graph with ``num_links`` links,
    two bytes a hop while they fit (a table build's flat candidates)."""
    return array("H" if 2 * num_links <= 0xFFFF else "i")


def leg_overheads(lens: Tuple[int, ...]) -> Tuple[int, ...]:
    """Header bytes carried during each leg of a route whose legs cross
    ``lens`` hops (interned): at the start of leg ``k`` the header
    still holds the route flits of legs ``k..end`` and the ITB marks of
    the remaining boundaries; earlier flits were consumed by switches /
    stripped by in-transit hosts."""
    out = _OVERHEADS.get(lens)
    if out is None:
        n = len(lens)
        remaining = sum(lens)
        steps = []
        for k, hops in enumerate(lens):
            steps.append(remaining + (n - 1 - k))
            remaining -= hops
        out = _OVERHEADS[lens] = tuple(steps)
    return out


def make_route(legs: Sequence[Leg], itb_hosts: Tuple[int, ...] = ()
               ) -> Route:
    """The store form of a route over ``legs`` (hop tuples) joined at
    ``itb_hosts``."""
    return (leg_overheads(tuple(map(len, legs))), itb_hosts, *legs)


def route_hops(route: Route) -> int:
    """Inter-switch cables a store-form route crosses, over all legs."""
    return sum(map(len, route[2:]))


def route_links(route: Route) -> Tuple[int, ...]:
    """Link ids a store-form route crosses, in order."""
    return tuple(h >> 1 for leg in route[2:] for h in leg)


def leg_switches(g: NetworkGraph, start: int, leg: Leg) -> Tuple[int, ...]:
    """The switches a store-form leg leaving ``start`` visits."""
    out = [start]
    links = g.links
    for h in leg:
        link = links[h >> 1]
        out.append(link.a if h & 1 else link.b)
    return tuple(out)


def route_switches(g: NetworkGraph, src: int, route: Route
                   ) -> Tuple[Tuple[int, ...], ...]:
    """The switches each leg of store-form ``route`` visits: the first
    leg leaves switch ``src``, each later one the switch the one
    before it reached (where its in-transit host sits)."""
    out: List[Tuple[int, ...]] = []
    for leg in route[2:]:
        out.append(leg_switches(g, out[-1][-1] if out else src, leg))
    return tuple(out)
