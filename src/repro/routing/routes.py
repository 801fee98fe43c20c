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

:class:`RouteLeg` and :class:`SourceRoute` are the switch-level *view*
of a route, built on demand (:meth:`SourceRoute.from_store`) for
readers that name switches -- a test, a digest, a stall report -- and
the way a hand-written table is spelled (:meth:`SourceRoute.to_store`).
Nothing on a simulation's run path holds one.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Sequence, Tuple

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
    """The directed hops along switch path ``path`` of ``g``."""
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


class RouteLeg:
    """One deadlock-free sub-path: ``switches[i] -> switches[i+1]`` over
    ``links[i]``.  A leg with a single switch and no links is valid (the
    source and target of the leg share a switch).

    A value object: readers get one from :meth:`SourceRoute.from_store`,
    and a hand-written table builds its routes from them.
    """

    __slots__ = ("switches", "links")

    def __init__(self, switches: Tuple[int, ...],
                 links: Tuple[int, ...]) -> None:
        if not switches:
            raise ValueError("a leg must contain at least one switch")
        if len(links) != len(switches) - 1:
            raise ValueError(
                f"leg with {len(switches)} switches needs "
                f"{len(switches) - 1} links, got {len(links)}")
        self.switches = switches
        self.links = links

    def __eq__(self, other: object) -> bool:
        if other.__class__ is RouteLeg:
            return (self.switches == other.switches
                    and self.links == other.links)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.switches, self.links))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RouteLeg(switches={self.switches!r}, links={self.links!r})"

    @property
    def hops(self) -> int:
        """Number of inter-switch cables crossed."""
        return len(self.links)

    @property
    def start(self) -> int:
        return self.switches[0]

    @property
    def end(self) -> int:
        return self.switches[-1]

    @property
    def dir_hops(self) -> Leg:
        """The leg in store form: the directed hop (:func:`hop`) of each
        cable crossed."""
        sw = self.switches
        return tuple(map(hop, self.links, sw, sw[1:]))

    @staticmethod
    def from_switch_path(g: NetworkGraph, path: Tuple[int, ...]) -> "RouteLeg":
        """Build a leg from a switch sequence, resolving link ids."""
        return RouteLeg(tuple(path), g.path_links(path))


class SourceRoute:
    """A complete switch-to-switch route, possibly via in-transit hosts.

    ``itb_hosts[i]`` is the host where the packet is ejected between
    ``legs[i]`` and ``legs[i+1]``; it must be attached to
    ``legs[i].end == legs[i+1].start``.  The switch-level view of a
    store-form route (see the module docstring); a value object.
    """

    __slots__ = ("legs", "itb_hosts")

    def __init__(self, legs: Tuple[RouteLeg, ...],
                 itb_hosts: Tuple[int, ...] = ()) -> None:
        if not legs:
            raise ValueError("a route needs at least one leg")
        if len(itb_hosts) != len(legs) - 1:
            raise ValueError(
                f"{len(legs)} legs need {len(legs) - 1} "
                f"in-transit hosts, got {len(itb_hosts)}")
        prev = legs[0]
        for nxt in legs[1:]:
            if prev.end != nxt.start:
                raise ValueError(
                    f"legs do not chain: {prev.end} != {nxt.start}")
            prev = nxt
        self.legs = legs
        self.itb_hosts = itb_hosts

    def __eq__(self, other: object) -> bool:
        if other.__class__ is SourceRoute:
            return (self.legs == other.legs
                    and self.itb_hosts == other.itb_hosts)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.legs, self.itb_hosts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SourceRoute(legs={self.legs!r}, "
                f"itb_hosts={self.itb_hosts!r})")

    @property
    def src(self) -> int:
        return self.legs[0].start

    @property
    def dst(self) -> int:
        return self.legs[-1].end

    @property
    def num_itbs(self) -> int:
        """Number of in-transit buffer hops (ejection/re-injection points)."""
        return len(self.itb_hosts)

    @property
    def switch_hops(self) -> int:
        """Total inter-switch cables crossed, summed over legs."""
        return sum(leg.hops for leg in self.legs)

    @property
    def switch_path(self) -> Tuple[int, ...]:
        """Flattened switch sequence (in-transit switches appear once)."""
        path = list(self.legs[0].switches)
        for leg in self.legs[1:]:
            path.extend(leg.switches[1:])
        return tuple(path)

    @property
    def link_ids(self) -> Tuple[int, ...]:
        """All link ids crossed, in order."""
        return tuple(l for leg in self.legs for l in leg.links)

    @property
    def leg_overheads(self) -> Tuple[int, ...]:
        """Header bytes carried during each leg (:func:`leg_overheads`)."""
        return leg_overheads(tuple(leg.hops for leg in self.legs))

    def iter_links(self) -> Iterator[int]:
        """All link ids crossed, in order."""
        for leg in self.legs:
            yield from leg.links

    def to_store(self) -> Route:
        """This route in store form."""
        return make_route([leg.dir_hops for leg in self.legs],
                          tuple(self.itb_hosts))

    @staticmethod
    def from_store(g: NetworkGraph, src: int, route: Route) -> "SourceRoute":
        """The switch-level view of store-form ``route`` leaving switch
        ``src`` of ``g``."""
        legs = []
        at = src
        for leg in route[2:]:
            switches = leg_switches(g, at, leg)
            legs.append(RouteLeg(switches, tuple(h >> 1 for h in leg)))
            at = switches[-1]
        return SourceRoute(tuple(legs), route[1])

    @staticmethod
    def single_leg(g: NetworkGraph, path: Tuple[int, ...]) -> "SourceRoute":
        """Convenience: a route that is one plain up*/down* path."""
        return SourceRoute((RouteLeg.from_switch_path(g, path),))
