"""Source-route representation.

A Myrinet source route is the ordered list of output-port selections the
packet header carries.  For our purposes a route between two *switches*
is a sequence of :class:`RouteLeg` objects:

* a plain up*/down* route is a single leg;
* an in-transit-buffer route has one leg per deadlock-free sub-path, with
  an **in-transit host** between consecutive legs where the packet is
  ejected and re-injected (the ITB mark of Section 3).

Routes are computed at switch granularity (all hosts of a switch share
the same switch-level paths); the NIC layer prepends/appends the host
cables at simulation time.

Legs store both the switch sequence and the link ids so that the
simulator can map hops onto directed channels without re-deriving them,
and so analysis code can attribute utilisation to physical cables.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..topology.graph import NetworkGraph

#: every distinct :attr:`SourceRoute.leg_overheads` tuple, once: they
#: depend only on the legs' hop counts, so a handful of values serve
#: every route of every table (an intern table of immutable values:
#: nothing behaves differently for what it holds)
_OVERHEADS: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


class RouteLeg:
    """One deadlock-free sub-path: ``switches[i] -> switches[i+1]`` over
    ``links[i]``.  A leg with a single switch and no links is valid (the
    source and target of the leg share a switch).

    Legs are value objects: treat them as immutable once built -- the
    routing tables share them across runs (an ITB table also across the
    pairs whose routes cross the same leg), and :meth:`dir_hops` stashes
    its result (``_dir_hops``) on them.  They used to be frozen
    dataclasses; plain ``__slots__`` classes construct several times
    faster, which matters because a table build creates tens of
    thousands of them.
    """

    __slots__ = ("switches", "links", "_dir_hops")

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

    def dir_hops(self, g: NetworkGraph) -> Tuple[int, ...]:
        """Directed-channel index (``link_id << 1 | direction``, 0 for
        a->b) of each hop, computed once, then cached.

        The indices are graph-level facts, independent of any network
        instance, so the stash is shared by every packet, engine and run
        that uses the same cached routing tables; each engine maps them
        onto its own channel state.
        """
        try:
            return self._dir_hops
        except AttributeError:
            links = g.links
            dirs = tuple((lid << 1) | (links[lid].a != frm)
                         for lid, frm in zip(self.links, self.switches))
            self._dir_hops = dirs
            return dirs

    @staticmethod
    def from_switch_path(g: NetworkGraph, path: Tuple[int, ...]) -> "RouteLeg":
        """Build a leg from a switch sequence, resolving link ids."""
        return RouteLeg(tuple(path), g.path_links(path))


class SourceRoute:
    """A complete switch-to-switch route, possibly via in-transit hosts.

    ``itb_hosts[i]`` is the host where the packet is ejected between
    ``legs[i]`` and ``legs[i+1]``; it must be attached to
    ``legs[i].end == legs[i+1].start``.

    Value object like :class:`RouteLeg`: treat as immutable; the
    ``_leg_overheads`` / ``_link_ids`` slots hold lazily computed data
    shared by every packet following the route (a one-leg route may be
    handed its leg's own ``links`` tuple as ``_link_ids`` up front).
    """

    __slots__ = ("legs", "itb_hosts", "_leg_overheads", "_link_ids")

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
        """All link ids crossed, in order (computed once, then cached)."""
        try:
            return self._link_ids
        except AttributeError:
            out = tuple(l for leg in self.legs for l in leg.links)
            self._link_ids = out
            return out

    @property
    def leg_overheads(self) -> Tuple[int, ...]:
        """Header bytes carried during each leg (computed once, then
        cached): at the start of leg ``k`` the header still holds the
        route flits of legs ``k..end`` and the ITB marks of the remaining
        boundaries; earlier flits were consumed by switches / stripped
        by in-transit hosts."""
        try:
            return self._leg_overheads
        except AttributeError:
            legs = self.legs
            n = len(legs)
            remaining_hops = sum(leg.hops for leg in legs)
            out = []
            for k, leg in enumerate(legs):
                out.append(remaining_hops + (n - 1 - k))
                remaining_hops -= leg.hops
            overheads = tuple(out)
            overheads = _OVERHEADS.setdefault(overheads, overheads)
            self._leg_overheads = overheads
            return overheads

    def iter_links(self) -> Iterator[int]:
        """All link ids crossed, in order."""
        for leg in self.legs:
            yield from leg.links

    @staticmethod
    def single_leg(g: NetworkGraph, path: Tuple[int, ...]) -> "SourceRoute":
        """Convenience: a route that is one plain up*/down* path."""
        return SourceRoute((RouteLeg.from_switch_path(g, path),))
