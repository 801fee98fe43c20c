"""Reimplementation of Myricom's ``simple_routes`` route selection.

The paper's UP/DOWN baseline uses the routes produced by the
``simple_routes`` program shipped with GM (Section 4.5): one valid
up*/down* path per source-destination pair, selected so as to *balance
traffic* across links via link weights.

Our implementation works per destination, not per pair:

1. for every destination, one backward BFS over the (switch, phase)
   graph gives the DAG of shortest legal paths toward it, and one pass
   over that DAG lists every source's candidates -- the legal paths of
   the shortest legal length, capped, each with the link ids it crosses
   (:func:`repro.routing.updown.legal_path_links_to`);
2. process pairs in a deterministic order and greedily pick, per pair,
   the candidate minimising ``(total link weight, path)``;
3. add one unit of weight to every link of the chosen path (each pair
   carries the same offered load under the paper's traffic model).

The chosen path is therefore always a shortest *legal* path -- which
is non-minimal in the graph wherever the up*/down* rule forbids every
minimal path -- and link weights only break ties among those.  The
paper notes that the original program "may select a non-minimal
up*/down* path" over a legal minimal one for balance; this
reimplementation never does, and still reproduces the minimal-path
fractions the paper reports (see :func:`compute_simple_routes`).

The greedy weighted selection reproduces the two properties the paper
relies on: routes concentrate around the spanning-tree root (the
up*/down* structure forces this) while being as spread as the rule
allows.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..topology.graph import NetworkGraph
from .minimal import PathLinks
from .routes import RouteLeg, SourceRoute
from .updown import UpDownOrientation, legal_path_links_to


def simple_route_links(g: NetworkGraph, ud: UpDownOrientation,
                       max_candidates: int = 32,
                       ) -> Dict[Tuple[int, int], PathLinks]:
    """:func:`compute_simple_routes` with each chosen path's link ids:
    ``(src, dst) -> (switch_path, link_ids)``."""
    candidates = [legal_path_links_to(g, ud, dst, max_candidates)
                  for dst in g.switches()]
    weight = [0] * g.num_links
    routes: Dict[Tuple[int, int], PathLinks] = {}

    # Deterministic pair order.  Interleaving by destination (rather than
    # iterating all destinations of switch 0 first) avoids systematically
    # biasing early, low-weight picks toward low-id sources.
    pairs = sorted(((src, dst) for src in g.switches() for dst in g.switches()
                    if src != dst),
                   key=lambda p: ((p[0] + p[1]) % g.num_switches, p[0], p[1]))

    cost = weight.__getitem__
    for src, dst in pairs:
        cands = candidates[dst][src]
        if not cands:  # cannot happen on a connected graph
            raise RuntimeError(f"no legal up*/down* path {src}->{dst}")
        # candidates arrive in ascending path order, so the first one
        # with the lowest weight is the (weight, path) minimum
        best = cands[0]
        low = sum(map(cost, best[1]))
        for k in range(1, len(cands)):
            w = sum(map(cost, cands[k][1]))
            if w < low:
                best, low = cands[k], w
        routes[(src, dst)] = best
        for lid in best[1]:
            weight[lid] += 1

    for s in g.switches():
        routes[(s, s)] = ((s,), ())
    return routes


def compute_simple_routes(g: NetworkGraph, ud: UpDownOrientation,
                          max_candidates: int = 32,
                          ) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """One balanced legal up*/down* path per ordered switch pair.

    Returns a dict ``(src, dst) -> switch path`` covering every ordered
    pair of distinct switches (plus the trivial ``(s, s) -> (s,)``
    entries, which hosts sharing a switch use).

    Only shortest legal candidates compete and the link weights break
    ties among them; this reproduces the minimal-path fractions the
    paper reports for simple_routes (80 % on the 8x8 torus, 94 % on the
    express torus -- exactly the fraction of pairs that have a legal
    minimal path at all).
    """
    return {pair: path for pair, (path, _lids)
            in simple_route_links(g, ud, max_candidates).items()}


def simple_route_table(g: NetworkGraph, ud: UpDownOrientation,
                       ) -> Dict[Tuple[int, int], Tuple[SourceRoute, ...]]:
    """The ``simple_routes`` selection as single-leg table entries,
    legs built from the carried link ids (no graph re-probe)."""
    return {pair: (SourceRoute((RouteLeg(path, lids),)),)
            for pair, (path, lids) in simple_route_links(g, ud).items()}
