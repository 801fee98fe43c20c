"""Reimplementation of Myricom's ``simple_routes`` route selection.

The paper's UP/DOWN baseline uses the routes produced by the
``simple_routes`` program shipped with GM (Section 4.5): one valid
up*/down* path per source-destination pair, selected so as to *balance
traffic* across links via link weights.

Our implementation works per destination, not per pair:

1. for every destination, one backward BFS over the (switch, phase)
   graph gives the DAG of shortest legal paths toward it, and one pass
   over that DAG lists every source's candidates -- the legal paths of
   the shortest legal length, capped, each as the directed hops it
   crosses (:func:`repro.routing.updown.legal_hops_to`) -- which are
   kept as one flat hop array per destination (:class:`_Candidates`);
2. process pairs in a deterministic order and greedily pick, per pair,
   the candidate minimising ``(total link weight, path)``;
3. add one unit of weight to every link of the chosen path (each pair
   carries the same offered load under the paper's traffic model).

Only the chosen path of a pair becomes a tuple (the table's one leg);
every other candidate lives as a few bytes per hop of its destination's
array until the pass ends.

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

from array import array
from itertools import accumulate, chain
from typing import Dict, List, Tuple

from ..topology.graph import NetworkGraph
from .routes import Leg, hop_array, hop_ints, leg_switches, make_route
from .table import Pair, RouteStore, interleaved_pairs
from .updown import UpDownOrientation, legal_hops_to

#: legal paths of the shortest legal length kept per pair for the
#: weighted choice
MAX_CANDIDATES = 32


class _Candidates:
    """One destination's candidates, flat: source ``s`` has ``count[s]``
    paths of equal length, laid end to end in ``hops[start[s]:start[s +
    1]]`` (a switch cannot reach itself: count 0)."""

    __slots__ = ("hops", "start", "count")

    def __init__(self, g: NetworkGraph, ud: UpDownOrientation,
                 dst: int) -> None:
        by_src = legal_hops_to(g, ud, dst, MAX_CANDIDATES)
        lists = [by_src.get(src, ()) for src in range(g.num_switches)]
        self.count = array("i", map(len, lists))
        self.start = array("i", accumulate(
            [len(c) * len(c[0]) if c else 0 for c in lists], initial=0))
        self.hops = hop_array(g.num_links)
        self.hops.fromlist(list(chain.from_iterable(
            chain.from_iterable(lists))))


def simple_route_hops(g: NetworkGraph,
                      ud: UpDownOrientation) -> Dict[Pair, Leg]:
    """:func:`compute_simple_routes` as each chosen path's directed
    hops: ``(src, dst) -> hops`` (the hop ints shared, a self pair
    ``()``), in the pass's pair order."""
    candidates = [_Candidates(g, ud, dst) for dst in g.switches()]
    # per directed hop, the weight of its link: choosing a path charges
    # both directions, so a path's hop weights sum to its link weights
    weight = [0] * (2 * g.num_links)
    ints = hop_ints(g.num_links)
    routes: Dict[Pair, Leg] = {}
    n = g.num_switches
    cost = weight.__getitem__
    for key in interleaved_pairs(n):    # a deterministic pair order
        src, dst = divmod(key, n)
        cands = candidates[dst]
        k = cands.count[src]
        if not k:  # cannot happen on a connected graph
            raise RuntimeError(f"no legal up*/down* path {src}->{dst}")
        a = cands.start[src]
        block = cands.hops[a:cands.start[src + 1]]
        step = len(block) // k
        if k > 1:
            # every candidate's weight at once; candidates arrive in
            # ascending path order, so the first one with the lowest
            # weight is the (weight, path) minimum
            sums = list(map(sum, zip(*[map(cost, block)] * step)))
            a = sums.index(min(sums)) * step
            block = block[a:a + step]
        chosen = tuple(map(ints.__getitem__, block))
        routes[(src, dst)] = chosen
        for h in chosen:
            weight[h] += 1
            weight[h ^ 1] += 1

    for s in g.switches():
        routes[(s, s)] = ()
    return routes


def compute_simple_routes(g: NetworkGraph, ud: UpDownOrientation
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
    return {(src, dst): leg_switches(g, src, hops) for (src, dst), hops
            in simple_route_hops(g, ud).items()}


def simple_route_table(g: NetworkGraph, ud: UpDownOrientation) -> RouteStore:
    """The ``simple_routes`` selection as a table of single-leg routes."""
    n = g.num_switches
    alts: List = [None] * (n * n)
    order = array("i")
    for (src, dst), leg in simple_route_hops(g, ud).items():
        k = src * n + dst
        alts[k] = (make_route((leg,)),)
        order.append(k)
    return RouteStore(n, order, alts)
