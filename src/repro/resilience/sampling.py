"""Deterministic failure-set sampling.

Failure sets are a function of ``(seed, k)`` and the graph alone --
no global RNG state -- so a campaign re-run (or a cache hit in the
orchestrator's result store) sees byte-identical configurations.
Candidates are drawn from a seeded shuffle and accepted greedily while
the surviving switch graph stays connected, so even aggressive ``k``
values on sparse fabrics yield a usable (if partially smaller) set
instead of an error.
"""

from __future__ import annotations

import random
from typing import Tuple

from ..topology.graph import NetworkGraph
from ..topology.mutate import without_links


def sample_failed_links(g: NetworkGraph, k: int,
                        seed: int) -> Tuple[int, ...]:
    """Draw up to ``k`` distinct link ids whose joint removal keeps the
    switch graph connected.

    Links are tried in a seeded-shuffle order and accepted greedily;
    a candidate that would partition the survivors is skipped.  The
    result can be shorter than ``k`` only when the graph has fewer
    removable links than requested.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return ()
    ids = list(range(g.num_links))
    random.Random(f"resilience:{seed}:{k}").shuffle(ids)
    chosen: list = []
    for lid in ids:
        trial = chosen + [lid]
        try:
            without_links(g, trial)
        except ValueError:
            continue
        chosen = trial
        if len(chosen) == k:
            break
    return tuple(sorted(chosen))
