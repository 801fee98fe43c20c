"""Path-selection policies over route alternatives (Section 4.6).

The paper evaluates two policies on top of the ITB routes:

* **SP** (single path): every packet of a source-destination pair uses
  the same (first) alternative;
* **RR** (round-robin): consecutive packets of a pair cycle through all
  alternatives, spreading load over the minimal paths.

``random`` is an extension: pick a uniformly random alternative per
packet (memoryless spreading, no per-pair state in the NIC).

Policies are stateful per *host pair* -- the round-robin pointer lives in
the source NIC's routing table, exactly as the MCP would keep it.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from ..registry import Registry
from .routes import Route


class PathSelectionPolicy(ABC):
    """Strategy choosing one route among a pair's alternatives."""

    name: str = "abstract"

    #: whether :meth:`feedback` actually consumes delivery
    #: notifications -- stateless policies leave this False so callers
    #: (the runner, batch engines) can skip the per-packet callback
    #: entirely instead of invoking a no-op for every delivery
    needs_feedback: bool = False

    @abstractmethod
    def select_index(self, src_host: int, dst_host: int,
                     alternatives: Sequence[Route]) -> int:
        """Index of the alternative the next packet from ``src_host``
        to ``dst_host`` should take.

        The network stores this index on the packet
        (:attr:`~repro.sim.packet.Packet.alt_index`), so feedback can
        be attributed to the alternative even after routing tables are
        rebuilt (route *objects* are not stable identifiers)."""

    def select(self, src_host: int, dst_host: int,
               alternatives: Sequence[Route]) -> Route:
        """Pick the route for the next packet from ``src_host`` to
        ``dst_host`` (convenience wrapper around :meth:`select_index`)."""
        return alternatives[self.select_index(src_host, dst_host,
                                              alternatives)]

    def feedback(self, pkt) -> None:
        """Delivery notification (called by the network for every
        delivered packet).  Stateless policies ignore it; adaptive ones
        use the observed latency."""


class SinglePathPolicy(PathSelectionPolicy):
    """Always the first alternative (ITB-SP; also UP/DOWN's only option)."""

    name = "sp"

    def select_index(self, src_host: int, dst_host: int,
                     alternatives: Sequence[Route]) -> int:
        return 0


class RoundRobinPolicy(PathSelectionPolicy):
    """Cycle through alternatives per source-destination host pair (ITB-RR).

    The first packet of a pair starts at a pair-dependent offset
    (``staggered_start``, default on) rather than always at alternative
    0: with 512 hosts and uniform traffic most pairs exchange only a
    handful of messages per run, and a zero start would collapse RR into
    SP.  The stagger reproduces the paper's reported behaviour (0.54
    in-transit buffers per message for RR on the torus, i.e. the mean
    over all alternatives) while remaining strictly round-robin per pair.
    """

    name = "rr"

    def __init__(self, staggered_start: bool = True) -> None:
        self._next: Dict[Tuple[int, int], int] = {}
        self._staggered = staggered_start

    def select_index(self, src_host: int, dst_host: int,
                     alternatives: Sequence[Route]) -> int:
        key = (src_host, dst_host)
        i = self._next.get(key)
        if i is None:
            # first packet of the pair (the common case under uniform
            # traffic -- most pairs send once -- on every engine's
            # admission hot path): a deterministic integer mix, since
            # Python's hash() is salted per run
            if self._staggered:
                x = src_host * 2654435761 ^ dst_host * 2246822519
                x ^= x >> 13
                i = x & 0x7FFFFFFF
            else:
                i = 0
        i %= len(alternatives)
        self._next[key] = i + 1
        return i


class RandomPolicy(PathSelectionPolicy):
    """Uniformly random alternative per packet (extension policy)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select_index(self, src_host: int, dst_host: int,
                     alternatives: Sequence[Route]) -> int:
        return self._rng.randrange(len(alternatives))


class AdaptivePolicy(PathSelectionPolicy):
    """Latency-adaptive selection at the source host (extension).

    The paper's future work proposes "new route selection algorithms
    that implement some adaptivity at the source host".  This policy is
    one such algorithm: the NIC keeps, per source-destination pair and
    per alternative, an exponentially weighted moving average of the
    network latency of delivered messages (feedback a Myrinet MCP could
    obtain from software-level acknowledgements), and routes each new
    message over the alternative with the lowest estimate.  With
    probability ``epsilon`` it explores a uniformly random alternative
    so stale estimates recover; unobserved alternatives are always
    preferred over observed ones (optimistic initialisation).
    """

    name = "adaptive"
    needs_feedback = True

    def __init__(self, seed: int = 0, epsilon: float = 0.1,
                 alpha: float = 0.25) -> None:
        if not (0.0 <= epsilon <= 1.0):
            raise ValueError("epsilon must be in [0, 1]")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        self._rng = random.Random(seed)
        self.epsilon = epsilon
        self.alpha = alpha
        #: (src, dst) -> per-alternative latency EWMA (ps); None = never
        #: observed
        self._ewma: Dict[Tuple[int, int], list] = {}

    def register(self, src_host: int, dst_host: int,
                 alternatives: Sequence[Route]) -> list:
        """Initialise (or fetch) the pair's estimate table.

        Called implicitly by :meth:`select_index`; feedback for a pair
        that was never selected is ignored, so explicit registration
        only matters when feeding observations from outside a
        simulation.
        """
        key = (src_host, dst_host)
        ewma = self._ewma.get(key)
        if ewma is None or len(ewma) != len(alternatives):
            ewma = self._ewma[key] = [None] * len(alternatives)
        return ewma

    def select_index(self, src_host: int, dst_host: int,
                     alternatives: Sequence[Route]) -> int:
        ewma = self.register(src_host, dst_host, alternatives)
        if self._rng.random() < self.epsilon:
            return self._rng.randrange(len(alternatives))
        # optimistic: any never-tried alternative first, else lowest EWMA
        return min(range(len(alternatives)),
                   key=lambda i: (ewma[i] is not None, ewma[i] or 0))

    def feedback(self, pkt) -> None:
        """Attribute the delivered packet's latency to the alternative
        it travelled, identified by :attr:`Packet.alt_index` (stable
        across routing-table rebuilds, unlike route object identity)."""
        ewma = self._ewma.get((pkt.src_host, pkt.dst_host))
        if ewma is None:
            return
        i = pkt.alt_index
        if not 0 <= i < len(ewma):
            return
        lat = pkt.network_latency_ps()
        ewma[i] = (lat if ewma[i] is None
                   else (1 - self.alpha) * ewma[i] + self.alpha * lat)


@dataclass(frozen=True)
class PolicySpec:
    """One registered path-selection policy."""

    name: str
    #: one-line description (shown by ``repro info``)
    description: str
    #: builder: ``build(seed) -> PathSelectionPolicy``
    build: Callable[[int], PathSelectionPolicy]


#: the selection-policy registry (``SimConfig.policy`` names an entry)
POLICIES: Registry[PolicySpec] = Registry("selection policy")

POLICIES.register(PolicySpec(
    "sp", "single path: always the first alternative (ITB-SP)",
    lambda seed: SinglePathPolicy()))
POLICIES.register(PolicySpec(
    "rr", "round-robin over the alternatives per host pair (ITB-RR)",
    lambda seed: RoundRobinPolicy()))
POLICIES.register(PolicySpec(
    "random", "uniformly random alternative per packet (extension)",
    RandomPolicy))
POLICIES.register(PolicySpec(
    "adaptive", "lowest latency EWMA per pair, epsilon-greedy (extension)",
    AdaptivePolicy))


def make_policy(name: str, seed: int = 0) -> PathSelectionPolicy:
    """Instantiate the policy registered under ``name``."""
    return POLICIES.get(name).build(seed)
