"""Traffic fabric core: destination patterns, arrival processes, driver.

The workload of one run is the composition of two orthogonal
abstractions:

* a :class:`TrafficPattern` (*destination pattern*) answers **where**
  each message goes -- uniform, bit-reversal, hotspot, incast ...;
* an :class:`ArrivalProcess` answers **when** each host's next message
  fires -- constant spacing (the paper's load model), Poisson,
  bursty ON/OFF or an (r, b)-adversary.

Any pattern composes with any arrival process;
:class:`TrafficProcess` drives the pair on the simulator.  Both sides
register in :mod:`repro.traffic.registry` with capability
declarations, so everything outside :mod:`repro.traffic` dispatches by
name.

The paper's load model: "message generation rate is constant and the
same for all the hosts".  Offered load is expressed in the unit of the
plots, **flits/ns/switch**; with ``H`` hosts, ``S`` switches and
``L``-flit messages each host emits one message every

    interval = L * H / (rate * S)   nanoseconds

on average -- arrival processes redistribute those firings in time but
preserve the long-run mean rate, so offered-load comparisons across
arrival models are like for like.

RNG discipline
--------------

Each host draws destinations from its own stream seeded by
``(seed, host)`` and arrival timing from a **separate** stream seeded
by ``(seed, "arrival", host)``.  Timing draws therefore never perturb
destination draws: two runs of the same seed at different injection
rates (or under different arrival processes) see identical per-host
destination sequences, which is what makes paired comparisons across
rates meaningful.

It is also what lets a whole schedule be drawn in bulk
(:meth:`TrafficProcess.pregenerate`): the scalar reference path
(:meth:`TrafficProcess.start`) alternates one destination draw and one
timing draw per message, but since the two streams never meet, drawing
*all* of a host's fire times (:meth:`ArrivalProcess.fire_times`) and
then *all* of its destinations (:meth:`TrafficPattern.destinations`)
consumes each stream in exactly the same order.  An override of either
bulk hook must keep that property -- same values, same number of draws
from ``rng`` -- and is pinned against the scalar method by
``tests/test_properties.py`` and the golden listings of
``tests/test_schedule_digests.py``.

It also makes a host's destination stream a function of (fabric,
pattern, seed) alone and its arrival stream one of (seed) alone, the
same at every rate, horizon and arrival process: a schedule reads a
*prefix* of each.  :class:`HostStreams` holds each host's destinations
as drawn so far and the 32-bit outputs its arrival generator has
produced, which a :class:`random.Random` subclass replays to the
arrival process exactly as the seeded generator would draw them; so
the schedules of one key (the rates of a sweep, the probes of a
saturation search) seed each host's streams O(log n) times for the
longest prefix n, not once per schedule (see there).  The scalar
reference, :meth:`TrafficProcess.start`, keeps live generators, which
is what pins the replay to CPython's generator.

One draw path
-------------

A run takes its traffic from one :class:`Schedule`, drawn in bulk and
shared by every run offering the same traffic (the runner memoises
it).  A batch engine is primed with it; any other run *replays* it
(:meth:`TrafficProcess.replay`) through the same calendar and the same
firing body as :meth:`~TrafficProcess.start`, drawing every event
sequence number where ``start()`` draws it -- so a replayed run is
event for event the run ``start()`` drives, and its loop holds no RNG.
That equivalence needs every firing of an active host to send (no
``None`` or self destination) and each host's fire times to increase
strictly: the schedule keeps neither silent firings nor the draw order
of one host's same-instant messages.  Every shipped pattern and arrival
process has both properties, and :meth:`~TrafficProcess.replay`
refuses a schedule that counted silent firings (``Schedule.silent``);
``start()`` stays the reference the bulk hooks and the replay are
pinned against.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from array import array
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import floordiv, mod
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from ..topology.graph import NetworkGraph
from ..units import PS_PER_NS

if TYPE_CHECKING:  # imported for annotations only: the traffic layer
    # is sim-core independent (it calls network.send and pushes onto
    # the simulator's heap under its sequence counter)
    from ..sim.base import NetworkModel
    from ..sim.engine import Simulator


class TrafficPattern(ABC):
    """Destination distribution for one network (the *where* axis).

    A pattern keeps no state between calls: a destination is a function
    of the source and the draws from ``rng`` alone, which is what lets
    :class:`HostStreams` share one host's stream between the
    pattern instances of every run of its key.
    """

    name: str = "abstract"

    def __init__(self, graph: NetworkGraph) -> None:
        self.graph = graph

    @abstractmethod
    def destination(self, src_host: int,
                    rng: random.Random) -> Optional[int]:
        """Destination host for the next message of ``src_host``.

        ``None`` means the host generates no traffic under this pattern
        (e.g. fixed permutations that map a host to itself).
        """

    def active_hosts(self) -> list[int]:
        """Hosts that generate traffic (default: all of them).

        Patterns that silence some hosts (see :meth:`destination`
        returning ``None``) may override this so the generation process
        can skip them entirely.
        """
        return [h.id for h in self.graph.hosts]

    def destinations(self, src_host: int, rng: random.Random,
                     n: int) -> List[Optional[int]]:
        """The next ``n`` destinations of ``src_host``, in draw order.

        Bulk form of :meth:`destination` used by schedule
        pregeneration; an override must return the same values and
        leave ``rng`` in the same state as ``n`` scalar calls.
        """
        destination = self.destination
        return [destination(src_host, rng) for _ in range(n)]


class PermutationTraffic(TrafficPattern):
    """A fixed permutation: host ``h`` always sends to ``dest[h]``; a
    host the permutation maps to itself stays silent."""

    def __init__(self, graph: NetworkGraph, dest: List[int]) -> None:
        super().__init__(graph)
        self._dest = dest

    def destination(self, src_host: int,
                    rng: random.Random) -> Optional[int]:
        dst = self._dest[src_host]
        return None if dst == src_host else dst

    def active_hosts(self) -> list[int]:
        return [h for h, dst in enumerate(self._dest) if dst != h]


class ArrivalProcess(ABC):
    """Per-host message timing for one run (the *when* axis).

    Implementations may keep per-host state (burst counters); a
    process instance belongs to exactly one :class:`TrafficProcess` and
    is never reused across runs.  All randomness must come from the
    ``rng`` argument -- the driver hands every host its own
    deterministic arrival stream, disjoint from its destination stream.
    """

    name: str = "abstract"

    @abstractmethod
    def next_fire_ps(self, host: int, now_ps: int,
                     rng: random.Random) -> int:
        """Absolute sim time (>= ``now_ps``) of ``host``'s next message.

        The first call per host is made at traffic start (it sets the
        host's initial phase); each later call is made at the moment
        the previous message fired.
        """

    def fire_times(self, host: int, now_ps: int, t_end_ps: int,
                   rng: random.Random) -> Sequence[int]:
        """Every fire time of ``host`` in ``[now_ps, t_end_ps]``,
        ascending: the chain of :meth:`next_fire_ps` calls the
        event-driven driver would make, each at the previous fire time.

        Bulk form used by schedule pregeneration; an override must
        return the same times and draw from ``rng`` the same number of
        times (it may skip the chain's last, discarded call only if
        that call draws nothing).
        """
        out: List[int] = []
        cur = max(self.next_fire_ps(host, now_ps, rng), now_ps)
        while cur <= t_end_ps:
            out.append(cur)
            cur = max(self.next_fire_ps(host, cur, rng), cur)
        return out


class Schedule:
    """One run's offered traffic: every ``(t_ps, src, dst)`` message of
    every host up to ``horizon_ps``, sorted by ``(t, src, dst)``, as
    three parallel columns.

    A schedule exists independently of the routing scheme and engine
    under test, so one instance is shared read-only by every run that
    offers the same traffic (the runner memoises them; batch engines
    read the columns in place, every other engine replays them).  The
    columns are stdlib arrays -- ``t`` 64-bit, ``src`` / ``dst`` 32-bit
    -- i.e. 16 bytes per message and nothing for the garbage collector
    to walk.  ``len()`` and iteration (as ``(t, src, dst)`` triples)
    make it a drop-in for the list of tuples it replaces.
    """

    __slots__ = ("t", "src", "dst", "horizon_ps", "silent", "_chains")

    def __init__(self, t: array, src: array, dst: array,
                 horizon_ps: Optional[int] = None, silent: int = 0) -> None:
        if not len(t) == len(src) == len(dst):
            raise ValueError("schedule columns differ in length")
        self.t = t
        self.src = src
        self.dst = dst
        #: the schedule lists every message up to this time, none after
        #: it (default: the last message's time)
        self.horizon_ps = (horizon_ps if horizon_ps is not None
                           else t[-1] if len(t) else 0)
        #: firings of active hosts that sent nothing (a ``None`` or
        #: self destination), which the columns do not list
        self.silent = silent

    @classmethod
    def from_triples(cls, triples: Iterable[Tuple[int, int, int]]
                     ) -> "Schedule":
        """Columns of an iterable of ``(t_ps, src, dst)``, order kept."""
        rows = list(triples)
        return cls(array("q", [r[0] for r in rows]),
                   array("i", [r[1] for r in rows]),
                   array("i", [r[2] for r in rows]))

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        return zip(self.t, self.src, self.dst)

    def chains(self) -> Tuple[array, array]:
        """Each source's messages as a chain: ``first[src]`` is the
        index of its first message (-1: none; hosts past the largest
        source id have none either), ``nxt[i]`` that of the next
        message of ``src[i]`` (-1 after its last).  Built on the first
        call and kept, so every run replaying the schedule shares two
        4-byte columns."""
        try:
            return self._chains
        except AttributeError:
            pass
        src = self.src
        n = len(src)
        nxt = array("i", [-1]) * n
        first = array("i", [-1]) * (max(src) + 1 if n else 0)
        for i, s in zip(range(n - 1, -1, -1), reversed(src)):
            nxt[i] = first[s]
            first[s] = i
        self._chains = (first, nxt)
        return self._chains


def per_host_interval_ps(rate_flits_ns_switch: float, message_bytes: int,
                         graph: NetworkGraph) -> int:
    """Mean inter-message interval per host for a per-switch offered load.

    One flit is one byte, so a message is ``message_bytes`` flits of
    offered payload (header overhead is not counted as offered load,
    matching the paper's accepted-traffic metric).
    """
    if rate_flits_ns_switch <= 0:
        raise ValueError("rate must be positive")
    rate_per_host_flits_ns = (rate_flits_ns_switch * graph.num_switches
                              / graph.num_hosts)
    interval_ns = message_bytes / rate_per_host_flits_ns
    return max(1, round(interval_ns * PS_PER_NS))


class HostStreams:
    """Every host's two streams of one (fabric, pattern, seed) as drawn
    so far: what a schedule needs of a stream is a prefix.

    A host's destinations never depend on the arrival process, the
    interval or the horizon, and its arrival generator never depends on
    anything but seed and host (see "RNG discipline" in the module
    docstring), so every schedule of one key reads the same streams
    and only how far differs.  :meth:`take` hands out a host's first
    ``n`` destinations and draws only when the stream held is shorter;
    :attr:`outputs` holds the 32-bit outputs each host's arrival
    generator has produced, which :meth:`TrafficProcess.pregenerate`
    replays (:class:`_ArrivalReplay`) and seeds the generator only past.
    A host with no firing in the horizon costs nothing.

    No generator is kept.  A destination stream is first drawn as deep
    as its schedule needs, so a key read once costs what a fresh draw
    costs.  An arrival stream is not recorded on its first schedule,
    which draws from the seeded generator itself, at a fresh draw's
    cost, and leaves an empty record: recording what a draw consumes
    costs a cold schedule more than the seeding it saves a warm one.
    A stream too short is re-seeded and redrawn from its start, to at
    least twice its length and at least :data:`_DRAW_AHEAD` deep, so a
    stream that grows to ``n`` draws costs O(log n) seedings and O(n)
    draws, and short schedules (a sweep's low rates) seed each host at
    most twice; an arrival process that draws nothing (``adversarial``)
    seeds no generator after the first schedule.  A stored stream is
    replaced, never extended, so threads sharing the streams need no
    lock: whichever redraw lands last, every stream held is a prefix of
    the one seeded draw.  A destination stream is the list the pattern
    drew, silent ``None`` draws included; an arrival stream is one
    ``array('I')``.
    """

    __slots__ = ("drawn", "outputs", "_valid")

    def __init__(self) -> None:
        #: host -> its destinations drawn so far
        self.drawn: Dict[int, List[Optional[int]]] = {}
        #: host -> the outputs its arrival generator produced so far
        self.outputs: Dict[int, array] = {}
        #: what a draw may return: the fabric's hosts and None (built
        #: when the first draw is checked)
        self._valid: frozenset = frozenset()

    def take(self, pattern: TrafficPattern, seed: int, host: int,
             n: int) -> Sequence[Optional[int]]:
        """At least the first ``n`` destinations of ``host`` under
        ``pattern`` and ``seed``."""
        drawn = self.drawn.get(host, _NO_DRAWS)
        if len(drawn) >= n:
            return drawn
        dsts = pattern.destinations(host, random.Random(f"{seed}:{host}"),
                                    max(n, 2 * len(drawn), _DRAW_AHEAD)
                                    if drawn else n)
        if not self._valid.issuperset(dsts):
            hosts = pattern.graph.num_hosts
            self._valid = frozenset(range(hosts)) | {None}
            if not self._valid.issuperset(dsts):
                raise ValueError(
                    f"pattern {pattern.name!r} sent host {host} to a "
                    f"destination outside [0, {hosts})")
        self.drawn[host] = dsts
        return dsts


#: what a host with nothing drawn holds
_NO_DRAWS = ()
#: what a host whose arrival generator has been read once holds
_NO_OUTPUTS = array("I")
#: a stream that grows is redrawn at least this deep: eight uniform
#: draws cost a fifth of the seeding before them (1.8 vs 10 us on
#: CPython 3.11), and under the paper's constant load a paper-window
#: schedule on the 8x8 torus fires at most seven times per host up to
#: saturation, so a sweep there seeds each host's destination stream
#: at most twice; eight arrival outputs are one constant phase and
#: seven rejected draws (a rejection is at most an even chance), so a
#: sweep seeds each host's arrival generator twice as a rule
_DRAW_AHEAD = 8
#: 2 ** -53, the scale of CPython's ``random()``
_TO_UNIT = 1.0 / 9007199254740992.0


class _ArrivalReplay(random.Random):
    """Each host's arrival generator, ``Random(f"{seed}:arrival:{host}")``,
    replayed from the outputs :attr:`HostStreams.outputs` holds.

    ``random()`` and ``getrandbits()`` are what every other method of
    :class:`random.Random` draws through (the extension point the
    standard library documents for subclasses), and each is spelled
    here as CPython's Mersenne Twister builds it from its 32-bit
    outputs, so ``randrange``, ``expovariate``, ``random`` and the rest
    return exactly what the seeded generator returns.  :meth:`at` points
    the generator at a host, or hands out the seeded generator itself
    to a host with no record yet (see :class:`HostStreams`).  The
    host's generator is seeded only when a draw runs past the outputs
    held: it redraws them from the start, at least twice as deep and
    :data:`_DRAW_AHEAD` deep, and a schedule that needs still more
    doubles what it drew.  Each growth stores a new array for the host:
    the one held is replaced, never extended.  One instance serves one
    schedule, on one thread.
    """

    def __new__(cls, *args):
        # the base constructor takes a seed at most (CPython 3.10 checks)
        return super().__new__(cls)

    def __init__(self, held: Dict[int, array], seed: int) -> None:
        # no base __init__: it would seed the state no draw here reads
        self.gauss_next = None
        self._held = held
        self._seed = seed
        self._host = -1
        self._words = _NO_OUTPUTS
        self._next = 0
        self._live: Optional[random.Random] = None

    def at(self, host: int) -> random.Random:
        """``host``'s arrival generator, drawing from its start."""
        words = self._held.get(host)
        if words is None:
            # the host's first schedule here: the seeded generator, at
            # a fresh draw's cost, and an empty record for the next one
            self._held.setdefault(host, _NO_OUTPUTS)
            return random.Random(f"{self._seed}:arrival:{host}")
        self._host = host
        self._words = words
        self._next = 0
        self._live = None
        return self

    def _more(self, end: int) -> array:
        """The host's outputs, at least ``end`` of them."""
        words = self._words
        live = self._live
        if live is None:
            live = self._live = random.Random(
                f"{self._seed}:arrival:{self._host}")
            words = array("I", map(live.getrandbits, repeat(
                32, max(end, 2 * len(words), _DRAW_AHEAD))))
        else:
            words = words + array("I", map(live.getrandbits, repeat(
                32, max(end, 2 * len(words)) - len(words))))
        self._words = self._held[self._host] = words
        return words

    def random(self) -> float:
        i = self._next
        end = self._next = i + 2
        words = self._words
        if end > len(words):
            words = self._more(end)
        return ((words[i] >> 5) * 67108864.0 + (words[i + 1] >> 6)) * _TO_UNIT

    def getrandbits(self, k: int) -> int:
        # the first output is the least significant word, and the last
        # keeps only its high k % 32 bits
        n = -(-k // 32)
        if n <= 0:
            if k < 0:
                raise ValueError("number of bits must be non-negative")
            return 0
        i = self._next
        end = self._next = i + n
        words = self._words
        if end > len(words):
            words = self._more(end)
        x = words[end - 1] >> (32 * n - k)
        for j in range(end - 2, i - 1, -1):
            x = x << 32 | words[j]
        return x


class _Draws:
    """Where :meth:`TrafficProcess.start` takes a host's firings from:
    its destination and arrival streams, one draw each per message."""

    __slots__ = ("pattern", "arrivals", "seed")

    def __init__(self, pattern: TrafficPattern, arrivals: ArrivalProcess,
                 seed: int) -> None:
        self.pattern = pattern
        self.arrivals = arrivals
        self.seed = seed

    def first(self, host: int, now: int) -> Tuple[int, tuple]:
        """The host's first fire time and its cursor (its two streams)."""
        dest_rng = random.Random(f"{self.seed}:{host}")
        arr_rng = random.Random(f"{self.seed}:arrival:{host}")
        return (self.arrivals.next_fire_ps(host, now, arr_rng),
                (dest_rng, arr_rng))

    def advance(self, host: int, cursor: tuple, now: int) -> tuple:
        """``(dst, next fire time, next cursor)`` of the firing at
        ``cursor``."""
        dest_rng, arr_rng = cursor
        return (self.pattern.destination(host, dest_rng),
                self.arrivals.next_fire_ps(host, now, arr_rng), cursor)


class _Replay:
    """Where :meth:`TrafficProcess.replay` takes them from: a
    schedule's columns, along each host's chain of messages.  A host
    whose chain has ended waits past the horizon and never sends."""

    __slots__ = ("t", "dst", "first_index", "nxt", "beyond")

    def __init__(self, schedule: Schedule) -> None:
        if schedule.silent:
            raise ValueError(
                f"cannot replay a schedule with {schedule.silent} silent "
                f"firings: start() draws a sequence number for each")
        self.first_index, self.nxt = schedule.chains()
        self.t = schedule.t
        self.dst = schedule.dst
        self.beyond = schedule.horizon_ps + 1

    def first(self, host: int, now: int) -> Tuple[int, int]:
        first_index = self.first_index
        i = first_index[host] if host < len(first_index) else -1
        return (self.t[i] if i >= 0 else self.beyond), i

    def advance(self, host: int, i: int, now: int) -> tuple:
        if i < 0:
            return None, None, i
        j = self.nxt[i]
        return self.dst[i], (self.t[j] if j >= 0 else self.beyond), j


class TrafficProcess:
    """Drives one (pattern, arrival process) pair for every active host.

    Depends only on the abstract :class:`~repro.sim.base.NetworkModel`
    interface (it just calls ``send``), so it works unchanged with any
    registered engine.
    """

    def __init__(self, sim: Simulator, network: NetworkModel,
                 pattern: TrafficPattern, arrivals: ArrivalProcess,
                 seed: int, max_messages: int = 0) -> None:
        if not isinstance(arrivals, ArrivalProcess):
            raise TypeError(f"arrivals must be an ArrivalProcess, "
                            f"got {type(arrivals).__name__}")
        self.sim = sim
        self.network = network
        self.pattern = pattern
        self.arrivals = arrivals
        self.seed = seed
        self.max_messages = max_messages
        self.generated = 0
        #: the RNG streams are spoken for (start, replay, pregenerate,
        #: adopt_schedule)
        self._started = False
        self._stopped = False
        #: where firings come from once sending (_Draws or _Replay)
        self._source = None
        #: pending firings, ``(t, seq, host, cursor)`` (heap)
        self._calendar: List[tuple] = []

    def start(self) -> None:
        """Schedule the first message of every active host, drawing
        each message from the host's RNG streams as it fires.

        The scalar reference path: :meth:`replay` of this process's
        :meth:`pregenerate` result drives the same run, and is what
        the runner uses."""
        if self._started:
            raise RuntimeError("traffic process already started")
        self._started = True
        self._send_from(_Draws(self.pattern, self.arrivals, self.seed))

    def replay(self, schedule: Schedule) -> None:
        """Send ``schedule`` -- which this process's workload drew, by
        :meth:`pregenerate` here or on another process of the same
        workload -- event for event as :meth:`start` would send it,
        applying ``max_messages`` in fire order.  The process may have
        drawn or adopted ``schedule`` first; it must not be sending."""
        if self._source is not None:
            raise RuntimeError("traffic process already sending")
        self._started = True
        self.generated = 0
        self._send_from(_Replay(schedule))

    def _send_from(self, source) -> None:
        """Enter every active host's first firing into the calendar.

        The hosts' next firings live in the process's own calendar, a
        heap of ``(t, seq, host, cursor)``, not on the simulator's: the
        simulator holds one entry, carrying the earliest firing's own
        ``(t, seq)``.  Each ``seq`` is drawn from the simulator's
        counter exactly where scheduling the firing as an event would
        draw it -- the first firings in ``active_hosts()`` order, each
        later one right after its predecessor's ``send`` -- so firings
        interleave with every other event as they would on the
        simulator heap, while the heap the network's events share stays
        as short as the work in flight.
        """
        self._source = source
        sim = self.sim
        now = sim.now
        calendar = self._calendar
        for host in self.pattern.active_hosts():
            t, cursor = source.first(host, now)
            calendar.append((t if t > now else now, sim.next_seq(), host,
                             cursor))
        heapify(calendar)
        if calendar:
            due = calendar[0]
            heappush(sim.heap, (due[0], due[1], self._fire, ()))

    def stop(self) -> None:
        """Cease generation; in-flight messages drain normally."""
        self._stopped = True

    def pregenerate(self, t_end_ps: int,
                    streams: Optional[HostStreams] = None
                    ) -> Schedule:
        """The full :class:`Schedule` up to ``t_end_ps``, without
        scheduling anything on the simulator.

        Produces exactly the message set :meth:`start` would send:
        each host's destination and arrival streams are seeded
        identically and consumed in the same order (see "RNG
        discipline" in the module docstring), and both streams are
        independent of simulator state, so drawing them off-line -- in
        bulk, all of a host's times then all of its destinations -- is
        equivalent.  Batch engines (:data:`~repro.sim.base
        .CAP_BATCH_INJECT`) consume the result through
        ``network.prime_schedule``, every other engine through
        :meth:`replay`.

        ``streams`` -- the :class:`HostStreams` the caller keeps for
        this process's (fabric, pattern, seed), shared by every
        schedule of that key -- supplies the destinations and replays
        each host's arrival generator (:class:`_ArrivalReplay`); without
        it both are drawn afresh.

        The schedule is the uncapped traffic: a ``max_messages`` cap
        keeps the first messages in fire order, which only depends on
        the traffic, and :meth:`replay` applies it as it sends.
        """
        if self._started:
            raise RuntimeError("traffic process already started")
        self._started = True
        now0 = self.sim.now
        seed = self.seed
        pattern = self.pattern
        hosts = pattern.graph.num_hosts
        streams = streams or HostStreams()
        take = streams.take
        arrival_rng = _ArrivalReplay(streams.outputs, seed).at
        fire_times = self.arrivals.fire_times
        # one sortable int per message, (t * H + src) * H + dst: the
        # (t, src, dst) order of the schedule is the order of the keys,
        # so a plain int sort replaces a sort of tuples
        hosts_sq = hosts * hosts
        keys: List[int] = []
        fired = 0
        for host in pattern.active_hosts():
            times = fire_times(host, now0, t_end_ps, arrival_rng(host))
            base = host * hosts
            fired += len(times)
            keys.extend([t * hosts_sq + base + d
                         for t, d in zip(times, take(pattern, seed, host,
                                                     len(times)))
                         if d is not None and d != host])
        keys.sort()
        t_src = list(map(floordiv, keys, repeat(hosts)))
        schedule = Schedule(
            array("q", map(floordiv, t_src, repeat(hosts))),
            array("i", map(mod, t_src, repeat(hosts))),
            array("i", map(mod, keys, repeat(hosts))),
            horizon_ps=t_end_ps, silent=fired - len(keys))
        self.generated = len(schedule)
        return schedule

    def adopt_schedule(self, schedule: Schedule) -> None:
        """Account for a schedule this process *would* have produced
        and a batch engine is primed with.

        Deterministic workloads are pure functions of their
        configuration, so the runner memoises :meth:`pregenerate`
        results across runs sharing a seed (paired policy comparisons,
        benchmark repeats).  On a cache hit it calls this instead: the
        process marks itself started -- the schedule's RNG draws are
        morally consumed -- and reports the schedule's size as its
        generation count, exactly as the fresh call would have.  A
        primed engine takes the whole schedule, so a ``max_messages``
        cap is refused here (a capped run replays).
        """
        if self._started:
            raise RuntimeError("traffic process already started")
        if self.max_messages:
            raise RuntimeError(
                "adopt_schedule() cannot honour a global max_messages cap")
        self._started = True
        self.generated = len(schedule)

    def _fire(self) -> None:
        """The calendar's earliest firing: one message of its host, then
        that host's next firing, then the simulator entry for whichever
        firing is now earliest.  The one firing body of :meth:`start`
        and :meth:`replay`; only their source of a host's next
        (destination, time) differs."""
        calendar = self._calendar
        if self._stopped or (self.max_messages
                             and self.generated >= self.max_messages):
            calendar.clear()        # neither condition ever reverts
            return
        due = heappop(calendar)
        host = due[2]
        sim = self.sim
        now = sim.now
        dst, t, cursor = self._source.advance(host, due[3], now)
        if dst is not None and dst != host:
            self.network.send(host, dst)
            self.generated += 1
        if t is not None:
            heappush(calendar, (t if t > now else now, sim.next_seq(), host,
                                cursor))
        if calendar:
            due = calendar[0]
            heappush(sim.heap, (due[0], due[1], self._fire, ()))
