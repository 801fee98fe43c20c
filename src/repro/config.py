"""Configuration dataclasses for the Myrinet network model and simulation runs.

:class:`MyrinetParams` carries every hardware timing constant used by the
paper's evaluation (Sections 4.3--4.5).  The defaults reproduce the paper
exactly; individual fields can be overridden for the sensitivity/ablation
studies in :mod:`repro.experiments.ablations`.

:class:`SimConfig` describes one simulation run: topology, routing scheme,
path-selection policy, traffic pattern, injection rate, message length and
the warm-up / measurement windows.  :data:`RUN_OPTIONS` names what else
about a run is plain data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .canon import PlainData
from .traffic.defaults import DEFAULT_ARRIVAL, DEFAULT_PATTERN
from .units import KB, ns


@dataclass(frozen=True)
class MyrinetParams(PlainData):
    """Hardware timing/sizing constants of the simulated Myrinet network.

    All times are integer picoseconds (see :mod:`repro.units`), all sizes
    are bytes.  One flit is one byte; links are one flit wide.
    """

    #: time for one flit to be injected into a physical channel (160 MB/s)
    flit_cycle_ps: int = ns(6.25)
    #: propagation delay of one 10 m LAN cable (4.92 ns/m * 10 m)
    link_prop_ps: int = ns(49.2)
    #: first-flit latency through a switch once the output port is granted
    routing_delay_ps: int = ns(150.0)
    #: slack (input) buffer capacity per switch port, bytes
    slack_buffer_bytes: int = 80
    #: stop&go: send *stop* when the input buffer fills over this level
    stop_threshold_bytes: int = 56
    #: stop&go: send *go* when the input buffer empties below this level
    go_threshold_bytes: int = 40
    #: time for an in-transit host to recognise an in-transit packet
    #: (44 bytes received at link rate)
    itb_detect_ps: int = ns(275.0)
    #: time to program the DMA that re-injects an in-transit packet
    #: (32 additional bytes received)
    itb_dma_setup_ps: int = ns(200.0)
    #: capacity of the in-transit buffer pool at each interface card
    itb_pool_bytes: int = 90 * KB
    #: extra delay applied to an in-transit packet when the NIC pool
    #: overflows and the packet must be staged through host memory
    itb_overflow_penalty_ps: int = ns(2000.0)
    #: NIC buffer memory (LANai card, informational)
    nic_memory_bytes: int = 4 * 1024 * KB
    #: number of ports per switch
    switch_ports: int = 16
    #: maximum number of alternative routes kept per source-destination pair
    max_routes_per_pair: int = 10

    def with_overrides(self, **kw: Any) -> "MyrinetParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)

    @property
    def header_type_bytes(self) -> int:
        """Bytes of packet-type information carried after the route flits."""
        return 2

    def header_bytes(self, switch_hops: int) -> int:
        """Header length for a path traversing ``switch_hops`` switches.

        Myrinet headers hold one output-link flit per switch traversed
        (consumed hop by hop) plus the payload type field.
        """
        return switch_hops + self.header_type_bytes

    def validate(self) -> None:
        """Raise :class:`ValueError` on physically meaningless settings."""
        if self.flit_cycle_ps <= 0:
            raise ValueError("flit_cycle_ps must be positive")
        if self.link_prop_ps < 0:
            raise ValueError("link_prop_ps must be non-negative")
        if self.routing_delay_ps < 0:
            raise ValueError("routing_delay_ps must be non-negative")
        if not (0 < self.go_threshold_bytes <= self.stop_threshold_bytes
                <= self.slack_buffer_bytes):
            raise ValueError(
                "need 0 < go <= stop <= slack buffer capacity, got "
                f"go={self.go_threshold_bytes} stop={self.stop_threshold_bytes} "
                f"slack={self.slack_buffer_bytes}")
        if self.switch_ports < 2:
            raise ValueError("switches need at least 2 ports")
        if self.max_routes_per_pair < 1:
            raise ValueError("max_routes_per_pair must be >= 1")


#: The exact parameter set used throughout the paper's evaluation.
PAPER_PARAMS = MyrinetParams()


@dataclass(frozen=True)
class SimConfig(PlainData):
    """Full description of one simulation run.

    Every by-name field names an entry of a
    :class:`repro.registry.Registry`, and :meth:`validate` checks it
    against that registry; ``repro info``, ``repro schemes`` and
    ``repro traffic`` list what is registered.  ``topology`` names a
    builder in :data:`repro.topology.TOPOLOGIES` (the paper's are
    ``"torus"``, ``"torus-express"`` and ``"cplant"``) and
    ``topology_kwargs`` are forwarded to it.  ``routing`` names a scheme
    in :data:`repro.routing.schemes.SCHEMES` (``"updown"`` and ``"itb"``
    are the paper's, the rest extension rivals) and ``policy`` the path
    selection among alternatives, from
    :data:`repro.routing.policies.POLICIES` (``"sp"`` and ``"rr"`` are
    the paper's; single-path schemes ignore it).

    ``traffic`` names a destination pattern and ``arrival`` an arrival
    process, both registered in :mod:`repro.traffic.registry`;
    ``traffic_kwargs`` / ``arrival_kwargs`` are validated against the
    registry's declared keyword arguments, so new workloads need no
    config edits.

    ``injection_rate`` is offered load in **flits/ns/switch**, the unit of
    the paper's plots; each host generates fixed-size messages at that
    mean rate (the arrival process redistributes the firings in time but
    preserves the mean) so the per-switch aggregate equals this value.

    ``engine`` names a backend in :data:`repro.sim.engines.ENGINES`:
    ``"packet"`` (the event-driven wormhole model, the default),
    ``"flit"`` (explicit slack buffers and stop&go; orders of magnitude
    slower, for validation on small networks) or ``"array"`` (batch
    ticks over flat arrays; fastest, optimistic under contention).  All
    expose the same :class:`~repro.sim.base.NetworkModel` surface and
    declare which capabilities (link statistics, ITB pool accounting,
    tracing, ...) they support.
    """

    topology: str = "torus"
    topology_kwargs: Mapping[str, Any] = field(default_factory=dict)
    routing: str = "updown"
    policy: str = "sp"
    traffic: str = DEFAULT_PATTERN
    traffic_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: arrival process registered in :mod:`repro.traffic` (``"constant"``
    #: is the paper's load model; ``"poisson"``, ``"onoff"`` and
    #: ``"adversarial"`` redistribute the same mean rate in time)
    arrival: str = DEFAULT_ARRIVAL
    arrival_kwargs: Mapping[str, Any] = field(default_factory=dict)
    injection_rate: float = 0.01
    message_bytes: int = 512
    params: MyrinetParams = PAPER_PARAMS
    seed: int = 1
    warmup_ps: int = ns(100_000)
    measure_ps: int = ns(400_000)
    #: optional hard cap on generated messages (0 = unlimited)
    max_messages: int = 0
    #: simulation backend (see the class docstring)
    engine: str = "packet"

    def validate(self) -> None:
        """Sanity-check the run description."""
        self.params.validate()
        if self.injection_rate <= 0:
            raise ValueError("injection_rate must be positive")
        if self.message_bytes <= 0:
            raise ValueError("message_bytes must be positive")
        if self.warmup_ps < 0 or self.measure_ps <= 0:
            raise ValueError("warmup must be >= 0 and measure window > 0")
        # every by-name field is checked against its registry, so a
        # name registered at runtime validates with no edit here.
        # Imported lazily: repro.routing, repro.traffic and repro.sim
        # all import this module at load time.
        from .routing.policies import POLICIES
        from .routing.schemes import SCHEMES
        from .sim.engines import ENGINES
        from .topology import TOPOLOGIES
        from .traffic.registry import validate_workload
        TOPOLOGIES.get(self.topology)
        SCHEMES.get(self.routing)
        POLICIES.get(self.policy)
        validate_workload(self.traffic, self.traffic_kwargs,
                          self.arrival, self.arrival_kwargs)
        ENGINES.get(self.engine)

    def label(self) -> str:
        """Short human-readable label (used in reports).

        Delegates to the scheme registry so new schemes carry their own
        labels; unregistered names (tests) fall back to the raw name.
        """
        from .routing.schemes import scheme_label
        try:
            return scheme_label(self.routing, self.policy)
        except ValueError:
            return self.routing

    def workload_label(self) -> str:
        """Label of the traffic side, e.g. ``hotspot@3(10%)+onoff``.

        Delegates to the traffic registry so new patterns/processes
        carry their own labels; unregistered names (tests) fall back to
        the raw pattern name.
        """
        from .traffic.registry import workload_label
        try:
            return workload_label(self.traffic, self.traffic_kwargs,
                                  self.arrival, self.arrival_kwargs)
        except ValueError:
            return self.traffic

    def with_overrides(self, **kw: Any) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


#: the options of :func:`repro.experiments.runner.run_simulation` that
#: are plain data: with a :class:`SimConfig` they describe a point in
#: full, so they may cross a process, disk or socket boundary (a
#: ``Point``'s ``runner_kwargs``, a store key, a ``task`` frame, a
#: ``repro serve`` spec).  Its other keywords -- ``tables``, ``perf``,
#: ``profile_path`` -- hold live objects or touch the local machine
#: and exist in-process only.
RUN_OPTIONS = ("collect_links", "collect_percentiles", "check_invariants",
               "root", "watchdog_ps", "fault_plan", "reliable", "reconfig")


def check_run_options(options: Any) -> None:
    """Raise :class:`ValueError` unless ``options`` is a mapping that
    names only :data:`RUN_OPTIONS` and whose ``fault_plan``,
    ``reliable`` and ``reconfig`` decode (``None``, a bool, a record
    or its dict form)."""
    if not isinstance(options, Mapping):
        raise ValueError(f"run options must be a mapping, got {options!r}")
    refused = sorted(set(options) - set(RUN_OPTIONS), key=str)
    if refused:
        raise ValueError(
            f"not plain-data run options: {refused} (declared: "
            f"{', '.join(RUN_OPTIONS)}); tables=, perf= and profile_path= "
            "are in-process only -- call run_simulation() directly")
    # imported lazily: repro.sim imports this module at load time
    from .sim import FaultPlan, ReconfigParams, ReliableParams
    for name, cls in (("fault_plan", FaultPlan), ("reliable", ReliableParams),
                      ("reconfig", ReconfigParams)):
        value = options.get(name)
        if isinstance(value, Mapping):
            cls.from_dict(value)
        elif not isinstance(value, (bool, type(None), cls)):
            raise ValueError(f"{name} must be a {cls.__name__} or its "
                             f"dict form, got {value!r}")
