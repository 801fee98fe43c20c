"""Shared fixtures: small topologies and fast profiles.

Unit tests run on scaled-down networks (4x4 torus with 2 hosts per
switch, tiny irregular graphs) so the whole suite stays fast; the
paper-scale 512-host networks are exercised by the integration tests
and ``test_paper_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.experiments.runner import clear_caches
from repro.orchestrator import Executor
from repro.orchestrator.lease import TASKS
from repro.sim import NetworkModel
from repro.topology import (build_cplant, build_irregular, build_torus,
                            build_torus_express)
from repro.units import ns


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Isolate the runner's graph/table caches between tests."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(scope="session")
def torus44():
    """4x4 torus, 2 hosts/switch (32 hosts) -- the unit-test workhorse."""
    return build_torus(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="session")
def torus88():
    """The paper's 8x8 torus with 8 hosts/switch (512 hosts)."""
    return build_torus()


@pytest.fixture(scope="session")
def express44():
    """4x4 express torus, 2 hosts/switch."""
    return build_torus_express(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="session")
def cplant():
    """The paper's CPLANT network (50 switches, 400 hosts)."""
    return build_cplant()


@pytest.fixture(scope="session")
def irregular16():
    """16-switch random irregular network (extension substrate)."""
    return build_irregular(num_switches=16, hosts_per_switch=2, seed=3)


#: what no payload, frame or spec may hand to ``run_simulation``: its
#: in-process-only keywords, two it no longer has, one it never had
UNDECLARED_RUN_OPTIONS = ("tables", "perf", "profile_path", "graph",
                          "sort_by_itbs", "no_such_option")


def task_kinds(*fns):
    """A module-scoped autouse fixture that registers throwaway task
    kinds, each under its function's name, for the tests of the module
    that binds it; workers those tests fork inherit the registrations."""

    @pytest.fixture(autouse=True, scope="module")
    def registered():
        for fn in fns:
            TASKS.register(fn, fn.__name__)
        yield
        for fn in fns:
            TASKS.unregister(fn.__name__)

    return registered


class RecordingExecutor(Executor):
    """An executor that keeps every ``(kind, payload)`` it is handed,
    in order: what a study sends across the worker boundary."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sent = []

    def run_tasks(self, fn, payloads, labels=None):
        self.sent += [(fn, payload) for payload in payloads]
        return super().run_tasks(fn, payloads, labels)

    def payloads(self, kind):
        return [payload for fn, payload in self.sent if fn == kind]


class BareNetwork(NetworkModel):
    """An engine declaring no capability: it delivers every packet the
    instant it is injected and implements only the abstract hooks."""

    name = "bare"

    def _build(self):
        pass

    def _inject(self, pkt):
        pkt.injected_ps = self.sim.now
        self._finish_delivery(pkt, self.sim.now)

    def _reset_engine_stats(self):
        pass

    def link_flit_counts(self):
        return []

    def _audit_engine(self, check):
        pass

    def _audit_drained(self, check):
        pass

    def _stall_snapshot(self):
        return {}


def small_config(**overrides) -> SimConfig:
    """A fast 4x4-torus run description for integration tests."""
    base = dict(
        topology="torus",
        topology_kwargs={"rows": 4, "cols": 4, "hosts_per_switch": 2},
        routing="itb",
        policy="rr",
        traffic="uniform",
        injection_rate=0.01,
        warmup_ps=ns(20_000),
        measure_ps=ns(80_000),
        seed=5,
    )
    base.update(overrides)
    return SimConfig(**base)
