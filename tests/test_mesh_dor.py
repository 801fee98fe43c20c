"""Mesh topology and dimension-order routing (extension)."""

import pytest

from repro.config import SimConfig
from repro.runner import run_simulation
from repro.routing.dor import compute_dor_tables, dor_path
from repro.sim.engine import DeadlockError
from repro.topology import build_mesh, build_torus, check_topology
from repro.topology.torus import switch_coords
from repro.units import ns


@pytest.fixture(scope="module")
def mesh44():
    return build_mesh(rows=4, cols=4, hosts_per_switch=2)


@pytest.fixture(scope="module")
def dor44(mesh44):
    return compute_dor_tables(mesh44, 4, 4, wrap=False)


class TestMesh:
    def test_structure(self, mesh44):
        check_topology(mesh44)
        assert mesh44.num_links == 24  # 2*4*3
        corners = [0, 3, 12, 15]
        assert all(mesh44.degree(c) == 2 for c in corners)
        assert mesh44.degree(5) == 4  # interior

    def test_no_wraparound(self, mesh44):
        assert mesh44.link_between(0, 3) is None
        assert mesh44.link_between(0, 12) is None

    def test_distances_manhattan(self, mesh44):
        for src in mesh44.switches():
            dist = mesh44.shortest_distances(src)
            r0, c0 = switch_coords(src, 4)
            for dst in mesh44.switches():
                r1, c1 = switch_coords(dst, 4)
                assert dist[dst] == abs(r0 - r1) + abs(c0 - c1)


class TestDorPaths:
    def test_path_is_x_then_y(self, mesh44):
        path = dor_path(mesh44, 0, 10, 4, 4, wrap=False)
        # 0=(0,0) -> 10=(2,2): east twice, then south twice
        assert path == (0, 1, 2, 6, 10)

    def test_paths_minimal_on_mesh(self, mesh44):
        for src in mesh44.switches():
            dist = mesh44.shortest_distances(src)
            for dst in mesh44.switches():
                p = dor_path(mesh44, src, dst, 4, 4, wrap=False)
                assert len(p) - 1 == dist[dst]
                assert p[0] == src and p[-1] == dst

    def test_wrap_paths_minimal_on_torus(self):
        g = build_torus(rows=4, cols=4, hosts_per_switch=1)
        for src in g.switches():
            dist = g.shortest_distances(src)
            for dst in g.switches():
                p = dor_path(g, src, dst, 4, 4, wrap=True)
                assert len(p) - 1 == dist[dst]

    def test_tables_cover_all_pairs(self, mesh44, dor44):
        n = mesh44.num_switches
        assert len(dor44.routes) == n * n
        assert dor44.max_alternatives() == 1

    def test_grid_mismatch_rejected(self, mesh44):
        with pytest.raises(ValueError):
            compute_dor_tables(mesh44, 3, 4)


class TestDeadlockBehaviour:
    def test_dor_on_mesh_never_deadlocks(self, mesh44, dor44):
        """The X->Y turn restriction makes mesh DOR deadlock-free even
        under heavy overload."""
        cfg = SimConfig(
            topology="mesh",
            topology_kwargs={"rows": 4, "cols": 4, "hosts_per_switch": 2},
            routing="itb", traffic="uniform", injection_rate=0.4,
            warmup_ps=ns(300_000), measure_ps=ns(1_500_000), seed=2)
        summary = run_simulation(cfg, tables=dor44,
                                 watchdog_ps=ns(100_000))
        assert summary.messages_delivered > 0

    def test_dor_on_torus_deadlocks(self):
        """With wraparound, DOR's ring dependencies deadlock -- the
        reason Myrinet cannot just use dimension-order routing and the
        motivation for deadlock-free schemes like up*/down* + ITB."""
        g_kwargs = {"rows": 1, "cols": 4, "hosts_per_switch": 2}
        from repro.runner import get_graph
        g = get_graph("torus", g_kwargs)
        tables = compute_dor_tables(g, 1, 4, wrap=True)
        with pytest.raises(AssertionError,
                           match="channel dependency cycle"):
            tables.validate(g)    # refused statically, too
        cfg = SimConfig(topology="torus", topology_kwargs=g_kwargs,
                        routing="itb", traffic="uniform",
                        injection_rate=0.5,
                        warmup_ps=ns(500_000), measure_ps=ns(2_000_000),
                        seed=3)
        with pytest.raises(DeadlockError):
            run_simulation(cfg, tables=tables, watchdog_ps=ns(100_000))


class TestMeshComparison:
    def test_dor_competitive_with_updown_on_mesh(self, mesh44, dor44):
        """On a mesh both DOR and up*/down* are minimal-capable; DOR
        should be at least comparable in accepted traffic at moderate
        load (it has no root bottleneck)."""
        base = SimConfig(
            topology="mesh",
            topology_kwargs={"rows": 4, "cols": 4, "hosts_per_switch": 2},
            traffic="uniform", injection_rate=0.05,
            warmup_ps=ns(40_000), measure_ps=ns(200_000))
        dor = run_simulation(base.with_overrides(routing="itb"),
                             tables=dor44)
        ud = run_simulation(base.with_overrides(routing="updown"))
        assert dor.accepted_flits_ns_switch >= \
            0.9 * ud.accepted_flits_ns_switch
