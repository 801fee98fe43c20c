"""Extension: dimension-order routing as a third baseline on a mesh.

On an 8x8 mesh (the torus without wraparound), XY dimension-order
routing is minimal and deadlock-free without virtual channels.
Comparing DOR / UP/DOWN / ITB-RR there isolates what drives the paper's
torus result: **minimal-path diversity from the wraparound links**.  On
a mesh there is little such diversity, so ITB routing only matches
up*/down* (~0.018 flits/ns/switch knee), while rootless DOR -- whose XY
rule spreads load evenly with no spanning-tree hot corner -- clearly
beats both (~0.026).  Together with Figure 7a this brackets the
mechanism: ITB wins exactly where alternative minimal paths exist for
it to exploit.
"""

from repro.config import SimConfig
from repro.experiments.sweep import sweep_rates

MESH_KW = {"rows": 8, "cols": 8, "hosts_per_switch": 8}
RATES = [0.006, 0.010, 0.014, 0.018, 0.022, 0.027, 0.032]


def test_mesh_three_way_comparison(benchmark, profile):
    def sweep():
        out = {}
        base = SimConfig(topology="mesh", topology_kwargs=MESH_KW,
                         traffic="uniform",
                         warmup_ps=profile.warmup_ps,
                         measure_ps=profile.measure_ps)
        # full grid: the conclusion is a three-way knee comparison
        out["UP/DOWN"] = sweep_rates(
            base.with_overrides(routing="updown", policy="sp"), RATES)
        out["ITB-RR"] = sweep_rates(
            base.with_overrides(routing="itb", policy="rr"), RATES)
        out["DOR"] = sweep_rates(
            base.with_overrides(routing="dor", policy="sp"), RATES)
        return out

    curves = benchmark.pedantic(sweep, rounds=1, iterations=1)
    thr = {k: v.throughput() for k, v in curves.items()}
    for k, v in thr.items():
        benchmark.extra_info[f"throughput[{k}]"] = round(v, 4)

    # rootless DOR beats both spanning-tree-based schemes on the mesh
    assert thr["DOR"] >= 1.15 * thr["UP/DOWN"], thr
    assert thr["DOR"] >= 1.15 * thr["ITB-RR"], thr
    # without wraparound path diversity, ITB only matches UP/DOWN --
    # the ITB advantage on the torus comes from the alternative minimal
    # paths the wraparound provides
    assert thr["ITB-RR"] >= 0.9 * thr["UP/DOWN"], thr
    assert thr["ITB-RR"] <= 1.35 * thr["UP/DOWN"], thr
