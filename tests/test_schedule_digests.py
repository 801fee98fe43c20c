"""Golden digests of pregenerated traffic schedules.

``TrafficProcess.pregenerate`` is a pure function of (graph, workload
spec, interval, seed, horizon): any rewrite of how it draws -- bulk
per-host hooks, a columnar result -- must reproduce every ``(t, src,
dst)`` entry in the same order.  This suite pins the sha-256 of the
listing ``"t src dst\\n"...`` for

* the end-to-end benchmark's traffic (8x8 torus / torus-express /
  CPLANT, uniform + constant, seeds 1 and 7, the lowest and the
  saturating rate of each Figure 7 grid, 1x and 4x ``PAPER`` windows);
* one spec per other registered pattern and per other arrival process
  on a 64-host 4x4 torus (power of two *and* of four, so every
  permutation pattern is defined), ``TEST`` windows.

The constants were captured on the commit *before* the bulk generation
hooks and the columnar ``Schedule`` landed; regenerate them only for an
intentional change of the traffic itself::

    PYTHONPATH=src python tests/test_schedule_digests.py --regen

The listings above are sorted, so they cannot see the order in which
the event-driven path fires equal-time messages.  Two more digests per
registered arrival process pin that tie order (:data:`EVENT_GOLDEN`):
the *unsorted* ``(t, src, dst)`` send list of
``TrafficProcess.start()``, and the ``RunSummary`` of a 4x4-torus
``itb``/rr packet-engine run, whose every timestamp depends on which
of two simultaneous events runs first.  They were captured before the
traffic calendar moved pending ticks off the simulator heap.
"""

import functools
import hashlib

import pytest

from repro.canon import digest
from repro.config import SimConfig
from repro.experiments.profiles import PAPER, TEST
from repro.experiments.runner import run_simulation
from repro.sim.engine import Simulator
from repro.topology import build
from repro.traffic import (ARRIVALS, PATTERNS, TrafficProcess, make_workload,
                           per_host_interval_ps)

MESSAGE_BYTES = 512

SMALL = {"rows": 4, "cols": 4, "hosts_per_switch": 4}
FABRICS = {
    "torus": ("torus", {}),
    "torus-express": ("torus-express", {}),
    "cplant": ("cplant", {}),
    "torus-4x4-h4": ("torus", SMALL),
}

#: (fabric, lowest rate, saturating rate) of the Figure 7a/7b/7c grids
FIG7_RATES = (("torus", 0.004, 0.038),
              ("torus-express", 0.02, 0.15),
              ("cplant", 0.015, 0.12))

#: kwargs that keep every non-default spec interesting on 64 hosts
PATTERN_KWARGS = {"hotspot": {"hotspot": 5, "fraction": 0.2},
                  "incast": {"target": 9},
                  "local": {"radius": 1}}


@functools.lru_cache(maxsize=None)
def _graph(fabric: str):
    name, kwargs = FABRICS[fabric]
    return build(name, **kwargs)


def cases():
    """label -> (fabric, traffic, traffic kwargs, arrival, rate, seed,
    horizon in ps)."""
    out = {}
    for fabric, low, sat in FIG7_RATES:
        for seed in (1, 7):
            for rate in (low, sat):
                for windows in (1, 4):
                    t_end = windows * (PAPER.warmup_ps + PAPER.measure_ps)
                    out[f"{fabric}/uniform+constant/r{rate}/s{seed}"
                        f"/x{windows}"] = (fabric, "uniform", (), "constant",
                                           rate, seed, t_end)
    t_end = TEST.warmup_ps + TEST.measure_ps
    for pattern in PATTERNS.names():
        if pattern == "uniform":
            continue
        kwargs = tuple(sorted(PATTERN_KWARGS.get(pattern, {}).items()))
        out[f"small/{pattern}+constant"] = ("torus-4x4-h4", pattern, kwargs,
                                            "constant", 0.3, 3, t_end)
    for arrival in ARRIVALS.names():
        if arrival == "constant":
            continue
        out[f"small/uniform+{arrival}"] = ("torus-4x4-h4", "uniform", (),
                                           arrival, 0.3, 3, t_end)
    return out


def schedule_digest(case) -> str:
    fabric, traffic, kwargs, arrival, rate, seed, t_end = case
    g = _graph(fabric)
    interval = per_host_interval_ps(rate, MESSAGE_BYTES, g)
    pattern, arrivals = make_workload(g, traffic, dict(kwargs), arrival, {},
                                      interval)
    # pregenerate never touches the network, only ``sim.now``
    schedule = TrafficProcess(Simulator(), None, pattern, arrivals,
                              seed=seed).pregenerate(t_end)
    listing = "".join(f"{t} {s} {d}\n" for t, s, d in schedule)
    return f"{len(schedule)}:" + hashlib.sha256(listing.encode()).hexdigest()


GOLDEN = {
    'torus/uniform+constant/r0.004/s1/x1':
        '366:d945d84e44053393ffbcd8dffda189a5f9eaa53509c00f185508585603d174e7',
    'torus/uniform+constant/r0.004/s1/x4':
        '1500:5c7257ccdccd5fd684bb2b108d29948f74762e4184699a31f10abfb4e8f070be',
    'torus/uniform+constant/r0.038/s1/x1':
        '3562:fd50ba7048da34c91262af31b4e09eff71cbafd5dcf3896a81c379b2031c7b08',
    'torus/uniform+constant/r0.038/s1/x4':
        '14245:526d09ce6f0c2e0ffb7eec253b41f9b619debc91ef3597bbe6c8849382263310',
    'torus/uniform+constant/r0.004/s7/x1':
        '390:e47af99406d6b9aa11770a107f3015e09922b76b0399254619a09868210b7035',
    'torus/uniform+constant/r0.004/s7/x4':
        '1511:5621501c22a7736f39a0211c9a65c130309db0ad22dd6e99f5f521d255141366',
    'torus/uniform+constant/r0.038/s7/x1':
        '3570:98b77bd641478f0f3804a7512cea57c9ce99c7d903c07875e05db6dda6469100',
    'torus/uniform+constant/r0.038/s7/x4':
        '14254:c56a70112a0fad0fc4b01d943308923cce76a68260117299eb03c53b911c1649',
    'torus-express/uniform+constant/r0.02/s1/x1':
        '1859:4026616d09c0fcb6ced70af6752e0fccf86d07e8e039f3373e81cd3841e83563',
    'torus-express/uniform+constant/r0.02/s1/x4':
        '7486:c0bc46e0d6da408778e1612a36882203cbc031cf372a80635392df5e16fdaab9',
    'torus-express/uniform+constant/r0.15/s1/x1':
        '14053:9a38c866af2b06b4c1167d8c2505c4d9fa3ede61f53cacce6fb174180cf9c8dc',
    'torus-express/uniform+constant/r0.15/s1/x4':
        '56241:12228111259d07897f5077ba1a9734511da18e71f8647adf2960c04fe5633bf6',
    'torus-express/uniform+constant/r0.02/s7/x1':
        '1864:88f37bec81dab3d8e090fc6699e2ab2625864678b9f7202b8958696e50947ed6',
    'torus-express/uniform+constant/r0.02/s7/x4':
        '7490:d6ecdad475675dfde6188e881918f01e40661fd4dc230f9184a33ee0960a446b',
    'torus-express/uniform+constant/r0.15/s7/x1':
        '14050:64ff0c5a744fc0aeb6d9382f03d59c09d3a06454eb9f577fbabd4a63f629e863',
    'torus-express/uniform+constant/r0.15/s7/x4':
        '56258:3cee9bc5d9ddbb00e139b356ad43409d61a95458acc8b64f5fba2faeaf989812',
    'cplant/uniform+constant/r0.015/s1/x1':
        '1106:8b1a0bf37fede12d9c7dbc3780c52cf7346f6cf12b734617d007f5e9855f339c',
    'cplant/uniform+constant/r0.015/s1/x4':
        '4393:58d273e2cb1cfabf670989e6a6eaaa6fd851410d986a30f2b5310a706e575956',
    'cplant/uniform+constant/r0.12/s1/x1':
        '8789:d7235d6d3e2877c7ce642916d47783b205c44a5d11558f14608c605d4066fd73',
    'cplant/uniform+constant/r0.12/s1/x4':
        '35150:1fe31f83360bfc621851689b7edb67d1dff387f0e2530001e9f544bbcc9526b2',
    'cplant/uniform+constant/r0.015/s7/x1':
        '1082:d195879d69bc2cd9410e21e66d6ba3e56914967522eac9015b25fa12ae6a5f33',
    'cplant/uniform+constant/r0.015/s7/x4':
        '4396:ca2d65001fb4a7ecca6571a6a1a4e6d201367fa3135d1e246fd1ca8980f61ec2',
    'cplant/uniform+constant/r0.12/s7/x1':
        '8789:06cc8e5b9e1a1cb59a124a754ec103e9d17d102af70ea4f0a6bbedc7233184cc',
    'cplant/uniform+constant/r0.12/s7/x4':
        '35156:e2c3e67a1e7af2671b638acece6267a5fc183f5c4d393f175230dcf2cfd6e824',
    'small/bit-reversal+constant':
        '663:ab09d0b79eb8709386bb1dce3d964df2c4cdbb1c7066d313e8eeb82e0bfe6d83',
    'small/complement+constant':
        '758:412dfd9436810445ba61cec901db67173892a4cce184ddb2316d426ef71141b5',
    'small/hotspot+constant':
        '758:e89f8850da934c3c08653be76010a18b65b6add878d933724ae4dcac33978f39',
    'small/incast+constant':
        '746:5e217e800dbd0e2b61e7a7b38407eb97f1a43df31b0eb06c0bee90648c06acaa',
    'small/local+constant':
        '758:32fb6ec6cde3e72ff5aa59138d7fab15e3ab6ec511a5c32098e0179733160140',
    'small/transpose+constant':
        '664:f845d0e343f1e3edf780d36691ffb778990df8b9f58a39444892b1ad82e3ef39',
    'small/uniform+adversarial':
        '1024:3b105d4b983200d675dcaf3f53207f4c758f11d0561527404ce919ce107c3d44',
    'small/uniform+onoff':
        '778:8af8c94cda7b93c20977506d6724ad32354570215a1a186a9a4f26a53d71a301',
    'small/uniform+poisson':
        '733:bd72e0e3d65d1d98a9ff443db6de28bd03a5237ed95a2b734bf011661adaaa95',
}

#: collected once at import, when only the shipped specs are registered
CASES = cases()


class _RecordingNetwork:
    """The one method ``TrafficProcess`` calls on a network."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def send(self, src, dst):
        self.sent.append((self.sim.now, src, dst))


def send_order_digest(arrival: str) -> str:
    """sha-256 of what ``start()`` sends, in the order it sends it."""
    g = _graph("torus-4x4-h4")
    interval = per_host_interval_ps(0.3, MESSAGE_BYTES, g)
    pattern, arrivals = make_workload(g, "uniform", {}, arrival, {},
                                      interval)
    sim = Simulator()
    net = _RecordingNetwork(sim)
    TrafficProcess(sim, net, pattern, arrivals, seed=3).start()
    sim.run_until(TEST.warmup_ps + TEST.measure_ps)
    listing = "".join(f"{t} {s} {d}\n" for t, s, d in net.sent)
    return f"{len(net.sent)}:" + hashlib.sha256(listing.encode()).hexdigest()


def run_summary_digest(arrival: str) -> str:
    """sha-256 of the canonical ``RunSummary`` of a contended packet
    run on the 4x4 torus."""
    config = SimConfig(engine="packet", topology="torus",
                       topology_kwargs={"rows": 4, "cols": 4,
                                        "hosts_per_switch": 2},
                       routing="itb", policy="rr", traffic="uniform",
                       arrival=arrival, injection_rate=0.06,
                       message_bytes=MESSAGE_BYTES, seed=5,
                       warmup_ps=TEST.warmup_ps,
                       measure_ps=TEST.measure_ps)
    return digest(run_simulation(config).to_dict())


EVENT_GOLDEN = {
    'adversarial': {
        'sends': '1024:3b105d4b983200d675dcaf3f53207f4c758f11d0561527404ce9'
                 '19ce107c3d44',
        'summary': '90d1001f5056a755a5eec3fb43c1f75a8871134b34616239169aeb'
                   '81c2f150c6'},
    'constant': {
        'sends': '758:4d3ac3d6ff04f1fb8581937f3b7bc8f8d128a4bb65ac7f06da269'
                 '5f7b878493f',
        'summary': '3367e995dfa8472ed67a25637df5378e5cff015aae39cc3e31090c'
                   'b759e5efc1'},
    'onoff': {
        'sends': '778:8af8c94cda7b93c20977506d6724ad32354570215a1a186a9a4f2'
                 '6a53d71a301',
        'summary': '957bb5d6821f6fc1520b935675ed4a4f1980338d456bb126014993'
                   'cd19800cc7'},
    'poisson': {
        'sends': '733:bd72e0e3d65d1d98a9ff443db6de28bd03a5237ed95a2b734bf0'
                 '11661adaaa95',
        'summary': 'bf7cc28b6c5558004c87d06438dcc17c16f4b956db2339ebbc28d3'
                   '84a78fc7bc'},
}


@pytest.mark.parametrize("label", list(CASES))
def test_schedule_digest(label):
    assert schedule_digest(CASES[label]) == GOLDEN[label]


def test_every_registered_spec_is_pinned():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("arrival", ARRIVALS.names())
def test_event_path_send_order(arrival):
    assert send_order_digest(arrival) == EVENT_GOLDEN[arrival]["sends"]


@pytest.mark.parametrize("arrival", ARRIVALS.names())
def test_event_path_run_summary(arrival):
    assert run_summary_digest(arrival) == EVENT_GOLDEN[arrival]["summary"]


def test_every_arrival_process_is_pinned_on_the_event_path():
    assert set(ARRIVALS.names()) == set(EVENT_GOLDEN)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import pprint
    import sys

    if "--regen" in sys.argv:
        pprint.pprint({k: schedule_digest(c) for k, c in CASES.items()},
                      sort_dicts=False)
        pprint.pprint({a: {"sends": send_order_digest(a),
                           "summary": run_summary_digest(a)}
                       for a in ARRIVALS.names()}, sort_dicts=False)
