"""Golden-value pin of the simulation core's observable behaviour.

The hot-path optimisations (pre-resolved route-leg channel caches,
allocation-free event dispatch) must not change a single simulated
timestamp.  This suite pins, for a fixed-seed matrix of
{packet, flit, array} x {updown, itb-sp, itb-rr} on the
validation-size torus, every scalar ``RunSummary`` field plus a digest of the
per-directed-channel flit counts and reserved times.  Any rewrite of
the engines that perturbs event ordering or timing fails here with a
field-level diff.

The values were captured after the traffic-fabric refactor separated
the destination and arrival RNG streams (an intentional semantic
change: per-host destination sequences are now rate-invariant);
regenerate them only when another intentional semantic change lands::

    PYTHONPATH=src python tests/test_golden_values.py --regen
"""

import hashlib

import pytest

from repro.config import SimConfig
from repro.runner import run_simulation
from repro.units import ns

#: the fixed-seed matrix: (label, engine, routing, policy)
MATRIX = [
    ("packet-updown-sp", "packet", "updown", "sp"),
    ("packet-itb-sp", "packet", "itb", "sp"),
    ("packet-itb-rr", "packet", "itb", "rr"),
    ("flit-updown-sp", "flit", "updown", "sp"),
    ("flit-itb-sp", "flit", "itb", "sp"),
    ("flit-itb-rr", "flit", "itb", "rr"),
    ("array-updown-sp", "array", "updown", "sp"),
    ("array-itb-sp", "array", "itb", "sp"),
    ("array-itb-rr", "array", "itb", "rr"),
]

#: RunSummary fields compared bit-exactly (floats included: every run
#: is integer-timestamped and deterministic, so repr round-trips)
SUMMARY_FIELDS = (
    "offered_flits_ns_switch", "accepted_flits_ns_switch",
    "messages_delivered", "messages_generated", "avg_latency_ns",
    "avg_network_latency_ns", "max_latency_ns", "avg_itbs_per_message",
    "itb_overflow_count", "itb_peak_bytes", "backlog_growth",
)


def _config(engine: str, routing: str, policy: str) -> SimConfig:
    return SimConfig(
        engine=engine, topology="torus",
        topology_kwargs={"rows": 4, "cols": 4, "hosts_per_switch": 2},
        routing=routing, policy=policy, traffic="uniform",
        injection_rate=0.02, message_bytes=512, seed=7,
        warmup_ps=ns(20_000), measure_ps=ns(60_000))


def fingerprint(engine: str, routing: str, policy: str) -> dict:
    """Run one matrix point and reduce it to the pinned observables."""
    s = run_simulation(_config(engine, routing, policy),
                       collect_links=True)
    lu = s.link_utilization
    # per directed channel: (src, dst, link, utilisation, reserved) --
    # both fractions are int-flit / int-window quotients, so they are
    # bit-identical iff the underlying counters are
    rows = sorted(zip((tuple(e) for e in lu.channel_ends),
                      lu.utilization.tolist(), lu.reserved.tolist()))
    out = {f: getattr(s, f) for f in SUMMARY_FIELDS}
    out["link_digest"] = hashlib.sha256(
        repr(rows).encode()).hexdigest()[:16]
    return out


GOLDEN = {'packet-updown-sp': {'offered_flits_ns_switch': 0.02,
                      'accepted_flits_ns_switch': 0.0208,
                      'messages_delivered': 39,
                      'messages_generated': 36,
                      'avg_latency_ns': 4390.830230769231,
                      'avg_network_latency_ns': 4390.830230769231,
                      'max_latency_ns': 7584.832,
                      'avg_itbs_per_message': 0.0,
                      'itb_overflow_count': 0,
                      'itb_peak_bytes': 0,
                      'backlog_growth': -3,
                      'link_digest': 'b485a27701e650f7'},
 'packet-itb-sp': {'offered_flits_ns_switch': 0.02,
                   'accepted_flits_ns_switch': 0.020266666666666665,
                   'messages_delivered': 38,
                   'messages_generated': 36,
                   'avg_latency_ns': 4407.671605263158,
                   'avg_network_latency_ns': 4327.61652631579,
                   'max_latency_ns': 6318.034,
                   'avg_itbs_per_message': 0.3684210526315789,
                   'itb_overflow_count': 0,
                   'itb_peak_bytes': 519,
                   'backlog_growth': -2,
                   'link_digest': 'dc3b26de4810ab8c'},
 'packet-itb-rr': {'offered_flits_ns_switch': 0.02,
                   'accepted_flits_ns_switch': 0.020266666666666665,
                   'messages_delivered': 38,
                   'messages_generated': 36,
                   'avg_latency_ns': 4900.515184210527,
                   'avg_network_latency_ns': 4786.503315789473,
                   'max_latency_ns': 11580.765,
                   'avg_itbs_per_message': 0.4473684210526316,
                   'itb_overflow_count': 0,
                   'itb_peak_bytes': 1036,
                   'backlog_growth': -2,
                   'link_digest': '4e4a4883ebcb2fd2'},
 'flit-updown-sp': {'offered_flits_ns_switch': 0.02,
                    'accepted_flits_ns_switch': 0.0208,
                    'messages_delivered': 39,
                    'messages_generated': 36,
                    'avg_latency_ns': 4251.632794871795,
                    'avg_network_latency_ns': 4251.632794871795,
                    'max_latency_ns': 6867.682,
                    'avg_itbs_per_message': 0.0,
                    'itb_overflow_count': 0,
                    'itb_peak_bytes': 0,
                    'backlog_growth': -3,
                    'link_digest': '1caedcc71b4289b6'},
 'flit-itb-sp': {'offered_flits_ns_switch': 0.02,
                 'accepted_flits_ns_switch': 0.020266666666666665,
                 'messages_delivered': 38,
                 'messages_generated': 36,
                 'avg_latency_ns': 4348.11502631579,
                 'avg_network_latency_ns': 4286.4388947368425,
                 'max_latency_ns': 5962.584,
                 'avg_itbs_per_message': 0.3684210526315789,
                 'itb_overflow_count': 0,
                 'itb_peak_bytes': 519,
                 'backlog_growth': -2,
                 'link_digest': '80ecb0f352112f0e'},
 'flit-itb-rr': {'offered_flits_ns_switch': 0.02,
                 'accepted_flits_ns_switch': 0.020266666666666665,
                 'messages_delivered': 38,
                 'messages_generated': 36,
                 'avg_latency_ns': 4789.174394736842,
                 'avg_network_latency_ns': 4717.49147368421,
                 'max_latency_ns': 11019.865,
                 'avg_itbs_per_message': 0.4473684210526316,
                 'itb_overflow_count': 0,
                 'itb_peak_bytes': 1036,
                 'backlog_growth': -2,
                 'link_digest': 'f9e67200279308dd'},
 # array rows: counts and ITB loads match the packet rows exactly; the
 # latencies sit slightly below them (greedy reservation never blocks
 # upstream channels) and itb_peak_bytes is 0 (the pool is modelled as
 # infinite -- the capability is declined, not faked)
 'array-updown-sp': {'offered_flits_ns_switch': 0.02,
                     'accepted_flits_ns_switch': 0.0208,
                     'messages_delivered': 39,
                     'messages_generated': 36,
                     'avg_latency_ns': 4216.922538461538,
                     'avg_network_latency_ns': 4216.922538461538,
                     'max_latency_ns': 6703.677,
                     'avg_itbs_per_message': 0.0,
                     'itb_overflow_count': 0,
                     'itb_peak_bytes': 0,
                     'backlog_growth': -3,
                     'link_digest': '477140b979b0321f'},
 'array-itb-sp': {'offered_flits_ns_switch': 0.02,
                  'accepted_flits_ns_switch': 0.020266666666666665,
                  'messages_delivered': 38,
                  'messages_generated': 36,
                  'avg_latency_ns': 4335.45055263158,
                  'avg_network_latency_ns': 4273.774421052632,
                  'max_latency_ns': 5968.834,
                  'avg_itbs_per_message': 0.3684210526315789,
                  'itb_overflow_count': 0,
                  'itb_peak_bytes': 0,
                  'backlog_growth': -2,
                  'link_digest': 'de14cfa9f0f46e59'},
 'array-itb-rr': {'offered_flits_ns_switch': 0.02,
                  'accepted_flits_ns_switch': 0.020266666666666665,
                  'messages_delivered': 38,
                  'messages_generated': 36,
                  'avg_latency_ns': 4809.032421052632,
                  'avg_network_latency_ns': 4743.657,
                  'max_latency_ns': 8767.524,
                  'avg_itbs_per_message': 0.4473684210526316,
                  'itb_overflow_count': 0,
                  'itb_peak_bytes': 0,
                  'backlog_growth': -2,
                  'link_digest': '4b9ca36583b06a75'}}


@pytest.mark.parametrize("label,engine,routing,policy", MATRIX,
                         ids=[m[0] for m in MATRIX])
def test_golden(label, engine, routing, policy):
    assert GOLDEN, "golden values missing; regenerate with --regen"
    got = fingerprint(engine, routing, policy)
    assert got == GOLDEN[label]


def _regen() -> None:
    import pprint
    values = {label: fingerprint(engine, routing, policy)
              for label, engine, routing, policy in MATRIX}
    print("GOLDEN = \\")
    pprint.pprint(values, sort_dicts=False)


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
