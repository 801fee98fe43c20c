"""``repro serve``: spec parsing, NDJSON streaming, warm-cache reuse."""

import http.client
import json

import pytest

from repro.config import SimConfig
from repro.orchestrator import Point, ReproServer, ResultStore
from repro.orchestrator.serve import points_from_spec
from tests.conftest import UNDECLARED_RUN_OPTIONS, small_config


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(store=ResultStore(tmp_path))
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def _request(server, method, path, body=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=120)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path,
                 json.dumps(body) if body is not None else None, headers)
    resp = conn.getresponse()
    raw = resp.read().decode("utf-8")
    conn.close()
    lines = [json.loads(line) for line in raw.splitlines() if line]
    return resp.status, lines


class TestSpecs:
    def test_rates_spec_expands_sorted(self):
        spec = {"config": small_config().to_dict(),
                "rates": [0.02, 0.004]}
        points = points_from_spec(spec)
        assert [p.config.injection_rate for p in points] == [0.004, 0.02]
        assert points[0].point_id == "rate:0.004"

    def test_points_spec_round_trips_configs(self):
        cfg = small_config()
        spec = {"points": [{"id": "a", "config": cfg.to_dict(),
                            "runner_kwargs": {"collect_links": False}}]}
        (point,) = points_from_spec(spec)
        assert point.point_id == "a"
        assert point.config == SimConfig.from_dict(cfg.to_dict())
        assert point.runner_kwargs == {"collect_links": False}

    def test_bad_specs_rejected(self):
        for bad in ([], {}, {"points": []}, {"points": [{"x": 1}]},
                    {"config": small_config().to_dict()},
                    {"config": small_config().to_dict(), "rates": []},
                    {"config": small_config().to_dict(), "rates": [0.01],
                     "runner_kwargs": ["collect_links"]}):
            with pytest.raises(ValueError):
                points_from_spec(bad)


class TestEndpoints:
    def test_healthz_reports_store(self, server):
        status, (health,) = _request(server, "GET", "/healthz")
        assert status == 200
        assert health["ok"] is True
        assert health["store"]["enabled"] is True
        assert health["store"]["entries"] == 0

    def test_healthz_reports_the_fleet_it_runs_on(self):
        """The size and description come from the pool the server's
        executors use, not from the keywords it was started with."""
        srv = ReproServer(fabric="127.0.0.1:1,127.0.0.1:2")
        srv.start_background()
        try:
            status, (health,) = _request(srv, "GET", "/healthz")
        finally:
            srv.shutdown()
            srv.server_close()
        assert status == 200
        assert health["workers"] == 2
        assert health["fleet"] == "127.0.0.1:1,127.0.0.1:2"
        assert health["store"] == {"enabled": False}
        local = ReproServer(workers=3)
        try:
            assert local.health()["workers"] == 3
            assert local.health()["fleet"] == "3 local workers"
        finally:
            local.server_close()

    def test_unknown_path_404(self, server):
        status, (body,) = _request(server, "GET", "/nope")
        assert status == 404 and "unknown path" in body["error"]
        status, (body,) = _request(server, "POST", "/nope", {"x": 1})
        assert status == 404

    def test_bad_spec_400(self, server):
        status, (body,) = _request(server, "POST", "/campaign",
                                   {"bogus": True})
        assert status == 400
        assert "campaign spec" in body["error"]


class TestRunOptionsAreDeclared:
    """``runner_kwargs`` reach ``run_simulation(**kwargs)`` on whatever
    machine simulates: only the declared plain-data options may, and a
    spec naming anything else is refused whole, before it streams."""

    @pytest.mark.parametrize("option", UNDECLARED_RUN_OPTIONS)
    @pytest.mark.parametrize("shape", ["rates", "points"])
    def test_undeclared_option_is_a_400(self, server, tmp_path, option,
                                        shape):
        target = tmp_path / "written-by-the-server"
        cfg = small_config().to_dict()
        kwargs = {option: str(target) if option == "profile_path" else 1}
        spec = ({"config": cfg, "rates": [0.004], "runner_kwargs": kwargs}
                if shape == "rates" else
                {"points": [{"config": cfg},
                            {"config": cfg, "runner_kwargs": kwargs}]})
        status, lines = _request(server, "POST", "/campaign", spec)
        assert status == 400
        assert [set(line) for line in lines] == [{"error"}]   # no events
        assert option in lines[0]["error"]
        assert "collect_links" in lines[0]["error"]   # what is declared
        assert not target.exists()
        assert server.cache_info()["entries"] == 0    # nothing ran

    def test_declared_options_run(self, server):
        spec = {"config": small_config().to_dict(), "rates": [0.004],
                "runner_kwargs": {"collect_links": True, "root": 1}}
        status, lines = _request(server, "POST", "/campaign", spec)
        assert status == 200 and lines[-1]["event"] == "done"
        assert lines[-1]["results"][0]["link_utilization"] is not None


#: run options with a declared name and a value that cannot decode
MALFORMED_RUN_OPTIONS = [
    {"fault_plan": {"faults": [{"t_ps": 1}]}},
    {"reliable": {"bogus": 1}},
    {"reconfig": {"policy": "nope"}},
    {"fault_plan": {"faults": 3}},
    {"reliable": 5},
    # the mapper always reconfigures; a static blacklist is a run
    # without reconfig, so ReconfigParams has no policy field
    {"reconfig": {"policy": "blacklist"}},
]
MALFORMED_IDS = ["fault-without-link", "reliable-unknown-key",
                 "reconfig-unknown-policy", "faults-not-a-list",
                 "reliable-not-an-object", "reconfig-names-policy"]


class TestMalformedRunOptions:
    """A declared run option whose value cannot decode is refused when
    the spec is parsed, not as a traceback inside the worker."""

    @pytest.mark.parametrize("kwargs", MALFORMED_RUN_OPTIONS,
                             ids=MALFORMED_IDS)
    def test_point_refuses_it(self, kwargs):
        with pytest.raises(ValueError):
            Point("p", small_config(), kwargs)

    @pytest.mark.parametrize("kwargs", MALFORMED_RUN_OPTIONS,
                             ids=MALFORMED_IDS)
    def test_is_a_400_before_any_point_runs(self, server, kwargs):
        spec = {"config": small_config().to_dict(), "rates": [0.004],
                "runner_kwargs": kwargs}
        status, lines = _request(server, "POST", "/campaign", spec)
        assert status == 400
        assert [set(line) for line in lines] == [{"error"}]   # no events
        assert server.cache_info()["entries"] == 0    # nothing ran

    def test_well_formed_records_pass(self):
        Point("p", small_config(), {
            "fault_plan": {"faults": [{"t_ps": 1, "link_id": 0}]},
            "reliable": True, "reconfig": {"detection_latency_ps": 1}})


class TestMalformedSpecs:
    """A spec that could only fail inside the run -- a value of the
    wrong type, a name no registry holds -- is refused whole: 400, no
    ``accepted`` event, and the server serves the next request."""

    @pytest.mark.parametrize("spec", [
        {"config": 5, "rates": [0.1]},
        {"config": {}, "rates": [None]},
        {"points": [{"config": {"params": 3}}]},
        {"config": {"routing": "nope"}, "rates": [0.1]},
        {"config": {"topology_kwargs": 3}, "rates": [0.1]},
    ], ids=["config-not-an-object", "null-rate", "params-not-an-object",
            "unregistered-scheme", "kwargs-not-an-object"])
    def test_is_a_400_and_the_server_lives(self, server, spec):
        status, lines = _request(server, "POST", "/campaign", spec)
        assert status == 400
        assert [set(line) for line in lines] == [{"error"}]   # no events
        assert server.cache_info()["entries"] == 0    # nothing ran
        status, lines = _request(
            server, "POST", "/campaign",
            {"config": small_config().to_dict(), "rates": [0.004]})
        assert status == 200 and lines[-1]["event"] == "done"


#: the keys of every ``point`` event, besides ``eta_s`` once known
POINT_KEYS = {"event", "completed", "total", "label", "status", "elapsed_s"}


class TestCampaignStreaming:
    SPEC = {"rates": [0.004, 0.008]}

    def _spec(self):
        return dict(self.SPEC, config=small_config().to_dict())

    def test_streams_progress_then_results(self, server):
        status, lines = _request(server, "POST", "/campaign", self._spec())
        assert status == 200
        assert lines[0] == {"event": "accepted", "points": 2}
        points = [e for e in lines if e["event"] == "point"]
        assert len(points) == 2
        assert all(e["status"] == "done" and e["total"] == 2
                   for e in points)
        assert {e["completed"] for e in points} == {1, 2}
        # the executor ledger's event, as is: an ETA while points remain
        for e in points:
            keys = POINT_KEYS | ({"eta_s"} if e["completed"] < 2 else set())
            assert set(e) == keys
        done = lines[-1]
        assert done["event"] == "done"
        assert done["stats"] == {"simulated": 2, "cached": 0, "failed": 0}
        assert done["points"] == ["rate:0.004", "rate:0.008"]
        assert all(r["messages_delivered"] > 0 for r in done["results"])

    def test_second_request_reuses_warm_cache_bit_identically(self, server):
        _status, first = _request(server, "POST", "/campaign", self._spec())
        _status, second = _request(server, "POST", "/campaign", self._spec())
        points = [e for e in second if e["event"] == "point"]
        assert all(e["status"] == "cached" for e in points)
        assert second[-1]["stats"]["cached"] == 2
        # byte-for-byte the same summaries the first request computed
        assert second[-1]["results"] == first[-1]["results"]

    def test_concurrent_requests_share_one_warm_store(self, server):
        """Two clients submitting the same campaign at once must both
        stream to completion with bit-identical results: the shared
        store is concurrency-safe (concurrent misses may race to
        simulate, but the simulation is deterministic, so whichever
        write wins the readers agree), and afterwards the store is warm
        for both."""
        import threading

        outcomes = {}

        def submit(tag):
            outcomes[tag] = _request(server, "POST", "/campaign",
                                     self._spec())

        threads = [threading.Thread(target=submit, args=(tag,))
                   for tag in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert set(outcomes) == {"a", "b"}
        for tag, (status, lines) in outcomes.items():
            assert status == 200, tag
            assert lines[-1]["event"] == "done", (tag, lines[-1])
        done_a, done_b = outcomes["a"][1][-1], outcomes["b"][1][-1]
        assert done_a["results"] == done_b["results"]
        # the warm store now serves the campaign without simulating
        _status, third = _request(server, "POST", "/campaign",
                                  self._spec())
        assert third[-1]["stats"]["cached"] == 2
        assert third[-1]["results"] == done_a["results"]

    def test_failed_point_is_counted_in_stream(self, server):
        bad = small_config(traffic="bit-reversal", topology_kwargs={
            "rows": 3, "cols": 3, "hosts_per_switch": 2})
        spec = {"points": [{"config": small_config().to_dict()},
                           {"config": bad.to_dict()},
                           {"config": small_config(seed=6).to_dict()}]}
        status, lines = _request(server, "POST", "/campaign", spec)
        assert status == 200 and lines[-1]["event"] == "error"
        points = [e for e in lines if e["event"] == "point"]
        assert [e["completed"] for e in points] == [1, 2, 3]
        assert [e["status"] for e in points] == ["done", "FAILED", "done"]
        assert all(POINT_KEYS <= set(e) <= POINT_KEYS | {"eta_s"}
                   for e in points)

    def test_failing_point_streams_error_event(self, server):
        # a valid spec whose point fails in the run: bit-reversal is
        # not defined on the 18 hosts of a 3x3 torus
        cfg = small_config(traffic="bit-reversal", topology_kwargs={
            "rows": 3, "cols": 3, "hosts_per_switch": 2})
        spec = {"config": cfg.to_dict(), "rates": [0.004]}
        status, lines = _request(server, "POST", "/campaign", spec)
        assert status == 200      # failure arrives in-stream
        assert lines[-1]["event"] == "error"
        assert "1 of 1" in lines[-1]["error"]
