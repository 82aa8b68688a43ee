"""The HTTP front ends: the shared acceptor contract (serve and
coordinate), status mapping, shedding, health, drop faults."""

import json
import http.client
import time
import random
import threading

import pytest

from repro.fabric import Coordinator, CoordinatorConfig
from repro.runner import ScenarioSpec
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceServer,
)
from repro.service.client import ProtocolRejected
from repro.testing import (
    DROP_CONNECTION,
    HANG_WORKER,
    Fault,
    FaultPlan,
)

FAST_SPEC = {"case": "5bus-study1", "analyzer": "fast"}


@pytest.fixture
def service_factory(tmp_path):
    built = []

    def build(**overrides):
        overrides.setdefault("workers", 1)
        overrides.setdefault("cache_dir", None)
        overrides.setdefault("request_timeout", 20.0)
        server = ServiceServer(port=0,
                               config=ServiceConfig(**overrides))
        server.start()
        client = ServiceClient(server.url, retries=2,
                               backoff_seconds=0.05,
                               rng=random.Random(3))
        client.wait_ready(15.0)
        built.append(server)
        return server, client

    yield build
    for server in built:
        server.shutdown()


def exchange(server, method, path, data=None, headers=None):
    """One raw HTTP exchange sending exactly the given headers."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.putrequest(method, path)
        for name, value in (headers or {}).items():
            conn.putheader(name, value)
        conn.endheaders(data)
        response = conn.getresponse()
        raw = response.read()
        decoded = json.loads(raw.decode()) if raw else {}
        return response.status, decoded, dict(response.headers)
    finally:
        conn.close()


def raw_request(server, method, path, body=None):
    """One JSON exchange (no client-side retry sugar)."""
    if body is None:
        return exchange(server, method, path)
    data = json.dumps(body).encode()
    return exchange(server, method, path, data,
                    {"Content-Type": "application/json",
                     "Content-Length": str(len(data))})


@pytest.fixture(params=["serve", "fabric"])
def front_end(request, tmp_path, service_factory):
    """A running front end on the shared acceptor, with one of its
    POST paths, a body that path rejects by schema, and its Server
    header prefix."""
    if request.param == "serve":
        server, _ = service_factory()
        yield (server, "/v1/analyze",
               {"spec": dict(FAST_SPEC, mystery_knob=1)}, "repro-serve/1")
        return
    coordinator = Coordinator(
        [ScenarioSpec.build("5bus-study1", analyzer="fast", target=1)],
        CoordinatorConfig(journal_path=str(tmp_path / "j.jsonl"))).start()
    try:
        yield (coordinator, "/fabric/v1/lease", {"worker": ""},
               "repro-fabric/1")
    finally:
        coordinator.shutdown()


def test_analyze_and_maximize_end_to_end(service_factory):
    server, client = service_factory(workers=2)
    result = client.analyze(FAST_SPEC)
    assert result["outcome"]["status"] == "ok"
    assert result["protocol_version"] == 1
    assert result["attempts"] == 1
    result = client.maximize(dict(FAST_SPEC, tolerance="1/4"))
    assert result["outcome"]["status"] == "ok"
    assert result["outcome"]["max_impact"]["max_increase_percent"]


def test_sweep_endpoint_runs_cells_in_order(service_factory):
    server, client = service_factory()
    result = client.sweep([dict(FAST_SPEC, label="a"),
                           dict(FAST_SPEC, label="b", target="2")])
    assert result["count"] == 2
    assert [c["label"] for c in result["cells"]] == ["a", "b"]
    assert all(c["outcome"]["status"] == "ok"
               for c in result["cells"])


def test_malformed_request_is_structured_400(service_factory):
    server, client = service_factory()
    with pytest.raises(ProtocolRejected) as err:
        client.analyze(dict(FAST_SPEC, mystery_knob=1))
    assert err.value.status == 400
    assert "protocol.unknown_field" in err.value.codes


def test_version_mismatch_is_structured_400(service_factory):
    server, client = service_factory()
    status, body, _ = raw_request(
        server, "POST", "/v1/analyze",
        {"spec": FAST_SPEC, "protocol_version": 99})
    assert status == 400
    codes = [d["code"] for d in body["diagnostics"]["diagnostics"]]
    assert codes == ["protocol.version_mismatch"]
    status, body, _ = raw_request(
        server, "POST", "/v1/analyze",
        {"spec": FAST_SPEC, "cache_format": 1})
    assert status == 400
    codes = [d["code"] for d in body["diagnostics"]["diagnostics"]]
    assert codes == ["protocol.version_mismatch"]


def test_acceptor_contract(front_end):
    """Both front ends answer routing, body and schema faults alike."""
    server, post_path, invalid, version = front_end
    status, body, headers = raw_request(server, "GET", "/nope")
    assert status == 404 and body["error"] == "not_found"
    assert headers["Server"].startswith(version)
    status, body, _ = raw_request(server, "POST", "/v1/nope", {})
    assert status == 404 and body["error"] == "not_found"

    malformed = [
        exchange(server, "POST", post_path),
        exchange(server, "POST", post_path, b"not json",
                 {"Content-Length": "8"}),
        exchange(server, "POST", post_path, b"{}",
                 {"Content-Length": "two"}),
        exchange(server, "POST", post_path, b"{}",
                 {"Content-Length": "-2"}),
    ]
    for status, body, headers in malformed:
        assert status == 400, body
        assert body["error"] == "protocol.malformed"
        assert "Retry-After" not in headers

    # The cap is checked against the header alone: no body is sent,
    # and the connection closes since its unread body cannot be skipped.
    status, body, headers = exchange(server, "POST", post_path, None,
                                     {"Content-Length": str(1 << 30)})
    assert status == 413
    assert body["error"] == "protocol.malformed"
    assert headers["Connection"] == "close"

    status, body, headers = raw_request(server, "POST", post_path,
                                        invalid)
    assert status == 400
    assert body["error"] == "bad_request"
    assert body["diagnostics"]["diagnostics"]
    assert "Retry-After" not in headers


def test_keep_alive_serves_several_requests_per_connection(front_end):
    server = front_end[0]
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for _ in range(3):
            conn.request("GET", "/readyz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["ready"] is True
    finally:
        conn.close()


def test_shutdown_without_start_returns():
    server = ServiceServer(port=0, config=ServiceConfig(
        workers=1, cache_dir=None))
    stopper = threading.Thread(target=server.shutdown, daemon=True)
    stopper.start()
    stopper.join(10.0)
    assert not stopper.is_alive()


def test_fabric_idle_lease_retry_after_stays_in_the_body(tmp_path):
    coordinator = Coordinator(
        [ScenarioSpec.build("5bus-study1", analyzer="fast", target=1)],
        CoordinatorConfig(journal_path=str(tmp_path / "j.jsonl"),
                          unit_cells=1)).start()
    try:
        status, body, _ = raw_request(coordinator, "POST",
                                      "/fabric/v1/lease", {"worker": "a"})
        assert status == 200 and body["unit"] is not None
        # The only unit is leased: the next worker idles.
        status, body, headers = raw_request(
            coordinator, "POST", "/fabric/v1/lease", {"worker": "b"})
    finally:
        coordinator.shutdown()
    assert status == 200
    assert body["unit"] is None and body["retry_after"] > 0
    assert "Retry-After" not in headers


def test_health_ready_stats_endpoints(service_factory):
    server, client = service_factory(workers=2)
    health = client.healthz()
    assert health["ok"] and not health["draining"]
    assert len(health["workers"]) == 2
    assert client.readyz()["ready"]
    client.analyze(FAST_SPEC)
    stats = client.stats()
    assert stats["counters"]["completed"] >= 1
    assert stats["queue_limit"] == 16
    assert stats["http"]["requests"] >= 1


def test_queue_full_sheds_with_429_retry_after(tmp_path, monkeypatch,
                                               service_factory):
    state = tmp_path / "state"
    # The slow job hangs far past every wait below, so the slot is still
    # taken when the second request arrives; stopping the supervisor
    # releases it once the shed has been observed.
    plan = FaultPlan.build(state, {
        "slow": Fault(kind=HANG_WORKER, times=1, sleep_seconds=60.0)})
    monkeypatch.setenv("REPRO_FAULTS", plan.to_file(tmp_path / "plan.json"))
    server, client = service_factory(workers=1, queue_limit=1)

    # Occupy the single queue slot with a hanging request...
    background = threading.Thread(
        target=lambda: raw_request(
            server, "POST", "/v1/analyze",
            {"spec": dict(FAST_SPEC, label="slow")}),
        daemon=True)
    background.start()
    occupied = False
    deadline = time.monotonic() + 5
    while not occupied and time.monotonic() < deadline:
        stats = server.supervisor.stats()
        occupied = bool(stats["busy"] or stats["queued"])
        if not occupied:
            time.sleep(0.01)
    assert occupied, "the slow request never took the queue slot"
    # ...then observe the shed on the raw wire.
    status, body, headers = raw_request(
        server, "POST", "/v1/analyze",
        {"spec": dict(FAST_SPEC, label="shedme")})
    assert status == 429
    assert body["error"] == "queue_full"
    assert int(headers["Retry-After"]) \
        == max(1, round(body["retry_after"]))
    server.supervisor.stop()
    background.join(timeout=30)
    assert not background.is_alive()


def test_draining_sheds_with_503(service_factory):
    server, client = service_factory()
    server.begin_drain()
    status, body, headers = raw_request(
        server, "POST", "/v1/analyze", {"spec": FAST_SPEC})
    assert status == 503
    assert body["error"] == "draining"
    assert "Retry-After" in headers
    status, body, _ = raw_request(server, "GET", "/readyz")
    assert status == 503            # not ready while draining
    assert body["draining"] is True


def test_dropped_connection_fault_is_retried_by_client(
        tmp_path, monkeypatch, service_factory):
    state = tmp_path / "state"
    plan = FaultPlan.build(state, {
        "flaky": Fault(kind=DROP_CONNECTION, times=1)})
    monkeypatch.setenv("REPRO_FAULTS", plan.to_file(tmp_path / "plan.json"))
    server, client = service_factory(workers=1)
    result = client.analyze(dict(FAST_SPEC, label="flaky"))
    assert result["outcome"]["status"] == "ok"
    assert client.attempts_made >= 2    # first response was severed
    assert server.http_stats()["dropped"] == 1


def test_graceful_drain_finishes_inflight_work(service_factory):
    server, client = service_factory(workers=1)
    results = []

    def run():
        results.append(client.analyze(dict(FAST_SPEC, label="inflight")))

    background = threading.Thread(target=run, daemon=True)
    background.start()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if server.supervisor.submitted:
            break
    assert server.drain(timeout=20.0) is True
    background.join(timeout=10)
    assert results and results[0]["outcome"]["status"] == "ok"
