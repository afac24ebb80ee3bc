"""End-to-end cluster tests: real nodes, real gateway, real HTTP.

Module-scoped fixtures boot two full ``EquivalenceServer`` nodes and one
gateway (see ``conftest.py``); the tests drive them exclusively through
:class:`~repro.cluster.client.ClusterClient` and raw HTTP, exactly as an
external caller would.  The round trips every client answers alike on
either transport are in ``test_clients.py``; these are the cluster's own.
The failure-injection tests run last in the module (they kill a node the
earlier tests rely on).
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.cluster.client import ClusterClient
from repro.service.protocol import ServiceError, process_ref
from repro.utils.serialization import content_digest, to_dict


def client_for(cluster) -> ClusterClient:
    return ClusterClient(port=cluster.gateway.port)


def minimize_result(client, process) -> dict:
    """The raw minimize result (sizes, artifact-cache flag)."""
    return client.request("minimize", {"process": process_ref(process)})


def raw_request(cluster, method: str, path: str, body: bytes | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", cluster.gateway.port, timeout=30)
    try:
        connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
def test_healthz_is_green_with_live_nodes(cluster):
    with client_for(cluster) as client:
        health = client.healthz()
    assert health["ok"] is True and health["healthy_nodes"] == 2


def test_store_replicates_to_both_nodes(cluster, processes):
    base = processes["bases"][0]
    with client_for(cluster) as client:
        result = client.request("store", {"process": to_dict(base)})
    assert result["digest"] == content_digest(base)
    assert sorted(result["replicas"]) == ["alpha", "beta"]
    assert result["states"] == base.num_states


def test_digest_affinity_is_sticky_across_requests(cluster, processes):
    base, copy = processes["bases"][1], processes["copies"][1]
    with client_for(cluster) as client:
        digest = client.store(base)
        answered_by = {client.check(digest, copy)["node"] for _ in range(5)}
    assert len(answered_by) == 1  # one home node per digest


def test_minimize_round_trip_and_artifact_cache(cluster, processes):
    base = processes["bases"][0]
    with client_for(cluster) as client:
        digest = client.store(base)
        first = minimize_result(client, digest)
        again = minimize_result(client, digest)
        quotient = client.minimize(digest)
    assert first.get("from_artifact_cache") is None  # computed on a node
    assert again.get("from_artifact_cache") is True  # served from the store
    assert quotient.num_states <= base.num_states
    assert again["process"] == first["process"]


def test_stats_aggregates_coordinator_and_nodes(cluster):
    with client_for(cluster) as client:
        stats = client.stats()
    coordinator = stats["coordinator"]
    assert coordinator["nodes"] == 2
    assert coordinator["replications"] >= 2  # the earlier stores replicated
    assert coordinator["store"] is not None  # the fixture attached a ClusterStore
    reported = {entry["node"] for entry in stats["nodes"]}
    assert reported == {"alpha", "beta"}
    for entry in stats["nodes"]:
        assert entry["server"]["node"] == entry["node"]  # nodes self-identify


def test_metrics_namespaces_engine_counters_per_node(cluster, processes):
    # Satellite: Engine.export_stats counters must carry a node label all
    # the way into the gateway's Prometheus output.
    with client_for(cluster) as client:
        client.check(processes["bases"][0], processes["copies"][0])
        text = client.metrics_text()
    engine_lines = [
        line for line in text.splitlines() if line.startswith("repro_cluster_engine_stat{")
    ]
    labelled = {line.split("node=")[1].split('"')[1] for line in engine_lines if "node=" in line}
    assert {"alpha", "beta"} <= labelled
    assert "repro_gateway_requests_total" in text
    assert 'repro_cluster_node_healthy{node="alpha"} 1' in text


def test_client_context_manager_reconnects_after_close(cluster):
    client = ClusterClient(port=cluster.gateway.port)
    assert client.ping()["pong"] is True
    client.close()
    assert client.ping()["pong"] is True  # transparent reopen
    client.close()


# ----------------------------------------------------------------------
# HTTP semantics (raw, no client)
# ----------------------------------------------------------------------
def test_unknown_route_is_404(cluster):
    status, _, body = raw_request(cluster, "GET", "/nope")
    assert status == 404
    assert json.loads(body)["ok"] is False


def test_wrong_method_is_405(cluster):
    status, _, _ = raw_request(cluster, "GET", "/v1/check")
    assert status == 405
    status, _, _ = raw_request(cluster, "POST", "/healthz")
    assert status == 405


def test_unknown_digest_is_404(cluster):
    with client_for(cluster) as client:
        with pytest.raises(ServiceError) as excinfo:
            minimize_result(client, "sha256:" + "0" * 64)
    assert excinfo.value.code == "unknown_digest"
    payload = json.dumps({"process": {"digest": "sha256:" + "0" * 64}}).encode()
    status, _, _ = raw_request(cluster, "POST", "/v1/minimize", payload)
    assert status == 404


def test_invalid_check_body_maps_to_400(cluster):
    status, _, body = raw_request(cluster, "POST", "/v1/check", json.dumps({}).encode())
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad_request"


# ----------------------------------------------------------------------
# failure injection -- keep these LAST in the module (they kill alpha/beta)
# ----------------------------------------------------------------------
def test_failover_and_artifacts_survive_node_loss(cluster, processes):
    base, copy = processes["bases"][0], processes["copies"][0]
    with client_for(cluster) as client:
        digest = client.store(base)
        minimize_result(client, digest)  # ensure the artifact exists
        victim = client.check(digest, copy)["node"]
        cluster.nodes[victim].kill()

        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            verdict = client.check(digest, copy)
            if verdict["node"] != victim:
                break
            time.sleep(0.2)  # pragma: no cover - probe not yet fired
        assert verdict["equivalent"] is True
        assert verdict["node"] != victim  # the replica took over

        # Minimisation survives the node's death via the artifact store.
        assert minimize_result(client, digest).get("from_artifact_cache") is True

        health = client.healthz()
        assert health["ok"] is True and health["healthy_nodes"] == 1
        assert health["nodes"][victim] is False


def test_all_nodes_down_answers_503_and_overloaded(cluster, processes):
    for handle in cluster.nodes.values():
        handle.kill()
    deadline = time.monotonic() + 15
    with client_for(cluster) as client:
        while time.monotonic() < deadline:
            if client.healthz()["healthy_nodes"] == 0:
                break
            time.sleep(0.2)
        status, headers, body = raw_request(cluster, "GET", "/healthz")
        assert status == 503
        # Work requests answer a structured, retryable overload...
        payload = json.dumps({"process": {"digest": "sha256:" + "1" * 64}}).encode()
        status, headers, body = raw_request(cluster, "POST", "/v1/classify", payload)
        assert status == 429
        error = json.loads(body)["error"]
        assert error["code"] == "overloaded"
        assert error["data"]["retry_after_ms"] > 0
        assert "Retry-After" in headers
        # ...which the client retries and then surfaces unchanged.
        fast = ClusterClient(port=cluster.gateway.port, overload_retries=0)
        with pytest.raises(ServiceError) as excinfo:
            fast.classify("sha256:" + "1" * 64)
        assert excinfo.value.code == "overloaded"
