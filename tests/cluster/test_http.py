"""The HTTP edge: malformed input, bounded reads, routes and shutdown.

The gateway and a node's ``--metrics-port`` endpoint share one HTTP module,
so every grammar and bounds test runs against both; after each, a fresh
connection must still be answered.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import time

import pytest

from repro.service import httpd


@pytest.fixture(params=["gateway", "metrics"])
def http_endpoint(request, service, cluster):
    """``(kind, port)`` of one HTTP listener."""
    if request.param == "gateway":
        return "gateway", cluster.gateway.port
    return "metrics", service.node.metrics_port


def get(port: int, path: str, method: str = "GET") -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def exchange(port: int, payload: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes; return everything the server sends before it closes."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def assert_bad_request(reply: bytes) -> None:
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    document = json.loads(body)
    assert document["ok"] is False
    assert document["error"]["code"] == "bad_request"


def assert_still_serving(kind: str, service, cluster) -> None:
    """A fresh connection is still answered."""
    if kind == "gateway":
        with cluster.client() as client:
            assert client.ping()["pong"] is True
    else:
        status, body = get(service.node.metrics_port, "/metrics")
        assert status == 200 and b"repro_service_requests_total" in body
        with service.client() as client:
            assert client.ping()["pong"] is True


def test_malformed_request_line_is_400(http_endpoint, service, cluster):
    kind, port = http_endpoint
    assert_bad_request(exchange(port, b"NONSENSE\r\n\r\n"))
    assert_still_serving(kind, service, cluster)


def test_non_numeric_content_length_is_400(http_endpoint, service, cluster):
    kind, port = http_endpoint
    assert_bad_request(exchange(port, b"GET /metrics HTTP/1.1\r\nContent-Length: ten\r\n\r\n"))
    assert_still_serving(kind, service, cluster)


def test_header_count_is_capped(http_endpoint, service, cluster):
    kind, port = http_endpoint
    headers = b"".join(b"X-Filler-%d: 1\r\n" % i for i in range(httpd.MAX_HEADERS + 1))
    assert_bad_request(exchange(port, b"GET /metrics HTTP/1.1\r\n" + headers + b"\r\n"))
    assert_still_serving(kind, service, cluster)


def test_overlong_header_line_is_400(http_endpoint, service, cluster):
    kind, port = http_endpoint
    line = b"X-Filler: " + b"a" * 70_000 + b"\r\n"  # over the 64 KiB line limit
    assert_bad_request(exchange(port, b"GET /metrics HTTP/1.1\r\n" + line + b"\r\n"))
    assert_still_serving(kind, service, cluster)


def test_half_sent_request_is_closed_after_the_idle_timeout(
    http_endpoint, service, cluster, monkeypatch
):
    kind, port = http_endpoint
    monkeypatch.setattr(httpd, "IDLE_TIMEOUT", 0.5)
    started = time.monotonic()
    reply = exchange(port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n", timeout=10.0)
    assert reply == b""  # closed without an answer...
    assert time.monotonic() - started < 5.0  # ...by the timer, not the socket timeout
    assert_still_serving(kind, service, cluster)


def test_metrics_port_answers_only_get_root_and_metrics(service, cluster):
    port = service.node.metrics_port
    for path in ("/", "/metrics"):
        status, body = get(port, path)
        assert status == 200 and b"# TYPE repro_service_requests_total counter" in body
    status, body = get(port, "/metrics", method="POST")
    assert status == 405 and json.loads(body)["error"]["code"] == "bad_request"
    status, body = get(port, "/v1/check")
    assert status == 404 and json.loads(body)["ok"] is False
    assert_still_serving("metrics", service, cluster)


def route_series(text: str) -> set[str]:
    return {
        line.split(" ")[0]
        for line in text.splitlines()
        if line.startswith("repro_gateway_requests_total{")
    }


def test_unknown_routes_share_one_label(cluster, processes):
    with cluster.client() as client:
        client.check(processes["bases"][0], processes["copies"][0])
        before = route_series(client.metrics_text())
        for index in range(40):
            get(cluster.gateway.port, f"/v1/nope-{index}")
            get(cluster.gateway.port, f"/probe/{index}?q={index}")
        after = route_series(client.metrics_text())
    assert len(after - before) <= 1
    # Known routes keep their exact labels.
    assert 'repro_gateway_requests_total{route="/v1/check"}' in after
    assert 'repro_gateway_requests_total{route="/metrics"}' in after


def test_gateway_stop_with_an_open_keep_alive_logs_no_traceback(extra_gateway, caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    gateway = extra_gateway()
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        connection.request("POST", "/v1/ping", body=b"{}")
        response = connection.getresponse()
        assert response.status == 200
        response.read()  # the connection stays open (keep-alive)
        gateway.stop()
    finally:
        connection.close()
    assert [record for record in caplog.records if record.name == "asyncio"] == []
