"""The HTTP/JSON gateway: the cluster's front door.

A :class:`ClusterGateway` wraps one :class:`~repro.cluster.coordinator.
ClusterCoordinator` in the service's HTTP/1.1 responder
(:mod:`repro.service.httpd`: stdlib asyncio, bounded reads, ``400`` on
malformed requests).  HTTP is the boundary where non-Python clients, load
balancers and scrapers live; the wire RPCs map one-to-one onto POST routes
and the two conventional probe endpoints are GETs:

====================  =======================================================
``POST /v1/check``    one equivalence check (body = check params)
``POST /v1/check_many``  a manifest of checks
``POST /v1/minimize``    minimisation (artifact-cache first)
``POST /v1/classify``    hierarchy classification
``POST /v1/store``       upload + replicate one process
``POST /v1/stats``       coordinator + per-node stats
``POST /v1/ping``        coordinator liveness detail
``POST /v1/metrics``     the gateway registry as JSON (the ``metrics`` RPC)
``GET  /healthz``        200 when >= 1 node is healthy, else 503
``GET  /metrics``        Prometheus text (gateway + node-labelled engine series)
====================  =======================================================

Responses are ``{"ok": true, "result": ...}`` or ``{"ok": false, "error":
{"code", "message", "data"}}`` with the service error codes mapped onto
HTTP statuses (``overloaded`` -> 429 with ``Retry-After``, ``unknown_digest``
-> 404, ``deadline_exceeded`` -> 504, ...), so plain HTTP clients get
meaningful statuses and :class:`~repro.cluster.client.ClusterClient` can
reconstruct the exact :class:`~repro.service.protocol.ServiceError`.

Request metrics are labelled by route; every path that is not one of the
routes above shares the one label :data:`UNKNOWN_ROUTE`, so hostile or
mistyped paths cannot grow the series count.

``/metrics`` satisfies the per-node namespacing contract: engine counters
fetched from each node's ``stats`` op (which the nodes label via
``Engine.export_stats(node=...)``) are re-exported as gauges labelled
``{node, shard}``, so one scrape of the gateway distinguishes every
engine in the cluster.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.cluster.coordinator import COUNTERS, ClusterCoordinator
from repro.service import httpd, protocol
from repro.service.metrics import MetricsRegistry
from repro.service.server import run_until_interrupted

from repro.cluster import DEFAULT_GATEWAY_PORT

__all__ = ["DEFAULT_GATEWAY_PORT", "ClusterGateway", "serve_gateway"]

#: HTTP status for each service error code.
_STATUS_FOR_CODE = {
    protocol.BAD_REQUEST: 400,
    protocol.UNKNOWN_OP: 404,
    protocol.INVALID_PROCESS: 400,
    protocol.UNKNOWN_DIGEST: 404,
    protocol.CHECK_FAILED: 422,
    protocol.DEADLINE_EXCEEDED: 504,
    protocol.OVERLOADED: 429,
    protocol.INTERNAL: 500,
}

_POST_OPS = ("check", "check_many", "minimize", "classify", "store", "stats", "ping", "metrics")

#: The ``route`` label of every request to a path that is no known route.
UNKNOWN_ROUTE = "unknown"
_ROUTES = frozenset({"/healthz", "/metrics", *(f"/v1/{op}" for op in _POST_OPS)})


class ClusterGateway:
    """HTTP front end over one coordinator (see module docstring)."""

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_GATEWAY_PORT,
    ) -> None:
        self.coordinator = coordinator
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "repro_gateway_requests_total", "HTTP requests accepted", ("route",)
        )
        self._errors = self.registry.counter(
            "repro_gateway_errors_total", "HTTP requests answered with an error", ("route", "code")
        )
        self._latency = self.registry.histogram(
            "repro_gateway_request_seconds", "HTTP request latency", ("route",)
        )
        node_healthy = self.registry.gauge(
            "repro_cluster_node_healthy", "1 when the coordinator's last probe succeeded", ("node",)
        )
        for node_id, node in coordinator.nodes.items():
            node_healthy.labels(node_id).set_function(
                lambda node=node: 1.0 if node.healthy else 0.0
            )
        for name, help_text in COUNTERS.items():
            self.registry.gauge(f"repro_cluster_{name}_total", help_text).labels().set_function(
                lambda name=name: float(getattr(self.coordinator, name))
            )
        # Engine counters re-exported per (node, shard); refreshed on scrape.
        self._engine_series = self.registry.gauge(
            "repro_cluster_engine_stat",
            "per-engine counters gathered from node stats",
            ("node", "shard", "stat"),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.coordinator.start()
        self._server = await httpd.start_server(self._route, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.coordinator.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Any, dict[str, str]]:
        route = path if path in _ROUTES else UNKNOWN_ROUTE
        self._requests.labels(route).inc()
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            if route == UNKNOWN_ROUTE:
                return self._error(route, 404, protocol.UNKNOWN_OP, f"unknown route {path!r}")
            if route == "/healthz":
                if method != "GET":
                    return self._error(route, 405, protocol.BAD_REQUEST, "healthz is GET only")
                return await self._healthz()
            if route == "/metrics":
                if method != "GET":
                    return self._error(route, 405, protocol.BAD_REQUEST, "metrics is GET only")
                return 200, await self._render_metrics(), {}
            if method != "POST":
                return self._error(route, 405, protocol.BAD_REQUEST, f"{path} is POST only")
            return await self._rpc(route, route[len("/v1/") :], body)
        finally:
            self._latency.labels(route).observe(loop.time() - started)

    def _error(
        self,
        route: str,
        status: int,
        code: str,
        message: str,
        data: dict[str, Any] | None = None,
    ) -> tuple[int, Any, dict[str, str]]:
        self._errors.labels(route, code).inc()
        extra: dict[str, str] = {}
        if code == protocol.OVERLOADED:
            retry_ms = (data or {}).get("retry_after_ms")
            if isinstance(retry_ms, (int, float)):
                extra["Retry-After"] = str(max(1, round(retry_ms / 1000)))
        return status, httpd.envelope_error(code, message, data), extra

    async def _rpc(self, route: str, op: str, body: bytes) -> tuple[int, Any, dict[str, str]]:
        try:
            params = protocol.decode_frame(body) if body else {}
        except protocol.ProtocolError as error:
            return self._error(route, 400, protocol.BAD_REQUEST, f"body: {error}")
        try:
            if op == "ping":
                result = await self.coordinator.ping()
            elif op == "stats":
                result = await self.coordinator.stats()
            elif op == "check":
                result = await self.coordinator.check(params)
            elif op == "check_many":
                result = await self.coordinator.check_many(params)
            elif op == "minimize":
                result = await self.coordinator.minimize(params)
            elif op == "classify":
                result = await self.coordinator.classify(params)
            elif op == "metrics":
                await self._refresh_engine_series()
                result = {"metrics": self.registry.snapshot()}
            else:  # store
                result = await self.coordinator.store_process(params)
        except protocol.ServiceError as error:
            status = _STATUS_FOR_CODE.get(error.code, 500)
            return self._error(route, status, error.code, error.message, error.data or None)
        except Exception as error:  # pragma: no cover - defensive boundary
            return self._error(route, 500, protocol.INTERNAL, f"{type(error).__name__}: {error}")
        return 200, {"ok": True, "result": result}, {}

    async def _healthz(self) -> tuple[int, Any, dict[str, str]]:
        health = self.coordinator.health()
        healthy = sum(health.values())
        status = 200 if healthy >= 1 else 503
        return status, {
            "ok": healthy >= 1,
            "healthy_nodes": healthy,
            "nodes": health,
        }, {}

    async def _render_metrics(self) -> str:
        """Prometheus text: gateway series plus per-(node, shard) engine stats."""
        await self._refresh_engine_series()
        return self.registry.render()

    async def _refresh_engine_series(self) -> None:
        """Re-export every live node's engine counters (from the stats op)."""
        for node in (await self.coordinator.stats())["nodes"]:
            for shard in node.get("shards", []) or []:
                engine = shard.get("engine") if isinstance(shard, dict) else None
                if not isinstance(engine, dict):
                    continue
                shard_label = str(shard.get("shard", "?"))
                # export_stats labels the payload with node=...; prefer the
                # node's own label so relabelled nodes stay distinguishable.
                node_label = str(engine.get("node") or node["node"])
                for stat, value in engine.items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        self._engine_series.labels(node_label, shard_label, stat).set(
                            float(value)
                        )


def serve_gateway(
    nodes: dict[str, tuple[str, int]],
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_GATEWAY_PORT,
    replication_factor: int = 2,
    steal_threshold: int | None = None,
    store_root: str | None = None,
    probe_interval: float = 1.0,
) -> None:
    """Blocking entry point: build a coordinator and serve HTTP until killed."""
    from repro.cluster.store import ClusterStore

    store = ClusterStore(store_root) if store_root else None
    coordinator = ClusterCoordinator(
        nodes,
        replication_factor=replication_factor,
        steal_threshold=steal_threshold,
        store=store,
        probe_interval=probe_interval,
    )
    gateway = ClusterGateway(coordinator, host=host, port=port)
    run_until_interrupted(
        gateway,
        lambda: f"repro cluster gateway on http://{gateway.host}:{gateway.port} "
        f"-> nodes [{', '.join(sorted(nodes))}] (rf={coordinator.replication_factor})",
    )
