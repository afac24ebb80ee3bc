"""Shared fixtures: real nodes in threads, a gateway, and kill switches.

Two module-scoped endpoints -- a two-shard service reached over NDJSON and a
two-node cluster reached over HTTP -- and ``endpoint``, parametrized over
both, for the tests one client must pass on either transport.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.gateway import ClusterGateway
from repro.cluster.store import ClusterStore
from repro.generators.random_fsp import perturb, random_equivalent_copy, random_fsp
from repro.service.client import ServiceClient
from repro.service.server import EquivalenceServer


class NodeHandle:
    """One EquivalenceServer running in its own thread + event loop.

    ``name=None`` is a plain single-node service rather than a cluster node.
    """

    def __init__(
        self,
        name: str | None,
        store_root: str,
        *,
        shards: int = 1,
        metrics_port: int | None = None,
    ) -> None:
        self.name = name
        self.port: int = 0
        self.metrics_port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        started = threading.Event()

        def run() -> None:
            async def main() -> None:
                server = EquivalenceServer(
                    port=0,
                    store_root=store_root,
                    num_shards=shards,
                    max_processes=16,
                    max_verdicts=64,
                    metrics_port=metrics_port,
                    node_name=name,
                )
                await server.start()
                self.port = server.port
                self.metrics_port = server.metrics_port
                self._loop = asyncio.get_running_loop()
                started.set()
                try:
                    await server.serve_forever()
                except asyncio.CancelledError:
                    pass
                finally:
                    await server.stop()

            asyncio.run(main())

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert started.wait(timeout=30), f"node {name} failed to start"
        self.alive = True

    def kill(self) -> None:
        """Hard-stop the node (the cluster sees a connection loss)."""
        if not self.alive:
            return
        self.alive = False
        loop = self._loop
        assert loop is not None
        loop.call_soon_threadsafe(lambda: [t.cancel() for t in asyncio.all_tasks(loop)])
        assert self._thread is not None
        self._thread.join(timeout=30)


class GatewayHandle:
    """A coordinator + gateway pair running in its own thread + event loop."""

    def __init__(
        self,
        nodes: dict[str, NodeHandle],
        *,
        store_root: str | None = None,
        replication_factor: int = 2,
        steal_threshold: int | None = None,
        probe_interval: float = 0.2,
    ) -> None:
        self.port: int = 0
        self.coordinator: ClusterCoordinator | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        started = threading.Event()

        def run() -> None:
            async def main() -> None:
                coordinator = ClusterCoordinator(
                    {name: ("127.0.0.1", handle.port) for name, handle in nodes.items()},
                    replication_factor=replication_factor,
                    steal_threshold=steal_threshold,
                    store=ClusterStore(store_root) if store_root else None,
                    probe_interval=probe_interval,
                )
                gateway = ClusterGateway(coordinator, port=0)
                await gateway.start()
                self.port = gateway.port
                self.coordinator = coordinator
                self._loop = asyncio.get_running_loop()
                started.set()
                try:
                    await gateway.serve_forever()
                except asyncio.CancelledError:
                    pass
                finally:
                    await gateway.stop()

            asyncio.run(main())

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert started.wait(timeout=30), "gateway failed to start"

    def stop(self) -> None:
        loop = self._loop
        assert loop is not None
        loop.call_soon_threadsafe(lambda: [t.cancel() for t in asyncio.all_tasks(loop)])
        self._thread.join(timeout=30)


class ServiceEndpoint:
    """A plain two-shard service, reached over NDJSON."""

    kind = "service"

    def __init__(self, root) -> None:
        self.node = NodeHandle(None, str(root / "service"), shards=2, metrics_port=0)
        self.port = self.node.port
        self.cli = ["client"]

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(port=self.port, **kwargs)

    def send_malformed(self) -> dict:
        """Send a body that is not JSON; returns the error object."""
        with socket.create_connection(("127.0.0.1", self.node.port), timeout=30) as sock:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["ok"] is False
        return response["error"]

    def stop(self) -> None:
        self.node.kill()


class ClusterEndpoint:
    """Two live nodes behind a gateway with a persistent coordinator store."""

    kind = "cluster"

    def __init__(self, root) -> None:
        self.nodes = {name: NodeHandle(name, str(root / name)) for name in ("alpha", "beta")}
        self.gateway = GatewayHandle(self.nodes, store_root=str(root / "coordinator"))
        self.port = self.gateway.port
        self.cli = ["cluster", "client"]

    def client(self, **kwargs) -> ClusterClient:
        return ClusterClient(port=self.port, **kwargs)

    def send_malformed(self) -> dict:
        """POST a body that is not JSON; returns the error object."""
        connection = http.client.HTTPConnection("127.0.0.1", self.gateway.port, timeout=30)
        try:
            connection.request("POST", "/v1/check", body=b"{not json")
            response = connection.getresponse()
            status, body = response.status, json.loads(response.read())
        finally:
            connection.close()
        assert status == 400 and body["ok"] is False
        return body["error"]

    def stop(self) -> None:
        self.gateway.stop()
        for handle in self.nodes.values():
            handle.kill()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    endpoint = ServiceEndpoint(tmp_path_factory.mktemp("service"))
    yield endpoint
    endpoint.stop()


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    endpoint = ClusterEndpoint(tmp_path_factory.mktemp("cluster"))
    yield endpoint
    endpoint.stop()


@pytest.fixture
def extra_gateway(cluster):
    """Build one more gateway over the cluster's nodes (the test stops it)."""
    return lambda: GatewayHandle(cluster.nodes)


@pytest.fixture(scope="module", params=["service", "cluster"])
def endpoint(request):
    """The service or the cluster: one client API over either transport."""
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="module")
def processes():
    bases = [random_fsp(8, tau_probability=0.2, all_accepting=True, seed=s) for s in (31, 32)]
    return {
        "bases": bases,
        "copies": [
            random_equivalent_copy(b, duplicates=2, seed=s + 40)
            for s, b in zip((31, 32), bases)
        ],
        "nears": [perturb(b, seed=s + 70) for s, b in zip((31, 32), bases)],
    }
