"""Coordinator unit tests: routing, failover, repair -- with scripted nodes.

The placement policy (affinity, stealing, the recent-keys LRU) is shared
with the shard pool and tested at both levels in
``tests/service/test_placement.py``.

These tests run against *fake* nodes (tiny asyncio NDJSON servers whose
answers the test scripts), so every distributed failure mode -- a dead
primary, a replica missing an upload, a saturated node -- can be staged
deterministically without booting real shard pools.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.store import ClusterStore
from repro.generators.random_fsp import random_fsp
from repro.service import protocol
from repro.utils.serialization import content_digest, from_dict

DIGEST_A = "sha256:" + "a" * 64
DIGEST_B = "sha256:" + "b" * 64


class FakeNode:
    """A scripted NDJSON node: answers every op via the provided handler."""

    def __init__(self, handler=None):
        self.handler = handler or (lambda op, params: {"pong": True})
        self.server: asyncio.AbstractServer | None = None
        self.port = 0
        self.requests: list[tuple[str, dict]] = []

    async def start(self) -> None:
        async def handle(reader, writer):
            try:
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    request_id, op, params = protocol.parse_request(line)
                    self.requests.append((op, params))
                    try:
                        result = self.handler(op, params)
                    except protocol.ServiceError as error:
                        writer.write(
                            protocol.error_response(
                                request_id, error.code, error.message, error.data
                            )
                        )
                    else:
                        writer.write(protocol.ok_response(request_id, result))
                    await writer.drain()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                writer.close()

        self.server = await asyncio.start_server(handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None


async def dead_port() -> int:
    """A port with nothing listening (connections are refused)."""
    probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
    port = probe.sockets[0].getsockname()[1]
    probe.close()
    await probe.wait_closed()
    return port


# ----------------------------------------------------------------------
# construction and routing (no I/O)
# ----------------------------------------------------------------------
def make_coordinator(node_ids, **kwargs) -> ClusterCoordinator:
    return ClusterCoordinator(
        {node_id: ("127.0.0.1", 1) for node_id in node_ids}, **kwargs
    )


def test_constructor_validation():
    with pytest.raises(ValueError):
        ClusterCoordinator({})
    with pytest.raises(ValueError):
        make_coordinator(["a"], replication_factor=0)
    with pytest.raises(ValueError):
        make_coordinator(["a"], steal_threshold=0)


def test_replication_factor_is_clamped_to_the_node_count():
    coordinator = make_coordinator(["a", "b"], replication_factor=5)
    assert coordinator.replication_factor == 2


def test_replicas_skip_unhealthy_nodes():
    coordinator = make_coordinator(["a", "b", "c"], replication_factor=2)
    full = coordinator.replicas_for(DIGEST_A)
    assert len(full) == 2
    coordinator.nodes[full[0].node_id].healthy = False
    reduced = coordinator.replicas_for(DIGEST_A)
    assert full[0].node_id not in {node.node_id for node in reduced}
    assert reduced[0].node_id == full[1].node_id  # the backup is promoted


def test_plan_check_raises_overloaded_when_no_node_is_healthy():
    coordinator = make_coordinator(["a", "b"])
    for node in coordinator.nodes.values():
        node.healthy = False
    with pytest.raises(protocol.ServiceError) as excinfo:
        coordinator.plan_check({"left": {"digest": DIGEST_A}})
    assert excinfo.value.code == protocol.OVERLOADED
    assert excinfo.value.data["retry_after_ms"] > 0


# ----------------------------------------------------------------------
# dispatch: failover and error propagation (scripted I/O)
# ----------------------------------------------------------------------
def test_dispatch_fails_over_to_the_next_replica():
    async def scenario():
        live = FakeNode(lambda op, params: {"answered_by": "live"})
        await live.start()
        refused = await dead_port()
        coordinator = ClusterCoordinator(
            {"dead": ("127.0.0.1", refused), "live": ("127.0.0.1", live.port)},
            request_timeout=10.0,
        )
        candidates = [coordinator.nodes["dead"], coordinator.nodes["live"]]
        try:
            result = await coordinator._dispatch(candidates, "ping", {})
        finally:
            await coordinator.stop()
            await live.stop()
        return coordinator, result

    coordinator, result = asyncio.run(scenario())
    assert result["answered_by"] == "live"
    assert result["node"] == "live"
    assert coordinator.failovers == 1
    assert coordinator.nodes["dead"].healthy is False
    assert coordinator.nodes["live"].healthy is True


def test_dispatch_raises_when_every_candidate_is_dead():
    async def scenario():
        ports = [await dead_port(), await dead_port()]
        coordinator = ClusterCoordinator(
            {"d1": ("127.0.0.1", ports[0]), "d2": ("127.0.0.1", ports[1])},
            request_timeout=10.0,
        )
        try:
            with pytest.raises(protocol.ServiceError) as excinfo:
                await coordinator._dispatch(list(coordinator.nodes.values()), "ping", {})
        finally:
            await coordinator.stop()
        return excinfo.value

    error = asyncio.run(scenario())
    assert error.code == protocol.INTERNAL
    assert "candidate" in error.message


def test_app_level_errors_do_not_fail_over():
    async def scenario():
        def reject(op, params):
            raise protocol.ServiceError(protocol.CHECK_FAILED, "left start state missing")

        first, second = FakeNode(reject), FakeNode(lambda op, params: {"ok": True})
        await first.start()
        await second.start()
        coordinator = ClusterCoordinator(
            {"first": ("127.0.0.1", first.port), "second": ("127.0.0.1", second.port)}
        )
        try:
            with pytest.raises(protocol.ServiceError) as excinfo:
                await coordinator._dispatch(
                    [coordinator.nodes["first"], coordinator.nodes["second"]], "check", {}
                )
        finally:
            await coordinator.stop()
            await first.stop()
            await second.stop()
        return excinfo.value, second.requests

    error, second_requests = asyncio.run(scenario())
    assert error.code == protocol.CHECK_FAILED
    assert second_requests == []  # the error propagated, no retry elsewhere


def test_unknown_digest_on_a_stolen_node_falls_back():
    # A replica that missed the upload answers unknown_digest; the dispatch
    # walks on to the next candidate instead of surfacing the miss.
    async def scenario():
        def missing(op, params):
            raise protocol.ServiceError(protocol.UNKNOWN_DIGEST, "no such digest")

        thief, primary = FakeNode(missing), FakeNode(lambda op, params: {"equivalent": True})
        await thief.start()
        await primary.start()
        coordinator = ClusterCoordinator(
            {"thief": ("127.0.0.1", thief.port), "primary": ("127.0.0.1", primary.port)}
        )
        try:
            result = await coordinator._dispatch(
                [coordinator.nodes["thief"], coordinator.nodes["primary"]], "check", {}
            )
        finally:
            await coordinator.stop()
            await thief.stop()
            await primary.stop()
        return result

    result = asyncio.run(scenario())
    assert result["equivalent"] is True
    assert result["node"] == "primary"


def test_unknown_digest_triggers_read_repair_from_the_store(tmp_path):
    # The routed node never saw the right operand's upload (it replicates
    # under its own digest, possibly elsewhere); the coordinator pushes the
    # process from its durable store and retries the *same* node.
    async def scenario():
        store = ClusterStore(tmp_path)
        right_digest = store.processes.put(random_fsp(6, seed=77))
        seen: set[str] = set()

        def handler(op, params):
            if op == "store":
                digest = content_digest(from_dict(params["process"]))
                seen.add(digest)
                return {"digest": digest}
            if params["right"]["digest"] not in seen:
                raise protocol.ServiceError(protocol.UNKNOWN_DIGEST, "right operand missing")
            return {"equivalent": True}

        node = FakeNode(handler)
        await node.start()
        coordinator = ClusterCoordinator({"solo": ("127.0.0.1", node.port)}, store=store)
        try:
            result = await coordinator._dispatch(
                [coordinator.nodes["solo"]],
                "check",
                {"left": {"digest": DIGEST_A}, "right": {"digest": right_digest}},
            )
        finally:
            await coordinator.stop()
            await node.stop()
        return result, coordinator.repairs, [op for op, _ in node.requests]

    result, repairs, ops = asyncio.run(scenario())
    assert result["equivalent"] is True
    assert repairs == 1  # DIGEST_A is not in the store, so only right repaired
    assert ops == ["check", "store", "check"]


def test_unrepairable_unknown_digest_propagates(tmp_path):
    # Nothing in the coordinator store and no other replica: the miss is real.
    async def scenario():
        def missing(op, params):
            raise protocol.ServiceError(protocol.UNKNOWN_DIGEST, "no such digest")

        node = FakeNode(missing)
        await node.start()
        coordinator = ClusterCoordinator(
            {"solo": ("127.0.0.1", node.port)}, store=ClusterStore(tmp_path)
        )
        try:
            with pytest.raises(protocol.ServiceError) as excinfo:
                await coordinator._dispatch(
                    [coordinator.nodes["solo"]], "check", {"left": {"digest": DIGEST_A}}
                )
        finally:
            await coordinator.stop()
            await node.stop()
        return excinfo.value, len(node.requests)

    error, request_count = asyncio.run(scenario())
    assert error.code == protocol.UNKNOWN_DIGEST
    assert request_count == 1  # no store entry, so no repair round trip


def test_probe_once_flips_health_both_ways():
    async def scenario():
        live = FakeNode()
        await live.start()
        refused = await dead_port()
        coordinator = ClusterCoordinator(
            {"live": ("127.0.0.1", live.port), "dead": ("127.0.0.1", refused)}
        )
        try:
            health = await coordinator.probe_once()
            assert health == {"live": True, "dead": False}
            # A node coming back is noticed by the next probe.
            revived = FakeNode()
            await revived.start()
            coordinator.nodes["dead"].link.port = revived.port
            health = await coordinator.probe_once()
            await revived.stop()
            return health
        finally:
            await coordinator.stop()
            await live.stop()

    assert asyncio.run(scenario()) == {"live": True, "dead": True}


def test_store_replicates_and_tolerates_one_replica_loss():
    from repro.generators.random_fsp import random_fsp
    from repro.utils.serialization import to_dict

    fsp = random_fsp(6, seed=5)
    serialised = to_dict(fsp)

    async def scenario():
        def accept(op, params):
            return {"digest": "ignored", "states": 6}

        def explode(op, params):
            raise protocol.ServiceError(protocol.INTERNAL, "disk full")

        good, bad = FakeNode(accept), FakeNode(explode)
        await good.start()
        await bad.start()
        coordinator = ClusterCoordinator(
            {"good": ("127.0.0.1", good.port), "bad": ("127.0.0.1", bad.port)},
            replication_factor=2,
        )
        try:
            result = await coordinator.store_process({"process": serialised})
        finally:
            await coordinator.stop()
            await good.stop()
            await bad.stop()
        return coordinator, result

    coordinator, result = asyncio.run(scenario())
    assert result["replicas"] == ["good"]
    assert result["states"] == fsp.num_states
    assert coordinator.replications == 1
    assert coordinator.replication_failures == 1


def test_check_many_requires_a_checks_list():
    async def scenario():
        node = FakeNode()
        await node.start()
        coordinator = ClusterCoordinator({"n": ("127.0.0.1", node.port)})
        try:
            with pytest.raises(protocol.ServiceError) as excinfo:
                await coordinator.check_many({"checks": "not-a-list"})
        finally:
            await coordinator.stop()
            await node.stop()
        return excinfo.value

    assert asyncio.run(scenario()).code == protocol.BAD_REQUEST
