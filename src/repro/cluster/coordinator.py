"""The cluster coordinator: digest-affinity routing across remote nodes.

A :class:`ClusterCoordinator` places every operation on a ring of
equivalence-service nodes (each node is a full
:class:`~repro.service.server.EquivalenceServer` -- shards, deadlines,
backpressure and all) with the same :class:`~repro.service.placement.
Placement` policy the shard pool applies to shards inside one node, one
level up:

* **Affinity.**  A check routes by the same key the shard layer uses
  (:func:`repro.service.placement.routing_key_of`), walked clockwise on the
  ring.  All checks touching one stored process land on one node, whose
  shard pool then routes them onto one worker -- two levels of the same
  digest stickiness, so the per-worker engine caches stay hot end to end.
  A right operand the routed node never saw (it replicates under its own
  digest, possibly to other nodes) is read-repaired from the coordinator's
  durable store on first touch, then lives on the node like any upload.
* **Replication.**  ``store`` uploads go to the key's first
  ``replication_factor`` ring nodes; an upload succeeds when at least one
  replica accepted it (the rest are counted, not fatal).  Minimisation
  artifacts are persisted in the coordinator's own
  :class:`~repro.cluster.store.ClusterStore` keyed ``(digest, notion)`` and
  the quotient process is re-stored to the replicas, so a minimisation
  computed on a node that later dies is still served -- from the artifact
  store without any node at all, or recomputed cheaply from any replica.
* **Health and failover.**  A background probe pings every node; probe or
  request failures mark a node unhealthy (excluded from ring walks) until a
  probe succeeds again.  A request whose node dies mid-flight fails over to
  the next replica -- checks are idempotent (engines cache by content), so
  retrying elsewhere is always safe.
* **Work-stealing.**  With ``steal_threshold`` set, a store-referenced,
  cache-cold check whose primary already has that many requests in flight
  dispatches to the least-loaded *replica* instead -- replicas hold the
  digest by construction, so stealing never trades a cache miss for an
  ``unknown_digest``.  Hot keys stay home: the shard pool's rule, over
  in-flight counts instead of queue depths.

The coordinator is asyncio-native (the gateway embeds it in its event
loop); telemetry is exposed as plain counters the gateway folds into its
Prometheus registry.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.cluster.store import ClusterStore
from repro.core.errors import InvalidProcessError
from repro.service import batch, protocol
from repro.service.placement import Placement, routing_key_of
from repro.utils.serialization import content_digest, to_dict

__all__ = ["COUNTERS", "ClusterCoordinator", "NodeLink", "NodeState"]

#: Replication factor when the caller does not pick one: the primary plus
#: one replica tolerates one node loss without losing any stored process.
DEFAULT_REPLICATION = 2

#: Seconds between background health probes.
DEFAULT_PROBE_INTERVAL = 1.0

#: Per-probe timeout: a node that cannot answer ``ping`` this fast is
#: treated as down (generous against fork pauses, tight against hangs).
PROBE_TIMEOUT = 5.0

#: The coordinator's counters and what they count: ``stats`` reports each,
#: and the gateway exports each as ``repro_cluster_<name>_total``.
COUNTERS = {
    "failovers": "requests retried on another node",
    "steals": "checks stolen from a busy primary",
    "repairs": "digest read-repairs pushed to nodes",
    "replications": "replica uploads accepted",
    "replication_failures": "replica uploads that failed",
    "artifact_hits": "minimize served from artifacts",
    "artifact_misses": "minimize artifact lookups that missed",
}

#: ``retry_after_ms`` hint attached when no healthy node can serve a key.
NO_NODE_RETRY_MS = 500

#: Ceiling on establishing a TCP connection to a node.  Separate from the
#: request timeout: a healthy node accepts instantly even when busy, so a
#: slow connect means the node (not the work) is sick.
CONNECT_TIMEOUT = 5.0


def _digest_refs(params: dict[str, Any]) -> list[str]:
    """Every digest reference in a request, in operand order, deduplicated."""
    digests: list[str] = []
    for key in ("left", "right", "process"):
        ref = params.get(key)
        if isinstance(ref, dict):
            digest = ref.get("digest")
            if isinstance(digest, str) and digest not in digests:
                digests.append(digest)
    return digests


class NodeLink:
    """One pipelined NDJSON connection to a node (id-matched responses).

    The service answers requests on one connection in order, so many
    concurrent coordinator requests share a single connection: writes are
    serialised under a lock, one reader task resolves pending futures by
    request id.  Any transport failure fails every pending request with
    :class:`ConnectionError` -- the coordinator treats that as node loss
    and fails over.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._connect_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def _ensure_connected(self) -> None:
        async with self._connect_lock:
            if self._writer is not None:
                return
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(
                        self.host, self.port, limit=protocol.MAX_FRAME_BYTES + 2
                    ),
                    timeout=CONNECT_TIMEOUT,
                )
            except asyncio.TimeoutError:
                raise ConnectionError(
                    f"connect to {self.host}:{self.port} timed out"
                ) from None
            self._reader = reader
            self._writer = writer
            self._reader_task = asyncio.ensure_future(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    raise ConnectionError("node closed the connection")
                document = protocol.decode_frame(line)
                request_id = document.get("id")
                future = self._pending.get(request_id)
                if future is not None and not future.done():
                    # A malformed answer raises ProtocolError out of this
                    # loop with the future still pending, so it fails too.
                    try:
                        future.set_result(protocol.response_result(document))
                    except protocol.ServiceError as error:
                        future.set_exception(error)
                self._pending.pop(request_id, None)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self._fail_pending(error)

    def _fail_pending(self, error: Exception) -> None:
        """Tear the connection down and fail every in-flight request."""
        pending, self._pending = self._pending, {}
        wrapped = error if isinstance(error, ConnectionError) else ConnectionError(str(error))
        for future in pending.values():
            if not future.done():
                future.set_exception(wrapped)
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()

    async def request(
        self, op: str, params: dict[str, Any] | None = None, *, timeout: float | None = None
    ) -> dict[str, Any]:
        """One RPC round trip; raises ServiceError/ConnectionError."""
        await self._ensure_connected()
        assert self._writer is not None
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(protocol.request_frame(request_id, op, params))
                await self._writer.drain()
        except (ConnectionError, OSError) as error:
            self._pending.pop(request_id, None)
            self._fail_pending(ConnectionError(str(error)))
            raise ConnectionError(str(error)) from None
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout=timeout)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise ConnectionError(
                f"node {self.host}:{self.port} did not answer {op!r} within {timeout:g}s"
            ) from None

    def abort(self, reason: str) -> None:
        """Fail every in-flight request and drop the connection.

        For when something *other* than the transport (a failed health
        probe, say) declares the node dead: a half-dead node can keep a
        connection open without ever answering, and waiting out the full
        request timeout on it would stall failover.
        """
        self._fail_pending(ConnectionError(reason))

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        self._fail_pending(ConnectionError("link closed"))


class NodeState:
    """One node's link plus the coordinator's view of it."""

    def __init__(self, node_id: str, host: str, port: int) -> None:
        self.node_id = node_id
        self.link = NodeLink(host, port)
        self.healthy = True
        self.inflight = 0
        self.checks_sent = 0

    def __repr__(self) -> str:
        return (
            f"NodeState({self.node_id!r}, {self.link.host}:{self.link.port}, "
            f"healthy={self.healthy}, inflight={self.inflight})"
        )


class ClusterCoordinator:
    """Routes service operations across a ring of equivalence-server nodes.

    Parameters
    ----------
    nodes:
        ``{node_id: (host, port)}`` -- the cluster membership.
    replication_factor:
        How many ring nodes hold each stored process (clamped to the node
        count).
    steal_threshold:
        In-flight depth at which a cache-cold, store-referenced check leaves
        its primary for the least-loaded replica (None disables stealing).
    store:
        The coordinator's persistent :class:`ClusterStore` (processes it has
        accepted plus minimisation artifacts).  None keeps the coordinator
        stateless: uploads still replicate to nodes, but artifacts are not
        persisted.
    request_timeout:
        Per-request ceiling before a node is declared lost (failover).
    probe_interval:
        Seconds between background health probes (``start()`` launches the
        probe task; ``probe_once()`` is the manual equivalent).
    """

    def __init__(
        self,
        nodes: dict[str, tuple[str, int]],
        *,
        replication_factor: int = DEFAULT_REPLICATION,
        steal_threshold: int | None = None,
        store: ClusterStore | None = None,
        request_timeout: float | None = 120.0,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
    ) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        if replication_factor < 1:
            raise ValueError("replication_factor must be positive")
        self.nodes: dict[str, NodeState] = {
            node_id: NodeState(node_id, host, port)
            for node_id, (host, port) in sorted(nodes.items())
        }
        #: Ring placement over the node ids: a key's failover order is its
        #: replica set, and stealing only moves a check between replicas.
        self.placement = Placement(
            self.nodes, replicas=replication_factor, steal_threshold=steal_threshold
        )
        self.replication_factor = self.placement.replicas
        self.store = store
        self.request_timeout = request_timeout
        self.probe_interval = probe_interval
        self._probe_task: asyncio.Task | None = None
        # telemetry (see COUNTERS; the placement counts steals)
        self.failovers = 0
        self.repairs = 0
        self.replications = 0
        self.replication_failures = 0
        self.artifact_hits = 0
        self.artifact_misses = 0

    # ------------------------------------------------------------------
    # lifecycle and health
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Probe every node once, then keep probing in the background."""
        await self.probe_once()
        if self._probe_task is None:
            self._probe_task = asyncio.ensure_future(self._probe_loop())

    async def stop(self) -> None:
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        for node in self.nodes.values():
            await node.link.close()

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval)
            try:
                await self.probe_once()
            except asyncio.CancelledError:  # pragma: no cover - shutdown race
                raise
            except Exception:  # pragma: no cover - probes must never die
                pass

    async def probe_once(self) -> dict[str, bool]:
        """Ping every node; returns the fresh health map."""

        async def probe(node: NodeState) -> None:
            try:
                await node.link.request("ping", timeout=PROBE_TIMEOUT)
                node.healthy = True
            except (ConnectionError, OSError, protocol.ProtocolError):
                node.healthy = False
                # A probed-dead node must not keep callers waiting out the
                # request timeout (a half-dead node can hold connections
                # open silently): fail its in-flight requests so they fail
                # over immediately.  Checks are idempotent, so a request
                # the node actually finished is safe to retry elsewhere.
                node.link.abort(f"node {node.node_id} failed its health probe")

        await asyncio.gather(*(probe(node) for node in self.nodes.values()))
        return self.health()

    def health(self) -> dict[str, bool]:
        """The current health map (no probing; see :meth:`probe_once`)."""
        return {node_id: node.healthy for node_id, node in self.nodes.items()}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def steals(self) -> int:
        """How many checks left their primary for a less loaded replica."""
        return self.placement.steals

    def _unhealthy(self) -> frozenset[str]:
        return frozenset(node_id for node_id, node in self.nodes.items() if not node.healthy)

    def replicas_for(self, key: str | None) -> list[NodeState]:
        """The replica set (primary first) for one routing key, healthy only."""
        return [self.nodes[node_id] for node_id in self.placement.owners(key, self._unhealthy())]

    def _no_nodes(self) -> protocol.ServiceError:
        return protocol.ServiceError(
            protocol.OVERLOADED,
            "no healthy cluster node can serve this request",
            {"retry_after_ms": NO_NODE_RETRY_MS, "healthy_nodes": 0},
        )

    def plan_check(self, spec: dict[str, Any]) -> list[NodeState]:
        """The dispatch order for one check: steal target first, then failover.

        The placement's steal rule runs against in-flight request counts;
        the returned list is the failover order -- callers walk it until a
        node answers.
        """
        order = self.placement.plan(
            spec, lambda node_id: self.nodes[node_id].inflight, exclude=self._unhealthy()
        )
        if not order:
            raise self._no_nodes()
        return [self.nodes[node_id] for node_id in order]

    async def _dispatch(
        self,
        candidates: list[NodeState],
        op: str,
        params: dict[str, Any],
        *,
        count_check: bool = False,
    ) -> dict[str, Any]:
        """Walk the candidate list until one node answers.

        Transport failures (connection loss, timeout) mark the node
        unhealthy, count a failover and move on.  Structured
        :class:`~repro.service.protocol.ServiceError` replies propagate,
        with one exception: ``unknown_digest`` first triggers a read
        repair (push the missing processes from the coordinator's durable
        store and retry the same node once), and failing that falls
        through to the next candidate, which may hold the upload.
        """
        last_error: Exception | None = None
        for index, node in enumerate(candidates):
            has_fallback = index + 1 < len(candidates)
            node.inflight += 1
            if count_check:
                node.checks_sent += 1
            try:
                repaired = False
                while True:
                    try:
                        result = await node.link.request(
                            op, params, timeout=self.request_timeout
                        )
                        result.setdefault("node", node.node_id)
                        return result
                    except protocol.ServiceError as error:
                        if error.code != protocol.UNKNOWN_DIGEST:
                            raise
                        if not repaired and await self._repair_missing(node, params):
                            repaired = True  # the node holds the digests now
                            continue
                        if has_fallback:
                            last_error = error
                            break
                        raise
            except (ConnectionError, OSError) as error:
                node.healthy = False
                last_error = error
                if has_fallback:
                    self.failovers += 1
            finally:
                node.inflight = max(0, node.inflight - 1)
        if isinstance(last_error, protocol.ServiceError):
            raise last_error
        raise self._no_nodes() if last_error is None else protocol.ServiceError(
            protocol.INTERNAL,
            f"every candidate node failed: {last_error}",
            {"nodes_tried": len(candidates)},
        )

    async def _dispatch_for(self, ref: Any, op: str, params: dict[str, Any]) -> dict[str, Any]:
        """Route a one-process request to the process's replicas (failover order)."""
        candidates = self.replicas_for(routing_key_of({"left": ref}))
        if not candidates:
            raise self._no_nodes()
        return await self._dispatch(candidates, op, params)

    async def _repair_missing(self, node: NodeState, params: dict[str, Any]) -> int:
        """Push digest-referenced processes the node lacks; returns the count.

        Affinity routes a check by its *left* digest, so the right operand
        (replicated under its own digest) may live on a disjoint replica
        set.  When a node answers ``unknown_digest`` and the coordinator's
        durable store holds the process, pushing it and retrying beats
        failing over: the node keeps the copy, so one repair serves every
        later request with the same operand.
        """
        if self.store is None:
            return 0
        pushed = 0
        for digest in _digest_refs(params):
            try:
                fsp = await asyncio.to_thread(self.store.processes.get, digest)
            except (KeyError, InvalidProcessError):
                continue  # not ours to repair (or corrupt) -- let routing decide
            try:
                await node.link.request(
                    "store", {"process": to_dict(fsp)}, timeout=self.request_timeout
                )
                pushed += 1
            except protocol.ServiceError:  # pragma: no cover - node rejected it
                pass
        self.repairs += pushed
        return pushed

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def ping(self) -> dict[str, Any]:
        """Coordinator-level liveness: healthy node count plus membership."""
        health = self.health()
        return {
            "pong": True,
            "nodes": health,
            "healthy_nodes": sum(health.values()),
            "replication_factor": self.replication_factor,
        }

    async def check(self, params: dict[str, Any]) -> dict[str, Any]:
        """Route one check to its planned node, failing over on node loss."""
        return await self._dispatch(self.plan_check(params), "check", params, count_check=True)

    async def check_many(self, params: dict[str, Any]) -> dict[str, Any]:
        """Fan a manifest across the cluster; per-check errors stay inline."""
        return await batch.check_many(params, self.check)

    async def store_process(self, params: dict[str, Any]) -> dict[str, Any]:
        """Replicate one upload to the digest's replica set.

        The upload is validated (and its digest computed) locally, then
        pushed to every replica in parallel; at least one replica must
        accept it.  With a :class:`ClusterStore` attached, the coordinator
        persists its own copy too, so re-replication after a node loss has
        a durable source.
        """
        ref = protocol.process_param(params, "store")
        fsp = protocol.resolve_ref({"process": ref})
        digest = content_digest(fsp)
        if self.store is not None:
            await asyncio.to_thread(self.store.processes.put, fsp)
        replicas = self.replicas_for(digest)
        if not replicas:
            raise self._no_nodes()

        async def push(node: NodeState) -> str | None:
            try:
                await node.link.request(
                    "store", {"process": ref}, timeout=self.request_timeout
                )
                return node.node_id
            except (ConnectionError, OSError):
                node.healthy = False
                return None
            except protocol.ServiceError:
                return None

        accepted = [r for r in await asyncio.gather(*(push(node) for node in replicas)) if r]
        self.replications += len(accepted)
        self.replication_failures += len(replicas) - len(accepted)
        if not accepted:
            raise protocol.ServiceError(
                protocol.INTERNAL,
                "no replica accepted the upload",
                {"replicas_tried": len(replicas)},
            )
        return {
            "digest": digest,
            "states": fsp.num_states,
            "transitions": fsp.num_transitions,
            "replicas": accepted,
        }

    async def minimize(self, params: dict[str, Any]) -> dict[str, Any]:
        """Minimise via the artifact store first, any replica second.

        A ``(digest, notion)`` artifact hit answers without touching a node
        at all -- this is the replication contract that keeps minimisations
        available after node loss.  On a miss the request routes like a
        check (primary, failover to replicas), the artifact is persisted,
        and the quotient process is re-stored to the replica set so later
        checks can reference it by digest anywhere.
        """
        ref = protocol.process_param(params, "minimize")
        notion = str(params.get("notion", "observational"))
        digest: str | None = None
        if isinstance(ref, dict):
            if isinstance(ref.get("digest"), str):
                digest = ref["digest"]
            elif "process" in ref:
                # Inline uploads get an artifact key too: same process, same
                # digest, so repeat minimisations hit the cache either way.
                digest = content_digest(protocol.resolve_ref(ref))
        if self.store is not None and isinstance(digest, str):
            try:
                cached = await asyncio.to_thread(self.store.get_artifact, digest, notion)
            except KeyError:
                cached = None
            if cached is not None:
                self.artifact_hits += 1
                return {**cached, "from_artifact_cache": True}
            self.artifact_misses += 1
        result = await self._dispatch_for(ref, "minimize", params)
        if self.store is not None and isinstance(digest, str):
            document = {k: v for k, v in result.items() if k != "from_artifact_cache"}
            try:
                await asyncio.to_thread(self.store.put_artifact, digest, notion, document)
            except KeyError:
                pass
            quotient = result.get("process")
            if isinstance(quotient, dict):
                # Make the quotient itself addressable on every replica.
                try:
                    await self.store_process({"process": quotient})
                except protocol.ServiceError:  # pragma: no cover - best effort
                    pass
        return result

    async def classify(self, params: dict[str, Any]) -> dict[str, Any]:
        ref = protocol.process_param(params, "classify")
        return await self._dispatch_for(ref, "classify", params)

    async def stats(self) -> dict[str, Any]:
        """Coordinator counters plus whatever each live node reports."""

        async def node_stats(node: NodeState) -> dict[str, Any]:
            if not node.healthy:
                # Don't block a stats call behind a node the probes already
                # declared dead; its last probe verdict is the answer.
                return {"node": node.node_id, "healthy": False, "error": "node is down"}
            try:
                stats = await node.link.request("stats", timeout=PROBE_TIMEOUT)
                return {"node": node.node_id, "healthy": node.healthy, **stats}
            except (ConnectionError, OSError, protocol.ServiceError) as error:
                node.healthy = False
                return {"node": node.node_id, "healthy": False, "error": str(error)}

        per_node = await asyncio.gather(*(node_stats(n) for n in self.nodes.values()))
        return {
            "coordinator": {
                "nodes": len(self.nodes),
                "healthy_nodes": sum(1 for n in self.nodes.values() if n.healthy),
                "replication_factor": self.replication_factor,
                "steal_threshold": self.placement.steal_threshold,
                **{name: getattr(self, name) for name in COUNTERS},
                "inflight": {n.node_id: n.inflight for n in self.nodes.values()},
                "store": self.store.cache_info() if self.store is not None else None,
            },
            "nodes": list(per_node),
        }
