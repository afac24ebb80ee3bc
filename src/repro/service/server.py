"""The asyncio equivalence server: NDJSON RPCs fanned out over shard workers.

:class:`EquivalenceServer` owns one :class:`~repro.service.store.ProcessStore`
(where ``store`` uploads land) and one
:class:`~repro.service.shards.ShardPool` (where every check, minimisation and
classification actually runs).  The asyncio side never computes anything --
each connection is a cheap coroutine that parses frames, routes jobs to the
pool, and streams responses back -- so thousands of idle connections cost
almost nothing and the CPU-bound work saturates the worker processes.

Requests on one connection are answered in order (clients may pipeline);
``check_many`` fans its specs out across shards concurrently through the
fan-out the cluster coordinator shares (:mod:`repro.service.batch`),
reassembling the results in manifest order and reporting per-check errors
inline so one bad spec cannot poison a 10,000-check batch.

Production posture
------------------

* **Deadlines.**  ``check``/``check_many``/``minimize``/``classify`` accept
  ``deadline_ms``; checks thread the deadline into the worker for
  cooperative cancellation (:mod:`repro.service.flow`), the rest get a
  server-side watchdog.  Either way the client sees a structured
  ``deadline_exceeded`` error instead of an unbounded wait.
* **Quotas.**  With ``quota_rps`` set, each client address draws compute
  requests from a token bucket (``check_many`` costs one token per check)
  and is answered ``overloaded`` -- with ``retry_after_ms`` -- when it
  outruns its rate.  Combined with the pool's bounded queues this is the
  backpressure story: reject early, never wedge.
* **Metrics.**  One :class:`~repro.service.metrics.MetricsRegistry` counts
  requests/errors per op, times requests, queue waits and engine seconds,
  and gauges live queue depths; exported by the ``metrics`` RPC (JSON) and,
  with ``metrics_port``, a Prometheus-text HTTP endpoint (``GET /`` or
  ``GET /metrics``, served by :mod:`repro.service.httpd`).  ``trace_stream``
  additionally logs one JSON record per request (id, op, client, shard,
  queue wait, engine time, cache provenance).

See ``docs/service-protocol.md`` for the wire format and a copy-pasteable
session, and :mod:`repro.service.client` for the matching client.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from collections import OrderedDict
from collections.abc import Callable
from typing import IO, Any

from repro import __version__
from repro.service import batch, flow, httpd, protocol
from repro.service.metrics import MetricsRegistry, TraceLog
from repro.service.placement import routing_key_of
from repro.service.protocol import DEFAULT_PORT
from repro.service.shards import (
    DEFAULT_MAX_PROCESSES,
    DEFAULT_MAX_VERDICTS,
    ShardPool,
    _worker_classify,
    _worker_minimize,
)
from repro.service.store import ProcessStore

#: Most-recently-active client addresses with live token buckets; beyond
#: this, the coldest bucket is evicted (a returning client simply starts a
#: fresh, full bucket).
MAX_QUOTA_CLIENTS = 1024

#: Operations that never cost quota tokens: they are O(1) reads a client
#: needs precisely when it is being throttled.
QUOTA_EXEMPT_OPS = frozenset({"ping", "stats", "metrics"})


class EquivalenceServer:
    """A line-delimited-JSON equivalence-checking server.

    Parameters
    ----------
    host, port:
        Listen address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    store_root:
        Directory of the content-addressed process store, shared with every
        shard worker.  None creates a private temporary directory that lives
        as long as the server object.
    num_shards:
        Worker count of the shard pool (default: one per CPU).
    max_processes, max_verdicts:
        Per-shard engine cache bounds.
    max_queue, steal_threshold:
        Shard-pool flow control (see :class:`~repro.service.shards.ShardPool`):
        bounded per-shard queues and the work-stealing trigger.  Both default
        to off, preserving the pre-hardening behaviour.
    quota_rps, quota_burst:
        Per-client token-bucket quota (requests/second and burst capacity);
        ``quota_rps=None`` disables quotas, ``quota_burst=None`` defaults to
        twice the rate.
    metrics_port:
        Port for the Prometheus-text HTTP endpoint (0 picks a free port;
        None disables it).  Bound on the same host as the service.
    trace_stream:
        A text stream for per-request JSON trace records (``--trace`` passes
        stderr); None disables tracing.
    node_name:
        Cluster-node identity of this server (``repro cluster serve-node
        --name``).  Reported by ``ping``/``stats`` and stamped into each
        worker's exported engine stats so a gateway scraping several nodes
        renders their counters as distinct ``node=``-labelled series.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        store_root: str | None = None,
        num_shards: int | None = None,
        max_processes: int = DEFAULT_MAX_PROCESSES,
        max_verdicts: int = DEFAULT_MAX_VERDICTS,
        max_queue: int | None = None,
        steal_threshold: int | None = None,
        quota_rps: float | None = None,
        quota_burst: float | None = None,
        metrics_port: int | None = None,
        trace_stream: IO[str] | None = None,
        node_name: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.metrics_port = metrics_port
        self.node_name = node_name
        self._tempdir: tempfile.TemporaryDirectory | None = None
        if store_root is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-service-")
            store_root = self._tempdir.name
        # The front-end store only ever *writes* (digest resolution happens
        # in the shard workers against their own instances), so a large
        # in-memory cache here would just pin dead uploads.
        self.store = ProcessStore(store_root, max_cached=8)
        self.pool = ShardPool(
            num_shards,
            store_root,
            max_processes=max_processes,
            max_verdicts=max_verdicts,
            max_queue=max_queue,
            steal_threshold=steal_threshold,
            node_name=node_name,
        )
        if quota_rps is not None and quota_rps <= 0:
            raise ValueError("quota_rps must be positive (or None to disable quotas)")
        self._quota_rps = quota_rps
        self._quota_burst = quota_burst if quota_burst is not None else (
            2.0 * quota_rps if quota_rps is not None else None
        )
        # Buckets live on the event-loop thread only, so no lock is needed.
        self._buckets: OrderedDict[str, flow.TokenBucket] = OrderedDict()
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._connections = 0
        self._open_connections = 0
        self._requests = 0
        self._trace = TraceLog(trace_stream) if trace_stream is not None else None
        self.registry = MetricsRegistry()
        self._init_metrics()

    def _init_metrics(self) -> None:
        registry = self.registry
        self._m_requests = registry.counter(
            "repro_service_requests_total", "Requests served, by op", ("op",)
        )
        self._m_errors = registry.counter(
            "repro_service_errors_total", "Error responses, by op and code", ("op", "code")
        )
        self._m_request_seconds = registry.histogram(
            "repro_service_request_seconds", "End-to-end request latency, by op", ("op",)
        )
        self._m_queue_wait = registry.histogram(
            "repro_service_queue_wait_seconds", "Check queue wait, by shard", ("shard",)
        )
        self._m_engine_seconds = registry.histogram(
            "repro_service_engine_seconds", "Engine time per check, by notion", ("notion",)
        )
        self._m_cache = registry.counter(
            "repro_service_check_cache_total", "Check verdict cache hits/misses", ("outcome",)
        )
        registry.gauge(
            "repro_service_open_connections", "Currently open client connections"
        ).labels().set_function(lambda: self._open_connections)
        registry.gauge(
            "repro_service_pool_revivals", "Crashed shard workers replaced"
        ).labels().set_function(lambda: self.pool.revivals)
        registry.gauge(
            "repro_service_pool_steals", "Checks migrated off their home shard"
        ).labels().set_function(lambda: self.pool.steals)
        registry.gauge(
            "repro_service_pool_overloads", "Checks refused by full shard queues"
        ).labels().set_function(lambda: self.pool.overloads)
        depth = registry.gauge(
            "repro_service_shard_queue_depth", "Submitted-but-unfinished jobs, by shard", ("shard",)
        )
        for shard in range(self.pool.num_shards):
            depth.labels(str(shard)).set_function(
                lambda shard=shard: self.pool.queue_depths()[shard]
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (updates :attr:`port`)."""
        # Fork all shard workers before the loop gets busy (threads + fork
        # do not mix; see ShardPool.warm_up) -- also moves the start-up cost
        # out of the first request's latency.  Deliberately synchronous: a
        # helper thread here would itself widen the fork window.
        self.pool.warm_up()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_FRAME_BYTES + 2,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await httpd.start_server(
                self._metrics_http, self.host, self.metrics_port
            )
            self.metrics_port = self._metrics_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` entry point)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        self.pool.shutdown()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        self._open_connections += 1
        peername = writer.get_extra_info("peername")
        peer = str(peername[0]) if isinstance(peername, tuple) and peername else "unknown"
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # StreamReader's limit tripped: the frame is over-long.
                    writer.write(
                        protocol.error_response(
                            None, protocol.BAD_REQUEST, "frame exceeds the size limit"
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # EOF: client closed the connection
                if line.strip() == b"":
                    continue
                writer.write(await self._respond(line, peer))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
            pass
        except asyncio.CancelledError:
            # Server shutdown with this connection open.  Returning normally
            # (instead of propagating) keeps asyncio.streams' connection
            # callback from logging a spurious traceback per connection.
            pass
        finally:
            self._open_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # CancelledError: server shutdown with this connection open;
                # the socket is already closed, a traceback would be noise.
                pass

    async def _respond(self, line: bytes, peer: str = "unknown") -> bytes:
        """One request line in, one response line out (never raises)."""
        request_id: Any = None
        op: str | None = None
        started = time.monotonic()
        try:
            document = protocol.decode_frame(line)
            request_id = document.get("id")
            op, params = protocol.validate_request(document)
            self._requests += 1
            self._enforce_quota(peer, op, params)
            result = await self._dispatch(op, params)
            self._observe(op, None, started)
            self._trace_record(request_id, peer, op, "ok", started, result)
            return protocol.ok_response(request_id, result)
        except protocol.ProtocolError as error:
            self._observe(op, protocol.BAD_REQUEST, started)
            self._trace_record(request_id, peer, op, protocol.BAD_REQUEST, started, None)
            return protocol.error_response(request_id, protocol.BAD_REQUEST, str(error))
        except protocol.ServiceError as error:
            self._observe(op, error.code, started)
            self._trace_record(request_id, peer, op, error.code, started, None)
            return protocol.error_response(request_id, error.code, error.message, error.data)
        except Exception as error:  # last-resort guard: a bug must not kill the connection
            self._observe(op, protocol.INTERNAL, started)
            self._trace_record(request_id, peer, op, protocol.INTERNAL, started, None)
            return protocol.error_response(request_id, protocol.INTERNAL, repr(error))

    # ------------------------------------------------------------------
    # flow control and observability
    # ------------------------------------------------------------------
    def _enforce_quota(self, peer: str, op: str, params: dict[str, Any]) -> None:
        """Charge one client's token bucket for a compute op (or reject)."""
        if self._quota_rps is None or op in QUOTA_EXEMPT_OPS:
            return
        bucket = self._buckets.get(peer)
        if bucket is None:
            assert self._quota_burst is not None
            bucket = flow.TokenBucket(self._quota_rps, self._quota_burst)
            self._buckets[peer] = bucket
            if len(self._buckets) > MAX_QUOTA_CLIENTS:
                self._buckets.popitem(last=False)
        self._buckets.move_to_end(peer)
        cost = 1.0
        if op == "check_many":
            checks = params.get("checks")
            if isinstance(checks, list):
                cost = float(max(1, len(checks)))
        wait = bucket.try_acquire(cost)
        if wait > 0:
            raise protocol.ServiceError(
                protocol.OVERLOADED,
                f"client quota exceeded ({self._quota_rps:g} requests/s)",
                {"retry_after_ms": int(wait * 1000) + 1},
            )

    def _observe(self, op: str | None, code: str | None, started: float) -> None:
        label = op or "invalid"
        self._m_requests.labels(label).inc()
        self._m_request_seconds.labels(label).observe(time.monotonic() - started)
        if code is not None:
            self._m_errors.labels(label, code).inc()

    def _observe_check(self, result: dict[str, Any]) -> None:
        """Fold one successful check result into the histograms."""
        queue_wait = result.get("queue_wait")
        if isinstance(queue_wait, (int, float)):
            self._m_queue_wait.labels(str(result.get("shard", "?"))).observe(float(queue_wait))
        seconds = result.get("seconds")
        if isinstance(seconds, (int, float)):
            self._m_engine_seconds.labels(str(result.get("notion", "?"))).observe(float(seconds))
        if "from_cache" in result:
            self._m_cache.labels("hit" if result.get("from_cache") else "miss").inc()

    def _trace_record(
        self,
        request_id: Any,
        peer: str,
        op: str | None,
        status: str,
        started: float,
        result: dict[str, Any] | None,
    ) -> None:
        if self._trace is None:
            return
        fields: dict[str, Any] = {
            "id": request_id,
            "peer": peer,
            "op": op or "invalid",
            "status": status,
            "seconds": round(time.monotonic() - started, 6),
        }
        if isinstance(result, dict) and "shard" in result:
            fields["shard"] = result.get("shard")
            if "queue_wait" in result:
                fields["queue_wait"] = result.get("queue_wait")
            if "seconds" in result:
                fields["engine_seconds"] = result.get("seconds")
            if "from_cache" in result:
                fields["cache"] = "hit" if result.get("from_cache") else "miss"
        self._trace.record(**fields)

    @staticmethod
    def _deadline_from(params: dict[str, Any], started: float | None = None) -> float | None:
        """``deadline_ms`` (a duration from ``started``, default now) as an
        absolute monotonic instant."""
        value = params.get("deadline_ms")
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise protocol.ServiceError(
                protocol.BAD_REQUEST, "'deadline_ms' must be a positive number of milliseconds"
            )
        return (time.monotonic() if started is None else started) + float(value) / 1000.0

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _dispatch(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        if op == "ping":
            pong = {"pong": True, "version": __version__, "shards": self.pool.num_shards}
            if self.node_name is not None:
                pong["node"] = self.node_name
            return pong
        if op == "store":
            return await self._op_store(params)
        if op == "check":
            return await self._op_check(params)
        if op == "check_many":
            return await self._op_check_many(params)
        if op == "minimize":
            return await self._op_minimize(params)
        if op == "classify":
            return await self._op_classify(params)
        if op == "stats":
            return await self._op_stats()
        if op == "metrics":
            return {"metrics": self.registry.snapshot()}
        raise protocol.ServiceError(protocol.UNKNOWN_OP, f"unhandled op {op!r}")  # unreachable

    async def _op_store(self, params: dict[str, Any]) -> dict[str, Any]:
        ref = protocol.process_param(params, "store")

        def put() -> dict[str, Any]:
            # Validation, digesting and the disk write are CPU/IO work; run
            # them off the event loop so a large upload cannot stall other
            # connections (the store's cache bookkeeping is lock-protected).
            fsp = protocol.resolve_ref({"process": ref})
            digest = self.store.put(fsp)
            return {
                "digest": digest,
                "states": fsp.num_states,
                "transitions": fsp.num_transitions,
            }

        return await asyncio.to_thread(put)

    @staticmethod
    def _check_spec(params: dict[str, Any]) -> dict[str, Any]:
        """Normalise one check's parameters into a worker job spec."""
        spec = {
            "left": params.get("left"),
            "right": params.get("right"),
            "notion": params.get("notion", "observational"),
            "align": bool(params.get("align", True)),
            "witness": bool(params.get("witness", False)),
            # None means "decide by operand shape": composed-system operands
            # take the lazy route, plain processes the cached eager route.
            "on_the_fly": params.get("on_the_fly"),
            "params": params.get("params", {}),
        }
        reduction = params.get("reduction")
        if reduction is not None:
            # Validated here so a typo answers as bad_request instead of
            # silently running the unreduced route in the worker.
            from repro.core.errors import InvalidProcessError
            from repro.explore.reduce import normalize_reduction

            try:
                spec["reduction"] = normalize_reduction(reduction)
            except InvalidProcessError as error:
                raise protocol.ServiceError(protocol.BAD_REQUEST, str(error)) from None
        if spec["left"] is None or spec["right"] is None:
            raise protocol.ServiceError(
                protocol.BAD_REQUEST, "a check needs 'left' and 'right' process references"
            )
        if not isinstance(spec["params"], dict):
            raise protocol.ServiceError(protocol.BAD_REQUEST, "'params' must be a JSON object")
        return spec

    async def _op_check(
        self, params: dict[str, Any], started: float | None = None
    ) -> dict[str, Any]:
        spec = self._check_spec(params)
        deadline = self._deadline_from(params, started)
        result = await self.pool.run_async_check(spec, deadline=deadline)
        self._observe_check(result)
        return result

    async def _op_check_many(self, params: dict[str, Any]) -> dict[str, Any]:
        # One start instant for the whole batch: a batch ``deadline_ms`` is
        # one absolute deadline, so stragglers abort together.
        started = time.monotonic()
        return await batch.check_many(params, lambda check: self._op_check(check, started))

    async def _op_minimize(self, params: dict[str, Any]) -> dict[str, Any]:
        ref = protocol.process_param(params, "minimize")
        notion = params.get("notion", "observational")
        return await self._run_for(ref, params, _worker_minimize, ref, notion)

    async def _op_classify(self, params: dict[str, Any]) -> dict[str, Any]:
        ref = protocol.process_param(params, "classify")
        return await self._run_for(ref, params, _worker_classify, ref)

    async def _run_for(self, ref: Any, params: dict[str, Any], fn, *args) -> dict[str, Any]:
        """Run a one-process job on the process's shard, bounded by the request deadline."""
        order = self.pool.placement.owners(routing_key_of({"left": ref}))
        return await self.pool.run_async(order, fn, *args, deadline=self._deadline_from(params))

    async def _op_stats(self) -> dict[str, Any]:
        shard_stats = await self.pool.shard_stats()
        return {
            "server": {
                "version": __version__,
                "node": self.node_name,
                "shards": self.pool.num_shards,
                "connections": self._connections,
                "requests": self._requests,
                "revivals": self.pool.revivals,
                "steals": self.pool.steals,
                "overloads": self.pool.overloads,
                "queue_depths": self.pool.queue_depths(),
                "quota_clients": len(self._buckets),
                "store": self.store.cache_info(),
            },
            "shards": shard_stats,
        }

    # ------------------------------------------------------------------
    # the Prometheus scrape endpoint
    # ------------------------------------------------------------------
    async def _metrics_http(self, method: str, path: str, body: bytes) -> httpd.Response:
        """``GET /`` and ``GET /metrics`` answer the Prometheus text; nothing else does."""
        if path not in ("/", "/metrics"):
            return 404, httpd.envelope_error(protocol.UNKNOWN_OP, f"unknown route {path!r}"), {}
        if method != "GET":
            return 405, httpd.envelope_error(protocol.BAD_REQUEST, f"{path} is GET only"), {}
        return 200, self.registry.render(), {}


def run_until_interrupted(server: Any, banner: Callable[[], str]) -> None:
    """Start ``server``, print ``banner()``, serve until Ctrl-C, then stop it.

    The blocking entry point behind ``repro serve``, ``repro cluster
    serve-node`` and ``repro cluster serve-gateway``.
    """

    async def main() -> None:
        await server.start()
        print(banner(), flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


def serve(host: str = "127.0.0.1", port: int = DEFAULT_PORT, **options: Any) -> None:
    """Blocking entry point used by ``repro serve`` (Ctrl-C to stop).

    ``options`` are :class:`EquivalenceServer`'s keyword arguments.
    """
    server = EquivalenceServer(host, port, **options)

    def banner() -> str:
        extras = f", metrics on :{server.metrics_port}" if server.metrics_port is not None else ""
        name = f" [{server.node_name}]" if server.node_name else ""
        return (
            f"repro service{name} on {server.host}:{server.port} "
            f"({server.pool.num_shards} shard(s), store at {server.store.root}{extras})"
        )

    run_until_interrupted(server, banner)
