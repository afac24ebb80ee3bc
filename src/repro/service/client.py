"""The synchronous client for the equivalence service and the cluster.

Every RPC method is written once, here, on :class:`ServiceClient`, over one
transport hook (:meth:`ServiceClient._request_once`).  ``ServiceClient``
speaks the NDJSON protocol of :mod:`repro.service.protocol` over one TCP
connection to a node; :class:`~repro.cluster.client.ClusterClient` swaps in
the gateway's HTTP/JSON transport and adds only the two HTTP probe reads.
The client is deliberately synchronous -- the CLI, tests and most scripts
want a blocking call per question -- and deliberately thin: requests go out,
responses come back, and ``ok: false`` responses are raised as
:class:`~repro.service.protocol.ServiceError` with their error code intact.

The idiomatic heavy-traffic shape is *store once, check by digest*::

    with ServiceClient(port=8319) as client:
        digest = client.store(big_process)          # upload once
        for candidate in candidates:                # then reference forever
            answer = client.check(digest, candidate, "observational")
            print(answer["equivalent"], answer["shard"])

Digest references keep the per-check payload tiny and -- because the server
routes checks by the left process's digest -- every one of these checks
lands on the shard whose engine already holds ``big_process`` hot.

``overloaded`` responses (a full shard queue, a drained quota bucket) are
retried transparently: the client honours the server's ``retry_after_ms``
hint with jittered exponential backoff under a bounded budget
(:class:`~repro.service.retry.RetryPolicy`), and only surfaces the error
once the budget is spent.  Pass ``overload_retries=0`` to see every
rejection immediately (load generators and backpressure tests want this).
"""

from __future__ import annotations

import socket
from typing import Any

from repro.core.fsp import FSP
from repro.service import protocol
from repro.service.protocol import DEFAULT_PORT
from repro.service.retry import DEFAULT_RETRIES, RetryPolicy
from repro.utils.serialization import from_dict

#: Reference shapes accepted everywhere a process goes: an FSP (inlined), a
#: ``sha256:...`` digest string, or an already-serialised FSP dict.
ProcessLike = FSP | str | dict


def _overload_hint(error: Exception) -> Any:
    """RetryPolicy predicate: retryable iff the error is ``overloaded``."""
    if isinstance(error, protocol.ServiceError) and error.code == protocol.OVERLOADED:
        hint = (error.data or {}).get("retry_after_ms")
        return float(hint) if isinstance(hint, (int, float)) else None
    return False


class ServiceClient:
    """One connection to a running equivalence service (NDJSON over TCP).

    ``overload_retries`` bounds how many times an ``overloaded`` response is
    retried (with jittered backoff honouring the server's ``retry_after_ms``)
    before the error surfaces; ``retry_policy`` swaps in a fully custom
    :class:`~repro.service.retry.RetryPolicy` and overrides it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float | None = 60.0,
        *,
        overload_retries: int = DEFAULT_RETRIES,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._retry = (
            retry_policy if retry_policy is not None else RetryPolicy(overload_retries)
        )
        self._open()

    # ------------------------------------------------------------------
    # transport (the NDJSON one; ClusterClient overrides these three)
    # ------------------------------------------------------------------
    def _open(self) -> None:
        self._socket = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._reader = self._socket.makefile("rb")
        self._next_id = 0

    def request(self, op: str, params: dict[str, Any] | None = None) -> dict[str, Any]:
        """Send one request and block for its response.

        ``overloaded`` responses are retried under the client's
        :class:`~repro.service.retry.RetryPolicy` before surfacing.

        Raises
        ------
        ServiceError
            If the server answered ``ok: false`` (after any retries).
        ProtocolError
            If the response could not be parsed, or the connection died.
        """
        return self._retry.run(
            lambda: self._request_once(op, params), is_overloaded=_overload_hint
        )

    def _request_once(self, op: str, params: dict[str, Any] | None = None) -> dict[str, Any]:
        self._next_id += 1
        request_id = self._next_id
        self._socket.sendall(protocol.request_frame(request_id, op, params))
        line = self._reader.readline(protocol.MAX_FRAME_BYTES + 2)
        if not line:
            raise protocol.ProtocolError("server closed the connection")
        if not line.endswith(b"\n"):
            raise protocol.ProtocolError("response frame exceeds the size limit")
        response_id, result = protocol.parse_response(line)
        if response_id != request_id:
            raise protocol.ProtocolError(
                f"response id {response_id!r} does not match request id {request_id!r}"
            )
        return result

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        """Liveness probe: a node's version and shard count, or the cluster's
        node health and replication factor."""
        return self.request("ping")

    def store(self, process: FSP | dict) -> str:
        """Upload a process (replicated, on a cluster); returns its content
        digest for later references."""
        ref = protocol.process_ref(process)
        return self.request("store", {"process": ref["process"]})["digest"]

    def check(
        self,
        left: ProcessLike,
        right: ProcessLike,
        notion: str = "observational",
        *,
        align: bool = True,
        witness: bool = False,
        on_the_fly: bool | None = None,
        reduction: str | None = None,
        deadline_ms: float | None = None,
        **params: Any,
    ) -> dict[str, Any]:
        """Decide one equivalence; returns the serialised verdict dict.

        Operands may also be composed systems
        (:class:`~repro.explore.system.SystemSpec` values or
        ``{"system": ...}`` documents); those default to the server's
        on-the-fly route, and ``on_the_fly`` overrides the route either way.
        ``reduction`` requests a state-space reduction on the lazy route
        (``"none"``/``"por"``/``"symmetry"``/``"full"``; the mode actually
        applied comes back in the verdict's ``reduction`` field).
        ``deadline_ms`` bounds the check: past it, the worker aborts
        cooperatively and the call raises a ``deadline_exceeded``
        :class:`~repro.service.protocol.ServiceError`.
        """
        request: dict[str, Any] = {
            "left": protocol.process_ref(left),
            "right": protocol.process_ref(right),
            "notion": notion,
            "align": align,
            "witness": witness,
            "params": params,
        }
        if on_the_fly is not None:
            request["on_the_fly"] = on_the_fly
        if reduction is not None:
            request["reduction"] = reduction
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        return self.request("check", request)

    def check_many(
        self,
        checks: list[tuple | dict],
        *,
        notion: str = "observational",
        align: bool = True,
        witness: bool = False,
        reduction: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict[str, Any]:
        """Run a manifest of checks; returns ``{"results": [...], "summary": {...}}``.

        Each entry is ``(left, right)``, ``(left, right, notion)``, or a dict
        with ``left`` / ``right`` / optional ``notion`` / ``params``.
        ``reduction`` sets the batch-default state-space reduction (each
        entry may override it).  ``deadline_ms`` applies one absolute
        deadline to the whole batch; checks that miss it report
        ``deadline_exceeded`` inline.
        """
        encoded = []
        for index, item in enumerate(checks):
            if isinstance(item, dict):
                entry = dict(item)
                entry["left"] = protocol.process_ref(entry["left"])
                entry["right"] = protocol.process_ref(entry["right"])
            elif isinstance(item, (tuple, list)) and len(item) in (2, 3):
                entry = {
                    "left": protocol.process_ref(item[0]),
                    "right": protocol.process_ref(item[1]),
                }
                if len(item) == 3:
                    entry["notion"] = item[2]
            else:
                raise ValueError(
                    f"check #{index} must be (left, right[, notion]) or a mapping"
                )
            encoded.append(entry)
        params: dict[str, Any] = {
            "checks": encoded,
            "notion": notion,
            "align": align,
            "witness": witness,
        }
        if reduction is not None:
            params["reduction"] = reduction
        if deadline_ms is not None:
            params["deadline_ms"] = deadline_ms
        return self.request("check_many", params)

    def minimize(self, process: ProcessLike, notion: str = "observational") -> FSP:
        """The quotient of a process under strong/observational equivalence
        (a cluster serves it from its artifact cache first)."""
        result = self.request(
            "minimize", {"process": protocol.process_ref(process), "notion": notion}
        )
        return from_dict(result["process"])

    def classify(self, process: ProcessLike) -> list[str]:
        """The model classes of a process (Fig. 1a hierarchy), as strings."""
        return self.request("classify", {"process": protocol.process_ref(process)})["classes"]

    def stats(self) -> dict[str, Any]:
        """Server totals plus per-shard engine/store cache statistics (on a
        cluster: coordinator counters plus each node's stats)."""
        return self.request("stats")

    def metrics(self) -> dict[str, Any]:
        """The server's (or gateway's) metrics registry snapshot."""
        return self.request("metrics")["metrics"]
