"""Synchronous HTTP client for the cluster gateway.

:class:`ClusterClient` is :class:`~repro.service.client.ServiceClient` over
the gateway's HTTP/JSON dialect instead of raw NDJSON: every RPC method is
inherited, so anything written against the TCP client ports to the cluster
by swapping the constructor.  Error envelopes (``{"ok": false, "error":
{...}}``) are rehydrated into the same :class:`~repro.service.protocol.
ServiceError` values the TCP client raises, and ``overloaded`` answers are
retried on the same :class:`~repro.service.retry.RetryPolicy` schedule.  The
only additions are the gateway's two HTTP probe reads, :meth:`healthz` and
:meth:`metrics_text`.

Stdlib only (``http.client``); connections are kept alive across requests
and transparently reopened after a drop.
"""

from __future__ import annotations

import http.client
import json
from typing import Any

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.retry import DEFAULT_RETRIES, RetryPolicy

from repro.cluster import DEFAULT_GATEWAY_PORT

__all__ = ["ClusterClient"]


class ClusterClient(ServiceClient):
    """Talk to a :class:`~repro.cluster.gateway.ClusterGateway` over HTTP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_GATEWAY_PORT,
        timeout: float = 60.0,
        *,
        overload_retries: int = DEFAULT_RETRIES,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(
            host, port, timeout, overload_retries=overload_retries, retry_policy=retry_policy
        )

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _open(self) -> None:
        self._connection: http.client.HTTPConnection | None = None  # opened on first use

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _request_once(self, op: str, params: dict[str, Any] | None = None) -> Any:
        return self._http("POST", f"/v1/{op}", params or {})

    def _http(self, method: str, path: str, body: dict[str, Any] | None) -> Any:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        for attempt in (0, 1):  # one transparent reconnect after a dropped keep-alive
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._connection.request(method, path, body=payload, headers=headers)
                response = self._connection.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        return self._decode(path, response.status, raw)

    def _decode(self, path: str, status: int, raw: bytes) -> Any:
        if path == "/metrics" and status == 200:
            return raw.decode("utf-8")
        try:
            document = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise protocol.ProtocolError(
                f"gateway answered {path} with HTTP {status} and a non-JSON body"
            ) from None
        if path == "/healthz":
            return document
        if not isinstance(document, dict) or "ok" not in document:
            raise protocol.ProtocolError(f"malformed gateway envelope on {path}")
        return protocol.response_result(document)

    # ------------------------------------------------------------------
    # the HTTP-only reads
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        """The gateway's health document (does not raise on 503)."""
        return self._http("GET", "/healthz", None)

    def metrics_text(self) -> str:
        """The gateway's Prometheus exposition text."""
        return self._http("GET", "/metrics", None)
