"""The async equivalence service: shard workers behind an NDJSON socket API.

This package turns the in-process :mod:`repro.engine` facade into a
long-lived network service:

* :mod:`repro.service.protocol` -- the newline-delimited-JSON wire format,
  error vocabulary and process-reference encoding (one module shared by
  server, client and tests; prose spec in ``docs/service-protocol.md``);
* :mod:`repro.service.store` -- :class:`ProcessStore`, the content-addressed
  on-disk process store (upload once, reference by ``sha256:...`` digest);
* :mod:`repro.service.placement` -- :class:`~repro.service.placement.
  Placement`, the consistent-hash ring walk, recent-keys LRU, steal rule
  and failover order that both the shard pool and the cluster coordinator
  place work with;
* :mod:`repro.service.shards` -- :class:`ShardPool`, single-worker process
  executors with digest-sticky placement, per-worker bounded engines, and
  crash recovery;
* :mod:`repro.service.batch` -- the ``check_many`` fan-out (also the
  coordinator's);
* :mod:`repro.service.httpd` -- the HTTP/1.1 responder behind the metrics
  port (and the cluster gateway);
* :mod:`repro.service.flow` -- request deadlines (cooperative cancellation
  inside the workers) and :class:`TokenBucket` client quotas;
* :mod:`repro.service.metrics` -- :class:`MetricsRegistry` (counters,
  gauges, latency histograms; JSON and Prometheus-text exports) and the
  per-request :class:`~repro.service.metrics.TraceLog`;
* :mod:`repro.service.server` -- :class:`EquivalenceServer` /
  :func:`serve`, the asyncio front end (``repro serve`` on the CLI);
* :mod:`repro.service.client` -- :class:`ServiceClient`, the synchronous
  client (``repro client`` on the CLI), whose RPC methods the cluster's
  HTTP client inherits;
* :mod:`repro.service.retry` -- :class:`RetryPolicy`, the shared jittered
  backoff schedule clients apply to ``overloaded`` responses.

Quick start (two terminals)::

    $ python -m repro serve --port 8319 --shards 4 --store /tmp/repro-store

    >>> from repro.service import ServiceClient          # doctest: +SKIP
    >>> client = ServiceClient(port=8319)                # doctest: +SKIP
    >>> digest = client.store(my_process)                # doctest: +SKIP
    >>> client.check(digest, other_process)["equivalent"]  # doctest: +SKIP
"""

import importlib
import sys
from typing import Any

__all__ = [
    "DEFAULT_PORT",
    "EquivalenceServer",
    "MetricsRegistry",
    "ProcessStore",
    "ProtocolError",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ShardPool",
    "TokenBucket",
    "serve",
]


def lazy_exports(package: str, exports: dict[str, str]) -> tuple[Any, Any]:
    """PEP 562 ``__getattr__``/``__dir__`` importing ``exports`` on first use.

    ``exports`` maps each exported name to its defining submodule.
    """

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        setattr(sys.modules[package], name, value)  # cache: next access skips this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__


#: Exported name -> defining submodule.  Resolution is lazy so that
#: importing the lightweight pieces -- the CLI parser only needs
#: ``protocol.DEFAULT_PORT`` -- does not drag in the asyncio server and the
#: multiprocessing pool machinery.
_EXPORTS = {
    "DEFAULT_PORT": "repro.service.protocol",
    "ProtocolError": "repro.service.protocol",
    "ServiceError": "repro.service.protocol",
    "ProcessStore": "repro.service.store",
    "TokenBucket": "repro.service.flow",
    "MetricsRegistry": "repro.service.metrics",
    "ShardPool": "repro.service.shards",
    "EquivalenceServer": "repro.service.server",
    "serve": "repro.service.server",
    "ServiceClient": "repro.service.client",
    "RetryPolicy": "repro.service.retry",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
