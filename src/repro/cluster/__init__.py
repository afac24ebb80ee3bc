"""The distributed checking fabric: coordinator, gateway, replicated store.

This package scales :mod:`repro.service` from one node to many.  Each node
is an unmodified :class:`~repro.service.server.EquivalenceServer`, and the
cluster reuses the service's placement policy
(:mod:`repro.service.placement`: consistent-hash ring, steal rule, failover
order), ``check_many`` fan-out, HTTP responder and client; it adds the
pieces that only make sense above a single node:

* :mod:`repro.cluster.store` -- :class:`ClusterStore`, the coordinator's
  persistent process store plus ``(digest, notion)``-keyed minimisation
  artifacts, which is what lets a quotient computed on a dead node still be
  served;
* :mod:`repro.cluster.coordinator` -- :class:`ClusterCoordinator`, routing
  ``check``/``check_many``/``minimize``/``store`` by content digest with
  replication, health probes, retry-with-failover and cross-node
  work-stealing;
* :mod:`repro.cluster.gateway` -- :class:`ClusterGateway` /
  :func:`serve_gateway`, the HTTP/JSON front door with ``/healthz`` and a
  node-labelled Prometheus ``/metrics``;
* :mod:`repro.cluster.client` -- :class:`ClusterClient`,
  :class:`~repro.service.client.ServiceClient` over the gateway's HTTP.

Quick start (three terminals + one)::

    $ python -m repro cluster serve-node --name a --port 8319
    $ python -m repro cluster serve-node --name b --port 8321
    $ python -m repro cluster serve-gateway --node a=127.0.0.1:8319 \\
          --node b=127.0.0.1:8321 --port 8320

    >>> from repro.cluster import ClusterClient            # doctest: +SKIP
    >>> client = ClusterClient(port=8320)                  # doctest: +SKIP
    >>> digest = client.store(my_process)                  # doctest: +SKIP
    >>> client.check(digest, other_process)["equivalent"]  # doctest: +SKIP
"""

from repro.service import lazy_exports

#: The gateway's default HTTP port -- one above the node RPC port, mirroring
#: how the two listeners pair up in a local deployment.  Defined here (not
#: lazily) so the CLI parser can read it without importing the asyncio
#: coordinator machinery.
DEFAULT_GATEWAY_PORT = 8320

__all__ = [
    "DEFAULT_GATEWAY_PORT",
    "ClusterClient",
    "ClusterCoordinator",
    "ClusterGateway",
    "ClusterStore",
    "HashRing",
    "serve_gateway",
]

#: Exported name -> defining submodule, resolved lazily so the CLI
#: parser can read ``DEFAULT_GATEWAY_PORT`` without importing asyncio server
#: machinery.
_EXPORTS = {
    "HashRing": "repro.service.placement",
    "ClusterStore": "repro.cluster.store",
    "ClusterCoordinator": "repro.cluster.coordinator",
    "ClusterGateway": "repro.cluster.gateway",
    "serve_gateway": "repro.cluster.gateway",
    "ClusterClient": "repro.cluster.client",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
