"""The ``check_many`` fan-out, shared by the service node and the coordinator.

A manifest runs every entry concurrently through the caller's one-check
path -- a shard-pool check on a node, a routed node request on the
coordinator -- and reassembles the answers in manifest order.  Both levels
answer the same manifest the same way: batch-level defaults merge under
each entry, and every per-entry failure (a non-object entry, a spec the
check rejects, a worker crash) is reported inline in its own slot, so one
bad spec cannot poison a 10,000-check batch.  Only a ``checks`` value that
is not a list fails the whole request.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable
from typing import Any

from repro.service import protocol

__all__ = ["BATCH_DEFAULTS", "check_many"]

#: Top-level ``check_many`` keys that default every entry not naming its own.
BATCH_DEFAULTS = ("notion", "align", "witness", "on_the_fly", "reduction", "deadline_ms")


async def check_many(
    params: dict[str, Any], check: Callable[[dict[str, Any]], Awaitable[dict[str, Any]]]
) -> dict[str, Any]:
    """Run ``params["checks"]`` through ``check``; ``{"results", "summary"}``."""
    checks = params.get("checks")
    if not isinstance(checks, list):
        raise protocol.ServiceError(
            protocol.BAD_REQUEST, "check_many needs a 'checks' list of check objects"
        )
    defaults = {key: params[key] for key in BATCH_DEFAULTS if key in params}

    async def one(index: int, item: Any) -> dict[str, Any]:
        if not isinstance(item, dict):
            error = protocol.error_object(
                protocol.BAD_REQUEST, f"check #{index} must be an object"
            )
            return {"error": error}
        try:
            return await check({**defaults, **item})
        except protocol.ServiceError as error:
            return {"error": protocol.error_object(error.code, error.message, error.data)}
        except Exception as error:
            # Anything else -- a worker that died even after its retry, a
            # corrupt store entry -- is confined to its own slot as well.
            return {"error": protocol.error_object(protocol.INTERNAL, repr(error))}

    results = list(await asyncio.gather(*(one(i, item) for i, item in enumerate(checks))))
    equivalent = sum(1 for r in results if r.get("equivalent") is True)
    failed = sum(1 for r in results if "error" in r)
    return {
        "results": results,
        "summary": {
            "checks": len(results),
            "equivalent": equivalent,
            "inequivalent": len(results) - equivalent - failed,
            "failed": failed,
        },
    }
