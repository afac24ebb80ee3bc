"""Placement: where a routing key runs, at either level of the stack.

One policy places work at both levels: a :class:`~repro.service.shards.
ShardPool` places checks on its shard workers (all sharing one process
store), and a :class:`~repro.cluster.coordinator.ClusterCoordinator` places
them on nodes (each holding the replicas of what it stores).  The policy has
four parts, all here:

* **The ring walk.**  A :class:`HashRing` places each target at many
  pseudo-random points on a 2^64 circle and routes a key to the first
  targets clockwise from the key's own point -- adding or removing one
  target only moves the keys in its arcs (about ``1/n`` of the keyspace),
  so the engine caches the routing exists to protect survive membership
  changes.  A ``sha256:...`` content digest hashes by its own hex (no double
  hashing), anything else is SHA-256'd first.
* **The failover order.**  :meth:`Placement.owners` is a key's first
  ``replicas`` distinct ring targets, primary first; callers walk it until a
  target answers.
* **The recent-keys LRU.**  Per target, the :data:`RECENT_KEYS` most
  recently dispatched routing keys -- the proxy for "this key is hot in that
  target's engine cache".
* **The steal rule.**  With a ``steal_threshold``, a *store-referenced*
  check (its left operand is a digest every candidate can resolve) that is
  *cache-cold* on a primary whose load reached the threshold moves to the
  least-loaded candidate.  Hot or inline checks stay home -- stealing them
  would squander exactly the affinity the routing exists to build.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable
from typing import Any

__all__ = ["DEFAULT_POINTS_PER_NODE", "RECENT_KEYS", "HashRing", "Placement", "routing_key_of"]

#: Virtual points each target contributes to the ring.  More points smooth the
#: arc-length distribution (load spread) at O(points * targets) memory; 64 is
#: plenty for the single-digit shard and node counts a deployment runs.
DEFAULT_POINTS_PER_NODE = 64

#: Routing keys remembered per target.  Sized above the default per-shard
#: engine bounds so the cache-warmth proxy errs toward keeping affinity.
RECENT_KEYS = 256


def routing_key_of(spec: dict[str, Any]) -> str | None:
    """The affinity key of one check spec (``None`` = unroutable).

    A digest reference is its own key; an inline process or composed system
    is keyed by the digest of its canonically-serialised JSON.  The canonical
    separators match ``utils.serialization.canonical_bytes``, so an inline
    copy of a stored process routes like its digest reference (the
    cache-affinity promise); composed-system and scenario documents hash the
    same way, keeping repeated questions about one system on one worker.
    Both levels key their ring walk with this function, so shard affinity
    and node affinity agree.
    """
    ref = spec.get("left")
    if isinstance(ref, dict):
        if isinstance(ref.get("digest"), str):
            return ref["digest"]
        if "process" in ref or "system" in ref or "scenario" in ref:
            body = ref.get("process", ref.get("system", ref.get("scenario")))
            canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
            return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
    return None


def _key_point(key: str) -> int:
    """Where a routing key sits on the circle."""
    hex_part = ""
    if key.startswith("sha256:"):
        hex_part = key[len("sha256:") :]
    try:
        return int(hex_part[:16], 16)
    except ValueError:
        # Not (valid) digest hex -- including malformed digests a client
        # sent: hash the raw key so the store lookup gets to reject it.
        return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:16], 16)


class HashRing:
    """Targets on a 2^64 circle, ``points_per_node`` virtual points each."""

    def __init__(
        self, nodes: Iterable[Hashable] = (), *, points_per_node: int = DEFAULT_POINTS_PER_NODE
    ) -> None:
        if points_per_node < 1:
            raise ValueError("points_per_node must be positive")
        self.points_per_node = points_per_node
        self._nodes: set[str] = set()
        self._points: list[int] = []  # sorted ring positions
        self._owners: list[str] = []  # owner of each position (parallel list)
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def _node_points(self, node_id: str) -> list[int]:
        return [
            int(hashlib.sha256(f"{node_id}#{i}".encode()).hexdigest()[:16], 16)
            for i in range(self.points_per_node)
        ]

    def add(self, node_id: str) -> None:
        """Place a node on the ring (idempotent)."""
        if node_id in self._nodes:
            return
        self._nodes.add(node_id)
        for point in self._node_points(node_id):
            index = bisect.bisect_left(self._points, point)
            # Ties are astronomically unlikely but must stay deterministic:
            # order same-point owners lexicographically.
            while index < len(self._points) and self._points[index] == point and (
                self._owners[index] < node_id
            ):
                index += 1
            self._points.insert(index, point)
            self._owners.insert(index, node_id)

    def remove(self, node_id: str) -> None:
        """Take a node off the ring (idempotent)."""
        if node_id not in self._nodes:
            return
        self._nodes.discard(node_id)
        keep = [i for i, owner in enumerate(self._owners) if owner != node_id]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def replicas_for(
        self, key: str, count: int = 1, *, exclude: frozenset[str] | set[str] = frozenset()
    ) -> list[str]:
        """The first ``count`` distinct nodes clockwise from ``key``.

        Position 0 is the key's primary.  ``exclude`` skips nodes (the
        coordinator passes its unhealthy set); fewer than ``count`` nodes
        may come back when the ring is small or heavily excluded.
        """
        if count < 1:
            raise ValueError("count must be positive")
        if not self._points:
            return []
        start = bisect.bisect_right(self._points, _key_point(key)) % len(self._points)
        chosen: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner in seen or owner in exclude:
                continue
            seen.add(owner)
            chosen.append(owner)
            if len(chosen) == count:
                break
        return chosen

    def primary_for(self, key: str) -> str | None:
        """The key's primary node (``None`` on an empty ring)."""
        owners = self.replicas_for(key, 1)
        return owners[0] if owners else None

    def __repr__(self) -> str:
        return (
            f"HashRing(nodes={sorted(self._nodes)!r}, "
            f"points_per_node={self.points_per_node})"
        )


class Placement:
    """The ring walk, recent-keys LRU, steal rule and failover order.

    Parameters
    ----------
    targets:
        What keys are placed on: shard indices or node ids.
    replicas:
        How many ring targets make up a key's failover order (clamped to
        the target count; ``None`` = every target, for shards that all
        read one shared store).
    steal_threshold:
        Load at which a cache-cold, store-referenced check leaves its
        primary for the least-loaded candidate (``None`` disables
        stealing).
    """

    def __init__(
        self,
        targets: Iterable[Hashable],
        *,
        replicas: int | None = None,
        steal_threshold: int | None = None,
    ) -> None:
        if steal_threshold is not None and steal_threshold < 1:
            raise ValueError("steal_threshold must be positive (or None to disable)")
        targets = list(targets)
        self.ring = HashRing(targets)
        self.replicas = len(targets) if replicas is None else min(replicas, len(targets))
        self.steal_threshold = steal_threshold
        #: Per-target LRU of recently dispatched routing keys.
        self.recent: dict[Hashable, OrderedDict[str, None]] = {t: OrderedDict() for t in targets}
        #: How many checks left their primary so far.
        self.steals = 0

    def owners(self, key: str | None, exclude: frozenset = frozenset()) -> list:
        """A key's failover order: its first ``replicas`` ring targets, primary first."""
        return self.ring.replicas_for(
            key if key is not None else "unroutable", self.replicas, exclude=exclude
        )

    def plan(
        self,
        spec: dict[str, Any],
        load: Callable[[Any], int],
        *,
        exclude: frozenset = frozenset(),
        admit: Callable[[Any], None] | None = None,
    ) -> list:
        """The dispatch order for one check: steal target first, then failover.

        ``load(target)`` reads a target's current load.  ``admit(target)``
        may raise to refuse the dispatch target; a refused plan leaves the
        recent-keys LRU untouched.  An empty list means every target is
        excluded.
        """
        key = routing_key_of(spec)
        order = self.owners(key, exclude)
        if not order:
            return order
        primary = order[0]
        left = spec.get("left")
        if (
            self.steal_threshold is not None
            and len(order) > 1
            and isinstance(left, dict)
            and isinstance(left.get("digest"), str)
            and load(primary) >= self.steal_threshold
            and key not in self.recent[primary]
        ):
            target = min(order[1:], key=load)
            if load(target) < load(primary):
                order.remove(target)
                order.insert(0, target)
                self.steals += 1
        if admit is not None:
            admit(order[0])
        self.remember(order[0], key)
        return order

    def remember(self, target: Hashable, key: str | None) -> None:
        """Mark ``key`` as just dispatched to ``target`` (bounded LRU)."""
        if key is None:
            return
        recent = self.recent[target]
        recent[key] = None
        recent.move_to_end(key)
        if len(recent) > RECENT_KEYS:
            recent.popitem(last=False)
