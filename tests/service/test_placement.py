"""Placement tests: the hash ring, and the policy at both levels.

The ring tests pin placement, stability under churn and replica selection.
The policy tests (steal rule, recent-keys LRU, failover order) run once per
level -- against a :class:`~repro.service.shards.ShardPool` placing checks on
shards and a :class:`~repro.cluster.coordinator.ClusterCoordinator` placing
them on nodes -- since both call the one :class:`Placement`.  Neither level
needs live workers or nodes here: executors fork lazily, links connect
lazily, and load is set by hand.
"""

import hashlib
from collections import Counter

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.generators.random_fsp import random_fsp
from repro.service import protocol
from repro.service.placement import (
    DEFAULT_POINTS_PER_NODE,
    RECENT_KEYS,
    HashRing,
    Placement,
    _key_point,
    routing_key_of,
)
from repro.service.shards import ShardPool
from repro.utils.serialization import content_digest

DIGEST_A = "sha256:" + "a" * 64
DIGEST_B = "sha256:" + "b" * 64


def digest_keys(count: int) -> list[str]:
    return ["sha256:" + hashlib.sha256(str(i).encode()).hexdigest() for i in range(count)]


def test_empty_ring_routes_nothing():
    ring = HashRing()
    assert ring.replicas_for("sha256:" + "a" * 64, 2) == []
    assert ring.primary_for("anything") is None
    assert len(ring) == 0


def test_add_and_remove_are_idempotent():
    ring = HashRing(["a"])
    ring.add("a")
    assert len(ring) == 1
    ring.remove("a")
    ring.remove("a")
    assert len(ring) == 0 and "a" not in ring


def test_every_key_routes_to_a_live_node():
    ring = HashRing(["a", "b", "c"])
    for key in digest_keys(100):
        assert ring.primary_for(key) in {"a", "b", "c"}


def test_placement_is_deterministic_across_instances():
    keys = digest_keys(50)
    one = HashRing(["n1", "n2", "n3"])
    two = HashRing(["n3", "n1", "n2"])  # insertion order must not matter
    assert [one.primary_for(k) for k in keys] == [two.primary_for(k) for k in keys]


def test_load_spreads_across_nodes():
    ring = HashRing(["a", "b", "c", "d"])
    spread = Counter(ring.primary_for(k) for k in digest_keys(2000))
    assert set(spread) == {"a", "b", "c", "d"}
    # With 64 points per node the arcs are uneven but no node may be
    # starved or dominant.
    assert min(spread.values()) > 2000 * 0.05
    assert max(spread.values()) < 2000 * 0.60


def test_removing_a_node_only_moves_its_own_keys():
    keys = digest_keys(500)
    ring = HashRing(["a", "b", "c"])
    before = {k: ring.primary_for(k) for k in keys}
    ring.remove("b")
    after = {k: ring.primary_for(k) for k in keys}
    for key in keys:
        if before[key] != "b":
            assert after[key] == before[key]  # unaffected arcs stay put
        else:
            assert after[key] in {"a", "c"}


def test_replicas_are_distinct_and_primary_first():
    ring = HashRing(["a", "b", "c"])
    for key in digest_keys(50):
        replicas = ring.replicas_for(key, 2)
        assert len(replicas) == 2 and len(set(replicas)) == 2
        assert replicas[0] == ring.primary_for(key)


def test_exclude_promotes_the_next_replica():
    ring = HashRing(["a", "b", "c"])
    for key in digest_keys(50):
        primary, backup = ring.replicas_for(key, 2)
        assert ring.replicas_for(key, 1, exclude={primary}) == [backup]


def test_replica_count_is_bounded_by_live_nodes():
    ring = HashRing(["a", "b"])
    key = digest_keys(1)[0]
    assert len(ring.replicas_for(key, 5)) == 2
    assert ring.replicas_for(key, 2, exclude={"a", "b"}) == []


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        HashRing(["a"]).replicas_for("x", 0)
    with pytest.raises(ValueError):
        HashRing(points_per_node=0)


def test_digest_key_point_is_its_hex_prefix():
    """The first 16 hex characters of a digest key *are* its hash, with no
    double hashing."""
    for key in digest_keys(20):
        assert _key_point(key) == int(key[len("sha256:") :][:16], 16)


def test_non_digest_keys_hash_rather_than_crash():
    ring = HashRing(["a", "b"])
    assert ring.primary_for("scenario:leader-election") in {"a", "b"}
    assert _key_point("plain") == _key_point("plain")


def test_default_points_per_node_is_applied():
    ring = HashRing(["solo"])
    assert len(ring._points) == DEFAULT_POINTS_PER_NODE


# ----------------------------------------------------------------------
# routing keys and the failover order (no level)
# ----------------------------------------------------------------------
def test_owners_are_stable_and_in_range():
    placement = Placement(range(4))
    digest = "sha256:" + "ab" * 32
    assert placement.owners(digest) == placement.owners(digest)
    assert sorted(placement.owners(digest)) == [0, 1, 2, 3]  # all shards, home first
    assert 0 <= placement.owners("arbitrary-string")[0] < 4


def test_inline_copy_routes_like_its_digest():
    # An inline copy of a stored process routes like its digest reference:
    # that is the cache-affinity promise.
    fsp = random_fsp(10, tau_probability=0.2, all_accepting=True, seed=11)
    by_digest = routing_key_of({"left": {"digest": content_digest(fsp)}})
    inline = routing_key_of({"left": protocol.process_ref(fsp)})
    assert inline == by_digest
    placement = Placement(range(8))
    assert placement.owners(inline) == placement.owners(by_digest)


def test_malformed_digests_still_route():
    # A client-supplied digest that is not valid hex must still route (the
    # worker's store lookup then rejects it with unknown_digest) rather than
    # blow up routing in the server process.
    placement = Placement(range(4))
    for key in ("sha256:nothex", "sha256:", "sha256:XYZ" + "0" * 61, ""):
        assert 0 <= placement.owners(key)[0] < 4


def test_steal_threshold_must_be_positive():
    with pytest.raises(ValueError):
        Placement(range(2), steal_threshold=0)


# ----------------------------------------------------------------------
# the policy at both levels
# ----------------------------------------------------------------------
class PoolLevel:
    """Three shards; a key's failover order spans all of them."""

    def __init__(self, tmp_path, steal_threshold, replicas):
        self.pool = ShardPool(3, tmp_path, steal_threshold=steal_threshold)
        self.placement = self.pool.placement

    def plan(self, spec):
        return self.pool.plan_check(spec)

    def set_load(self, target, value):
        self.pool._depths[target] = value

    @property
    def steals(self):
        return self.pool.steals

    def close(self):
        self.pool.shutdown()


class ClusterLevel:
    """Three nodes; a key's failover order is its replica set."""

    def __init__(self, tmp_path, steal_threshold, replicas):
        self.coordinator = ClusterCoordinator(
            {node_id: ("127.0.0.1", 1) for node_id in ("a", "b", "c")},
            replication_factor=replicas,
            steal_threshold=steal_threshold,
        )
        self.placement = self.coordinator.placement

    def plan(self, spec):
        return [node.node_id for node in self.coordinator.plan_check(spec)]

    def set_load(self, target, value):
        self.coordinator.nodes[target].inflight = value

    @property
    def steals(self):
        return self.coordinator.steals

    def close(self):
        pass


@pytest.fixture(params=[PoolLevel, ClusterLevel], ids=["shards", "nodes"])
def level(request, tmp_path):
    made = []

    def make(*, steal_threshold=None, replicas=2):
        made.append(request.param(tmp_path, steal_threshold, replicas))
        return made[-1]

    yield make
    for built in made:
        built.close()


def owners(level, spec):
    return level.placement.owners(routing_key_of(spec))


def busy_primary_setup(make):
    built = make(steal_threshold=2)
    spec = {"left": {"digest": DIGEST_A}, "right": {"digest": DIGEST_B}}
    return built, spec, owners(built, spec)[0]


def test_plan_routes_by_digest_affinity(level):
    built = level()
    spec = {"left": {"digest": DIGEST_A}, "right": {"digest": DIGEST_B}}
    first = built.plan(spec)[0]
    for _ in range(5):
        assert built.plan(spec)[0] == first  # sticky


def test_cold_check_steals_from_a_busy_primary(level):
    built, spec, primary = busy_primary_setup(level)
    built.set_load(primary, 5)
    plan = built.plan(spec)
    assert plan[0] != primary
    assert primary in plan  # the primary stays in the failover list
    assert built.steals == 1


def test_hot_keys_stay_home_despite_load(level):
    built, spec, primary = busy_primary_setup(level)
    built.plan(spec)  # warms the primary's recent-key LRU
    built.set_load(primary, 5)
    assert built.plan(spec)[0] == primary
    assert built.steals == 0


def test_idle_primary_is_never_stolen_from(level):
    built, spec, primary = busy_primary_setup(level)
    assert built.plan(spec)[0] == primary
    assert built.steals == 0


def test_inline_checks_are_never_stolen(level):
    # An inline process is not store-referenced; even with its primary
    # backed up it must stay home (any other target would recompute it cold
    # *and* break the affinity story for later digest uploads of it).
    built = level(steal_threshold=1)
    spec = {"left": {"process": {"start": "P"}}}
    primary = owners(built, spec)[0]
    built.set_load(primary, 50)
    assert built.plan(spec)[0] == primary
    assert built.steals == 0


def test_stealing_disabled_without_a_threshold(level):
    built = level()
    spec = {"left": {"digest": DIGEST_A}}
    primary = owners(built, spec)[0]
    built.set_load(primary, 100)
    assert built.plan(spec)[0] == primary


def test_steal_picks_the_least_loaded_candidate(level):
    built = level(steal_threshold=2, replicas=3)
    spec = {"left": {"digest": DIGEST_A}}
    candidates = owners(built, spec)
    for target, load in zip(candidates, (9, 4, 1)):
        built.set_load(target, load)
    assert built.plan(spec)[0] == candidates[2]


def test_recent_key_lru_is_bounded(level):
    built = level()
    target = owners(built, {"left": {"digest": DIGEST_A}})[0]
    for i in range(RECENT_KEYS + 50):
        built.placement.remember(target, f"key-{i}")
    recent = built.placement.recent[target]
    assert len(recent) == RECENT_KEYS
    assert "key-0" not in recent  # oldest evicted
    built.placement.remember(target, None)  # unroutable specs are not remembered
    assert len(recent) == RECENT_KEYS
