"""Open-loop load benchmark for the distributed checking fabric.

What is measured
----------------

``bench_service_load.py`` soaks one hardened node (a shard pool behind
deadlines and backpressure).  This benchmark measures the layer above: a
:class:`~repro.cluster.coordinator.ClusterCoordinator` routing the same
mixed digest-referenced manifest across **three full nodes** (each an
:class:`~repro.service.server.EquivalenceServer` with one worker shard),
with consistent-hash affinity, replication-factor-2 uploads, and failover.

Three cells, one story:

1. **Single-node capacity** (closed loop, warm): one node at the fixed
   per-node cache budget (``PER_SHARD_MAX_PROCESSES`` /
   ``PER_SHARD_MAX_VERDICTS`` from ``bench_service``).  The 120-process /
   96-key working set exceeds the budget, so the lone node thrashes.
2. **Cluster capacity** (closed loop, warm): the same budget per node,
   three nodes.  Ring affinity gives each node a ~32-key slice that *fits*,
   so ``node_speedup = cluster / single`` must clear the committed 2x
   floor even on a single-core host -- the same
   cache-residency effect the intra-node shard benchmark gates at 2.5x.
3. **Open loop with a mid-run node kill**: ``num_requests`` arrivals on a
   fixed schedule at :data:`OFFERED_FRACTION` of the calibrated cluster
   capacity; halfway through, the busiest node is hard-killed.  Latency is
   measured from *scheduled arrival* (queueing a slow cluster forces on the
   schedule counts against it), and the run must keep answering: probes
   evict the dead node, its keys fail over to their replicas, and missing
   right operands are read-repaired from the coordinator's durable store.

``python benchmarks/run_all.py --layers cluster`` records the run in
``BENCH_partition.json``; the gate rows of the ``cluster`` layer require
``node_speedup``, ``completion_ratio`` (answered over requested) and
``sustained_ratio`` (achieved over offered requests per second) to clear
their floors, no wedged node, and verified failover.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
import time
from pathlib import Path

from bench_service import (
    PER_SHARD_MAX_PROCESSES,
    PER_SHARD_MAX_VERDICTS,
    build_manifest,
    build_workload,
)

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.store import ClusterStore
from repro.service import protocol
from repro.service.server import EquivalenceServer
from repro.utils.serialization import to_dict

FAMILY = "cluster_load"

#: The acceptance-criterion request count.
DEFAULT_NUM_REQUESTS = 10_000

#: Topology under test: the cluster cell vs the single-node baseline, both
#: at the same fixed per-node budget (one worker shard per node).
NUM_NODES = 3
BASELINE_NODES = 1
NODE_SHARDS = 1
MAX_QUEUE = 512
STEAL_THRESHOLD = 8
REPLICATION_FACTOR = 2
PROBE_INTERVAL = 0.25
SOLVER = f"cluster_open_loop_{NUM_NODES}_nodes"

#: Closed-loop calibration: warm every spec once, then time this many
#: checks at bounded concurrency through the coordinator.
CALIBRATION_CHECKS = 1_000
CLOSED_LOOP_CONCURRENCY = 32

#: Open-loop rate as a fraction of the calibrated *cluster* capacity, with
#: clamps against calibration flukes on very slow or very fast hosts.
OFFERED_FRACTION = 0.5
MIN_OFFERED_RPS = 25.0
MAX_OFFERED_RPS = 4_000.0

#: The node kill lands after this fraction of the open-loop arrivals.
KILL_FRACTION = 0.5

#: Post-kill health bar for "failover verified": at least this share of the
#: post-kill arrivals must still be answered (verdict or structured error).
FAILOVER_ANSWERED_FLOOR = 0.9

#: How long to wait for stragglers after the last scheduled arrival.
DRAIN_TIMEOUT_SECONDS = 120.0


class ClusterNode:
    """One full EquivalenceServer in a daemon thread with its own loop."""

    def __init__(self, name: str, store_root: str) -> None:
        self.name = name
        self.port = 0
        self.alive = True
        self._loop: asyncio.AbstractEventLoop | None = None
        started = threading.Event()

        def run() -> None:
            async def main() -> None:
                server = EquivalenceServer(
                    port=0,
                    store_root=store_root,
                    num_shards=NODE_SHARDS,
                    max_processes=PER_SHARD_MAX_PROCESSES,
                    max_verdicts=PER_SHARD_MAX_VERDICTS,
                    max_queue=MAX_QUEUE,
                    node_name=name,
                )
                await server.start()
                self.port = server.port
                self._loop = asyncio.get_running_loop()
                started.set()
                try:
                    await server.serve_forever()
                except asyncio.CancelledError:
                    pass
                finally:
                    await server.stop()

            asyncio.run(main())

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        if not started.wait(timeout=60):
            raise RuntimeError(f"cluster bench node {name} failed to start")

    def kill(self) -> None:
        """Hard-stop the node; the coordinator sees a connection loss."""
        if not self.alive:
            return
        self.alive = False
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(lambda: [t.cancel() for t in asyncio.all_tasks(loop)])
        self._thread.join(timeout=60)


async def replicate_all(coordinator: ClusterCoordinator) -> int:
    """Push every process in the coordinator's store to its replica set."""
    assert coordinator.store is not None
    count = 0
    for digest in coordinator.store.processes.digests():
        fsp = coordinator.store.processes.get(digest)
        await coordinator.store_process({"process": to_dict(fsp)})
        count += 1
    return count


async def closed_loop_rps(
    coordinator: ClusterCoordinator, manifest: list[dict]
) -> tuple[float, int]:
    """Drive the manifest at bounded concurrency; returns (rps, errors)."""
    cursor = 0
    errors = 0

    async def worker() -> None:
        nonlocal cursor, errors
        while cursor < len(manifest):
            spec = manifest[cursor]
            cursor += 1
            try:
                await coordinator.check(dict(spec))
            except protocol.ServiceError:
                errors += 1

    begin = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(CLOSED_LOOP_CONCURRENCY)))
    return len(manifest) / (time.perf_counter() - begin), errors


async def calibrate_capacity(
    coordinator: ClusterCoordinator, specs: list[dict], calibration_checks: int
) -> float:
    """Warm every distinct spec once, then time a closed-loop pass."""
    await closed_loop_rps(coordinator, build_manifest(specs, len(specs)))
    rps, _errors = await closed_loop_rps(coordinator, build_manifest(specs, calibration_checks))
    return rps


async def run_open_loop(
    coordinator: ClusterCoordinator,
    specs: list[dict],
    num_requests: int,
    offered_rps: float,
    *,
    victim: ClusterNode | None = None,
    kill_at: int | None = None,
) -> dict:
    """Scheduled arrivals through the coordinator; latency from the schedule."""
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    errors: dict[str, int] = {}
    answered_after_kill = 0
    served_after_kill = 0

    async def one(spec: dict, scheduled: float, index: int) -> None:
        nonlocal answered_after_kill, served_after_kill
        post_kill = kill_at is not None and index >= kill_at
        try:
            await coordinator.check(dict(spec))
        except protocol.ServiceError as error:
            errors[error.code] = errors.get(error.code, 0) + 1
            if post_kill:
                answered_after_kill += 1
        except Exception:
            errors["crash"] = errors.get("crash", 0) + 1
        else:
            latencies.append(loop.time() - scheduled)
            if post_kill:
                answered_after_kill += 1
                served_after_kill += 1

    interval = 1.0 / offered_rps
    tasks: list[asyncio.Task] = []
    kill_task: asyncio.Task | None = None
    start = loop.time()
    for index in range(num_requests):
        scheduled = start + index * interval
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if victim is not None and index == kill_at:
            # Kill off-loop: joining the node thread must not stall arrivals.
            kill_task = asyncio.ensure_future(asyncio.to_thread(victim.kill))
        tasks.append(asyncio.create_task(one(specs[index % len(specs)], scheduled, index)))

    _done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_SECONDS)
    for task in pending:
        task.cancel()
    if kill_task is not None:
        await kill_task
    wall = loop.time() - start

    served = sorted(latencies)

    def quantile(q: float) -> float:
        if not served:
            return float("inf")
        return served[min(int(q * len(served)), len(served) - 1)]

    requests_after_kill = num_requests - kill_at if kill_at is not None else 0
    return {
        "requests": num_requests,
        "served": len(served),
        "errors": errors,
        "unfinished": len(pending),
        "wall_seconds": round(wall, 3),
        "offered_rps": round(offered_rps, 1),
        "achieved_rps": round((len(served) + sum(errors.values())) / wall, 1),
        "p50_ms": round(quantile(0.50) * 1000, 3),
        "p95_ms": round(quantile(0.95) * 1000, 3),
        "p99_ms": round(quantile(0.99) * 1000, 3),
        "requests_after_kill": requests_after_kill,
        "answered_after_kill": answered_after_kill,
        "served_after_kill": served_after_kill,
    }


async def probe_wedged_nodes(coordinator: ClusterCoordinator, skip: set[str]) -> int:
    """How many surviving nodes cannot answer a ping after the run."""
    wedged = 0
    for name, node in coordinator.nodes.items():
        if name in skip:
            continue
        try:
            await node.link.request("ping", timeout=10.0)
        except Exception:
            wedged += 1
    return wedged


async def _make_coordinator(
    nodes: dict[str, ClusterNode], coordinator_root: Path, replication_factor: int
) -> ClusterCoordinator:
    coordinator = ClusterCoordinator(
        {name: ("127.0.0.1", node.port) for name, node in nodes.items()},
        replication_factor=replication_factor,
        steal_threshold=STEAL_THRESHOLD,
        store=ClusterStore(coordinator_root),
        probe_interval=PROBE_INTERVAL,
    )
    await coordinator.start()
    await replicate_all(coordinator)
    return coordinator


async def _baseline_cell(root: Path, calibration_checks: int) -> float:
    """Single-node closed-loop capacity at the fixed per-node budget."""
    specs, _workload = build_workload(str(root / "coordinator" / "processes"))
    nodes = {"solo": ClusterNode("solo", str(root / "solo"))}
    coordinator = await _make_coordinator(nodes, root / "coordinator", replication_factor=1)
    try:
        return await calibrate_capacity(coordinator, specs, calibration_checks)
    finally:
        await coordinator.stop()
        nodes["solo"].kill()


async def _cluster_cell(root: Path, num_requests: int, calibration_checks: int) -> dict:
    """Three nodes: capacity, then the open loop with a mid-run node kill."""
    specs, _workload = build_workload(str(root / "coordinator" / "processes"))
    names = [f"node{i}" for i in range(NUM_NODES)]
    nodes = {name: ClusterNode(name, str(root / name)) for name in names}
    coordinator = await _make_coordinator(
        nodes, root / "coordinator", replication_factor=REPLICATION_FACTOR
    )
    try:
        capacity = await calibrate_capacity(coordinator, specs, calibration_checks)
        offered = min(max(capacity * OFFERED_FRACTION, MIN_OFFERED_RPS), MAX_OFFERED_RPS)
        # Kill the node the calibration traffic leaned on hardest: the
        # failover has to move real load, not an idle bystander.
        victim = max(coordinator.nodes.values(), key=lambda node: node.checks_sent).node_id
        kill_at = max(1, int(num_requests * KILL_FRACTION))
        run = await run_open_loop(
            coordinator,
            specs,
            num_requests,
            offered,
            victim=nodes[victim],
            kill_at=kill_at,
        )
        await coordinator.probe_once()
        health = coordinator.health()
        wedged = await probe_wedged_nodes(coordinator, skip={victim})
        failover_verified = (
            health.get(victim) is False
            and run["served_after_kill"] > 0
            and run["answered_after_kill"]
            >= FAILOVER_ANSWERED_FLOOR * run["requests_after_kill"]
        )
        return {
            "capacity_rps": capacity,
            "run": run,
            "victim": victim,
            "kill_at": kill_at,
            "wedged_nodes": wedged,
            "failover_verified": failover_verified,
            "failovers": coordinator.failovers,
            "steals": coordinator.steals,
            "repairs": coordinator.repairs,
            "replications": coordinator.replications,
            "replication_failures": coordinator.replication_failures,
        }
    finally:
        await coordinator.stop()
        for node in nodes.values():
            node.kill()


#: The run's fixed topology, recorded as the cluster cell's params.
PARAMS = {
    "nodes": NUM_NODES,
    "baseline_nodes": BASELINE_NODES,
    "node_shards": NODE_SHARDS,
    "replication_factor": REPLICATION_FACTOR,
    "per_node_max_processes": PER_SHARD_MAX_PROCESSES,
    "per_node_max_verdicts": PER_SHARD_MAX_VERDICTS,
    "offered_fraction": OFFERED_FRACTION,
    "kill_fraction": KILL_FRACTION,
}


def run_cluster(
    num_requests: int = DEFAULT_NUM_REQUESTS,
    calibration_checks: int = CALIBRATION_CHECKS,
) -> dict:
    """The cluster measurement; returns the cluster cell's metrics."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as tmp:
        root = Path(tmp)
        single_capacity = asyncio.run(_baseline_cell(root / "single", calibration_checks))
        cell = asyncio.run(_cluster_cell(root / "cluster", num_requests, calibration_checks))

    run = cell["run"]
    answered = run["served"] + sum(run["errors"].values())
    return {
        "seconds": run["wall_seconds"],
        "single_node_capacity_rps": round(single_capacity, 1),
        "cluster_capacity_rps": round(cell["capacity_rps"], 1),
        "node_speedup": round(cell["capacity_rps"] / single_capacity, 2),
        "offered_rps": run["offered_rps"],
        "achieved_rps": run["achieved_rps"],
        "completion_ratio": round(answered / num_requests, 4),
        "sustained_ratio": round(run["achieved_rps"] / run["offered_rps"], 4),
        "p50_ms": run["p50_ms"],
        "p95_ms": run["p95_ms"],
        "p99_ms": run["p99_ms"],
        "served": run["served"],
        "overloaded": run["errors"].get("overloaded", 0),
        "internal": run["errors"].get("internal", 0),
        "unfinished": run["unfinished"],
        "wedged_nodes": cell["wedged_nodes"],
        "killed_node": cell["victim"],
        "kill_at_request": cell["kill_at"],
        "answered_after_kill": run["answered_after_kill"],
        "requests_after_kill": run["requests_after_kill"],
        "failover_verified": cell["failover_verified"],
        "failovers": cell["failovers"],
        "repairs": cell["repairs"],
        "steals": cell["steals"],
        "replications": cell["replications"],
        "replication_failures": cell["replication_failures"],
    }


# ----------------------------------------------------------------------
# pytest smoke (the bench-scale CI lane runs it by file name)
# ----------------------------------------------------------------------
def test_cluster_open_loop_smoke():
    metrics = run_cluster(num_requests=600, calibration_checks=200)
    assert metrics["wedged_nodes"] == 0
    assert metrics["failover_verified"] is True
    assert metrics["completion_ratio"] > 0.8
    # The full-run gate is 2x; the smoke calibration is short and noisy, so
    # it only asserts the cache-residency effect exists at all.
    assert metrics["node_speedup"] > 1.2
