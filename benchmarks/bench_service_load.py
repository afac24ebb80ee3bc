"""Open-loop sustained-throughput benchmark for the hardened service pool.

What is measured
----------------

``bench_service.py`` measures *closed-loop* batch throughput (submit
everything, wait).  Closed-loop latency numbers flatter an overloaded
system: when the server slows down, a closed-loop client slows its own
offering down with it (coordinated omission).  This benchmark instead
drives the :class:`~repro.service.shards.ShardPool` **open loop**: requests
arrive on a fixed schedule regardless of how the pool is doing, and each
request's latency is measured from its *scheduled arrival*, not from
submission -- queueing delay the schedule forced on a slow pool counts
against it.

The traffic is deliberately hostile in the way production traffic is:

* the mixed digest-referenced manifest of ``bench_service.build_workload``
  (strong / observational / language, repeated pairs, shard-sticky routing),
* plus a **slow-poison tail**: ~1% of requests are checks over much larger
  processes carrying a short per-request deadline.  Without the deadline
  layer, each poison request wedges a single-worker shard for however long
  the check takes, and the sticky routing then backs that shard's queue up
  while other shards idle; with deadlines + bounded queues + work-stealing,
  poisons abort with ``deadline_exceeded``, their home shard's cold
  followers migrate, and the sustained throughput holds.

Rate selection is hardware-independent: a closed-loop warm pass first
calibrates the host's capacity, and the open-loop schedule then offers
:data:`OFFERED_FRACTION` of it.  The gate rows of the ``soak`` layer are
therefore ratios and absolute latency ceilings, not absolute throughputs:

* ``completion_ratio``: answered (verdict or structured error) over
  requested;
* ``sustained_ratio``: achieved over offered requests per second;
* ``p99_ms``: 99th-percentile open-loop latency of served requests;
* ``wedged_shards``: shards unresponsive after the run, and ``revivals``,
  which must stay zero -- poison must be *shed*, not crash workers.

``python benchmarks/run_all.py --layers soak`` records the run in
``BENCH_partition.json`` for the ``service-soak`` CI lane.
"""

from __future__ import annotations

import tempfile
import threading
import time

from bench_service import (
    PER_SHARD_MAX_PROCESSES,
    PER_SHARD_MAX_VERDICTS,
    build_manifest,
    build_workload,
)

from repro.generators.random_fsp import perturb, random_fsp
from repro.service import protocol
from repro.service.shards import ShardPool, _worker_stats
from repro.service.store import ProcessStore

FAMILY = "service_load"

#: The acceptance-criterion request count.
DEFAULT_NUM_REQUESTS = 10_000

#: Shards and flow-control posture under test.
NUM_SHARDS = 4
MAX_QUEUE = 512
STEAL_THRESHOLD = 8
SOLVER = f"service_open_loop_{NUM_SHARDS}_shards"

#: Every POISON_EVERY-th request is a slow-poison check.
POISON_EVERY = 200
#: States of each poison process: big enough that one observational check
#: costs several hundred milliseconds on any host, so an unbounded one would
#: visibly wedge its shard.  Enough distinct pairs that poison requests keep
#: missing the verdict cache for most of the run.
POISON_STATES = 320
NUM_POISON_PAIRS = 32
#: The poison deadline: far below a poison check, far above the p99 of the
#: regular traffic.  Aborted poison still burns deadline-bounded worker
#: time, which is exactly the sustained pressure being measured.
POISON_DEADLINE_SECONDS = 0.12

#: Open-loop rate as a fraction of the calibrated closed-loop capacity.
OFFERED_FRACTION = 0.5
#: Calibration pass size (closed loop, warm caches).
CALIBRATION_CHECKS = 1_000
#: Bounds on the offered rate, protecting against calibration flukes on
#: very slow or very fast hosts.
MIN_OFFERED_RPS = 25.0
MAX_OFFERED_RPS = 4_000.0

#: How long to wait for stragglers after the last scheduled arrival before
#: declaring the remainder wedged.
DRAIN_TIMEOUT_SECONDS = 120.0


def build_poison_specs(store_root: str) -> list[dict]:
    """Digest-referenced checks big enough to be slow everywhere."""
    store = ProcessStore(store_root)
    specs = []
    for index in range(NUM_POISON_PAIRS):
        base = random_fsp(
            POISON_STATES, tau_probability=0.2, all_accepting=True, seed=9000 + index
        )
        partner = perturb(base, seed=9500 + index)
        specs.append(
            {
                "left": {"digest": store.put(base)},
                "right": {"digest": store.put(partner)},
                "notion": "observational",
                "align": True,
                "witness": False,
                "params": {},
            }
        )
    return specs


def calibrate_capacity(pool: ShardPool, specs: list[dict]) -> float:
    """Closed-loop warm throughput (checks/second) of the regular traffic."""
    pool.check_many(build_manifest(specs, len(specs)))  # warm every cache
    manifest = build_manifest(specs, CALIBRATION_CHECKS)
    begin = time.perf_counter()
    pool.check_many(manifest)
    return len(manifest) / (time.perf_counter() - begin)


def run_open_loop(
    pool: ShardPool,
    specs: list[dict],
    poison_specs: list[dict],
    num_requests: int,
    offered_rps: float,
) -> dict:
    """Drive the schedule; returns raw counters and latency quantiles."""
    lock = threading.Lock()
    latencies: list[float] = []  # seconds, served requests only
    errors: dict[str, int] = {}
    pending = threading.Semaphore(0)

    def on_done(future, scheduled: float) -> None:
        completed = time.monotonic()
        error = future.exception()
        with lock:
            if error is None:
                latencies.append(completed - scheduled)
            else:
                code = error.code if isinstance(error, protocol.ServiceError) else "crash"
                errors[code] = errors.get(code, 0) + 1
        pending.release()

    interval = 1.0 / offered_rps
    submitted = 0
    rejected_overloaded = 0
    start = time.monotonic()
    for index in range(num_requests):
        scheduled = start + index * interval
        now = time.monotonic()
        if scheduled > now:
            time.sleep(scheduled - now)
        poison = index % POISON_EVERY == POISON_EVERY - 1
        spec = (
            poison_specs[(index // POISON_EVERY) % len(poison_specs)]
            if poison
            else specs[index % len(specs)]
        )
        deadline = time.monotonic() + POISON_DEADLINE_SECONDS if poison else None
        try:
            _order, future = pool.submit_check(spec, deadline=deadline)
        except protocol.ServiceError as error:
            # Backpressure at the door (queue full): an explicit rejection,
            # not a latency sample.
            assert error.code == protocol.OVERLOADED
            rejected_overloaded += 1
            continue
        submitted += 1
        future.add_done_callback(lambda f, scheduled=scheduled: on_done(f, scheduled))

    drained = 0
    drain_deadline = time.monotonic() + DRAIN_TIMEOUT_SECONDS
    for _ in range(submitted):
        if not pending.acquire(timeout=max(drain_deadline - time.monotonic(), 0.001)):
            break
        drained += 1
    wall = time.monotonic() - start

    with lock:
        served = sorted(latencies)
        error_counts = dict(errors)

    def quantile(q: float) -> float:
        if not served:
            return float("inf")
        return served[min(int(q * len(served)), len(served) - 1)]

    return {
        "requests": num_requests,
        "submitted": submitted,
        "served": len(served),
        "unfinished": submitted - drained,
        "rejected_overloaded": rejected_overloaded,
        "errors": error_counts,
        "wall_seconds": round(wall, 3),
        "offered_rps": round(offered_rps, 1),
        "achieved_rps": round((len(served) + sum(error_counts.values())) / wall, 1),
        "p50_ms": round(quantile(0.50) * 1000, 3),
        "p95_ms": round(quantile(0.95) * 1000, 3),
        "p99_ms": round(quantile(0.99) * 1000, 3),
    }


def probe_wedged_shards(pool: ShardPool, timeout: float = 10.0) -> int:
    """How many shards cannot answer a trivial job after the run."""
    wedged = 0
    for shard in range(pool.num_shards):
        try:
            pool.submit(shard, _worker_stats).result(timeout=timeout)
        except Exception:
            wedged += 1
    return wedged


#: The run's fixed posture, recorded as the soak cell's params.
PARAMS = {
    "shards": NUM_SHARDS,
    "max_queue": MAX_QUEUE,
    "steal_threshold": STEAL_THRESHOLD,
    "offered_fraction": OFFERED_FRACTION,
    "poison_every": POISON_EVERY,
    "poison_states": POISON_STATES,
    "poison_deadline_ms": int(POISON_DEADLINE_SECONDS * 1000),
}


def run_soak(num_requests: int = DEFAULT_NUM_REQUESTS) -> dict:
    """The soak measurement; returns the soak cell's metrics."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-load-") as store_root:
        specs, _workload = build_workload(store_root)
        poison_specs = build_poison_specs(store_root)
        with ShardPool(
            NUM_SHARDS,
            store_root,
            max_processes=PER_SHARD_MAX_PROCESSES,
            max_verdicts=PER_SHARD_MAX_VERDICTS,
            max_queue=MAX_QUEUE,
            steal_threshold=STEAL_THRESHOLD,
        ) as pool:
            pool.warm_up()
            capacity = calibrate_capacity(pool, specs)
            offered = min(max(capacity * OFFERED_FRACTION, MIN_OFFERED_RPS), MAX_OFFERED_RPS)
            run = run_open_loop(pool, specs, poison_specs, num_requests, offered)
            wedged = probe_wedged_shards(pool)
            steals, revivals = pool.steals, pool.revivals

    # Everything that got an answer (verdict or structured error) over
    # everything requested: silent drops and wedged stragglers push it down.
    answered = run["served"] + sum(run["errors"].values())
    return {
        "seconds": run["wall_seconds"],
        "calibrated_capacity_rps": round(capacity, 1),
        "offered_rps": run["offered_rps"],
        "achieved_rps": run["achieved_rps"],
        "completion_ratio": round(answered / num_requests, 4),
        "sustained_ratio": round(run["achieved_rps"] / run["offered_rps"], 4),
        "p50_ms": run["p50_ms"],
        "p95_ms": run["p95_ms"],
        "p99_ms": run["p99_ms"],
        "served": run["served"],
        "deadline_exceeded": run["errors"].get("deadline_exceeded", 0),
        "overloaded": run["rejected_overloaded"] + run["errors"].get("overloaded", 0),
        "check_failed": run["errors"].get("check_failed", 0),
        "unfinished": run["unfinished"],
        "wedged_shards": wedged,
        "steals": steals,
        "revivals": revivals,
    }


# ----------------------------------------------------------------------
# pytest smoke (the bench-scale CI lane runs it by file name)
# ----------------------------------------------------------------------
def test_open_loop_smoke():
    # 3 x POISON_EVERY requests => three cold poison checks, so the
    # deadline-shed assertion does not hang off a single sample (one poison
    # can sneak under its deadline on a heavily contended host).
    metrics = run_soak(num_requests=3 * POISON_EVERY)
    assert metrics["wedged_shards"] == 0
    assert metrics["revivals"] == 0
    assert metrics["completion_ratio"] > 0.9
    # The poison tail was shed by deadlines, not served or wedged.
    assert metrics["deadline_exceeded"] >= 1
    assert metrics["served"] >= 2 * POISON_EVERY
