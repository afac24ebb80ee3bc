"""Hardening tests: deadlines, backpressure, work-stealing, crash semantics.

The slow checks these tests need come from two throwaway notions registered
in the parent process before any pool forks its workers (fork carries the
notion registry across), so no sleeps are hidden inside real algorithms:

* ``sleepy`` blocks long enough that only a deadline can end it;
* ``napping`` blocks briefly, to hold a shard busy while another request
  is planned against it.
"""

import asyncio
import io
import json
import threading
import time
import urllib.request

import pytest

from repro.engine import Notion, NotionResult, register_notion, unregister_notion
from repro.generators.random_fsp import random_equivalent_copy, random_fsp
from repro.service import EquivalenceServer, ServiceClient, protocol
from repro.service.shards import _MP_CONTEXT, ShardPool, _worker_stats
from repro.service.store import ProcessStore

pytestmark = pytest.mark.skipif(
    _MP_CONTEXT.get_start_method() != "fork",
    reason="slow-notion fixtures reach the workers via fork",
)


class _SleepNotion(Notion):
    supports_expressions = False
    provides_witness = False
    seconds = 30.0

    def check(self, left, right, want_witness, **params):
        time.sleep(self.seconds)
        return NotionResult(True)


class Sleepy(_SleepNotion):
    name = "sleepy"


class Napping(_SleepNotion):
    name = "napping"
    seconds = 1.5


@pytest.fixture(scope="module", autouse=True)
def slow_notions():
    register_notion(Sleepy())
    register_notion(Napping())
    yield
    unregister_notion("sleepy")
    unregister_notion("napping")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A store of distinct processes, with at least two routed to one shard
    of a two-shard pool (what the stealing tests need)."""
    root = tmp_path_factory.mktemp("hardening-store")
    store = ProcessStore(root)
    digests = []
    for seed in range(40, 52):
        fsp = random_fsp(6, tau_probability=0.1, all_accepting=True, seed=seed)
        digests.append((store.put(fsp), fsp))
    return {"root": root, "digests": digests}


def spec_for(left_ref, right, notion="observational"):
    return {
        "left": left_ref,
        "right": protocol.process_ref(right),
        "notion": notion,
        "align": True,
        "witness": False,
        "params": {},
    }


def check(pool, spec, deadline=None):
    return asyncio.run(pool.run_async_check(spec, deadline=deadline))


def run(pool, shard, fn):
    return asyncio.run(pool.run_async([shard], fn))


def home_of(pool, digest):
    return pool.placement.owners(digest)[0]


def colocated_pair(pool, corpus):
    """Two distinct stored digests that route to the same shard."""
    by_shard: dict = {}
    for digest, fsp in corpus["digests"]:
        by_shard.setdefault(home_of(pool, digest), []).append((digest, fsp))
    for entries in by_shard.values():
        if len(entries) >= 2:
            return entries[0], entries[1]
    raise AssertionError("corpus has no two digests sharing a shard")


# ----------------------------------------------------------------------
# deadlines (pool level)
# ----------------------------------------------------------------------
def test_deadline_aborts_a_long_check_without_wedging_the_shard(corpus):
    digest, fsp = corpus["digests"][0]
    with ShardPool(1, corpus["root"]) as pool:
        pool.warm_up()
        before = run(pool, 0, _worker_stats)
        started = time.monotonic()
        with pytest.raises(protocol.ServiceError) as info:
            check(pool, spec_for({"digest": digest}, fsp, "sleepy"), deadline=started + 0.3)
        assert info.value.code == protocol.DEADLINE_EXCEEDED
        assert info.value.data == {"shard": 0}
        assert time.monotonic() - started < 10.0  # nowhere near the 30s sleep
        # The shard is alive, same worker, no revival burned.
        result = check(pool, spec_for({"digest": digest}, fsp))
        assert result["equivalent"] is True
        assert result["pid"] == before["pid"]
        assert pool.revivals == 0


def test_an_already_expired_deadline_aborts_before_computing(corpus):
    digest, fsp = corpus["digests"][0]
    with ShardPool(1, corpus["root"]) as pool:
        with pytest.raises(protocol.ServiceError) as info:
            check(pool, spec_for({"digest": digest}, fsp, "sleepy"), deadline=time.monotonic() - 1)
        assert info.value.code == protocol.DEADLINE_EXCEEDED


def test_run_async_check_backstops_the_deadline_server_side(corpus):
    digest, fsp = corpus["digests"][0]

    async def scenario(pool):
        with pytest.raises(protocol.ServiceError) as info:
            await pool.run_async_check(
                spec_for({"digest": digest}, fsp, "sleepy"),
                deadline=time.monotonic() + 0.2,
            )
        return info.value

    with ShardPool(1, corpus["root"]) as pool:
        pool.warm_up()
        error = asyncio.run(scenario(pool))
        assert error.code == protocol.DEADLINE_EXCEEDED


# ----------------------------------------------------------------------
# backpressure (pool level)
# ----------------------------------------------------------------------
def test_full_shard_queue_answers_overloaded(corpus):
    digest, fsp = corpus["digests"][0]
    with ShardPool(1, corpus["root"], max_queue=1) as pool:
        pool.warm_up()
        _order, occupying = pool.submit_check(spec_for({"digest": digest}, fsp, "napping"))
        with pytest.raises(protocol.ServiceError) as info:
            pool.plan_check(spec_for({"digest": digest}, fsp))
        assert info.value.code == protocol.OVERLOADED
        assert info.value.data["retry_after_ms"] > 0
        assert info.value.data["queue_depth"] == 1
        assert pool.overloads == 1
        assert occupying.result(timeout=30)["equivalent"] is True
        # Once the queue drains, the same check is accepted again.
        assert check(pool, spec_for({"digest": digest}, fsp))["equivalent"] is True


# ----------------------------------------------------------------------
# work-stealing (pool level, real workers; the rule itself is tested at
# both levels in test_placement.py)
# ----------------------------------------------------------------------
def test_cold_digest_checks_migrate_off_a_busy_shard(corpus):
    with ShardPool(2, corpus["root"], steal_threshold=1) as pool:
        pool.warm_up()
        (digest_a, fsp_a), (digest_b, fsp_b) = colocated_pair(pool, corpus)
        home = home_of(pool, digest_a)
        # Hold the home shard busy with a check keyed by digest_a.
        _order, occupying = pool.submit_check(spec_for({"digest": digest_a}, fsp_a, "napping"))
        # Cache-hot work (digest_a was just dispatched home) stays home...
        assert pool.plan_check(spec_for({"digest": digest_a}, fsp_a))[0] == home
        steals_before = pool.steals
        # ...while a cache-cold store-referenced check migrates to the idle
        # shard and actually runs there.
        result = check(pool, spec_for({"digest": digest_b}, fsp_b))
        assert result["equivalent"] is True
        assert result["shard"] == 1 - home
        assert pool.steals == steals_before + 1
        occupying.result(timeout=30)


# ----------------------------------------------------------------------
# crash semantics: job errors are not worker death
# ----------------------------------------------------------------------
class UnpicklableError(Exception):
    """An exception whose pickle round-trip fails in the parent.

    ``__reduce__`` drops an argument, so unpickling raises TypeError -- the
    shape of many real-world third-party exceptions.  Before the `_guarded`
    wrapper, returning this from a job killed the executor's result-handler
    thread (BrokenProcessPool) and the pool then replayed the deterministic
    poison job on a fresh worker.
    """

    def __init__(self, a, b):
        super().__init__(f"{a}:{b}")
        self.a = a
        self.b = b

    def __reduce__(self):
        return (UnpicklableError, (self.a,))


def _raise_unpicklable():
    raise UnpicklableError("poison", "job")


def test_job_error_that_cannot_unpickle_does_not_break_the_worker(tmp_path):
    with ShardPool(1, tmp_path) as pool:
        pool.warm_up()
        before = run(pool, 0, _worker_stats)
        with pytest.raises(protocol.ServiceError) as info:
            pool.submit(0, _raise_unpicklable).result(timeout=30)
        assert info.value.code == protocol.INTERNAL
        assert "UnpicklableError" in info.value.message
        # The worker survived: same pid, no revival, and it still answers.
        after = run(pool, 0, _worker_stats)
        assert after["pid"] == before["pid"]
        assert pool.revivals == 0


def test_deterministic_job_error_is_not_retried(tmp_path):
    # The error comes back exactly once per submission (no hidden replay):
    # a second, identical submission also answers -- from the same live
    # worker -- rather than burning a fresh executor each time.
    with ShardPool(1, tmp_path) as pool:
        pool.warm_up()
        pids = set()
        for _ in range(3):
            with pytest.raises(protocol.ServiceError):
                pool.submit(0, _raise_unpicklable).result(timeout=30)
            pids.add(run(pool, 0, _worker_stats)["pid"])
        assert len(pids) == 1
        assert pool.revivals == 0


# ----------------------------------------------------------------------
# the wire: deadlines, quotas, metrics, traces end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hardened_service(tmp_path_factory, slow_notions):
    """A server with every hardening knob on (except quotas; see below)."""
    store_root = str(tmp_path_factory.mktemp("hardened-store"))
    holder: dict = {"trace": io.StringIO()}
    started = threading.Event()

    def run() -> None:
        async def main() -> None:
            server = EquivalenceServer(
                port=0,
                store_root=store_root,
                num_shards=2,
                max_processes=16,
                max_verdicts=64,
                max_queue=64,
                steal_threshold=8,
                metrics_port=0,
                trace_stream=holder["trace"],
            )
            await server.start()
            holder["server"] = server
            holder["port"] = server.port
            holder["metrics_port"] = server.metrics_port
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "server failed to start"
    yield holder
    loop = holder["loop"]
    loop.call_soon_threadsafe(lambda: [t.cancel() for t in asyncio.all_tasks(loop)])
    thread.join(timeout=30)


def client_for(service) -> ServiceClient:
    return ServiceClient(port=service["port"])


def test_deadline_exceeded_over_the_wire(hardened_service):
    left = random_fsp(6, all_accepting=True, seed=91)
    right = random_equivalent_copy(left, seed=92)
    with client_for(hardened_service) as client:
        started = time.monotonic()
        with pytest.raises(protocol.ServiceError) as info:
            client.check(left, right, "sleepy", deadline_ms=250)
        assert info.value.code == protocol.DEADLINE_EXCEEDED
        assert time.monotonic() - started < 10.0
        # The batch form reports the timeout inline, per check.
        batch = client.check_many([(left, right)], notion="sleepy", deadline_ms=250)
        assert batch["summary"]["failed"] == 1
        assert batch["results"][0]["error"]["code"] == protocol.DEADLINE_EXCEEDED


def test_bad_deadline_is_rejected(hardened_service):
    left = random_fsp(4, all_accepting=True, seed=93)
    with client_for(hardened_service) as client:
        with pytest.raises(protocol.ServiceError) as info:
            client.check(left, left, "strong", deadline_ms=-5)
        assert info.value.code == protocol.BAD_REQUEST


def test_metrics_rpc_counts_requests_and_is_monotonic(hardened_service):
    left = random_fsp(5, all_accepting=True, seed=94)
    right = random_equivalent_copy(left, seed=95)

    def check_count(snapshot) -> float:
        for series in snapshot["repro_service_requests_total"]["series"]:
            if series["labels"] == {"op": "check"}:
                return series["value"]
        return 0.0

    with client_for(hardened_service) as client:
        client.check(left, right, "strong")
        first = client.metrics()
        client.check(left, right, "strong")
        second = client.metrics()
    assert check_count(second) == check_count(first) + 1
    # Engine time and queue wait were histogrammed for the checks.
    assert second["repro_service_engine_seconds"]["series"][0]["count"] >= 1
    assert second["repro_service_queue_wait_seconds"]["series"][0]["count"] >= 1
    # Cache provenance: second identical check hits the verdict cache.
    outcomes = {
        s["labels"]["outcome"]: s["value"]
        for s in second["repro_service_check_cache_total"]["series"]
    }
    assert outcomes.get("hit", 0) >= 1 and outcomes.get("miss", 0) >= 1


def test_metrics_counters_stay_monotonic_under_concurrent_clients(hardened_service):
    left = random_fsp(5, all_accepting=True, seed=96)
    right = random_equivalent_copy(left, seed=97)
    threads, per_thread = 4, 10
    failures: list = []

    def hammer() -> None:
        try:
            with client_for(hardened_service) as client:
                for _ in range(per_thread):
                    client.check(left, right, "strong")
        except Exception as error:  # pragma: no cover - surfaced via assert
            failures.append(error)

    with client_for(hardened_service) as observer:
        before = observer.metrics()
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        snapshots = []
        while any(worker.is_alive() for worker in workers):
            snapshots.append(observer.metrics())
        for worker in workers:
            worker.join(timeout=30)
        after = observer.metrics()

    def check_count(snapshot) -> float:
        for series in snapshot["repro_service_requests_total"]["series"]:
            if series["labels"] == {"op": "check"}:
                return series["value"]
        return 0.0

    assert not failures
    counts = [check_count(s) for s in [before, *snapshots, after]]
    assert counts == sorted(counts)
    assert check_count(after) - check_count(before) == threads * per_thread


def test_prometheus_http_endpoint(hardened_service):
    url = f"http://127.0.0.1:{hardened_service['metrics_port']}/metrics"
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200
        assert "text/plain" in response.headers["Content-Type"]
        body = response.read().decode("utf-8")
    assert "# TYPE repro_service_requests_total counter" in body
    assert "# TYPE repro_service_request_seconds histogram" in body
    assert 'repro_service_shard_queue_depth{shard="0"}' in body


def test_trace_records_carry_request_anatomy(hardened_service):
    left = random_fsp(5, all_accepting=True, seed=98)
    right = random_equivalent_copy(left, seed=99)
    with client_for(hardened_service) as client:
        client.check(left, right, "strong")
    lines = [
        json.loads(line)
        for line in hardened_service["trace"].getvalue().splitlines()
        if line.strip()
    ]
    checks = [r for r in lines if r["op"] == "check" and r["status"] == "ok"]
    assert checks, "no check trace records were written"
    record = checks[-1]
    assert {"id", "peer", "seconds", "shard", "queue_wait", "engine_seconds", "cache"} <= set(
        record
    )


def test_stats_reports_flow_control_counters(hardened_service):
    with client_for(hardened_service) as client:
        server = client.stats()["server"]
    assert server["steals"] >= 0
    assert server["overloads"] >= 0
    assert server["queue_depths"] == [0, 0]
    assert "quota_clients" in server


# ----------------------------------------------------------------------
# quotas (a dedicated tiny server: buckets persist per client address)
# ----------------------------------------------------------------------
def test_quota_rejection_carries_the_overloaded_shape(tmp_path):
    holder: dict = {}
    started = threading.Event()

    def run() -> None:
        async def main() -> None:
            server = EquivalenceServer(
                port=0,
                store_root=str(tmp_path),
                num_shards=1,
                quota_rps=1.0,
                quota_burst=3.0,
            )
            await server.start()
            holder["port"] = server.port
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "server failed to start"
    try:
        left = random_fsp(4, all_accepting=True, seed=71)
        # Retries off: this test pins the raw rejection shape, and a
        # retrying client would absorb the fourth check after backoff.
        with ServiceClient(port=holder["port"], overload_retries=0) as client:
            # Exempt ops never charge the bucket.
            for _ in range(5):
                client.ping()
            # The burst admits three checks; the fourth is shed with a hint.
            for _ in range(3):
                client.check(left, left, "strong")
            with pytest.raises(protocol.ServiceError) as info:
                client.check(left, left, "strong")
            assert info.value.code == protocol.OVERLOADED
            assert info.value.data["retry_after_ms"] >= 1
            # Throttled clients can still observe the server.
            assert client.stats()["server"]["quota_clients"] == 1
    finally:
        loop = holder["loop"]
        loop.call_soon_threadsafe(lambda: [t.cancel() for t in asyncio.all_tasks(loop)])
        thread.join(timeout=30)
