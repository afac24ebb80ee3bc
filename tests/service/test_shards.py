"""ShardPool tests: sticky routing, cache affinity, crash recovery.

Placement itself (the ring walk and the steal rule) is tested in
``test_placement.py``; these tests run real workers.
"""

import asyncio
import os
import pickle

import pytest

from repro.engine import Engine, Process
from repro.generators.random_fsp import perturb, random_equivalent_copy, random_fsp
from repro.service import protocol
from repro.service.shards import ShardPool, _worker_stats
from repro.service.store import ProcessStore


def _crash_worker():
    os._exit(17)


@pytest.fixture(scope="module")
def workload():
    base = random_fsp(10, tau_probability=0.2, all_accepting=True, seed=11)
    copy = random_equivalent_copy(base, duplicates=2, seed=12)
    near = perturb(base, seed=13)
    return base, copy, near


def spec_for(left_ref, right, notion="observational"):
    return {
        "left": left_ref,
        "right": protocol.process_ref(right),
        "notion": notion,
        "align": True,
        "witness": False,
        "params": {},
    }


def check(pool, spec):
    return asyncio.run(pool.run_async_check(spec))


def run(pool, shard, fn):
    return asyncio.run(pool.run_async([shard], fn))


# ----------------------------------------------------------------------
# checks through real workers
# ----------------------------------------------------------------------
def test_check_and_affinity_through_store(tmp_path, workload):
    base, copy, near = workload
    store = ProcessStore(tmp_path)
    digest = store.put(base)
    with ShardPool(2, tmp_path, max_processes=8, max_verdicts=32) as pool:
        expected_shard = pool.placement.owners(digest)[0]
        specs = [
            spec_for({"digest": digest}, copy, "observational"),
            spec_for({"digest": digest}, near, "strong"),
            spec_for({"digest": digest}, copy, "strong"),
        ]
        results = pool.check_many(specs)
        # Reference answers from an in-process engine.
        engine = Engine()
        for spec, result in zip(specs, results):
            right = protocol.resolve_ref(spec["right"])
            want = engine.check(base, right, spec["notion"], align=True).equivalent
            assert result["equivalent"] is want
            # Shard affinity: everything keyed by this digest lands together.
            assert result["shard"] == expected_shard
        stats = pool.stats()
        assert [s["shard"] for s in stats] == [0, 1]
        assert stats[expected_shard]["checks"] == len(specs)
        assert stats[1 - expected_shard]["checks"] == 0
        # The hot shard's engine actually cached the routed processes.
        assert stats[expected_shard]["engine"]["processes"] >= 2


def test_check_failed_error_crosses_process_boundary(tmp_path, workload):
    base, copy, _near = workload
    with ShardPool(1, tmp_path) as pool:
        with pytest.raises(protocol.ServiceError) as info:
            check(pool, spec_for(protocol.process_ref(base), copy, "no-such-notion"))
        assert info.value.code == protocol.CHECK_FAILED
        with pytest.raises(protocol.ServiceError) as info:
            check(pool, spec_for({"digest": "sha256:" + "0" * 64}, copy))
        assert info.value.code == protocol.UNKNOWN_DIGEST


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
def test_crashed_worker_is_revived(tmp_path, workload):
    from concurrent.futures.process import BrokenProcessPool

    base, copy, _near = workload
    store = ProcessStore(tmp_path)
    digest = store.put(base)
    with ShardPool(1, tmp_path) as pool:
        before = run(pool, 0, _worker_stats)
        with pytest.raises(BrokenProcessPool):
            pool.submit(0, _crash_worker).result()
        # The next routed job transparently revives the shard and succeeds;
        # the replacement worker still resolves digests (the store is disk-
        # backed), it just starts with cold caches.
        result = check(pool, spec_for({"digest": digest}, copy))
        assert result["equivalent"] is True
        assert result["pid"] != before["pid"]
        assert pool.revivals == 1
        after = run(pool, 0, _worker_stats)
        assert after["checks"] == 1  # fresh worker, fresh counters


def test_one_crash_revives_once_despite_pending_specs(tmp_path, workload):
    # A crash breaks every future still queued on the shard; recovery must
    # restart the worker once per crash, not once per affected spec.
    base, copy, near = workload
    store = ProcessStore(tmp_path)
    digest = store.put(base)
    with ShardPool(1, tmp_path) as pool:
        pool.submit(0, _crash_worker)  # queued first; kills the worker
        specs = [
            spec_for({"digest": digest}, copy),
            spec_for({"digest": digest}, near),
            spec_for({"digest": digest}, copy, "strong"),
        ]
        results = pool.check_many(specs)
        assert [r["equivalent"] for r in results] == [
            check(pool, spec)["equivalent"] for spec in specs
        ]
        assert pool.revivals == 1


def test_persistently_crashing_job_still_raises(tmp_path):
    from concurrent.futures.process import BrokenProcessPool

    with ShardPool(1, tmp_path) as pool:
        with pytest.raises(BrokenProcessPool):
            run(pool, 0, _crash_worker)  # crashes, revives, crashes again
        assert pool.revivals == 1
        # ... and the pool is still usable afterwards.
        assert run(pool, 0, _worker_stats)["shard"] == 0


# ----------------------------------------------------------------------
# worker-shipping support in the engine layer
# ----------------------------------------------------------------------
def test_process_pickles_lean(workload):
    base, _copy, _near = workload
    handle = Process(base)
    handle.lts()
    handle.weak_kernel()
    handle.minimized_observational()
    handle.strong_quotient()
    handle.observational_quotient()
    handle.macro_moves().successors(0)
    clone = pickle.loads(pickle.dumps(handle))
    assert clone.fsp == base
    # Snapshots ship only the FSP; artifacts rebuild lazily on arrival.
    summary = clone.artifact_summary()
    assert not summary["lts"] and not summary["weak_kernel"]
    assert summary["strong_partitions"] == summary["observational_partitions"] == 0
    assert summary["macrostates"] == 0 and not summary["branching_quotient"]
    assert clone.minimized_observational() == handle.minimized_observational()
    # And the pickle really is smaller than one carrying the caches would be.
    assert len(pickle.dumps(handle)) == len(pickle.dumps(Process(base)))


def test_engine_export_stats(workload):
    base, copy, _near = workload
    engine = Engine(max_processes=4, max_verdicts=8)
    engine.check(base, copy, "strong", align=True)
    stats = engine.export_stats()
    assert stats["max_processes"] == 4 and stats["max_verdicts"] == 8
    assert stats["processes"] == len(stats["process_artifacts"])
    assert all(row["artifacts"]["lts"] for row in stats["process_artifacts"])
    import json

    json.dumps(stats)  # must be JSON-compatible for the stats RPC
