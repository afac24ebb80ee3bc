"""Service throughput benchmark: one shard vs a sharded pool on a 500-check manifest.

What is measured
----------------

The workload is the service's design-target traffic shape: a pool of
*bases*, each with equivalent copies and perturbed near-misses, uploaded
once into a content-addressed :class:`~repro.service.store.ProcessStore`
and then referenced by digest across a 500-check mixed-notion manifest
(strong / observational / language) that keeps revisiting the same pairs --
the ``one process vs many candidates, asked repeatedly`` pattern of
server-side batches.

Both configurations run the *same* manifest through
:meth:`~repro.service.shards.ShardPool.check_many` with the *same fixed
per-worker engine budget* (``PER_SHARD_MAX_PROCESSES`` /
``PER_SHARD_MAX_VERDICTS`` -- per-worker memory is the knob operators
actually set).  The working set (:data:`NUM_BASES` bases x
:data:`VARIANTS_PER_BASE` variants) deliberately exceeds one worker's
budget:

* at **1 shard** every check thrashes the single worker's LRU caches, so
  artifacts and verdicts are recomputed pass after pass;
* at **4 shards** the digest-sticky routing partitions the
  working set, each shard's slice *fits* its budget, and passes after the
  first are served from hot caches.

The recorded speedup therefore measures what sharding actually buys a
deployment: aggregate cache capacity through routing affinity -- on any
host, including single-core CI runners -- multiplied by genuine CPU
parallelism on multi-core hosts (the workers are separate processes; the
recording host's core count is stored in the metadata so readers can tell
the two effects apart).

The ``service`` layer of ``benchmarks/cells.py`` times both configurations
with :func:`run_manifest`; its gate rows require the 4-shard ``speedup`` to
reach 2.5x and both configurations to answer the manifest identically.  The
soak and cluster benchmarks reuse the same workload.
"""

from __future__ import annotations

import time

from repro.generators.random_fsp import perturb, random_equivalent_copy, random_fsp
from repro.service.shards import ShardPool
from repro.service.store import ProcessStore

FAMILY = "service_manifest"

#: The acceptance-criterion manifest size.
DEFAULT_NUM_CHECKS = 500

#: Workload shape: NUM_BASES bases, each with VARIANTS_PER_BASE variants
#: (two equivalent copies, two perturbed near-misses), all content-addressed.
NUM_BASES = 24
VARIANTS_PER_BASE = 4
BASE_STATES = 22

#: The fixed per-worker engine budget.  The full working set
#: (NUM_BASES * (1 + VARIANTS_PER_BASE) = 120 processes, 96 distinct
#: (pair, notion) keys) exceeds it, one shard's routed slice does not.
PER_SHARD_MAX_PROCESSES = 56
PER_SHARD_MAX_VERDICTS = 48

_NOTIONS = ("strong", "observational", "language")


def build_workload(store_root: str) -> tuple[list[dict], dict]:
    """Upload the process pool; returns (distinct check specs, workload meta).

    Every spec references its processes by digest -- the upload-once,
    check-by-digest flow the store exists for -- and is therefore routed by
    the *base* digest, so each base's whole check group is shard-sticky.
    """
    store = ProcessStore(store_root)
    specs: list[dict] = []
    num_processes = 0
    for index in range(NUM_BASES):
        base = random_fsp(
            BASE_STATES, tau_probability=0.15, all_accepting=True, seed=1000 + index
        )
        base_digest = store.put(base)
        variants = [
            random_equivalent_copy(base, duplicates=2, seed=2000 + index),
            random_equivalent_copy(base, duplicates=3, seed=3000 + index),
            perturb(base, seed=4000 + index),
            perturb(base, seed=5000 + index),
        ][:VARIANTS_PER_BASE]
        num_processes += 1 + len(variants)
        for offset, variant in enumerate(variants):
            specs.append(
                {
                    "left": {"digest": base_digest},
                    "right": {"digest": store.put(variant)},
                    "notion": _NOTIONS[(index + offset) % len(_NOTIONS)],
                    "align": True,
                    "witness": False,
                    "params": {},
                }
            )
    meta = {
        "bases": NUM_BASES,
        "variants_per_base": VARIANTS_PER_BASE,
        "processes": num_processes,
        "distinct_checks": len(specs),
        "per_shard_max_processes": PER_SHARD_MAX_PROCESSES,
        "per_shard_max_verdicts": PER_SHARD_MAX_VERDICTS,
    }
    return specs, meta


def build_manifest(specs: list[dict], num_checks: int = DEFAULT_NUM_CHECKS) -> list[dict]:
    """``num_checks`` checks cycling the distinct specs (server-batch shape)."""
    return [specs[i % len(specs)] for i in range(num_checks)]


def run_manifest(
    store_root: str, manifest: list[dict], num_shards: int
) -> tuple[float, list[bool]]:
    """One sample of a cold pool over the whole manifest; returns (seconds, answers).

    The timed region starts once the workers are up, so the sample measures
    checking, not process start-up.
    """
    with ShardPool(
        num_shards,
        store_root,
        max_processes=PER_SHARD_MAX_PROCESSES,
        max_verdicts=PER_SHARD_MAX_VERDICTS,
    ) as pool:
        pool.stats()  # force worker start-up out of the timed region
        begin = time.perf_counter()
        results = pool.check_many(manifest)
        seconds = time.perf_counter() - begin
    return seconds, [result["equivalent"] for result in results]
