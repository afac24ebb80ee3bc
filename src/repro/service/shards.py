"""The sharded worker pool: one single-process executor + engine per shard.

Kanellakis-Smolka checks over independent pairs are embarrassingly parallel,
but the engine's speed on server-style traffic comes from its *caches* --
and a naive shared pool scatters each process's checks across workers, so
every worker pays to compile the same artifacts.  A :class:`ShardPool`
instead owns ``num_shards`` :class:`~concurrent.futures.ProcessPoolExecutor`
instances of one worker process each, and places every check by the content
digest of its left process on a hash ring over the shard indices
(:class:`~repro.service.placement.Placement`, the same policy the cluster
coordinator applies to nodes).  The routing is therefore *sticky*: all
checks touching a given process land on the same worker, whose private
bounded :class:`~repro.engine.Engine` keeps that process's quotients,
kernels and verdicts hot, while the shards together multiply both the
usable CPU and the aggregate cache capacity.

Worker lifecycle
----------------

Each worker is initialised (fork start method where available, so source
checkouts and pre-imported state carry over cheaply) with its shard index,
the shared read-only :class:`~repro.service.store.ProcessStore` root, and
its engine's cache bounds.  Job payloads are plain dicts and the results are
JSON-compatible dicts, so the inter-process traffic stays small; process
*references* resolve inside the worker against the content-addressed store,
which is exactly what lets a client upload a process once and check it
thousands of times without re-shipping it.

A crashed worker (OOM-killed, segfaulted C extension, ``os._exit``) breaks
its executor; :meth:`ShardPool.run_async` revives the shard with a fresh
executor -- the replacement worker starts with cold caches but the
content-addressed store still has every uploaded process -- and retries the
job once, on the next shard of the job's failover order, before giving up.
Only genuine worker death
(:class:`~concurrent.futures.process.BrokenProcessPool`) takes that path:
every job submitted to a shard runs under :func:`_guarded`, which converts
*job-level* failures -- including exceptions that would not survive the
pickle trip home and would otherwise poison the executor -- into structured
:class:`~repro.service.protocol.ServiceError` replies, so a deterministic
bad job answers once instead of being replayed against a fresh worker.

Service hardening (deadlines, backpressure, work-stealing)
----------------------------------------------------------

* Check specs may carry an absolute monotonic ``deadline``; the worker
  aborts cooperatively (:func:`repro.service.flow.deadline_scope`) with a
  ``deadline_exceeded`` error -- before computing if the job out-queued its
  deadline, preemptively mid-refinement otherwise -- so slow-poison jobs
  cannot wedge a shard.
* ``max_queue`` bounds each shard's submitted-but-unfinished depth; the
  pool answers ``overloaded`` (with a retry hint) instead of queueing
  unboundedly.
* ``steal_threshold`` enables digest-affinity-preserving work-stealing
  (the placement's steal rule over live queue depths): when a job's home
  shard is backed up, the job migrates to the least loaded shard *only if*
  it is store-referenced (any worker can resolve it against the shared
  store) and cache-cold on its home shard.  A stolen job whose host
  crashes falls back to its home shard once.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
from collections.abc import Awaitable, Iterable
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.service import flow, protocol
from repro.service.placement import Placement
from repro.service.store import ProcessStore

try:  # pragma: no cover - always available on the supported platforms
    _MP_CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-posix fallback
    _MP_CONTEXT = multiprocessing.get_context()

#: Default per-shard engine cache bounds (deliberately modest: the point of
#: sharding is that each worker only needs to hold *its* slice of the
#: working set, and per-worker memory is the budget operators actually set).
DEFAULT_MAX_PROCESSES = 64
DEFAULT_MAX_VERDICTS = 1024

#: Extra seconds the server waits past a request's deadline for the worker's
#: own structured ``deadline_exceeded`` reply (which carries shard/queue
#: telemetry) before answering on its behalf.
DEADLINE_GRACE_SECONDS = 0.5


# ----------------------------------------------------------------------
# worker-side state and job functions (top level: they must pickle)
# ----------------------------------------------------------------------
_WORKER: dict[str, Any] = {}


def _init_worker(
    shard_index: int,
    store_root: str | None,
    max_processes: int,
    max_verdicts: int,
    node_name: str | None = None,
) -> None:
    """Executor initializer: one engine (and store view) per worker process."""
    from repro.engine import Engine

    _WORKER["shard"] = shard_index
    _WORKER["engine"] = Engine(max_processes=max_processes, max_verdicts=max_verdicts)
    _WORKER["store"] = ProcessStore(store_root) if store_root is not None else None
    _WORKER["checks"] = 0
    _WORKER["node"] = node_name


def _worker_resolve(ref: Any):
    return protocol.resolve_ref(ref, _WORKER.get("store"))


def _check_failed(error: Exception) -> protocol.ServiceError:
    return protocol.ServiceError(protocol.CHECK_FAILED, str(error))


def _guarded(fn, *args) -> Any:
    """Run one job, converting every job-level failure to a ServiceError.

    This is the worker-side half of the crash-recovery contract: the parent
    retries a shard's job on a fresh executor *only* for
    :class:`BrokenProcessPool`, i.e. genuine worker death.  For that to be
    sound, no mere job exception may ever break the executor -- and an
    exception that fails to unpickle in the parent (third-party classes with
    required constructor arguments are the classic case) does exactly that:
    it kills the executor's result-handler thread, and the old code then
    replayed the deterministic poison job against a brand-new worker.
    Wrapping every submission here turns any such failure into a
    :class:`~repro.service.protocol.ServiceError`, whose ``__reduce__``
    guarantees the pickle round-trip, so a bad job answers once with a
    structured error and the worker lives on.
    """
    try:
        return fn(*args)
    except protocol.ServiceError:
        raise
    except flow.DeadlineExceeded:
        raise protocol.ServiceError(
            protocol.DEADLINE_EXCEEDED,
            "job deadline expired in the worker",
            {"shard": _WORKER.get("shard")},
        ) from None
    except Exception as error:
        raise protocol.ServiceError(
            protocol.INTERNAL, f"job raised {type(error).__name__}: {error}"
        ) from None


def _worker_check(spec: dict[str, Any]) -> dict[str, Any]:
    """Run one check inside the worker; returns a JSON-compatible verdict.

    Composed-system operands (``{"system": ...}`` references) take the
    on-the-fly route of :mod:`repro.explore` by default -- the product is
    never materialised in the worker -- as does any check whose manifest
    entry sets ``on_the_fly``; setting it to false instead composes the
    system eagerly and runs the classic cached route.
    """
    from repro.core.errors import ReproError
    from repro.explore.system import SystemSpec, compose_eager

    enqueued = spec.get("enqueued")
    queue_wait = max(0.0, time.monotonic() - enqueued) if enqueued is not None else None
    # The scope covers operand resolution too: a store read for a job that
    # already out-queued its deadline is work the client will never see.
    with flow.deadline_scope(spec.get("deadline")):
        left = protocol.resolve_operand(spec["left"], _WORKER.get("store"))
        right = protocol.resolve_operand(spec["right"], _WORKER.get("store"))
        engine = _WORKER["engine"]
        composed = isinstance(left, SystemSpec) or isinstance(right, SystemSpec)
        on_the_fly = spec.get("on_the_fly")
        lazy = bool(on_the_fly) or (on_the_fly is None and composed)
        reduction = spec.get("reduction")
        try:
            if lazy:
                extra = dict(spec.get("params", {}))
                if reduction is not None:
                    extra["reduction"] = reduction
                verdict = engine.check_on_the_fly(
                    left,
                    right,
                    spec.get("notion", "observational"),
                    witness=bool(spec.get("witness", False)),
                    **extra,
                )
            else:
                if isinstance(left, SystemSpec):
                    left = compose_eager(left)
                if isinstance(right, SystemSpec):
                    right = compose_eager(right)
                verdict = engine.check(
                    left,
                    right,
                    spec.get("notion", "observational"),
                    align=bool(spec.get("align", True)),
                    witness=bool(spec.get("witness", False)),
                    **spec.get("params", {}),
                )
        except flow.DeadlineExceeded:
            raise
        except (ReproError, ValueError, TypeError) as error:
            raise _check_failed(error) from None
    _WORKER["checks"] += 1
    result = verdict.to_dict()
    if lazy:
        result["route"] = verdict.stats.details.get("route")
        result["pairs_visited"] = verdict.stats.details.get("pairs_visited")
        result["reduction"] = verdict.stats.details.get("reduction")
    result["shard"] = _WORKER["shard"]
    result["pid"] = os.getpid()
    if queue_wait is not None:
        result["queue_wait"] = round(queue_wait, 6)
    return result


def _worker_minimize(ref: Any, notion: str) -> dict[str, Any]:
    """Minimise one process inside the worker; returns the serialised quotient."""
    from repro.core.errors import ReproError
    from repro.utils.serialization import to_dict

    fsp = _worker_resolve(ref)
    try:
        minimal = _WORKER["engine"].minimize(fsp, notion=notion)
    except (ReproError, ValueError, TypeError) as error:
        raise _check_failed(error) from None
    return {
        "process": to_dict(minimal),
        "notion": notion,
        "states_before": fsp.num_states,
        "states_after": minimal.num_states,
        "shard": _WORKER["shard"],
    }


def _worker_classify(ref: Any) -> dict[str, Any]:
    """Classify one process inside the worker (Fig. 1a model hierarchy)."""
    from repro.core.classify import classify

    fsp = _worker_resolve(ref)
    return {
        "classes": sorted(str(model) for model in classify(fsp)),
        "states": fsp.num_states,
        "transitions": fsp.num_transitions,
        "shard": _WORKER["shard"],
    }


def _worker_stats() -> dict[str, Any]:
    """This worker's engine/store cache statistics (the ``stats`` RPC)."""
    store = _WORKER.get("store")
    return {
        "shard": _WORKER["shard"],
        "pid": os.getpid(),
        "checks": _WORKER["checks"],
        "engine": _WORKER["engine"].export_stats(node=_WORKER.get("node")),
        "store": store.cache_info() if store is not None else None,
    }


async def _gather(coroutines: Iterable[Awaitable[Any]]) -> list[Any]:
    return list(await asyncio.gather(*coroutines))


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class ShardPool:
    """``num_shards`` single-worker executors with digest-sticky placement."""

    def __init__(
        self,
        num_shards: int | None = None,
        store_root: str | os.PathLike | None = None,
        *,
        max_processes: int = DEFAULT_MAX_PROCESSES,
        max_verdicts: int = DEFAULT_MAX_VERDICTS,
        max_queue: int | None = None,
        steal_threshold: int | None = None,
        node_name: str | None = None,
    ) -> None:
        if num_shards is None:
            num_shards = max(1, os.cpu_count() or 1)
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be positive (or None for unbounded)")
        self.num_shards = num_shards
        self.store_root = str(store_root) if store_root is not None else None
        self.max_processes = max_processes
        self.max_verdicts = max_verdicts
        #: Backpressure bound: a shard refuses new checks (``overloaded``)
        #: once this many of its jobs are submitted-but-unfinished.
        self.max_queue = max_queue
        #: Ring placement over the shard indices.  Every shard reads the
        #: shared store, so each key's failover order spans all shards and a
        #: stealable check may move to any of them (``steal_threshold`` is
        #: the queue depth that triggers it).
        self.placement = Placement(range(num_shards), steal_threshold=steal_threshold)
        #: Cluster-node identity stamped into each worker's exported engine
        #: stats (``None`` for the single-node service).
        self.node_name = node_name
        self._lock = threading.Lock()
        self._generations = [0] * num_shards
        self._depths = [0] * num_shards
        self._executors = [self._new_executor(index) for index in range(num_shards)]
        self._revivals = 0
        self._overloads = 0

    def _new_executor(self, index: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=_MP_CONTEXT,
            initializer=_init_worker,
            initargs=(
                index,
                self.store_root,
                self.max_processes,
                self.max_verdicts,
                self.node_name,
            ),
        )

    # ------------------------------------------------------------------
    # submission with crash recovery
    # ------------------------------------------------------------------
    def submit(self, shard: int, fn, *args) -> Future:
        """Submit a raw job to one shard (no retry -- see :meth:`run_async`).

        Every job runs under :func:`_guarded` (so only worker death breaks
        the executor) and is counted against the shard's queue depth until
        its future resolves.
        """
        with self._lock:
            self._depths[shard] += 1
        try:
            future = self._executors[shard].submit(_guarded, fn, *args)
        except BaseException:
            self._job_done(shard)
            raise
        future.add_done_callback(lambda _future, shard=shard: self._job_done(shard))
        return future

    def _job_done(self, shard: int) -> None:
        with self._lock:
            if self._depths[shard] > 0:
                self._depths[shard] -= 1

    def revive(self, shard: int, generation: int) -> None:
        """Replace a broken shard executor (idempotent per generation)."""
        with self._lock:
            if self._generations[shard] != generation:
                return  # someone already revived this shard
            broken = self._executors[shard]
            self._generations[shard] += 1
            self._executors[shard] = self._new_executor(shard)
            self._revivals += 1
        broken.shutdown(wait=False, cancel_futures=True)

    async def run_async(self, order: list[int], fn, *args, deadline: float | None = None) -> Any:
        """Run one job on ``order[0]``, reviving a dead worker and retrying once.

        This is the pool's one crash-recovery path.  Only worker death
        (:class:`BrokenProcessPool`) takes it: the shard gets a fresh
        executor and the job is retried on the next shard of its failover
        order -- a stolen check falls back to its home shard -- or on the
        revived shard when it is the only one.  Jobs that out-wait
        ``deadline`` (plus a grace period for the worker's own structured
        reply) answer ``deadline_exceeded``.
        """
        shard = order[0]
        generation = self._generations[shard]
        try:
            return await self._await_job(self.submit(shard, fn, *args), deadline)
        except BrokenProcessPool:
            # One crash breaks every job still pending on the shard; the
            # generation snapshot makes revive() a no-op for all of them but
            # the first, so the shard restarts once per crash.
            self.revive(shard, generation)
            fallback = order[1] if len(order) > 1 else shard
            return await self._await_job(self.submit(fallback, fn, *args), deadline)

    @staticmethod
    async def _await_job(future: Future, deadline: float | None) -> Any:
        wrapped = asyncio.wrap_future(future)
        remaining = flow.remaining_seconds(deadline)
        if remaining is None:
            return await wrapped
        try:
            return await asyncio.wait_for(wrapped, timeout=remaining + DEADLINE_GRACE_SECONDS)
        except asyncio.TimeoutError:
            raise protocol.ServiceError(
                protocol.DEADLINE_EXCEEDED,
                "deadline expired before the worker answered",
            ) from None

    # ------------------------------------------------------------------
    # the check-shaped surface (what the server and benchmarks call)
    # ------------------------------------------------------------------
    def plan_check(self, spec: dict[str, Any]) -> list[int]:
        """The failover order for one check, dispatch shard first.

        The placement's steal rule runs against live queue depths.

        Raises
        ------
        ServiceError
            :data:`~repro.service.protocol.OVERLOADED` when ``max_queue`` is
            set and the dispatch shard's queue is full; ``error.data``
            carries a ``retry_after_ms`` hint.
        """
        with self._lock:
            return self.placement.plan(spec, self._depths.__getitem__, admit=self._admit)

    def _admit(self, shard: int) -> None:
        """Refuse a dispatch to a full shard queue (called under the lock)."""
        depth = self._depths[shard]
        if self.max_queue is not None and depth >= self.max_queue:
            self._overloads += 1
            raise protocol.ServiceError(
                protocol.OVERLOADED,
                f"shard {shard} queue is full ({depth} jobs, max_queue={self.max_queue})",
                {"retry_after_ms": 100, "shard": shard, "queue_depth": depth},
            )

    @staticmethod
    def _job(spec: dict[str, Any], deadline: float | None) -> dict[str, Any]:
        """A copy of ``spec`` stamped with its enqueue instant and deadline.

        The worker reports ``queue_wait`` from the enqueue instant and
        enforces the absolute monotonic ``deadline``.
        """
        job = dict(spec)
        job["enqueued"] = time.monotonic()
        if deadline is not None:
            job["deadline"] = deadline
        return job

    def submit_check(
        self, spec: dict[str, Any], *, deadline: float | None = None
    ) -> tuple[list[int], Future]:
        """Plan and submit one check without waiting: ``(order, future)``.

        For open-loop load generators that collect results by callback; the future
        carries no crash recovery (see :meth:`run_async_check`).
        """
        order = self.plan_check(spec)
        return order, self.submit(order[0], _worker_check, self._job(spec, deadline))

    async def run_async_check(
        self, spec: dict[str, Any], *, deadline: float | None = None
    ) -> dict[str, Any]:
        """Plan one check and run it on its dispatch shard (see :meth:`run_async`).

        The worker's own cooperative abort normally answers a missed
        deadline first (its ``deadline_exceeded`` error carries shard
        telemetry); the server-side wait at deadline + grace is the backstop
        for a worker stuck somewhere signals cannot reach.
        """
        order = self.plan_check(spec)
        return await self.run_async(
            order, _worker_check, self._job(spec, deadline), deadline=deadline
        )

    def check_many(self, specs: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Blocking :meth:`run_async_check` over a manifest; results in order."""
        return asyncio.run(_gather(self.run_async_check(spec) for spec in specs))

    async def shard_stats(self) -> list[dict[str, Any]]:
        """Per-shard worker statistics (engine + store cache info)."""
        return await _gather(
            self.run_async([shard], _worker_stats) for shard in range(self.num_shards)
        )

    def stats(self) -> list[dict[str, Any]]:
        """Blocking :meth:`shard_stats`."""
        return asyncio.run(self.shard_stats())

    def warm_up(self) -> None:
        """Fork every worker now (a no-op job per shard, awaited together).

        Executors spawn their worker lazily on first submit; forking that
        late -- from a process that has meanwhile started an asyncio loop
        and helper threads -- risks the classic fork-with-threads hazards.
        The server calls this before accepting connections so the forks
        happen while the process is still quiet (revival forks after a
        worker crash remain lazy, the rare case).
        """
        for future in [self.submit(shard, _worker_stats) for shard in range(self.num_shards)]:
            future.result()

    @property
    def revivals(self) -> int:
        """How many crashed shard workers have been replaced so far."""
        return self._revivals

    @property
    def steals(self) -> int:
        """How many checks migrated off their home shard so far."""
        return self.placement.steals

    @property
    def overloads(self) -> int:
        """How many checks were refused with ``overloaded`` so far."""
        return self._overloads

    def queue_depths(self) -> list[int]:
        """Submitted-but-unfinished jobs per shard (a point-in-time read)."""
        with self._lock:
            return list(self._depths)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        for executor in self._executors:
            executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ShardPool(num_shards={self.num_shards}, store_root={self.store_root!r}, "
            f"max_queue={self.max_queue}, "
            f"steal_threshold={self.placement.steal_threshold}, "
            f"revivals={self._revivals}, steals={self.steals})"
        )
