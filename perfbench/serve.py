"""``serve_repeat``: an HTTP gateway and coordinator over two nodes, one client.

The servers are the repo's own entry points (``python -m repro cluster
serve-node`` / ``serve-gateway``) run as subprocesses, each in its own
process group, with every store and temporary file under one run-scoped
directory inside the checkout.  Subprocesses rather than in-process threads:
threads would share the load process's interpreter lock with the client and
fork the shard workers from a threaded process.

One synchronous ``ClusterClient`` connection drives a closed loop.  Fifteen
of every sixteen requests repeat a digest-referenced hot set uploaded during
set-up; the sixteenth alternates a fresh inline pair and a protocol scenario
conformance check, so the p99 falls inside deterministic compute rather than
scheduler jitter.
"""

from __future__ import annotations

import ctypes
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import UNITS, SpeedGauge
from inputs import COLD_EVERY, Request, hot_set, inline_requests, scenario_requests
from spans import SpanRecorder, percentile, samples_needed

from repro.cluster.client import ClusterClient
from repro.service.client import ServiceClient

#: Tail percentile reported as ``verdict_tail_ms``.
TAIL = 99

#: Cluster boots per run; ``setup_s`` is their median, the last one serves.
BOOTS = 5

#: Inline pairs generated per second of run length: enough for 1,000
#: requests/s, five times the closed loop's rate on a 2-core machine.
INLINE_PER_SECOND = 1000 // COLD_EVERY // 2

#: Seconds a server may take to print its listening address.
STARTUP_SECONDS = 60

_PORT_LINE = re.compile(r" on (?:http://)?[\w.]+:(\d+)")
_PR_SET_CHILD_SUBREAPER = 36


class HygieneError(RuntimeError):
    """A server process or store directory outlived its run."""


def become_subreaper() -> None:
    """Adopt orphaned shard workers so that they can be reaped (Linux only)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _alive(pid: int, group: bool) -> bool:
    try:
        (os.killpg if group else os.kill)(pid, 0)
    except ProcessLookupError:
        return False
    return True


class Cluster:
    """Two single-shard nodes and a replication-2 gateway under ``workdir``."""

    def __init__(self, src: Path, workdir: Path) -> None:
        self.src = src
        self.workdir = workdir
        self.servers: list[subprocess.Popen] = []
        self.node_ports: list[int] = []
        self.worker_pids: list[int] = []
        self.gateway_port = 0

    def _spawn(self, *args: str) -> int:
        env = {**os.environ, "PYTHONPATH": str(self.src), "TMPDIR": str(self.workdir)}
        log = self.workdir / f"server{len(self.servers)}.log"
        with log.open("w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster", *args],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                env=env,
                start_new_session=True,
            )
        self.servers.append(proc)
        # The server prints its address once it listens; block on that line.
        ready, _, _ = select.select([proc.stdout], [], [], STARTUP_SECONDS)
        match = _PORT_LINE.search(proc.stdout.readline() if ready else "")
        if match is None:
            raise RuntimeError(f"{args[0]} did not start:\n{log.read_text()[-2000:]}")
        return int(match.group(1))

    def start(self) -> None:
        self.workdir.mkdir(parents=True)
        for index in range(2):
            store = self.workdir / f"n{index}"
            self.node_ports.append(
                self._spawn(
                    "serve-node", "--name", f"n{index}", "--port", "0",
                    "--shards", "1", "--store", str(store),
                )
            )
        nodes = [f"n{i}=127.0.0.1:{port}" for i, port in enumerate(self.node_ports)]
        self.gateway_port = self._spawn(
            "serve-gateway", "--node", nodes[0], "--node", nodes[1], "--port", "0",
            "--replication", "2", "--store", str(self.workdir / "gateway"),
        )
        for port in self.node_ports:
            with ServiceClient(port=port) as node:
                self.worker_pids += [shard["pid"] for shard in node.stats()["shards"]]

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the gateway, nodes and shard workers."""
        total_kb = 0
        for pid in [proc.pid for proc in self.servers] + self.worker_pids:
            status = Path(f"/proc/{pid}/status").read_text()
            total_kb += int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return total_kb / 1024.0

    def node_metrics(self) -> list[dict]:
        snapshots = []
        for port in self.node_ports:
            with ServiceClient(port=port) as node:
                snapshots.append(node.metrics())
        return snapshots

    def stop(self) -> None:
        """Stop every server by process group; raise if anything outlives it."""
        for proc in reversed(self.servers):  # gateway first
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
        survivors = []
        deadline = time.monotonic() + 5.0
        for pid, group in [(p.pid, True) for p in self.servers] + [
            (pid, False) for pid in self.worker_pids
        ]:
            while _alive(pid, group) and time.monotonic() < deadline:
                _reap_orphans()
                time.sleep(0.05)
            if _alive(pid, group):
                survivors.append(pid)
                os.killpg(pid, signal.SIGKILL) if group else os.kill(pid, signal.SIGKILL)
        _reap_orphans()
        shutil.rmtree(self.workdir, ignore_errors=True)
        if survivors:
            raise HygieneError(f"server processes outlived the run: {survivors}")
        if self.workdir.exists():
            raise HygieneError(f"store directory outlived the run: {self.workdir}")


# ----------------------------------------------------------------------
# metric readers
# ----------------------------------------------------------------------
def _node_check_seconds(snapshots: list[dict]) -> tuple[float, int]:
    total, count = 0.0, 0
    for snapshot in snapshots:
        for series in snapshot["repro_service_request_seconds"]["series"]:
            if series["labels"].get("op") == "check":
                total += series["sum"]
                count += series["count"]
    return total, count


def _gateway_values(text: str) -> dict[str, float]:
    wanted = {
        'repro_gateway_request_seconds_sum{route="/v1/check"}': "sum",
        'repro_gateway_request_seconds_count{route="/v1/check"}': "count",
        "repro_cluster_failovers_total": "failovers",
        "repro_cluster_repairs_total": "repairs",
    }
    values = dict.fromkeys(wanted.values(), 0.0)
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name in wanted:
            values[wanted[name]] = float(value)
    return values


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
class Traffic:
    """The request schedule: hot repeats with every 16th request cold."""

    def __init__(self, hot: list[Request], inline: list[Request], scenarios: list[Request]):
        self.hot, self.inline, self.scenarios = hot, inline, scenarios
        self.sent = 0
        self._hot = self._inline = self._scenario = 0

    def next(self) -> Request | None:
        slot = self.sent
        self.sent += 1
        if slot % COLD_EVERY != COLD_EVERY - 1:
            self._hot += 1
            return self.hot[(self._hot - 1) % len(self.hot)]
        if (slot // COLD_EVERY) % 2 == 0:
            if self._inline == len(self.inline):
                return None
            self._inline += 1
            return self.inline[self._inline - 1]
        self._scenario += 1
        return self.scenarios[(self._scenario - 1) % len(self.scenarios)]


def _send(client: ClusterClient, request: Request) -> dict:
    return client.check(request.left, request.right, request.notion)


def boot(src: Path, workdir: Path, processes, warm: list[Request]):
    """Boot, upload the hot set and warm every route; returns the set-up wall time."""
    begin = time.perf_counter()
    cluster = Cluster(src, workdir)
    try:
        cluster.start()
        client = ClusterClient(port=cluster.gateway_port)
        uploads = []
        for fsp in processes:
            started = time.perf_counter()
            client.store(fsp)
            uploads.append(time.perf_counter() - started)
        failed = sum(_send(client, request)["equivalent"] != request.equivalent for request in warm)
    except BaseException:
        cluster.stop()
        raise
    return cluster, client, time.perf_counter() - begin, uploads, failed


def closed_loop(
    client, traffic: Traffic, seconds: float, gauge: SpeedGauge, rec: SpanRecorder | None
):
    """Whole 32-request cycles until ``seconds`` of measured time and enough samples.

    Returns ``(request, wall seconds, result, reference seconds)`` per
    request.  The calibration kernel runs once every ``COLD_EVERY`` requests,
    between two requests, outside every measured interval.
    """
    samples: list[tuple[Request, float, dict, int]] = []
    measured = 0.0
    need = samples_needed(TAIL)
    while measured < seconds or len(samples) < need or traffic.sent % (2 * COLD_EVERY):
        if traffic.sent % COLD_EVERY == 0:
            mark = gauge.sample()
        request = traffic.next()
        if request is None:
            break
        begin = time.perf_counter()
        if rec is None:
            result = _send(client, request)
        else:
            with rec.span("cluster.request", len(samples), kind=request.kind) as span:
                result = _send(client, request)
            span.update(
                from_cache=result.get("from_cache"),
                engine_seconds=result.get("seconds"),
                queue_wait=result.get("queue_wait"),
            )
        elapsed = time.perf_counter() - begin
        measured += elapsed
        samples.append((request, elapsed, result, mark))
    return [
        (request, elapsed, result, elapsed * gauge.scale(mark))
        for request, elapsed, result, mark in samples
    ]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, traced: bool, src: Path, out: Path) -> dict:
    processes, hot = hot_set(seed)
    scenarios = scenario_requests(seed)
    pool = inline_requests(seed, BOOTS + math.ceil(seconds * INLINE_PER_SECOND * (2 if traced else 1)))
    warm_inline, inline = pool[:BOOTS], pool[BOOTS:]
    become_subreaper()
    run_dir = out / f"serve-{os.getpid()}"
    setups, failed = [], 0
    gauge, traced_gauge = SpeedGauge(spread=True), SpeedGauge(spread=True)
    try:
        for index in range(BOOTS):
            warm = hot + [warm_inline[index]] + scenarios
            cluster, client, setup, uploads, bad = boot(src, run_dir / f"boot{index}", processes, warm)
            setups.append(setup)
            failed += bad
            if index < BOOTS - 1:
                client.close()
                cluster.stop()
        try:
            traffic = Traffic(hot, inline, scenarios)
            samples = closed_loop(client, traffic, seconds, gauge, None)
            rss = cluster.peak_rss_mb()
            if traced:
                rec = SpanRecorder()
                nodes_before = cluster.node_metrics()
                gateway_before = _gateway_values(client.metrics_text())
                traced_samples = closed_loop(client, traffic, seconds, traced_gauge, rec)
                nodes_after = cluster.node_metrics()
                gateway_after = _gateway_values(client.metrics_text())
        finally:
            client.close()
            cluster.stop()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run_dir.exists():
        raise HygieneError(f"store directory outlived the run: {run_dir}")

    def wrong(batch):
        return sum(result["equivalent"] != request.equivalent for request, _, result, _ in batch)

    failed += wrong(samples)
    latencies = [elapsed for _, elapsed, _, _ in samples]
    scaled = [reference for _, _, _, reference in samples]
    tail = percentile(scaled, TAIL)
    at_tail = [request.kind for request, _, _, reference in samples if reference >= tail]
    cold_share = sum(kind != "hot" for kind in at_tail) / len(at_tail)
    wall = {
        "setup_s": statistics.median(setups),
        "checks_per_s": len(samples) / sum(latencies),
        "verdict_p50_ms": percentile(latencies, 50) * 1000,
        "verdict_tail_ms": percentile(latencies, TAIL) * 1000,
    }
    reference = {
        # A boot is process starts, forks and warm-up checks, which followed
        # neither calibration, so its set-up time stays in wall seconds.
        "setup_s": wall["setup_s"],
        "checks_per_s": len(samples) / sum(scaled),
        "verdict_p50_ms": percentile(scaled, 50) * 1000,
        "verdict_tail_ms": tail * 1000,
    }
    summary = [
        f"{workload}: {len(processes)} hot processes, {len(hot)} hot requests, "
        f"1 cold request in {COLD_EVERY}; {traffic.sent} requests sent",
        f"verdict_tail_ms is p{TAIL} over {len(samples)} requests "
        f"({len(samples) - int(len(samples) * TAIL / 100)} beyond it); "
        f"{cold_share:.1%} of the requests at or above it are cold-share requests",
        f"set-up per boot (s): {', '.join(f'{s:.3f}' for s in setups)}",
        f"calibration kernel {gauge.kernel_seconds * 1000:.3f} ms (mean of {len(gauge.samples)}); "
        + ", ".join(f"wall {name} = {value:.6g}" for name, value in wall.items()),
    ]
    if not traced:
        metrics = {name: (value, UNITS[name]) for name, value in reference.items()}
        metrics["peak_rss_mb"] = (rss, "MB")
        return {"attempted": len(samples) + len(warm) * BOOTS, "failed": failed,
                "metrics": metrics, "summary": summary, "trace_ok": True}

    failed += wrong(traced_samples)
    results = [result for _, _, result, _ in traced_samples]
    cold = [result for request, _, result, _ in traced_samples if request.kind != "hot"]
    scenario_results = [
        (request.label, result)
        for request, _, result, _ in traced_samples
        if request.kind == "scenario"
    ]
    first_visits = {}
    for label, result in scenario_results:
        first_visits.setdefault(label, result["pairs_visited"])
    node_sum = _node_check_seconds(nodes_after)[0] - _node_check_seconds(nodes_before)[0]
    node_count = _node_check_seconds(nodes_after)[1] - _node_check_seconds(nodes_before)[1]
    node_ms = node_sum / node_count * 1000
    gateway_ms = (gateway_after["sum"] - gateway_before["sum"]) / (
        gateway_after["count"] - gateway_before["count"]
    ) * 1000
    queue_ms = _mean(result.get("queue_wait", 0.0) for result in results) * 1000
    engine_ms = _mean(result["seconds"] for result in results) * 1000
    client_ms = _mean(elapsed for _, elapsed, _, _ in traced_samples) * 1000
    traced_rate = len(traced_samples) / sum(reference for *_, reference in traced_samples)
    metrics = {
        "engine.verdict_hit_ratio": (_mean(bool(r.get("from_cache")) for r in results), "ratio"),
        "service.store_put_ms": (_mean(uploads) * 1000, "ms"),
        "service.queue_wait_ms": (queue_ms, "ms"),
        "service.engine_ms": (engine_ms, "ms"),
        "service.engine_cold_ms": (_mean(r["seconds"] for r in cold) * 1000, "ms"),
        "service.node_request_ms": (node_ms, "ms"),
        "service.wire_ipc_ms": (node_ms - queue_ms - engine_ms, "ms"),
        "cluster.gateway_ms": (gateway_ms - node_ms, "ms"),
        "cluster.transport_ms": (client_ms - gateway_ms, "ms"),
        "cluster.failovers": (gateway_after["failovers"] - gateway_before["failovers"], "count"),
        "cluster.repairs": (gateway_after["repairs"] - gateway_before["repairs"], "count"),
        "explore.check_ms": (_mean(r["seconds"] for _, r in scenario_results) * 1000, "ms"),
        "explore.pairs_visited": (sum(first_visits.values()), "count"),
        "trace.overhead_ratio": (traced_rate / reference["checks_per_s"], "ratio"),
        "machine.kernel_ms": (gauge.kernel_seconds * 1000, "ms"),
        **{f"wall.{name}": (value, UNITS[name]) for name, value in wall.items()},
    }
    rec.write_ndjson(out / f"trace-{workload}-seed{seed}.ndjson")
    return {"attempted": len(samples) + len(traced_samples) + len(warm) * BOOTS,
            "failed": failed, "metrics": metrics, "summary": summary, "trace_ok": True}
