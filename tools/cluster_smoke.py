#!/usr/bin/env python3
"""End-to-end cluster smoke: real processes, real sockets, a real kill.

Boots a two-node cluster exactly the way an operator would -- two
``repro cluster serve-node`` subprocesses and one ``repro cluster
serve-gateway`` subprocess in front of them -- then drives a mixed
digest-referenced manifest through the HTTP gateway while SIGKILLing one
node mid-run.  The run passes when

* every request before the kill succeeds,
* the coordinator marks the victim unhealthy (``/healthz`` stays 200 with
  the victim reported down),
* checks keep succeeding after the kill (failover to the surviving
  replica, read-repairing any digest the survivor never saw), and
* the post-kill answers agree with the pre-kill verdicts for the same
  manifest entries.

This is the CI ``cluster-smoke`` job's payload (see
``.github/workflows/ci.yml``); it exercises the subprocess + CLI surface
that the in-thread tier-1 cluster tests deliberately avoid.  Exit status 0
on success, 1 with a diagnostic on any failed expectation.
"""

from __future__ import annotations

import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.cluster import ClusterClient
from repro.generators.random_fsp import perturb, random_equivalent_copy, random_fsp
from repro.service import protocol

#: Processes in the smoke workload: bases plus equivalent/perturbed variants.
NUM_BASES = 6
#: Checks driven through the gateway before and after the kill.
CHECKS_PER_PHASE = 40
#: Seconds to wait for a subprocess socket to start accepting.
BOOT_TIMEOUT = 30.0
#: Seconds for the coordinator's probe loop to notice the kill.
PROBE_TIMEOUT = 15.0

NOTIONS = ("strong", "trace", "observational")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_port(port: int, process: subprocess.Popen, what: str) -> None:
    deadline = time.monotonic() + BOOT_TIMEOUT
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(f"{what} exited with {process.returncode} before listening")
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                return
        except OSError:
            time.sleep(0.1)
    raise SystemExit(f"{what} did not start listening on port {port} within {BOOT_TIMEOUT}s")


def build_workload() -> list[tuple[object, object, str, bool | None]]:
    """``(left, right, notion, expected)`` tuples; ``None`` = verdict unknown.

    Twins are equivalent by construction (state duplication); perturbed
    copies are *probably* inequivalent but the smoke only requires their
    verdict to be stable, not to have a particular value.
    """
    cases: list[tuple[object, object, str, bool | None]] = []
    for index in range(NUM_BASES):
        base = random_fsp(num_states=14, seed=7000 + index, tau_probability=0.2)
        twin = random_equivalent_copy(base, duplicates=2, seed=7100 + index)
        off = perturb(base, seed=7200 + index)
        notion = NOTIONS[index % len(NOTIONS)]
        cases.append((base, twin, notion, True))
        cases.append((base, off, notion, None))
    return cases


def run_phase(
    client: ClusterClient,
    digests: list[tuple[str, str, str]],
    count: int,
) -> tuple[dict[int, bool], int]:
    """Drive ``count`` digest-referenced checks; returns verdicts and errors."""
    verdicts: dict[int, bool] = {}
    errors = 0
    for n in range(count):
        index = n % len(digests)
        left, right, notion = digests[index]
        try:
            result = client.check(left, right, notion)
        except (protocol.ServiceError, protocol.ProtocolError, OSError) as error:
            print(f"  check #{n} ({notion}) failed: {error}", file=sys.stderr)
            errors += 1
            continue
        verdicts.setdefault(index, bool(result["equivalent"]))
        if verdicts[index] != bool(result["equivalent"]):
            raise SystemExit(f"manifest entry {index} flapped between verdicts")
    return verdicts, errors


def main() -> int:
    root = Path(tempfile.mkdtemp(prefix="cluster_smoke_"))
    node_ports = [free_port(), free_port()]
    gateway_port = free_port()
    children: list[subprocess.Popen] = []

    def spawn(argv: list[str], log_name: str) -> subprocess.Popen:
        log = (root / log_name).open("w")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], stdout=log, stderr=subprocess.STDOUT
        )
        children.append(process)
        return process

    try:
        nodes = {}
        for index, port in enumerate(node_ports):
            name = f"node{index}"
            nodes[name] = spawn(
                [
                    "cluster",
                    "serve-node",
                    "--name",
                    name,
                    "--port",
                    str(port),
                    "--shards",
                    "1",
                    "--store",
                    str(root / name),
                ],
                f"{name}.log",
            )
        for (name, process), port in zip(nodes.items(), node_ports):
            wait_for_port(port, process, f"node {name}")

        gateway = spawn(
            [
                "cluster",
                "serve-gateway",
                "--port",
                str(gateway_port),
                "--replication",
                "2",
                "--probe-interval",
                "0.25",
                "--store",
                str(root / "coordinator"),
                *(
                    arg
                    for index, port in enumerate(node_ports)
                    for arg in ("--node", f"node{index}=127.0.0.1:{port}")
                ),
            ],
            "gateway.log",
        )
        wait_for_port(gateway_port, gateway, "gateway")

        with ClusterClient("127.0.0.1", gateway_port) as client:
            health = client.healthz()
            if not health.get("ok"):
                raise SystemExit(f"cluster unhealthy at boot: {health}")
            print(f"booted: 2 nodes + gateway on :{gateway_port}, healthz ok")

            cases = build_workload()
            digests: list[tuple[str, str, str]] = []
            for left, right, notion, _expected in cases:
                left_digest = client.store(left)
                right_digest = client.store(right)
                digests.append((left_digest, right_digest, notion))
            print(f"stored {2 * len(cases)} processes ({len(cases)} manifest entries)")

            before, before_errors = run_phase(client, digests, CHECKS_PER_PHASE)
            if before_errors:
                raise SystemExit(f"{before_errors} check(s) failed before the kill")
            for index, (_l, _r, notion, expected) in enumerate(cases):
                if expected is not None and before[index] != expected:
                    raise SystemExit(
                        f"manifest entry {index} ({notion}): got {before[index]}, "
                        f"expected {expected}"
                    )
            print(f"pre-kill: {CHECKS_PER_PHASE} checks ok, twin verdicts as expected")

            victim = "node0"
            nodes[victim].send_signal(signal.SIGKILL)
            nodes[victim].wait(timeout=10)
            print(f"killed {victim} (SIGKILL)")

            deadline = time.monotonic() + PROBE_TIMEOUT
            while time.monotonic() < deadline:
                health = client.healthz()
                if health.get("nodes", {}).get(victim) is False:
                    break
                time.sleep(0.2)
            else:
                raise SystemExit(f"coordinator never marked {victim} down: {health}")
            if not health.get("ok"):
                raise SystemExit(f"healthz went 503 with a survivor up: {health}")
            print(f"coordinator marked {victim} down, cluster still serving")

            after, after_errors = run_phase(client, digests, CHECKS_PER_PHASE)
            if after_errors:
                raise SystemExit(f"{after_errors} check(s) failed after the kill")
            if after != before:
                raise SystemExit(f"post-kill verdicts {after} != pre-kill {before}")

            stats = client.stats()["coordinator"]
            print(
                f"post-kill: {CHECKS_PER_PHASE} checks ok on the survivor "
                f"(failovers={stats['failovers']}, repairs={stats['repairs']})"
            )
        print("cluster smoke PASSED")
        return 0
    finally:
        for process in children:
            if process.poll() is None:
                process.terminate()
        for process in children:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                process.kill()
        print(f"logs under {root}")


if __name__ == "__main__":
    raise SystemExit(main())
