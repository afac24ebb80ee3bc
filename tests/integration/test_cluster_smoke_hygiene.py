"""Process hygiene of ``tools/cluster_smoke.py``: servers stop by process group.

A cluster node forks its shard workers.  Stopping or SIGKILLing only the
node's pid leaves those workers running, re-parented away from the smoke.
The smoke therefore starts each server in a session of its own, kills whole
process groups, and fails when a group outlives its leader.  These tests
drive those helpers against a stand-in server that forks one worker, inside
a driver subprocess so that adopting orphans (the subreaper) stays out of
the test process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="process groups and subreapers are Linux"
)

#: A stand-in server: forks one worker, prints its pid, waits for SIGINT.
#: ``obedient`` workers leave with the server; the others ignore SIGINT and
#: outlive it.
SERVER = """
import os, signal, sys, time
obedient = sys.argv[1] == "obedient"
worker = os.fork()
if worker == 0:
    if not obedient:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    time.sleep(60)
    os._exit(0)
print(worker, flush=True)
try:
    time.sleep(60)
except KeyboardInterrupt:
    if obedient:
        os.kill(worker, signal.SIGKILL)
        os.waitpid(worker, 0)
"""

DRIVER = """
import importlib.util, json, sys, time
from pathlib import Path
spec = importlib.util.spec_from_file_location("cluster_smoke", sys.argv[1])
smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(smoke)
smoke.LINGER_TIMEOUT = 1.0
smoke.become_subreaper()
logs = Path(sys.argv[2])

def start(kind):
    log = logs / f"{kind}.log"
    process = smoke.spawn([sys.executable, "-c", sys.argv[3], kind], log)
    while not log.read_text().strip():
        time.sleep(0.02)
    return process, int(log.read_text())

def settled(pgid):
    deadline = time.monotonic() + 5
    while smoke.group_alive(pgid) and time.monotonic() < deadline:
        smoke.reap_orphans()
        time.sleep(0.02)
    return not smoke.group_alive(pgid)

victim, _ = start("stubborn")
smoke.kill_group(victim)
killed = settled(victim.pid)

obedient, _ = start("obedient")
stubborn, _ = start("stubborn")
survivors = smoke.stop_all([obedient, stubborn])
print(json.dumps({
    "killed": killed,
    "survivors": survivors,
    "stubborn": stubborn.pid,
    "cleared": settled(stubborn.pid) and settled(obedient.pid),
}))
"""


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    logs = tmp_path_factory.mktemp("smoke_hygiene")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, str(ROOT / "tools" / "cluster_smoke.py"), str(logs), SERVER],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_kill_group_takes_the_forked_worker_with_it(outcome):
    assert outcome["killed"]


def test_stop_all_reports_a_group_that_outlives_its_server(outcome):
    assert outcome["survivors"] == [outcome["stubborn"]]


def test_stop_all_leaves_no_process_behind(outcome):
    assert outcome["cleared"]
