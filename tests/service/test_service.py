"""End-to-end service tests: asyncio server + sync clients over real sockets."""

import asyncio
import json
import socket
import threading

import pytest

from repro.engine import Engine
from repro.generators.random_fsp import perturb, random_equivalent_copy, random_fsp
from repro.service import EquivalenceServer, ServiceClient, ServiceError
from repro.utils.serialization import to_dict


@pytest.fixture(scope="module")
def pool_processes():
    bases = [random_fsp(8, tau_probability=0.2, all_accepting=True, seed=s) for s in (21, 22)]
    copies = [random_equivalent_copy(b, duplicates=2, seed=s + 50) for s, b in zip((21, 22), bases)]
    return {
        "bases": bases,
        "copies": copies,
        "nears": [perturb(b, seed=s + 80) for s, b in zip((21, 22), bases)],
    }


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One running server (2 shards) shared by the module's tests."""
    store_root = str(tmp_path_factory.mktemp("service-store"))
    holder: dict = {}
    started = threading.Event()

    def run() -> None:
        async def main() -> None:
            server = EquivalenceServer(
                port=0, store_root=store_root, num_shards=2, max_processes=16, max_verdicts=64
            )
            await server.start()
            holder["server"] = server
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
    yield holder
    loop = holder["loop"]
    loop.call_soon_threadsafe(lambda: [t.cancel() for t in asyncio.all_tasks(loop)])
    thread.join(timeout=30)


def client_for(service) -> ServiceClient:
    return ServiceClient(port=service["port"])


# ----------------------------------------------------------------------
# basic round trips
# ----------------------------------------------------------------------
def test_check_inline_with_witness(service, pool_processes):
    base = pool_processes["bases"][1]
    near = pool_processes["nears"][1]
    engine = Engine()
    want = engine.check(base, near, "strong", align=True, witness=True)
    with client_for(service) as client:
        got = client.check(base, near, "strong", witness=True)
    assert got["equivalent"] is want.equivalent
    if not want.equivalent:
        assert got["witness"]  # the serialised describe() string


# ----------------------------------------------------------------------
# shard affinity and stats
# ----------------------------------------------------------------------
def test_shard_affinity_and_stats(service, pool_processes):
    base = pool_processes["bases"][0]
    copy = pool_processes["copies"][0]
    near = pool_processes["nears"][0]
    with client_for(service) as client:
        digest = client.store(base)
        shards = {client.check(digest, other)["shard"] for other in (copy, near, copy)}
        assert len(shards) == 1  # digest-sticky: one shard serves this process
        stats = client.stats()
    server_stats = stats["server"]
    assert server_stats["shards"] == 2
    assert server_stats["store"]["on_disk"] >= 1
    assert {row["shard"] for row in stats["shards"]} == {0, 1}
    hot = stats["shards"][shards.pop()]
    assert hot["checks"] >= 3
    assert hot["engine"]["processes"] >= 1
    assert isinstance(hot["engine"]["process_artifacts"], list)


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def test_concurrent_clients_agree_with_reference(service, pool_processes):
    engine = Engine()
    jobs = []
    for index in range(4):
        base = pool_processes["bases"][index % 2]
        other = (pool_processes["copies"] + pool_processes["nears"])[index % 4]
        notion = ("observational", "strong")[index % 2]
        jobs.append((base, other, notion, engine.check(base, other, notion, align=True).equivalent))

    failures: list[str] = []

    def worker(job_index: int) -> None:
        base, other, notion, want = jobs[job_index]
        try:
            with client_for(service) as client:
                for _ in range(5):
                    got = client.check(base, other, notion)
                    if got["equivalent"] is not want:
                        failures.append(f"job {job_index}: {got['equivalent']} != {want}")
        except Exception as error:  # surface thread failures in the main thread
            failures.append(f"job {job_index}: {error!r}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures


def test_pipelined_requests_answered_in_order(service, pool_processes):
    # Raw socket: three requests written back-to-back, three responses in order.
    base = pool_processes["bases"][0]
    with socket.create_connection(("127.0.0.1", service["port"]), timeout=30) as sock:
        payload = b""
        for request_id in (1, 2, 3):
            payload += json.dumps(
                {"id": request_id, "op": "ping", "params": {}}
            ).encode() + b"\n"
        sock.sendall(payload)
        reader = sock.makefile("rb")
        ids = [json.loads(reader.readline())["id"] for _ in range(3)]
    assert ids == [1, 2, 3]
    del base


# ----------------------------------------------------------------------
# protocol errors over the wire
# ----------------------------------------------------------------------
def test_unknown_op_is_reported(service):
    with socket.create_connection(("127.0.0.1", service["port"]), timeout=30) as sock:
        sock.sendall(b'{"id": 9, "op": "frobnicate", "params": {}}\n')
        response = json.loads(sock.makefile("rb").readline())
    assert response["ok"] is False
    assert response["error"]["code"] == "unknown_op"
    assert response["id"] == 9


def test_store_requires_inline_process(service):
    with client_for(service) as client:
        with pytest.raises(ServiceError) as info:
            client.request("store", {})
    assert info.value.code == "bad_request"


def test_invalid_inline_process_is_rejected(service):
    with client_for(service) as client:
        with pytest.raises(ServiceError) as info:
            client.request(
                "check",
                {"left": {"process": {"format": "wrong"}}, "right": {"process": {}}},
            )
    assert info.value.code == "invalid_process"


def test_unsupported_notion_parameter_fails_cleanly(service, pool_processes):
    base = pool_processes["bases"][0]
    copy = pool_processes["copies"][0]
    with client_for(service) as client:
        with pytest.raises(ServiceError) as info:
            client.check(base, copy, "strong", nonsense_bound=3)
    assert info.value.code == "check_failed"


def test_malformed_digest_reference_is_unknown_not_internal(service, pool_processes):
    copy = pool_processes["copies"][0]
    with client_for(service) as client:
        with pytest.raises(ServiceError) as info:
            client.check("sha256:nothex", copy)
    assert info.value.code == "unknown_digest"


def test_client_cli_reports_non_ndjson_peer_as_error(tmp_path):
    # A peer that does not speak the protocol must yield `error: ...` and
    # exit 2, not a traceback (exit 2 is the documented usage/input code).
    import socketserver
    import threading as _threading

    class GarbageHandler(socketserver.StreamRequestHandler):
        def handle(self):
            self.rfile.readline()
            self.wfile.write(b"HTTP/1.1 400 Bad Request\r\n")

    with socketserver.TCPServer(("127.0.0.1", 0), GarbageHandler) as garbage:
        port = garbage.server_address[1]
        thread = _threading.Thread(target=garbage.handle_request, daemon=True)
        thread.start()
        from repro.cli import main
        from repro.utils.serialization import save_process_file

        process_file = tmp_path / "p.json"
        save_process_file(random_fsp(4, all_accepting=True, seed=1), process_file)
        exit_code = main(
            ["client", "--port", str(port), "check", str(process_file), str(process_file)]
        )
        thread.join(timeout=10)
    assert exit_code == 2


def test_digest_survives_server_store_round_trip(service, pool_processes):
    # The store digest is computed over the canonical encoding, so a process
    # rebuilt from its own serialisation stores to the same address.
    base = pool_processes["bases"][1]
    from repro.utils.serialization import from_dict

    with client_for(service) as client:
        first = client.store(base)
        second = client.store(from_dict(json.loads(json.dumps(to_dict(base)))))
    assert first == second


def test_composed_system_checks_take_the_lazy_route(service):
    """A manifest carrying {"system": ...} operands runs on-the-fly server-side."""
    from repro.explore import spec_to_document
    from repro.generators.families import interleaved_cycles_pair

    ok, bad = interleaved_cycles_pair([4, 4, 4])
    ok_ref = {"system": spec_to_document(ok)}
    bad_ref = {"system": spec_to_document(bad)}
    with client_for(service) as client:
        unequal = client.check(ok_ref, bad_ref, "strong", witness=True)
        equal = client.check(ok_ref, ok_ref, "strong")
        batch = client.check_many([(ok_ref, bad_ref), (ok_ref, ok_ref)], notion="strong")
    assert unequal["equivalent"] is False
    assert unequal["route"].startswith("on-the-fly") and unequal["pairs_visited"] > 0
    assert "snag" in unequal["witness"]
    assert equal["equivalent"] is True
    assert [r["equivalent"] for r in batch["results"]] == [False, True]
