"""Scenario-document operands through the service: resolution, routing, e2e.

A check operand may be ``{"scenario": <document>}`` -- a protocol-library
scenario reference resolved server-side through
:func:`repro.protocols.system_from_document` into a ``SystemSpec``, which then
rides the lazy on-the-fly route like any composed system.  Worker-level tests
run the shard job functions in-process; the end-to-end test drives a real
asyncio server over a socket.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.protocols import build_scenario
from repro.service import EquivalenceServer, ServiceClient
from repro.service import protocol
from repro.service.placement import Placement, routing_key_of
from repro.service.shards import _init_worker, _worker_check


@pytest.fixture()
def worker():
    _init_worker(0, None, max_processes=16, max_verdicts=64)


def scenario_ref(document) -> dict:
    return {"scenario": document}


def check_spec(left, right, **overrides) -> dict:
    spec = {
        "left": left,
        "right": right,
        "notion": "observational",
        "align": True,
        "witness": False,
        "on_the_fly": None,
        "params": {},
    }
    spec.update(overrides)
    return spec


class TestResolveOperand:
    def test_scenario_reference_builds_the_implementation_system(self):
        from repro.explore.system import SystemSpec

        resolved = protocol.resolve_operand(
            scenario_ref({"name": "two_phase_commit", "n": 2})
        )
        assert isinstance(resolved, SystemSpec)
        assert resolved == build_scenario("two_phase_commit", n=2).system

    def test_side_and_faults_are_honoured(self):
        document = {
            "name": "quorum_voting",
            "n": 3,
            "faults": [{"kind": "crash", "role": "validator", "index": 0}],
        }
        from repro.protocols import Crash, apply_fault

        scenario = build_scenario("quorum_voting", n=3)
        assert protocol.resolve_operand(scenario_ref(document)) == apply_fault(
            scenario.system, Crash("validator", 0)
        )
        assert (
            protocol.resolve_operand(
                scenario_ref({"name": "quorum_voting", "n": 3, "side": "spec"})
            )
            == scenario.spec
        )

    def test_bad_scenario_documents_are_invalid_process(self):
        for document in ("three_phase_commit", {"name": "quorum_voting", "n": 2, "f": 1}):
            with pytest.raises(protocol.ServiceError) as info:
                protocol.resolve_operand(scenario_ref(document))
            assert info.value.code == protocol.INVALID_PROCESS

    def test_process_ref_passes_scenario_references_through(self):
        ref = scenario_ref({"name": "token_passing", "n": 3})
        assert protocol.process_ref(ref) is ref


class TestWorkerRoute:
    def test_scenario_operands_ride_the_lazy_route(self, worker):
        spec_side = scenario_ref({"name": "two_phase_commit", "n": 2, "side": "spec"})
        good = scenario_ref({"name": "two_phase_commit", "n": 2})
        result = _worker_check(check_spec(spec_side, good))
        assert result["equivalent"] is True
        assert result["route"].startswith("on-the-fly")

    def test_mutant_side_is_distinguished_with_a_witness(self, worker):
        spec_side = scenario_ref({"name": "two_phase_commit", "n": 2, "side": "spec"})
        mutant = scenario_ref({"name": "two_phase_commit", "n": 2, "side": "mutant"})
        result = _worker_check(check_spec(spec_side, mutant, witness=True))
        assert result["equivalent"] is False
        assert "defect0" in (result["witness"] or "")

    def test_reduction_request_is_honoured_on_the_lazy_route(self, worker):
        spec_side = scenario_ref({"name": "quorum_voting", "n": 5, "f": 2, "side": "spec"})
        impl = scenario_ref({"name": "quorum_voting", "n": 5, "f": 2})
        plain = _worker_check(check_spec(spec_side, impl))
        reduced = _worker_check(check_spec(spec_side, impl, reduction="full"))
        assert plain["equivalent"] is True and reduced["equivalent"] is True
        assert plain["reduction"] == "none"
        assert reduced["reduction"] == "full"
        assert reduced["pairs_visited"] < plain["pairs_visited"]


class TestRouting:
    def test_scenario_references_route_shard_sticky(self):
        placement = Placement(range(8))

        def home(ref):
            return placement.owners(routing_key_of({"left": ref}))[0]

        ref = scenario_ref({"name": "quorum_voting", "n": 5})
        first = home(ref)
        assert first == home(ref)
        assert 0 <= first < 8
        # a different document may land elsewhere, but stays deterministic
        other = home(scenario_ref({"name": "quorum_voting", "n": 3}))
        assert other == home(scenario_ref({"name": "quorum_voting", "n": 3}))


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store_root = str(tmp_path_factory.mktemp("scenario-store"))
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


class TestEndToEnd:
    def test_scenario_check_over_a_real_socket(self, service):
        with ServiceClient(port=service["port"]) as client:
            good = client.check(
                scenario_ref({"name": "quorum_voting", "n": 3, "side": "spec"}),
                scenario_ref({"name": "quorum_voting", "n": 3}),
                witness=True,
            )
            assert good["equivalent"] is True
            assert good["route"].startswith("on-the-fly")
            broken = client.check(
                scenario_ref({"name": "quorum_voting", "n": 3, "side": "spec"}),
                scenario_ref(
                    {
                        "name": "quorum_voting",
                        "n": 3,
                        "faults": [
                            {"kind": "crash", "role": "validator", "index": 0},
                            {"kind": "crash", "role": "validator", "index": 1},
                        ],
                    }
                ),
                witness=True,
            )
            assert broken["equivalent"] is False

    def test_bad_scenario_is_rejected_with_invalid_process(self, service):
        with ServiceClient(port=service["port"]) as client:
            with pytest.raises(protocol.ServiceError) as info:
                client.check(
                    scenario_ref("three_phase_commit"),
                    scenario_ref("three_phase_commit"),
                )
            assert info.value.code == protocol.INVALID_PROCESS

    def test_reduction_rides_the_wire_and_bad_modes_are_bad_request(self, service):
        spec_side = scenario_ref({"name": "quorum_voting", "n": 5, "f": 2, "side": "spec"})
        impl = scenario_ref({"name": "quorum_voting", "n": 5, "f": 2})
        with ServiceClient(port=service["port"]) as client:
            plain = client.check(spec_side, impl)
            reduced = client.check(spec_side, impl, reduction="full")
            assert plain["equivalent"] is True and reduced["equivalent"] is True
            assert plain["reduction"] == "none"
            assert reduced["reduction"] == "full"
            assert reduced["pairs_visited"] < plain["pairs_visited"]
            with pytest.raises(protocol.ServiceError) as info:
                client.check(spec_side, impl, reduction="bogus")
            assert info.value.code == protocol.BAD_REQUEST
