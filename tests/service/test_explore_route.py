"""The service's lazy path: composed-system references and the on_the_fly flag.

These run the worker job functions in-process (``_init_worker`` installs the
per-worker engine/store into the module globals), so the routing and
resolution logic is exercised without forking executors.
"""

from __future__ import annotations

import pytest

from repro.explore import compose_eager, spec_to_document
from repro.generators.families import interleaved_cycles_pair, token_ring_system
from repro.service import protocol
from repro.service.placement import Placement, routing_key_of
from repro.service.shards import _init_worker, _worker_check
from repro.service.store import ProcessStore
from repro.utils.serialization import to_dict


@pytest.fixture()
def worker():
    _init_worker(0, None, max_processes=16, max_verdicts=64)


def system_ref(spec) -> dict:
    return {"system": spec_to_document(spec)}


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
    def test_system_reference_parses_to_a_spec(self):
        from repro.explore.system import SystemSpec

        spec = token_ring_system(3)
        resolved = protocol.resolve_operand(system_ref(spec))
        assert isinstance(resolved, SystemSpec)
        assert compose_eager(resolved) == compose_eager(spec)

    def test_system_leaves_resolve_through_the_store(self, tmp_path):
        store = ProcessStore(tmp_path)
        component = compose_eager(token_ring_system(3))
        digest = store.put(component)
        document = {"op": "interleave", "left": {"digest": digest}, "right": {"digest": digest}}
        resolved = protocol.resolve_operand({"system": document}, store)
        assert compose_eager(resolved.left) == component

    def test_unknown_digest_in_a_leaf_is_reported(self, tmp_path):
        store = ProcessStore(tmp_path)
        document = {
            "op": "interleave",
            "left": {"digest": "sha256:" + "0" * 64},
            "right": {"digest": "sha256:" + "0" * 64},
        }
        with pytest.raises(protocol.ServiceError) as info:
            protocol.resolve_operand({"system": document}, store)
        assert info.value.code == protocol.UNKNOWN_DIGEST

    def test_malformed_system_is_invalid_process(self):
        with pytest.raises(protocol.ServiceError) as info:
            protocol.resolve_operand({"system": {"op": "tensor", "of": {}}})
        assert info.value.code == protocol.INVALID_PROCESS

    def test_plain_references_still_resolve(self):
        component = compose_eager(token_ring_system(3))
        assert protocol.resolve_operand({"process": to_dict(component)}) == component


class TestWorkerLazyRoute:
    def test_system_operands_default_to_the_lazy_route(self, worker):
        ok, bad = interleaved_cycles_pair([4, 4, 4])
        result = _worker_check(check_spec(system_ref(ok), system_ref(bad), witness=True))
        assert result["equivalent"] is False
        assert result["route"].startswith("on-the-fly")
        assert result["pairs_visited"] < 64  # 4^3 product states, visited locally
        assert "snag" in (result["witness"] or "")

    def test_on_the_fly_false_composes_eagerly(self, worker):
        ok, bad = interleaved_cycles_pair([3, 3])
        result = _worker_check(check_spec(system_ref(ok), system_ref(bad), on_the_fly=False))
        assert result["equivalent"] is False
        assert "route" not in result

    def test_flag_routes_plain_processes_lazily(self, worker):
        component = compose_eager(token_ring_system(3))
        result = _worker_check(
            check_spec(
                {"process": to_dict(component)},
                {"process": to_dict(component)},
                on_the_fly=True,
            )
        )
        assert result["equivalent"] is True
        assert result["route"].startswith("on-the-fly")

    def test_bad_notion_on_the_lazy_route_is_check_failed(self, worker):
        ok, _bad = interleaved_cycles_pair([3, 3])
        with pytest.raises(protocol.ServiceError) as info:
            _worker_check(check_spec(system_ref(ok), system_ref(ok), notion="failure"))
        assert info.value.code == protocol.CHECK_FAILED


class TestRouting:
    def test_system_references_route_deterministically(self):
        placement = Placement(range(8))
        ref = system_ref(token_ring_system(3))
        first = placement.owners(routing_key_of({"left": ref}))[0]
        assert first == placement.owners(routing_key_of({"left": ref}))[0]
        assert 0 <= first < 8


class TestOperandErrorCodes:
    def test_unparsable_term_leaf_is_invalid_process(self):
        with pytest.raises(protocol.ServiceError) as info:
            protocol.resolve_operand({"system": {"term": "((("}})
        assert info.value.code == protocol.INVALID_PROCESS

    def test_runaway_term_system_fails_the_check_instead_of_hanging(self, worker):
        document = {"term": "A", "definitions": "A := a.(A | A)", "max_states": 40}
        with pytest.raises(protocol.ServiceError) as info:
            _worker_check(check_spec({"system": document}, {"system": document}))
        assert info.value.code == protocol.CHECK_FAILED
        assert "exceeded 40" in info.value.message

    def test_non_integer_max_states_is_invalid_process(self):
        document = {"term": "a.0", "max_states": "lots"}
        with pytest.raises(protocol.ServiceError) as info:
            protocol.resolve_operand({"system": document})
        assert info.value.code == protocol.INVALID_PROCESS
        assert "max_states" in info.value.message
