"""Tests for the CCS standard library of example systems."""

from __future__ import annotations

import pytest

from repro.ccs.parser import parse_definitions, parse_process
from repro.ccs.semantics import compile_to_fsp
from repro.ccs.stdlib import (
    alternating_bit_protocol,
    broken_vending_machine,
    buffer_implementation_fsp,
    buffer_specification_fsp,
    compile_system,
    mutual_exclusion,
    one_place_buffer,
    vending_machine,
    vending_machines_fsp,
)
from repro.equivalence.failure import failure_equivalent_processes
from repro.equivalence.language import accepted_strings_upto, language_equivalent_processes
from repro.equivalence.minimize import minimize_observational, minimize_strong
from repro.equivalence.observational import observationally_equivalent_processes
from repro.equivalence.strong import strongly_equivalent_processes
from repro.reductions.theorem41c import make_restricted


def _align(first, second):
    alphabet = first.alphabet | second.alphabet
    return first.with_alphabet(alphabet), second.with_alphabet(alphabet)


class TestVendingMachines:
    def test_machines_are_language_equivalent_but_not_observationally(self):
        good, broken = vending_machines_fsp()
        good, broken = _align(good, broken)
        assert language_equivalent_processes(good, broken)
        assert not observationally_equivalent_processes(good, broken)

    def test_machines_are_not_failure_equivalent(self):
        good, broken = vending_machines_fsp()
        good, broken = _align(good, broken)
        assert not failure_equivalent_processes(good, broken)

    def test_sizes_are_small(self):
        good, broken = vending_machines_fsp()
        assert good.num_states <= 4
        assert broken.num_states <= 5


class TestBuffers:
    def test_one_place_buffer_language(self):
        process = compile_system(one_place_buffer())
        strings = accepted_strings_upto(process, 3)
        assert ("in", "out!") in strings
        assert ("out!",) not in strings

    def test_two_place_buffer_implementation_matches_spec_weakly(self):
        spec, impl = buffer_specification_fsp(), buffer_implementation_fsp()
        spec, impl = _align(spec, impl)
        assert observationally_equivalent_processes(spec, impl)
        assert not strongly_equivalent_processes(spec, impl)

    def test_implementation_has_internal_steps(self):
        impl = buffer_implementation_fsp()
        assert impl.has_tau()


class TestMutualExclusion:
    def test_two_workers_never_both_in_critical_section(self):
        system = compile_system(mutual_exclusion(2))
        # no trace contains enter1 followed by enter2 without an exit1 in between
        for trace in accepted_strings_upto(system, 6):
            inside = set()
            for action in trace:
                if action.startswith("enter"):
                    inside.add(action[-1])
                    assert len(inside) <= 1, trace
                elif action.startswith("exit"):
                    inside.discard(action[-1])

    def test_single_worker_degenerates_to_a_cycle(self):
        system = compile_system(mutual_exclusion(1))
        assert ("enter1", "exit1", "enter1") in accepted_strings_upto(system, 3)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            mutual_exclusion(0)


class TestAlternatingBit:
    @pytest.mark.parametrize("lossy", [False, True])
    def test_protocol_refines_the_send_deliver_buffer(self, lossy):
        protocol = compile_system(alternating_bit_protocol(lossy=lossy), max_states=20_000)
        spec = compile_to_fsp(parse_process("B"), parse_definitions("B := send.deliver!.B"))
        protocol, spec = _align(protocol, spec)
        assert observationally_equivalent_processes(protocol, spec)

    def test_lossy_protocol_is_larger_than_lossless(self):
        lossless = compile_system(alternating_bit_protocol(lossy=False), max_states=20_000)
        lossy = compile_system(alternating_bit_protocol(lossy=True), max_states=20_000)
        assert lossy.num_states >= lossless.num_states
        for minimise in (minimize_strong, minimize_observational):
            assert minimise(lossy).num_states <= lossy.num_states

    def test_protocol_is_failure_equivalent_to_spec(self):
        protocol = compile_system(alternating_bit_protocol(lossy=False), max_states=20_000)
        spec = compile_to_fsp(parse_process("B"), parse_definitions("B := send.deliver!.B"))
        protocol, spec = _align(make_restricted(protocol), make_restricted(spec))
        assert failure_equivalent_processes(protocol, spec)
