"""The reduction of Lemma 4.2 (Fig. 4): universality to restricted-observable ``approx_1``.

Lemma 4.2 shows that deciding ``p approx_1 q`` is PSPACE-complete already for
restricted observable FSPs.  Hardness is by reduction from the universality
problem ``L(p) = Sigma*`` for standard observable FSPs over ``Sigma = {a, b}``
in which every state has both an ``a``- and a ``b``-transition:

* every accept state ``p_f`` gets an ``a``-transition to a new trap state
  ``p_trap`` (which loops on both actions);
* every original transition ``p --sigma--> q`` is re-routed through a fresh
  intermediate state ``p_sigma``: ``p --b--> p_sigma --sigma--> q``;
* every state of the result is accepting (the result is restricted and
  observable).

The key property proved in the lemma is ``L(p0) = Sigma*  iff  L(p0') = Sigma*``,
and since restricted-observable ``approx_1`` is language equivalence
(Proposition 2.2.3(b)), comparing ``p0'`` with the trivially universal process
(:func:`repro.core.paper_figures.trivial_nfa`) decides universality of the
original automaton.

:func:`normalize_for_lemma42` implements the "simple reduction whose details we
do not present": eliminating tau-moves and completing missing transitions with
a non-accepting sink, which preserves the language and establishes the
precondition that both actions leave every state.
"""

from __future__ import annotations

from repro.core.classify import ModelClass, require
from repro.core.errors import ModelClassError
from repro.core.fsp import ACCEPT, FSP, TAU, FSPBuilder
from repro.core.paper_figures import trivial_nfa
from repro.core.weak import WeakKernel
from repro.equivalence.language import language_equivalent_processes

#: Name of the trap state introduced by the reduction.
TRAP_STATE = "p_trap"
#: Name of the rejecting sink introduced by :func:`normalize_for_lemma42`.
SINK_STATE = "p_sink"


def normalize_for_lemma42(fsp: FSP) -> FSP:
    """Make a standard FSP over ``{a, b}`` observable and total without changing its language.

    The preprocessing assumed by Lemma 4.2: tau-moves are eliminated by the
    usual epsilon-closure construction (a state becomes accepting when its
    closure contains an accepting state, and inherits the observable moves of
    its closure), and missing transitions are directed to a fresh
    non-accepting sink that loops on both actions.  Adding transitions to a
    rejecting sink never adds accepted strings, so ``L`` is preserved.
    """
    require(fsp, ModelClass.STANDARD, context="Lemma 4.2 normalisation")
    if fsp.alphabet != frozenset({"a", "b"}):
        raise ModelClassError(
            "Lemma 4.2 is stated for the two-action alphabet {a, b}; "
            f"got {sorted(fsp.alphabet)}"
        )
    closure = WeakKernel.from_fsp(fsp).closure_dict()
    builder = FSPBuilder(alphabet={"a", "b"})
    for state in fsp.states:
        builder.add_state(state)
        if any(fsp.is_accepting(other) for other in closure[state]):
            builder.mark_accepting(state)
        for action in ("a", "b"):
            targets = set()
            for member in closure[state]:
                targets |= fsp.successors(member, action)
            if targets:
                for target in targets:
                    builder.add_transition(state, action, target)
            else:
                builder.add_transition(state, action, SINK_STATE)
    builder.add_transition(SINK_STATE, "a", SINK_STATE)
    builder.add_transition(SINK_STATE, "b", SINK_STATE)
    return builder.build(start=fsp.start)


def lemma42_transform(fsp: FSP) -> FSP:
    """The transformation ``M -> M'`` of Fig. 4.

    Expects a standard observable FSP over ``{a, b}`` in which every state has
    both actions enabled (use :func:`normalize_for_lemma42` first); produces a
    restricted observable FSP ``M'`` with
    ``L(p0) != Sigma*  iff  L(p0') != Sigma*``.
    """
    require(fsp, ModelClass.STANDARD_OBSERVABLE, context="Lemma 4.2 transformation")
    if fsp.alphabet != frozenset({"a", "b"}):
        raise ModelClassError("Lemma 4.2 requires the alphabet {a, b}")
    for state in fsp.states:
        if fsp.enabled_actions(state) != frozenset({"a", "b"}):
            raise ModelClassError(
                f"state {state!r} does not have both actions enabled; "
                "run normalize_for_lemma42 first"
            )

    states: set[str] = set(fsp.states) | {TRAP_STATE}
    transitions: set[tuple[str, str, str]] = set()
    # (i) accept states move to the trap on `a`
    for accept_state in fsp.accepting_states():
        transitions.add((accept_state, "a", TRAP_STATE))
    # (ii) original transitions are re-routed through intermediate states
    for index, (src, action, dst) in enumerate(sorted(fsp.transitions)):
        if action == TAU:  # pragma: no cover - excluded by the observability check
            continue
        intermediate = f"m_{index}"
        states.add(intermediate)
        transitions.add((src, "b", intermediate))
        transitions.add((intermediate, action, dst))
    # (iii) the trap loops on both actions
    transitions.add((TRAP_STATE, "a", TRAP_STATE))
    transitions.add((TRAP_STATE, "b", TRAP_STATE))

    return FSP(
        states=states,
        start=fsp.start,
        alphabet={"a", "b"},
        transitions=transitions,
        variables=[ACCEPT],
        extensions=[(state, ACCEPT) for state in states],
    )


def decide_universality_via_lemma42(fsp: FSP, max_states: int | None = None) -> bool:
    """Decide ``L(p0) = Sigma*`` by running the Lemma 4.2 reduction end to end.

    The input is normalised, transformed, and the result is compared (as a
    restricted observable process, i.e. via ``approx_1`` = language
    equivalence) against the trivially universal process over ``{a, b}``.
    Exists to make the reduction executable and testable; the direct check in
    :func:`repro.equivalence.language.is_universal` is of course simpler.
    """
    normalized = normalize_for_lemma42(fsp)
    transformed = lemma42_transform(normalized)
    universal = trivial_nfa({"a", "b"})
    return language_equivalent_processes(
        transformed, universal.with_alphabet(transformed.alphabet), max_states=max_states
    )
