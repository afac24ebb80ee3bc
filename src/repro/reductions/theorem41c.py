"""The r.o.u. reduction of Theorem 4.1(c) (Fig. 5b/5c): co-NP-hardness of ``approx_2``.

In the restricted observable unary (r.o.u.) model, ``approx_1`` is decidable
in linear time (prefix-closed unary languages are either ``a*`` or a finite
initial segment), yet ``approx_k`` for ``k >= 2`` is co-NP-complete.  The
hardness proof reduces from the co-NP-complete problem ``L(p) = {a}+`` for
standard observable unary (s.o.u.) processes without dead states:

1. transform ``p`` into ``p'`` such that a state of ``p'`` is accepting iff it
   is dead, preserving the language (Fig. 5c; :func:`accepting_to_dead`);
2. make every state of ``p'`` accepting, obtaining the r.o.u. state ``q``
   (:func:`make_restricted`);
3. then ``L(p) = {a}+``  iff  ``q approx_2 chaos``, where *chaos* is the
   two-state r.o.u. process of Fig. 5b.

The characterisation of ``q approx_2 chaos`` used by the proof -- every
``s``-derivative set (``s`` in ``{a}+``) must contain both a dead state and a
state with language ``a*`` and nothing else at ``s = epsilon`` -- is also
implemented directly (:func:`chaos_characterisation`) so that the tests can
confirm it agrees with the generic ``approx_2`` decision procedure.
"""

from __future__ import annotations

from repro.core.classify import ModelClass, is_sou, require
from repro.core.errors import ModelClassError
from repro.core.fsp import ACCEPT, FSP
from repro.core.paper_figures import chaos
from repro.core.weak import WeakKernel
from repro.equivalence.kobs import k_observational_equivalent_processes


def accepting_to_dead(fsp: FSP) -> FSP:
    """The Fig. 5c transformation: accepting states become dead accepting copies.

    Every accept state ``p_f`` that is not dead is demoted to a non-accept
    state, and a fresh state ``p_new`` -- accepting and dead -- receives a
    copy of every transition into ``p_f``.  The language is preserved and in
    the result a state is accepting iff it is dead.  The transformation is
    stated (and used) for standard observable processes.
    """
    require(fsp, ModelClass.STANDARD_OBSERVABLE, context="Fig. 5c transformation")
    states = set(fsp.states)
    transitions = set(fsp.transitions)
    accepting = set(fsp.accepting_states())
    for accept_state in sorted(fsp.accepting_states()):
        if not fsp.enabled_actions(accept_state):
            continue  # already dead: keep as is
        accepting.discard(accept_state)
        new_state = f"{accept_state}_dead"
        while new_state in states:
            new_state += "'"
        states.add(new_state)
        accepting.add(new_state)
        for src, action, dst in fsp.transitions:
            if dst == accept_state:
                transitions.add((src, action, new_state))
    # A start state that was accepting keeps acceptance of the empty string
    # through its dead copy only if something reaches it; the classical
    # construction therefore assumes (as the paper's usage does) that the
    # relevant instances have non-accepting start states or languages within
    # {a}+, which is exactly the L(p) = {a}+ problem reduced from.
    return FSP(
        states=states,
        start=fsp.start,
        alphabet=fsp.alphabet,
        transitions=transitions,
        variables=[ACCEPT],
        extensions=[(state, ACCEPT) for state in accepting],
    )


def make_restricted(fsp: FSP) -> FSP:
    """Mark every state accepting, turning a standard process into a restricted one."""
    return FSP(
        states=fsp.states,
        start=fsp.start,
        alphabet=fsp.alphabet,
        transitions=fsp.transitions,
        variables=fsp.variables | {ACCEPT},
        extensions=set(fsp.extensions) | {(state, ACCEPT) for state in fsp.states},
    )


def theorem41c_transform(fsp: FSP) -> FSP:
    """The full reduction input ``q`` of Theorem 4.1(c) built from an s.o.u. process ``p``.

    Requires an s.o.u. process without dead states (the form the co-NP-hard
    ``L(p) = {a}+`` instances take); returns the r.o.u. process ``q`` such
    that ``L(p) = {a}+  iff  q approx_2 chaos``.
    """
    if not is_sou(fsp):
        raise ModelClassError("Theorem 4.1(c) expects a standard observable unary process")
    if any(not fsp.enabled_actions(state) for state in fsp.states):
        raise ModelClassError(
            "Theorem 4.1(c) expects a process without dead states; "
            "restrict to the live part first"
        )
    return make_restricted(accepting_to_dead(fsp))


def equivalent_to_chaos(fsp: FSP, k: int = 2, max_subset_states: int | None = None) -> bool:
    """Decide ``start(fsp) approx_k chaos`` (the right-hand side of the reduction)."""
    action = next(iter(fsp.alphabet)) if fsp.alphabet else "a"
    if action != "a":
        raise ModelClassError("the chaos gadget is defined over the action 'a'")
    return k_observational_equivalent_processes(
        fsp, chaos().with_alphabet(fsp.alphabet), k, max_subset_states=max_subset_states
    )


def chaos_characterisation(fsp: FSP, max_steps: int = 1 << 16) -> bool:
    """The explicit characterisation of ``q approx_2 chaos`` from the proof.

    The conditions (i)-(iii) used in the proof of Theorem 4.1(c) read, for a
    unary restricted process ``q``:

    * (i)  every ``s`` in ``{a}+`` has an ``s``-derivative with language
      ``{epsilon}`` (a *dead* state);
    * (ii) every ``s`` in ``{a}*`` has an ``s``-derivative with language
      ``a*`` (a state with an infinite ``a``-run);
    * (iii) those are the *only* kinds of ``s``-derivatives (and at
      ``s = epsilon`` only the ``a*`` kind occurs, matching chaos itself).

    Since the sequence of derivative macro-states of a unary process is
    eventually periodic, the conditions are checked by walking the subset
    construction until a macro-state repeats.  ``max_steps`` is a safety
    valve; the walk repeats after at most ``2^|K|`` steps.
    """
    if fsp.alphabet != frozenset({"a"}):
        raise ModelClassError("the chaos characterisation is for unary processes over 'a'")
    kernel = WeakKernel.from_fsp(fsp)

    # States with an infinite a-run (language a*): greatest fixed point of
    # "has an a-successor with the property", computed by iterated removal.
    live = set(fsp.states)
    changed = True
    while changed:
        changed = False
        for state in list(live):
            if not (kernel.weak_successors(state, "a") & frozenset(live)):
                live.discard(state)
                changed = True

    def is_dead(state: str) -> bool:
        return not kernel.weak_successors(state, "a")

    start_macro = kernel.epsilon_closure(fsp.start)
    # At s = epsilon every derivative must be of the a* kind (condition iii
    # restricted to what chaos itself offers at epsilon).
    if not start_macro or not all(state in live for state in start_macro):
        return False

    seen: set[frozenset[str]] = set()
    current = start_macro
    for _ in range(max_steps):
        current = kernel.weak_successors_of_set(current, "a")
        if not current:
            return False  # some s in {a}+ has no derivative at all, violating (ii)
        if current in seen:
            return True
        seen.add(current)
        if not any(is_dead(state) for state in current):
            return False  # violates (i)
        if not any(state in live for state in current):
            return False  # violates (ii)
        if not all(is_dead(state) or state in live for state in current):
            return False  # violates (iii): a derivative with a finite, non-trivial language
    return True
