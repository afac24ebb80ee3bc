"""Hypothesis strategies for generating finite state processes.

The strategies produce small processes (a handful of states, one or two
actions) because the properties under test quantify over *all* behaviours of
the equivalence checkers, several of which are exponential; small shapes
already exercise every code path, and Hypothesis shrinks failures to minimal
counterexamples.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.fsp import ACCEPT, FSP, TAU


@st.composite
def fsp_strategy(
    draw,
    max_states: int = 5,
    alphabet: tuple[str, ...] = ("a", "b"),
    allow_tau: bool = True,
    all_accepting: bool = False,
    max_transitions: int = 10,
):
    """A random small FSP."""
    num_states = draw(st.integers(min_value=1, max_value=max_states))
    states = [f"s{i}" for i in range(num_states)]
    actions = list(alphabet) + ([TAU] if allow_tau else [])
    transition = st.tuples(
        st.sampled_from(states), st.sampled_from(actions), st.sampled_from(states)
    )
    transitions = draw(st.lists(transition, max_size=max_transitions, unique=True))
    if all_accepting:
        accepting = set(states)
    else:
        accepting = set(draw(st.lists(st.sampled_from(states), unique=True)))
    return FSP(
        states=states,
        start=states[0],
        alphabet=alphabet,
        transitions=transitions,
        variables=[ACCEPT],
        extensions=[(state, ACCEPT) for state in accepting],
    )


#: Variable sets of :func:`mixed_fsp_strategy`: the standard model and two
#: non-standard ones.
VARIABLE_SETS = ((ACCEPT,), ("y", "z"), (ACCEPT, "y"))


@st.composite
def mixed_fsp_strategy(draw, max_states: int = 8, allow_tau: bool = True):
    """A small FSP with mixed extension sets, tau, deadlocks and a random start.

    The variables are standard or not, any state may have an empty
    extension set, the alphabet holds an action no arc uses, and a few
    states have no outgoing arc.
    """
    num_states = draw(st.integers(min_value=1, max_value=max_states))
    states = [f"s{i}" for i in range(num_states)]
    actions = ["a", "b"] + ([TAU] if allow_tau else [])
    transition = st.tuples(
        st.sampled_from(states), st.sampled_from(actions), st.sampled_from(states)
    )
    transitions = draw(st.sets(transition, max_size=3 * num_states))
    dead = draw(st.sets(st.sampled_from(states), max_size=max(1, num_states // 3)))
    variables = draw(st.sampled_from(VARIABLE_SETS))
    extensions = draw(st.sets(st.tuples(st.sampled_from(states), st.sampled_from(variables))))
    return FSP(
        states=states,
        start=draw(st.sampled_from(states)),
        alphabet=("a", "b", "c"),
        transitions={arc for arc in transitions if arc[0] not in dead},
        variables=variables,
        extensions=extensions,
    )


def restricted_observable_strategy(max_states: int = 5, alphabet: tuple[str, ...] = ("a", "b")):
    """A random small restricted observable FSP."""
    return fsp_strategy(
        max_states=max_states, alphabet=alphabet, allow_tau=False, all_accepting=True
    )


def rou_strategy(max_states: int = 4):
    """A random small r.o.u. FSP (single action, all accepting, no tau)."""
    return fsp_strategy(max_states=max_states, alphabet=("a",), allow_tau=False, all_accepting=True)


def deterministic_strategy(max_states: int = 5, alphabet: tuple[str, ...] = ("a", "b")):
    """A random small deterministic FSP (exactly one move per action per state)."""

    @st.composite
    def _build(draw):
        num_states = draw(st.integers(min_value=1, max_value=max_states))
        states = [f"d{i}" for i in range(num_states)]
        transitions = []
        for state in states:
            for action in alphabet:
                transitions.append((state, action, draw(st.sampled_from(states))))
        accepting = set(draw(st.lists(st.sampled_from(states), unique=True)))
        return FSP(
            states=states,
            start=states[0],
            alphabet=alphabet,
            transitions=transitions,
            variables=[ACCEPT],
            extensions=[(state, ACCEPT) for state in accepting],
        )

    return _build()
