"""Classification of FSPs into the model hierarchy of Fig. 1a / Appendix A.

The paper distinguishes ten model classes of finite state processes:

========================  =====================================================
``GENERAL``               the unrestricted model of Definition 2.1.1
``OBSERVABLE``            no tau-transitions
``STANDARD``              ``V = {x}``: every state is accepting or not
``DETERMINISTIC``         observable with exactly one transition per action
``RESTRICTED``            standard with every state accepting
``RESTRICTED_OBSERVABLE`` restricted and observable
``ROU``                   restricted, observable, unary (``|Sigma| = 1``)
``STANDARD_OBSERVABLE``   standard and observable
``SOU``                   standard, observable, unary (``|Sigma| = 1``)
``FINITE_TREE``           restricted, underlying graph is a tree rooted at p0
========================  =====================================================

The functions in this module are pure predicates on :class:`~repro.core.fsp.FSP`
values plus a :func:`classify` driver that returns the full set of classes a
process belongs to, and :func:`require` used by algorithms to enforce the
paper's preconditions.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro.core.errors import ModelClassError
from repro.core.fsp import ACCEPT, FSP, TAU


class ModelClass(enum.Enum):
    """The model classes of Appendix A, Table I."""

    GENERAL = "general"
    OBSERVABLE = "observable"
    STANDARD = "standard"
    DETERMINISTIC = "deterministic"
    RESTRICTED = "restricted"
    RESTRICTED_OBSERVABLE = "restricted observable"
    ROU = "restricted observable unary"
    STANDARD_OBSERVABLE = "standard observable"
    SOU = "standard observable unary"
    FINITE_TREE = "finite tree"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The containment hierarchy of Fig. 1a: a class maps to the classes that
#: directly contain it.  ``GENERAL`` is the top element.
HIERARCHY: dict[ModelClass, frozenset[ModelClass]] = {
    ModelClass.GENERAL: frozenset(),
    ModelClass.OBSERVABLE: frozenset({ModelClass.GENERAL}),
    ModelClass.STANDARD: frozenset({ModelClass.GENERAL}),
    ModelClass.DETERMINISTIC: frozenset({ModelClass.OBSERVABLE}),
    ModelClass.RESTRICTED: frozenset({ModelClass.STANDARD}),
    ModelClass.STANDARD_OBSERVABLE: frozenset({ModelClass.STANDARD, ModelClass.OBSERVABLE}),
    ModelClass.RESTRICTED_OBSERVABLE: frozenset(
        {ModelClass.RESTRICTED, ModelClass.STANDARD_OBSERVABLE}
    ),
    ModelClass.ROU: frozenset({ModelClass.RESTRICTED_OBSERVABLE}),
    ModelClass.SOU: frozenset({ModelClass.STANDARD_OBSERVABLE}),
    ModelClass.FINITE_TREE: frozenset({ModelClass.RESTRICTED}),
}


def is_observable(fsp: FSP) -> bool:
    """True when the process has no tau-transitions (the *observable* model)."""
    return not fsp.has_tau()


def is_standard(fsp: FSP) -> bool:
    """True when ``V`` is (a subset of) ``{x}`` -- the *standard* model.

    The paper fixes ``V = {x}`` exactly; we accept ``V`` being empty as well
    because a process that never mentions any variable carries the same
    information as one with an unused ``x``.
    """
    return fsp.variables <= frozenset({ACCEPT})


def is_deterministic(fsp: FSP) -> bool:
    """True for the *deterministic* model.

    Per Appendix A the deterministic model consists of observable FSPs with
    exactly one transition for each symbol of ``Sigma`` from every state.
    """
    if not is_observable(fsp):
        return False
    for state in fsp.states:
        for action in fsp.alphabet:
            if len(fsp.successors(state, action)) != 1:
                return False
    return True


def is_restricted(fsp: FSP) -> bool:
    """True for the *restricted* model: standard with every state accepting."""
    if not is_standard(fsp):
        return False
    # With V a subset of {x}, every pair of E is (q, x): E covers K exactly
    # when it has one pair per state.
    return len(fsp.extensions) == fsp.num_states


def is_restricted_observable(fsp: FSP) -> bool:
    """True for restricted observable processes."""
    return is_restricted(fsp) and is_observable(fsp)


def is_rou(fsp: FSP) -> bool:
    """True for the restricted observable unary (r.o.u.) model: ``|Sigma| = 1``."""
    return is_restricted_observable(fsp) and len(fsp.alphabet) == 1


def is_standard_observable(fsp: FSP) -> bool:
    """True for standard observable processes (classical NFAs without epsilon)."""
    return is_standard(fsp) and is_observable(fsp)


def is_sou(fsp: FSP) -> bool:
    """True for the standard observable unary (s.o.u.) model: ``|Sigma| = 1``."""
    return is_standard_observable(fsp) and len(fsp.alphabet) == 1


def is_finite_tree(fsp: FSP) -> bool:
    """True when the process is restricted and its graph is a tree rooted at p0.

    Every state must be reachable from the start state by exactly one path and
    no state may have two incoming transitions (in particular there are no
    cycles and the start state has no incoming transition).
    """
    if not is_restricted(fsp):
        return False
    indegree: dict[str, int] = {state: 0 for state in fsp.states}
    for src, _action, dst in fsp.transitions:
        indegree[dst] += 1
    if indegree[fsp.start] != 0:
        return False
    if any(count > 1 for count in indegree.values()):
        return False
    # With in-degree <= 1 everywhere and 0 at the root, acyclicity plus full
    # reachability is equivalent to every non-root state having in-degree 1
    # and all states being reachable from the root.
    if fsp.reachable_states() != fsp.states:
        return False
    return all(count == 1 for state, count in indegree.items() if state != fsp.start)


def has_dead_states(fsp: FSP) -> bool:
    """True when some state has no outgoing transitions (a *dead* state).

    Dead states play a central role in the reductions of Theorem 4.1(c) and
    Theorem 5.1.
    """
    return any(not fsp.enabled_actions(state) for state in fsp.states)


def dead_states(fsp: FSP) -> frozenset[str]:
    """The set of states devoid of outgoing transitions."""
    return frozenset(state for state in fsp.states if not fsp.enabled_actions(state))


def classify(fsp: FSP) -> frozenset[ModelClass]:
    """Return every model class of Appendix A that the process belongs to."""
    classes = {ModelClass.GENERAL}
    if is_observable(fsp):
        classes.add(ModelClass.OBSERVABLE)
    if is_standard(fsp):
        classes.add(ModelClass.STANDARD)
    if is_deterministic(fsp):
        classes.add(ModelClass.DETERMINISTIC)
    if is_restricted(fsp):
        classes.add(ModelClass.RESTRICTED)
    if is_standard_observable(fsp):
        classes.add(ModelClass.STANDARD_OBSERVABLE)
    if is_restricted_observable(fsp):
        classes.add(ModelClass.RESTRICTED_OBSERVABLE)
    if is_rou(fsp):
        classes.add(ModelClass.ROU)
    if is_sou(fsp):
        classes.add(ModelClass.SOU)
    if is_finite_tree(fsp):
        classes.add(ModelClass.FINITE_TREE)
    return frozenset(classes)


_PREDICATES = {
    ModelClass.GENERAL: lambda fsp: True,
    ModelClass.OBSERVABLE: is_observable,
    ModelClass.STANDARD: is_standard,
    ModelClass.DETERMINISTIC: is_deterministic,
    ModelClass.RESTRICTED: is_restricted,
    ModelClass.RESTRICTED_OBSERVABLE: is_restricted_observable,
    ModelClass.ROU: is_rou,
    ModelClass.STANDARD_OBSERVABLE: is_standard_observable,
    ModelClass.SOU: is_sou,
    ModelClass.FINITE_TREE: is_finite_tree,
}


def belongs_to(fsp: FSP, model: ModelClass) -> bool:
    """Whether ``fsp`` belongs to ``model``."""
    return bool(_PREDICATES[model](fsp))


def require(fsp: FSP, model: ModelClass, context: str = "") -> None:
    """Raise :class:`ModelClassError` unless ``fsp`` belongs to ``model``.

    Algorithms whose correctness depends on the paper's model preconditions
    (for example failure equivalence on the restricted model) call this at
    their entry points so that misuse fails loudly instead of returning a
    meaningless answer.
    """
    if not belongs_to(fsp, model):
        actual = ", ".join(sorted(str(c) for c in classify(fsp)))
        where = f" ({context})" if context else ""
        raise ModelClassError(
            f"process is not in the {model.value} model{where}; it belongs to: {actual}"
        )


def require_same_signature(first: FSP, second: FSP) -> None:
    """Check that two FSPs share ``Sigma`` and ``V``.

    Every equivalence in the paper is defined for states of FSPs *having the
    same Sigma and V*.  Comparisons of processes over different alphabets are
    almost always a bug at the call site (a missing
    :meth:`~repro.core.fsp.FSP.with_alphabet`), so we refuse them.
    """
    if first.alphabet != second.alphabet:
        raise ModelClassError(
            "processes must share the action alphabet Sigma: "
            f"{sorted(first.alphabet)} vs {sorted(second.alphabet)}"
        )
    if first.variables != second.variables:
        raise ModelClassError(
            "processes must share the variable set V: "
            f"{sorted(first.variables)} vs {sorted(second.variables)}"
        )


def hierarchy_table(classes: Iterable[ModelClass] = tuple(ModelClass)) -> str:
    """Render the containment hierarchy of Fig. 1a as a text table.

    Regenerates the content of Appendix A, Table I.
    """
    lines = ["model class                      contained in"]
    lines.append("-" * 60)
    for model in classes:
        parents = HIERARCHY[model]
        parent_text = ", ".join(sorted(str(p) for p in parents)) or "(top)"
        lines.append(f"{model.value:<32} {parent_text}")
    return "\n".join(lines)
