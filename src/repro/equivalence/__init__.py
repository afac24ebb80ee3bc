"""The equivalence checkers: strong, observational, k-observational, language, failure."""

from repro.equivalence.failure import (
    failure_distinguishing_string,
    failure_equivalent,
    failure_equivalent_processes,
    failures_upto,
    maximal_refusals,
    tree_failure_equivalent,
)
from repro.equivalence.hml import (
    And,
    Diamond,
    ExtensionIs,
    Not,
    Tt,
    WeakDiamond,
    distinguishing_formula,
    modal_depth,
    satisfies,
)
from repro.equivalence.kobs import (
    k_limited_equivalent,
    k_limited_partition,
    k_observational_equivalent,
    k_observational_equivalent_processes,
    k_observational_partition,
    separation_level,
)
from repro.equivalence.language import (
    is_universal,
    language_distinguishing_word,
    language_equivalent,
    language_equivalent_processes,
    language_included,
)
from repro.equivalence.minimize import minimize_observational, minimize_strong, quotient
from repro.equivalence.observational import (
    observational_partition,
    observationally_equivalent,
    observationally_equivalent_processes,
)
from repro.equivalence.relations import (
    is_strong_bisimulation,
    is_weak_bisimulation,
    largest_strong_bisimulation,
    largest_weak_bisimulation,
    relation_from_partition,
)
from repro.equivalence.simulation import (
    is_simulation,
    similar,
    similar_processes,
    simulates,
    simulation_preorder,
)
from repro.equivalence.strong import (
    strong_bisimulation_partition,
    strongly_equivalent,
    strongly_equivalent_processes,
)

__all__ = [
    "And",
    "Diamond",
    "ExtensionIs",
    "Not",
    "Tt",
    "WeakDiamond",
    "distinguishing_formula",
    "failure_distinguishing_string",
    "failure_equivalent",
    "failure_equivalent_processes",
    "failures_upto",
    "is_strong_bisimulation",
    "is_universal",
    "is_weak_bisimulation",
    "k_limited_equivalent",
    "k_limited_partition",
    "k_observational_equivalent",
    "k_observational_equivalent_processes",
    "k_observational_partition",
    "language_distinguishing_word",
    "language_equivalent",
    "language_equivalent_processes",
    "language_included",
    "largest_strong_bisimulation",
    "largest_weak_bisimulation",
    "maximal_refusals",
    "minimize_observational",
    "minimize_strong",
    "modal_depth",
    "observational_partition",
    "observationally_equivalent",
    "observationally_equivalent_processes",
    "quotient",
    "is_simulation",
    "relation_from_partition",
    "satisfies",
    "separation_level",
    "similar",
    "similar_processes",
    "simulates",
    "simulation_preorder",
    "strong_bisimulation_partition",
    "strongly_equivalent",
    "strongly_equivalent_processes",
    "tree_failure_equivalent",
]
