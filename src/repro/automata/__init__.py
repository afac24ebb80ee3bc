"""Classical automata substrate: NFA, DFA, the subset construction, minimisation.

The library decides every language question with one on-the-fly search over
its process kernels (:func:`repro.equivalence.language.subset_search`).
This package keeps the classical automata that search is compared with:
:func:`determinize` and the minimisers build
:meth:`repro.engine.Process.language_dfa`, and the tests determinise with
them as their oracle.
"""

from repro.automata.dfa import DEAD_STATE, DFA, determinize
from repro.automata.minimize import hopcroft_minimize, moore_minimize
from repro.automata.nfa import NFA

__all__ = [
    "DEAD_STATE",
    "DFA",
    "NFA",
    "determinize",
    "hopcroft_minimize",
    "moore_minimize",
]
