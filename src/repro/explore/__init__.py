"""repro.explore -- on-the-fly exploration of implicit and composed state spaces.

The "direct product of states" semantics of Section 6's CCS operators is
where state explosion lives: a system of ``k`` parallel components can have
exponentially many product states, and the eager pipeline materialises every
one of them before any solver runs.  This layer sits between
:mod:`repro.core` and :mod:`repro.engine` and makes the product *implicit*:

* :class:`ImplicitLTS` -- a state space given by an initial state and a
  successor function, with adapters for eager FSPs (:class:`FSPAdapter`)
  and direct SOS exploration of CCS terms (:class:`CCSAdapter`);
* lazy products and operators (:class:`LazyCCSProduct`,
  :class:`LazyInterleavingProduct`, :class:`LazySynchronousProduct`,
  :class:`LazyRestriction`, :class:`LazyHiding`, :class:`LazyRelabeling`),
  the library's one implementation of the Section 6 operators;
* :func:`check_implicit` -- on-the-fly strong / observational equivalence
  (bounded-game deepening plus assumption-set depth-first search), returning
  early with a verified distinguishing trace on inequivalence;
* state-space reductions (:mod:`repro.explore.reduce`) -- tau-confluence
  partial-order reduction (:class:`ConfluenceReducer`), canonical-form
  symmetry quotients (:class:`SymmetryReducer` over declared
  :class:`RotationSymmetry` / :class:`FullPermutationSymmetry`), and
  hash-compacted visited frontiers (:class:`Fingerprinter`), threaded
  through the checker and the protocol verbs as
  ``reduction="none"|"por"|"symmetry"|"full"``;
* :func:`materialize` / :func:`materialize_lts` / :func:`reachable_stats`
  -- bounded bridges back to the eager world;
* :class:`SystemSpec` composition trees with three routes
  (:func:`build_implicit`, :func:`compose_eager`,
  :func:`minimize_compositionally`).

A composed system can be decided without ever building its product:

>>> from repro.core.fsp import from_transitions
>>> from repro.explore import LazyInterleavingProduct, check_implicit
>>> ping = from_transitions([("i", "ping", "i")], start="i", all_accepting=True)
>>> pong = from_transitions([("o", "pong", "o")], start="o", all_accepting=True)
>>> good = LazyInterleavingProduct(ping, pong)
>>> bad = LazyInterleavingProduct(ping, from_transitions(
...     [("o", "pong", "x")], start="o", all_accepting=True))
>>> check_implicit(good, good, "strong").equivalent
True
>>> result = check_implicit(good, bad, "strong")
>>> result.equivalent, result.trace_verified
(False, True)

and materialising the lazy product builds the eager process, here every
interleaving of the two self-loops from one product state:

>>> from repro.explore import materialize
>>> product = materialize(good)
>>> product.states, sorted(product.transitions_from(product.start))
(frozenset({'(i|o)'}), [('ping', '(i|o)'), ('pong', '(i|o)')])
"""

from repro.explore.implicit import (
    CCSAdapter,
    ExplorationStats,
    FSPAdapter,
    ImplicitLTS,
    as_implicit,
    materialize,
    materialize_lts,
    reachable_stats,
)
from repro.explore.onthefly import ExploreResult, check_implicit, verify_trace
from repro.explore.reduce import (
    FRONTIERS,
    REDUCTIONS,
    ConfluenceReducer,
    Fingerprinter,
    FullPermutationSymmetry,
    RotationSymmetry,
    SymmetryReducer,
    annotate_symmetry,
    canonical_bytes,
    declared_symmetry,
    normalize_frontier,
    normalize_reduction,
    prepare_operand,
    structural_state_estimate,
)
from repro.explore.products import (
    LazyCCSProduct,
    LazyHiding,
    LazyInterleavingProduct,
    LazyRelabeling,
    LazyRestriction,
    LazySynchronousProduct,
)
from repro.explore.system import (
    HideSpec,
    LeafSpec,
    ProductSpec,
    RelabelSpec,
    RestrictSpec,
    SystemSpec,
    TermSpec,
    build_implicit,
    compose_eager,
    minimize_compositionally,
    spec_from_document,
    spec_to_document,
)

__all__ = [
    "CCSAdapter",
    "ConfluenceReducer",
    "ExplorationStats",
    "ExploreResult",
    "FRONTIERS",
    "FSPAdapter",
    "Fingerprinter",
    "FullPermutationSymmetry",
    "HideSpec",
    "ImplicitLTS",
    "LazyCCSProduct",
    "LazyHiding",
    "LazyInterleavingProduct",
    "LazyRelabeling",
    "LazyRestriction",
    "LazySynchronousProduct",
    "LeafSpec",
    "ProductSpec",
    "REDUCTIONS",
    "RelabelSpec",
    "RestrictSpec",
    "RotationSymmetry",
    "SymmetryReducer",
    "SystemSpec",
    "TermSpec",
    "annotate_symmetry",
    "as_implicit",
    "build_implicit",
    "canonical_bytes",
    "check_implicit",
    "compose_eager",
    "declared_symmetry",
    "materialize",
    "materialize_lts",
    "minimize_compositionally",
    "normalize_frontier",
    "normalize_reduction",
    "prepare_operand",
    "reachable_stats",
    "spec_from_document",
    "spec_to_document",
    "structural_state_estimate",
    "verify_trace",
]
