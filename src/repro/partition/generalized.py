"""The *generalized partitioning* problem of Section 3.

The problem (introduced by the paper and now better known as the *relational
coarsest partition problem*) is:

    **Input:** a set ``S``, an initial partition ``pi = {B_1, ..., B_p}`` of
    ``S``, and ``k`` functions ``f_l : S -> 2^S``.

    **Output:** the coarsest partition ``pi' = {E_1, ..., E_q}`` such that

    1. ``pi'`` is consistent with (refines) ``pi``;
    2. for all ``a, b`` in the same block ``E_j``, every block ``E_i`` and
       every function ``f_l``:  ``f_l(a) ∩ E_i != {}``  iff  ``f_l(b) ∩ E_i != {}``.

The coarsest such partition always exists (Knaster-Tarski on the lattice of
partitions).  Lemma 3.1 reduces strong-equivalence checking of observable FSPs
to this problem: ``S`` is the state set, the initial partition groups states
by extension set, and there is one function per action mapping a state to its
successor set.

This module defines the instance representation, the Lemma 3.1 reduction, a
reference correctness check (:func:`is_valid_solution`) and the
solver dispatch: :func:`refine_lts` over the integer kernel, returning block
ids, and :func:`solve`, its name-keyed wrapper.

Internally every instance is backed by the integer-indexed
:class:`~repro.core.lts.LTS` kernel (elements and function names interned to
dense ints, arcs in CSR arrays): that is the representation all three solvers
actually refine.  The dict-of-frozensets views (:attr:`functions`,
:meth:`image`, :meth:`predecessor_map`) remain available -- instances built
via :meth:`from_fsp` materialise them lazily, so the hot path never pays for
them.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping

from repro.core.errors import ReproError
from repro.core.fsp import FSP
from repro.core.lts import LTS
from repro.partition.partition import Partition
from repro.partition.refinable import partition_of_blocks


class GeneralizedPartitioningError(ReproError):
    """Raised when an instance of the generalized partitioning problem is malformed."""


class Solver(enum.Enum):
    """The three solution methods discussed in Section 3."""

    NAIVE = "naive"
    KANELLAKIS_SMOLKA = "kanellakis-smolka"
    PAIGE_TARJAN = "paige-tarjan"


class GeneralizedPartitioningInstance:
    """An instance ``(S, pi, f_1..f_k)`` of the generalized partitioning problem.

    Parameters
    ----------
    elements:
        The set ``S``.
    initial_blocks:
        The initial partition ``pi`` as an iterable of blocks.  Blocks must be
        non-empty, disjoint, and cover ``S``.
    functions:
        A mapping from function name to the function itself, where each
        function maps an element to a set of elements (``f_l : S -> 2^S``).
        Elements missing from a function's mapping are treated as mapped to
        the empty set.
    """

    def __init__(
        self,
        elements: Iterable[str],
        initial_blocks: Iterable[Iterable[str]],
        functions: Mapping[str, Mapping[str, Iterable[str]]],
    ) -> None:
        self._init_fields(
            elements=frozenset(elements),
            initial_blocks=tuple(frozenset(block) for block in initial_blocks),
            functions={
                name: {element: frozenset(targets) for element, targets in mapping.items()}
                for name, mapping in functions.items()
            },
            kernel=None,
        )
        self._validate()

    def _init_fields(
        self,
        elements: frozenset[str],
        initial_blocks: tuple[frozenset[str], ...],
        functions: dict[str, dict[str, frozenset[str]]] | None,
        kernel: tuple[LTS, list[int], int] | None,
    ) -> None:
        """Single initialisation point for every instance field.

        Both construction paths -- the validated dict path in ``__init__``
        and the kernel fast path in :meth:`from_fsp` -- go through here, so
        a future field cannot be set on one path and missed on the other.
        """
        self.elements = elements
        self.initial_blocks = initial_blocks
        self._functions = functions
        self._kernel = kernel

    def _validate(self) -> None:
        covered: set[str] = set()
        for block in self.initial_blocks:
            if not block:
                raise GeneralizedPartitioningError("initial blocks must be non-empty")
            if block & covered:
                raise GeneralizedPartitioningError("initial blocks must be disjoint")
            covered |= block
        if covered != set(self.elements):
            raise GeneralizedPartitioningError(
                "the initial partition must cover exactly the element set"
            )
        for name, mapping in self.functions.items():
            for element, targets in mapping.items():
                if element not in self.elements:
                    raise GeneralizedPartitioningError(
                        f"function {name!r} is defined on {element!r} which is not in S"
                    )
                if not targets <= self.elements:
                    raise GeneralizedPartitioningError(
                        f"function {name!r} maps {element!r} outside of S"
                    )

    # ------------------------------------------------------------------
    # the integer kernel every solver runs on
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> tuple[LTS, list[int], int]:
        """``(lts, block_of, num_blocks)`` -- the interned form of the instance.

        The :class:`~repro.core.lts.LTS` encodes the functions as one action
        per function name over CSR adjacency arrays; ``block_of`` assigns
        every interned element its initial-partition block id.  Built once
        and cached.
        """
        if self._kernel is None:
            names = sorted(self.elements)
            state_index = {name: i for i, name in enumerate(names)}
            functions = self.functions
            action_names = sorted(functions)
            edges = [
                (state_index[element], action_id, state_index[target])
                for action_id, name in enumerate(action_names)
                for element, targets in functions[name].items()
                for target in targets
            ]
            lts = LTS(names, action_names, edges)
            block_of = [0] * len(names)
            for block_id, block in enumerate(self.initial_blocks):
                for element in block:
                    block_of[state_index[element]] = block_id
            self._kernel = (lts, block_of, len(self.initial_blocks))
        return self._kernel

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def functions(self) -> dict[str, dict[str, frozenset[str]]]:
        """The functions as dict-of-frozensets (materialised lazily from the kernel)."""
        if self._functions is None:
            lts = self._kernel[0]  # from_fsp always sets the kernel
            functions: dict[str, dict[str, frozenset[str]]] = {
                name: {} for name in lts.action_names
            }
            names = lts.state_names
            action_names = lts.action_names
            offsets, arc_actions, arc_targets = (
                lts.fwd_offsets,
                lts.fwd_actions,
                lts.fwd_targets,
            )
            grouped: dict[tuple[int, int], list[str]] = {}
            for src in range(lts.n):
                for i in range(offsets[src], offsets[src + 1]):
                    grouped.setdefault((src, arc_actions[i]), []).append(names[arc_targets[i]])
            for (src, action), targets in grouped.items():
                functions[action_names[action]][names[src]] = frozenset(targets)
            self._functions = functions
        return self._functions

    def image(self, function: str, element: str) -> frozenset[str]:
        """``f_function(element)`` with missing entries read as the empty set."""
        return self.functions.get(function, {}).get(element, frozenset())

    @property
    def size(self) -> tuple[int, int]:
        """The instance size ``(n, m)``: ``|S|`` and the total number of arcs."""
        lts = self.kernel[0]
        return lts.n, lts.num_transitions

    @property
    def fanout(self) -> int:
        """The maximum ``|f_l(a)|`` over all functions and elements (the ``c`` of Section 3)."""
        return self.kernel[0].max_fanout()

    def initial_partition(self) -> Partition:
        """A fresh mutable :class:`Partition` initialised to ``pi``."""
        return Partition(self.initial_blocks)

    def predecessor_map(self) -> dict[str, dict[str, frozenset[str]]]:
        """For each function, the inverse image map ``element -> {x | element in f(x)}``.

        Kept as a dict view for reference implementations and tests; the
        solvers themselves use the LTS kernel's cached reverse CSR index.
        """
        inverted: dict[str, dict[str, set[str]]] = {name: {} for name in self.functions}
        for name, mapping in self.functions.items():
            for element, targets in mapping.items():
                for target in targets:
                    inverted[name].setdefault(target, set()).add(element)
        return {
            name: {element: frozenset(sources) for element, sources in mapping.items()}
            for name, mapping in inverted.items()
        }

    # ------------------------------------------------------------------
    # the Lemma 3.1 reduction
    # ------------------------------------------------------------------
    @classmethod
    def from_fsp(cls, fsp: FSP, include_tau: bool = False) -> "GeneralizedPartitioningInstance":
        """Build the instance of Lemma 3.1 from a finite state process.

        * ``S`` is the state set,
        * the initial partition groups states with equal extension sets,
        * there is one function per action ``sigma`` with
          ``f_sigma(p) = Delta(p, sigma)``.

        The process is interned straight into the integer kernel (states and
        actions to dense ints, transitions to CSR arrays); no dict-of-sets
        intermediary is built unless :attr:`functions` is actually read.

        Parameters
        ----------
        fsp:
            The process.  Lemma 3.1 is stated for observable FSPs, but the
            reduction itself works verbatim for any FSP if tau is treated as
            an ordinary action, which is what ``include_tau=True`` does (this
            yields *strong bisimilarity over tau-as-a-label*, the notion most
            modern toolsets call strong bisimulation).
        include_tau:
            Whether to add a function for the tau-transitions.
        """
        return cls.from_lts(LTS.from_fsp(fsp, include_tau=include_tau))

    @classmethod
    def from_lts(cls, lts: LTS) -> "GeneralizedPartitioningInstance":
        """Adopt an already-interned kernel as a partitioning instance.

        The initial partition is taken from the kernel's extension sets
        (:meth:`~repro.core.lts.LTS.extension_block_ids` -- the Lemma 3.1
        grouping); every action of the kernel becomes one function.  This is
        the zero-copy entry point of the weak-equivalence pipeline: the
        saturated kernel produced by :func:`repro.core.weak.saturate_lts`
        feeds the solvers directly, with no dict FSP in between.
        """
        block_of, num_blocks = lts.extension_block_ids()
        groups: list[list[str]] = [[] for _ in range(num_blocks)]
        for index, block_id in enumerate(block_of):
            groups[block_id].append(lts.state_names[index])
        instance = cls.__new__(cls)
        instance._init_fields(
            elements=frozenset(lts.state_names),
            initial_blocks=tuple(frozenset(group) for group in groups),
            functions=None,
            kernel=(lts, block_of, num_blocks),
        )
        return instance

    def __repr__(self) -> str:
        n, m = self.size
        return (
            f"GeneralizedPartitioningInstance(n={n}, m={m}, "
            f"functions={sorted(self.functions)}, blocks={len(self.initial_blocks)})"
        )


def is_stable(instance: GeneralizedPartitioningInstance, partition: Partition) -> bool:
    """Check condition (2) of the problem statement for a candidate partition."""
    blocks = list(partition)
    for block in blocks:
        representative_signatures: dict[str, frozenset[tuple[str, int]]] = {}
        for element in block:
            signature = set()
            for name in instance.functions:
                for target in instance.image(name, element):
                    signature.add((name, partition.block_id_of(target)))
            representative_signatures[element] = frozenset(signature)
        if len(set(representative_signatures.values())) > 1:
            return False
    return True


def is_valid_solution(
    instance: GeneralizedPartitioningInstance,
    partition: Partition,
    reference: Partition | None = None,
) -> bool:
    """Check that ``partition`` satisfies conditions (1) and (2).

    Coarsest-ness (condition 3) cannot be checked locally; when a trusted
    ``reference`` solution is supplied the two are compared for equality,
    which the uniqueness of the coarsest stable refinement makes a complete
    check.
    """
    if partition.elements != instance.elements:
        return False
    if not partition.refines(instance.initial_partition()):
        return False
    if not is_stable(instance, partition):
        return False
    if reference is not None and partition != reference:
        return False
    return True


#: valid values for the ``backend`` parameter of :func:`solve` (and of every
#: caller that threads it down here: the equivalence layer, the engine's
#: notion registry, the CLI's ``--backend`` flag).
BACKENDS = ("python", "vector")

#: The size-dispatching pseudo-backend accepted everywhere a concrete
#: backend is: resolved per call site by :func:`resolve_backend`.
AUTO_BACKEND = "auto"

#: At or above this many states, ``backend="auto"`` may pick the vector
#: kernel for a refinement (when numpy is importable and the density cut
#: below holds).
VECTOR_STATE_THRESHOLD = 512

#: At most this many arcs per state, ``backend="auto"`` may pick the vector
#: kernel for a refinement.  A round costs ``O(m)`` whole-array work, so
#: dense inputs -- saturated pre-quotients with hundreds of weak moves per
#: state -- stay on the worklist solvers.  Fitted on the ``defaults`` bench
#: layer (``benchmarks/cells.py``).
VECTOR_DENSITY_CUT = 4


def resolve_backend(backend: str, num_states: int, num_arcs: int | None = None) -> str:
    """Resolve a backend name (possibly ``"auto"``) to a concrete backend.

    ``"auto"`` picks ``"vector"`` when numpy is importable, the problem has
    at least :data:`VECTOR_STATE_THRESHOLD` states and -- when ``num_arcs``
    is given, as :func:`refine_lts` gives it -- at most
    :data:`VECTOR_DENSITY_CUT` arcs per state; else ``"python"``.  The
    whole-array kernel's setup cost only amortises on large instances, and
    its per-round cost on dense ones does not amortise at all.  Concrete
    names pass through validated, so every caller funnels its error message
    here.  The backend only ever selects a refinement: saturation has one
    implementation (:func:`repro.core.weak.saturate_lts`).
    """
    if backend == AUTO_BACKEND:
        from repro.utils.matrices import HAVE_NUMPY

        if (
            HAVE_NUMPY
            and num_states >= VECTOR_STATE_THRESHOLD
            and (num_arcs is None or num_arcs <= VECTOR_DENSITY_CUT * num_states)
        ):
            return "vector"
        return "python"
    if backend not in BACKENDS:
        raise GeneralizedPartitioningError(
            f"unknown partition backend {backend!r}; "
            f"choose from {', '.join(BACKENDS)} or {AUTO_BACKEND!r}"
        )
    return backend


def refine_lts(
    lts: LTS,
    method: Solver | str = Solver.PAIGE_TARJAN,
    backend: str = "python",
    initial: tuple[list[int], int] | None = None,
) -> list[int]:
    """The coarsest stable refinement of an interned kernel, as block ids.

    ``initial`` is the starting partition as ``(block_of, num_blocks)``; by
    default the Lemma 3.1 grouping by extension set
    (:meth:`~repro.core.lts.LTS.extension_block_ids`).  Returns one dense
    block id per state: two states share an id iff they are strongly
    equivalent.  The ids are otherwise arbitrary.

    This is the one dispatch over the integer solvers.  ``backend`` resolves
    on the kernel's states and arcs (:func:`resolve_backend`); ``"vector"``
    runs the numpy kernel for at most
    :func:`~repro.partition.vectorized.round_budget` rounds and hands what
    it reached to Kanellakis-Smolka, ``"python"`` runs the worklist solver
    named by ``method``:

    * :attr:`Solver.NAIVE` -- the O(nm) method of Lemma 3.2;
    * :attr:`Solver.KANELLAKIS_SMOLKA` -- the splitter-queue refinement in the
      style of the paper's extension of Hopcroft's algorithm (Theorem 3.1),
      the engine's default: the fastest python solver on the measured cells;
    * :attr:`Solver.PAIGE_TARJAN` -- the O(m log n) three-way splitting
      algorithm of Paige and Tarjan (1987), the default here and on the
      paper's direct routes in :mod:`repro.equivalence`.

    All of them compute the same unique partition; the Python solvers double
    as the vector kernel's cross-check oracles.
    """
    block_of, num_blocks = initial if initial is not None else lts.extension_block_ids()
    if resolve_backend(backend, lts.n, lts.num_transitions) == "vector":
        from repro.partition.vectorized import vector_refine_lts

        return vector_refine_lts(lts, block_of, num_blocks).tolist()
    method = Solver(method)
    if method is Solver.NAIVE:
        from repro.partition.naive import naive_refine_lts as refine
    elif method is Solver.KANELLAKIS_SMOLKA:
        from repro.partition.kanellakis_smolka import kanellakis_smolka_refine_lts as refine
    else:
        from repro.partition.paige_tarjan import paige_tarjan_refine_lts as refine
    return refine(lts, block_of, num_blocks).blk


def solve(
    instance: GeneralizedPartitioningInstance,
    method: Solver | str = Solver.PAIGE_TARJAN,
    backend: str = "python",
) -> Partition:
    """Solve a generalized partitioning instance with the chosen method.

    A wrapper around :func:`refine_lts` on the instance's integer
    :attr:`~GeneralizedPartitioningInstance.kernel`, returning the answer as
    a name-keyed :class:`Partition`.  ``backend`` is ``"python"`` (default),
    ``"vector"``, or ``"auto"``, which dispatches by instance size and
    density (:func:`resolve_backend`).
    """
    lts, block_of, num_blocks = instance.kernel
    blocks = refine_lts(lts, method, backend, (block_of, num_blocks))
    return partition_of_blocks(blocks, lts.state_names)
