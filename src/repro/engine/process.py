"""The :class:`Process` handle: one FSP, every derived artifact cached once.

The server-style workloads the ROADMAP targets ask many questions about the
same process -- repeated equivalence queries, minimisation, language checks.
Each of the old free functions recompiled the full ``FSP -> LTS ->
WeakKernel -> partition`` pipeline per call; a :class:`Process` wraps the FSP
and materialises each derived artifact lazily, exactly once:

=============================  ==================================================
artifact                       producer
=============================  ==================================================
``lts()``                      :meth:`repro.core.lts.LTS.from_fsp` (CSR kernel);
                               the decoder's own kernel for an FSP from
                               :func:`~repro.utils.serialization.from_dict`
``weak_kernel()``              :class:`repro.core.weak.WeakKernel`: tau-SCC +
                               bitsets, the weak-transition query API
``saturated_lts()``            :func:`repro.core.weak.saturate_lts` (``P_hat``)
                               of the whole process, whatever ``backend``
                               says; not on the engine's path
(branching pre-quotient)       :func:`repro.partition.branching.branching_quotient`
                               of :meth:`lts`, private, one per handle
``strong_quotient()``          ``(LTS, block_of)``: Lemma 3.1 refinement of
                               :meth:`lts`, collapsed
``observational_quotient()``   ``(LTS, block_of)``: Theorem 4.1(a) on the
                               branching pre-quotient (saturation + strong
                               refinement), the saturated arcs collapsed; the
                               failure and ``approx_k`` searches walk it
``macro_moves()``              :class:`repro.equivalence.language.MacroMoves`:
                               the explored subset moves over :meth:`weak_kernel`
``strong_partition()``         name-keyed view of the strong quotient's blocks
``observational_partition()``  name-keyed view of the observational blocks
``minimized_strong()``         :func:`repro.equivalence.minimize.quotient` by
                               the strong partition
``minimized_observational()``  :func:`repro.equivalence.minimize.quotient` by
                               the observational partition; for ``minimize``,
                               not on the engine's check path
``language_dfa()``             minimal DFA of the start state's weak language;
                               not on the engine's path
=============================  ==================================================

A quotient is an :class:`~repro.core.lts.LTS` over the blocks reachable from
the start, each named ``[min member]`` like
:func:`repro.equivalence.minimize.quotient` names them, with ``block_of[s]``
the block of every state ``s`` of :meth:`lts` (blocks the start cannot reach
number from ``quotient.n`` up, by their first member).  So a quotient slot
depends on the partition alone, never on a solver's block ids.  The
partitions and FSPs of the table are built from the quotients only when a
caller asks.

A refinement starts from the arcs :meth:`lts` for strong, and from the
saturated branching pre-quotient for observational.  The strong and
observational notions decide a pair with :func:`decide_pair`: one
refinement of the disjoint union of the two sides -- a side's cached
quotient, or else the arcs its own refinement would start from -- fills
every missing slot.  Restricted to one side, the coarsest stable refinement
of a disjoint union is that side's own, so the slot is the one a lone
refinement fills, byte for byte.

Each artifact has one cache slot per notion.  The coarsest stable
refinement is unique (Section 3), so the solver ``method`` and the
``backend`` only choose how a missing artifact is computed; a cached one
answers every later call, whatever they say.  The default solver is
Kanellakis-Smolka (Theorem 3.1), the fastest on the measured cells.
``backend`` selects only the refinement's kernel -- saturation has one
implementation -- and ``backend="auto"`` resolves on what gets refined
(:func:`~repro.partition.generalized.resolve_backend`).

Every weak notion the engine decides (observational, failure,
``k``-observational) goes through :meth:`Process.observational_quotient`.
Branching bisimilarity refines observational equivalence, which refines
failure equivalence and every ``approx_k``, so saturating and refining only
the branching quotient gives the same partition as the whole process would
-- at the cost of the quotient, not of the input.  Saturation commutes with
collapsing weakly bisimilar states, so the collapsed saturated pre-quotient
is the saturation of the observational quotient.  The paper's direct route,
:func:`repro.equivalence.observational.observational_partition`, stays the
oracle the tests compare against.

Handles are cheap to create; all caches fill on first use, and each cache
slot is written once, with a finished value, so an interrupted computation
leaves nothing behind.  A handle is tied to one immutable FSP, so cached
artifacts never go stale.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.fsp import FSP
from repro.core.lts import INDEX_TYPECODE, LTS, disjoint_union
from repro.core.weak import WeakKernel, saturate_lts
from repro.equivalence.language import MacroMoves
from repro.equivalence.minimize import quotient
from repro.partition.branching import branching_quotient
from repro.partition.generalized import Solver, refine_lts, resolve_backend
from repro.partition.partition import Partition
from repro.partition.refinable import partition_of_blocks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.automata.dfa import DFA

#: A cached quotient: the collapsed kernel and the block of every state.
Quotient = tuple[LTS, list[int]]


def _collapse(arcs: LTS, blocks: list[int], lifted: list[int], names: tuple[str, ...]) -> Quotient:
    """Collapse ``arcs`` along ``blocks`` into a quotient over the reachable blocks.

    ``blocks`` assigns each state of ``arcs`` its block (any ids) and must
    be stable: every member of a block has the same ``(action, target
    block)`` pairs and the same extension set, as in the coarsest stable
    partition a refinement returns.  So the arcs of each block's first
    member are the block's arcs, and no other member is read.  ``lifted``
    assigns the same blocks to the states of the handle's own kernel, whose
    sorted ``names`` give each block its ``[min member]`` name.  Blocks
    holding a state reachable from the start in ``arcs`` are numbered first,
    the rest after them, each by its first member in state order; the
    returned block map is ``lifted`` renumbered.
    """
    offsets, arc_actions, arc_targets = arcs.fwd_offsets, arcs.fwd_actions, arcs.fwd_targets
    seen = bytearray(arcs.n)
    seen[arcs.start] = 1
    stack = [arcs.start]
    while stack:
        s = stack.pop()
        for i in range(offsets[s], offsets[s + 1]):
            t = arc_targets[i]
            if not seen[t]:
                seen[t] = 1
                stack.append(t)
    number = [-1] * (max(blocks, default=-1) + 1)
    first: list[int] = []
    for s, block in enumerate(blocks):
        if seen[s] and number[block] < 0:
            number[block] = len(first)
            first.append(s)
    reachable = count = len(first)
    for block in blocks:
        if number[block] < 0:
            number[block] = count
            count += 1
    block_of = [number[block] for block in lifted]
    label = [""] * reachable
    for name, block in zip(names, block_of):
        if block < reachable and not label[block]:
            label[block] = f"[{name}]"
    image = [number[block] for block in blocks]
    quotient_offsets = array(INDEX_TYPECODE, [0])
    quotient_actions = array(INDEX_TYPECODE)
    quotient_targets = array(INDEX_TYPECODE)
    for s in first:
        lo, hi = offsets[s], offsets[s + 1]
        # A move (action, target block) as one int: sorting it sorts by action, then target.
        moves = sorted(
            {a * count + image[t] for a, t in zip(arc_actions[lo:hi], arc_targets[lo:hi])}
        )
        quotient_actions.extend([move // count for move in moves])
        quotient_targets.extend([move % count for move in moves])
        quotient_offsets.append(len(quotient_targets))
    ext_sets = arcs.ext_sets
    quotient = LTS.from_csr(
        label,
        arcs.action_names,
        quotient_offsets,
        quotient_actions,
        quotient_targets,
        start=image[arcs.start],
        ext_sets=[ext_sets[s] if ext_sets is not None else frozenset() for s in first],
        variables=arcs.variables,
        observable_alphabet=arcs.observable_alphabet,
    )
    return quotient, block_of


def decide_pair(
    left: "Process", right: "Process", notion: str, method: Solver | str, backend: str
) -> tuple[LTS, LTS, bool]:
    """Both handles' ``notion`` quotients, and whether their start states are equivalent.

    One refinement of the disjoint union of the two sides decides the pair
    and fills each missing slot from its side's slice of the block ids.
    """
    if left is right:
        quotient = left._quotient(notion, method, backend)[0]
        return quotient, quotient, True
    sides = []
    for handle in (left, right):
        cached = handle._quotients.get(notion)
        sides.append(cached[0] if cached is not None else handle._refinement_arcs(notion))
    union = disjoint_union(*sides)
    blocks = refine_lts(union, method, backend)
    split = sides[0].n
    for handle, arcs, part in ((left, sides[0], blocks[:split]), (right, sides[1], blocks[split:])):
        if notion not in handle._quotients:
            handle._fill(notion, arcs, part)
    equivalent = blocks[union.start] == blocks[split + sides[1].start]
    return left._quotients[notion][0], right._quotients[notion][0], equivalent


class Process:
    """A handle around one FSP with lazily cached derived artifacts."""

    __slots__ = (
        "fsp",
        "_lts",
        "_weak_kernel",
        "_saturated_lts",
        "_branching",
        "_quotients",
        "_partitions",
        "_minimized",
        "_macro_moves",
        "_language_dfa",
    )

    def __init__(self, fsp: FSP) -> None:
        if not isinstance(fsp, FSP):
            raise TypeError(f"Process wraps an FSP, not {type(fsp).__name__}")
        self.fsp = fsp
        self._lts: LTS | None = None
        self._weak_kernel: WeakKernel | None = None
        self._saturated_lts: LTS | None = None
        self._branching: Quotient | None = None
        # keyed by notion: "strong" or "observational"
        self._quotients: dict[str, Quotient] = {}
        self._partitions: dict[str, Partition] = {}
        self._minimized: dict[str, FSP] = {}
        self._macro_moves: MacroMoves | None = None
        self._language_dfa: DFA | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: str | Path) -> "Process":
        """Load a handle from a ``.json`` or ``.aut`` process file."""
        from repro.utils.serialization import load_process_file

        return cls(load_process_file(path))

    @classmethod
    def from_expression(cls, expression, alphabet=None) -> "Process":
        """A handle on the representative FSP of a star expression."""
        from repro.expressions.parser import parse
        from repro.expressions.semantics import representative_fsp

        parsed = parse(expression) if isinstance(expression, str) else expression
        return cls(representative_fsp(parsed, alphabet=alphabet))

    @classmethod
    def from_ccs(cls, term: str, definitions=None, max_states: int = 10_000) -> "Process":
        """A handle on the FSP compiled from a CCS term."""
        from repro.ccs.parser import parse_process
        from repro.ccs.semantics import compile_to_fsp

        return cls(compile_to_fsp(parse_process(term), definitions, max_states=max_states))

    # ------------------------------------------------------------------
    # cached artifacts
    # ------------------------------------------------------------------
    def lts(self) -> LTS:
        """The interned integer CSR kernel (tau kept as one more action)."""
        if self._lts is None:
            self._lts = LTS.from_fsp(self.fsp, include_tau=True)
        return self._lts

    def weak_kernel(self) -> WeakKernel:
        """The tau-SCC + bitset weak-transition engine over :meth:`lts`."""
        if self._weak_kernel is None:
            self._weak_kernel = WeakKernel(self.lts())
        return self._weak_kernel

    def saturated_lts(self, backend: str = "python") -> LTS:
        """The saturated kernel ``P_hat`` of Theorem 4.1(a).

        This saturates the *whole* process, as the paper's direct route does;
        :meth:`observational_quotient` saturates only the branching
        pre-quotient and does not use it.  Saturation has one
        implementation: ``backend`` is only validated, and only when the
        kernel is first computed.
        """
        if self._saturated_lts is None:
            resolve_backend(backend, self.fsp.num_states)
            self._saturated_lts = saturate_lts(self.lts())
        return self._saturated_lts

    def _branching_quotient(self) -> Quotient:
        """The branching-bisimulation quotient of :meth:`lts` and each state's block."""
        if self._branching is None:
            self._branching = branching_quotient(self.lts())
        return self._branching

    def strong_quotient(
        self, method: Solver | str = Solver.KANELLAKIS_SMOLKA, backend: str = "python"
    ) -> Quotient:
        """The quotient by strong equivalence (tau as a label) and each state's block.

        ``method`` and ``backend`` apply only when the quotient is first
        computed; ``backend="auto"`` resolves on the states and arcs of
        :meth:`lts`, which is what gets refined.
        """
        return self._quotient("strong", method, backend)

    def observational_quotient(
        self, method: Solver | str = Solver.KANELLAKIS_SMOLKA, backend: str = "python"
    ) -> Quotient:
        """The saturated quotient by observational equivalence and each state's block.

        Theorem 4.1(a) runs on the branching pre-quotient: it is saturated
        and refined strongly, and the saturated arcs are collapsed, so the
        quotient's arcs are the weak moves ``=>^a`` and ``=>^epsilon``.
        ``method`` and ``backend`` apply only when the quotient is first
        computed, and only to the refinement; ``backend="auto"`` resolves on
        the states and arcs of the saturation, which is what gets refined.
        """
        return self._quotient("observational", method, backend)

    def _quotient(self, notion: str, method: Solver | str, backend: str) -> Quotient:
        """The cached strong or observational quotient, computed on a miss."""
        cached = self._quotients.get(notion)
        if cached is None:
            arcs = self._refinement_arcs(notion)
            cached = self._fill(notion, arcs, refine_lts(arcs, method, backend))
        return cached

    def _refinement_arcs(self, notion: str) -> LTS:
        """The arcs a ``notion`` refinement starts from: the kernel or saturated pre-quotient."""
        if notion == "strong":
            return self.lts()
        return saturate_lts(self._branching_quotient()[0])

    def _fill(self, notion: str, arcs: LTS, blocks: list[int]) -> Quotient:
        """Collapse ``arcs`` along their coarsest stable ``blocks`` into the ``notion`` slot."""
        lifted = blocks
        if notion != "strong":
            lifted = [blocks[block] for block in self._branching_quotient()[1]]
        quotient = _collapse(arcs, blocks, lifted, self.lts().state_names)
        self._quotients[notion] = quotient
        return quotient

    def macro_moves(self) -> MacroMoves:
        """The explored subset moves of ``L(start)`` over :meth:`weak_kernel`."""
        if self._macro_moves is None:
            self._macro_moves = MacroMoves.from_fsp(self.fsp, self.weak_kernel())
        return self._macro_moves

    def _partition(self, notion: str, method: Solver | str, backend: str) -> Partition:
        partition = self._partitions.get(notion)
        if partition is None:
            block_of = self._quotient(notion, method, backend)[1]
            partition = partition_of_blocks(block_of, self.lts().state_names)
            self._partitions[notion] = partition
        return partition

    def _minimized_fsp(self, notion: str, method: Solver | str, backend: str) -> FSP:
        minimal = self._minimized.get(notion)
        if minimal is None:
            minimal = quotient(self.fsp, self._partition(notion, method, backend))
            self._minimized[notion] = minimal
        return minimal

    def strong_partition(
        self, method: Solver | str = Solver.KANELLAKIS_SMOLKA, backend: str = "python"
    ) -> Partition:
        """The strong-equivalence partition (hints as for :meth:`strong_quotient`)."""
        return self._partition("strong", method, backend)

    def observational_partition(
        self, method: Solver | str = Solver.KANELLAKIS_SMOLKA, backend: str = "python"
    ) -> Partition:
        """The observational-equivalence partition (hints as for :meth:`observational_quotient`)."""
        return self._partition("observational", method, backend)

    def minimized_strong(
        self, method: Solver | str = Solver.KANELLAKIS_SMOLKA, backend: str = "python"
    ) -> FSP:
        """The quotient FSP by strong equivalence (hints as for :meth:`strong_quotient`)."""
        return self._minimized_fsp("strong", method, backend)

    def minimized_observational(
        self, method: Solver | str = Solver.KANELLAKIS_SMOLKA, backend: str = "python"
    ) -> FSP:
        """The quotient FSP by observational equivalence (hints as for the quotient).

        Its arcs are the original transitions between blocks, not the
        saturated arcs of :meth:`observational_quotient`.
        """
        return self._minimized_fsp("observational", method, backend)

    def language_dfa(self) -> "DFA":
        """The minimal DFA of ``L(start)`` (subset construction + Hopcroft)."""
        if self._language_dfa is None:
            from repro.equivalence.language import language_dfa

            self._language_dfa = language_dfa(self.fsp)
        return self._language_dfa

    # ------------------------------------------------------------------
    # pickling (worker shipping)
    # ------------------------------------------------------------------
    def __getstate__(self) -> FSP:
        """Pickle only the FSP: snapshots shipped to workers stay lean.

        Derived artifacts (CSR arrays, bitset kernels, partitions) can dwarf
        the FSP itself and are cheaper to rebuild in the receiving process
        than to serialise, so a pickled handle carries just its immutable
        FSP; every cache refills lazily on first use after unpickling.
        """
        return self.fsp

    def __setstate__(self, fsp: FSP) -> None:
        self.__init__(fsp)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self.fsp.num_states

    @property
    def num_transitions(self) -> int:
        return self.fsp.num_transitions

    def artifact_summary(self) -> dict[str, bool | int]:
        """Which derived artifacts have been materialised so far."""
        return {
            "lts": self._lts is not None,
            "weak_kernel": self._weak_kernel is not None,
            "saturated_lts": self._saturated_lts is not None,
            "branching_quotient": self._branching is not None,
            "strong_partitions": int("strong" in self._quotients),
            "observational_partitions": int("observational" in self._quotients),
            "minimized_strong": int("strong" in self._minimized),
            "minimized_observational": int("observational" in self._minimized),
            "macrostates": len(self._macro_moves) if self._macro_moves is not None else 0,
            "language_dfa": self._language_dfa is not None,
        }

    def __repr__(self) -> str:
        return (
            f"Process(states={self.fsp.num_states}, "
            f"transitions={self.fsp.num_transitions}, start={self.fsp.start!r})"
        )
