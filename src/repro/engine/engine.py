"""The engine facade: cached process handles, checks, batches, expressions.

An :class:`Engine` owns two bounded LRU caches:

* a **process cache** mapping each FSP (value-hashed, so structurally equal
  processes share one entry) to its :class:`~repro.engine.process.Process`
  handle, whose derived artifacts -- interned LTS, weak kernel, partitions,
  minimized quotients, language DFA -- are each computed at most once;
* a **verdict cache** mapping ``(left, right, notion, params)`` to the
  :class:`~repro.engine.verdict.Verdict`, so a repeated check costs a
  dictionary lookup.

``check`` decides one pair, ``check_many`` drives a whole manifest through
the shared caches (the server-style batch shape), ``check_expressions``
lifts the notions to the CCS equivalence problem of Section 2.3, and
``minimize`` exposes the cached quotients.  The module-level functions
(:func:`check`, :func:`check_many`, ...) delegate to a shared default
engine, which is also what the old free functions now run on.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.core.classify import require_same_signature
from repro.core.fsp import FSP
from repro.engine.notions import Notion, get_notion
from repro.engine.process import Process
from repro.engine.verdict import (
    BatchResult,
    CheckStats,
    Verdict,
    cached_copy,
    now,
)
from repro.partition.generalized import Solver


class Engine:
    """A reusable equivalence-checking facade with bounded caches.

    Parameters
    ----------
    max_processes:
        Most-recently-used bound on cached process handles.
    max_verdicts:
        Most-recently-used bound on cached verdicts.
    """

    def __init__(self, max_processes: int = 256, max_verdicts: int = 4096) -> None:
        if max_processes < 1 or max_verdicts < 1:
            raise ValueError("cache bounds must be positive")
        self.max_processes = max_processes
        self.max_verdicts = max_verdicts
        self._processes: OrderedDict[FSP, Process] = OrderedDict()
        self._verdicts: OrderedDict[tuple, Verdict] = OrderedDict()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # process interning
    # ------------------------------------------------------------------
    def process(self, source: FSP | Process) -> Process:
        """The cached handle for a process (interned by FSP value equality)."""
        if isinstance(source, Process):
            cached = self._processes.get(source.fsp)
            if cached is None:
                self._remember_process(source.fsp, source)
                return source
            self._processes.move_to_end(source.fsp)
            return cached
        if not isinstance(source, FSP):
            raise TypeError(
                f"Engine.process expects an FSP or Process, not {type(source).__name__}"
            )
        handle = self._processes.get(source)
        if handle is None:
            handle = Process(source)
            self._remember_process(source, handle)
        else:
            self._processes.move_to_end(source)
        return handle

    def _remember_process(self, fsp: FSP, handle: Process) -> None:
        self._processes[fsp] = handle
        while len(self._processes) > self.max_processes:
            self._processes.popitem(last=False)

    # ------------------------------------------------------------------
    # single checks
    # ------------------------------------------------------------------
    def check(
        self,
        left: FSP | Process,
        right: FSP | Process,
        notion: str | Notion = "observational",
        *,
        align: bool = False,
        witness: bool = True,
        **params: Any,
    ) -> Verdict:
        """Decide one equivalence and return a structured :class:`Verdict`.

        ``align=True`` extends both alphabets to their union first (what the
        CLI always did); with the default ``align=False`` mismatched
        signatures raise, exactly like the classic free functions.
        ``witness=True`` attaches a checkable certificate on inequivalence.
        Notion-specific parameters (``k``, ``method``, search bounds) pass
        through ``**params``; unknown ones raise :class:`TypeError`.
        """
        notion_obj = get_notion(notion)
        unknown = set(params) - set(notion_obj.param_names)
        if unknown:
            allowed = ", ".join(sorted(notion_obj.param_names)) or "none"
            raise TypeError(
                f"notion {notion_obj.name!r} does not accept parameter(s) "
                f"{sorted(unknown)}; allowed: {allowed}"
            )
        # Canonicalise against the notion's declared defaults so that e.g.
        # check(p, q, "failure") and check(p, q, "failure",
        # max_macro_states=None) produce one cache key, not two.
        params = notion_obj.normalize_params({**notion_obj.param_defaults, **params})

        left_p = self.process(left)
        right_p = self.process(right)
        if align:
            left_p, right_p = self._aligned(left_p, right_p)
        require_same_signature(left_p.fsp, right_p.fsp)

        key = (
            left_p.fsp,
            right_p.fsp,
            notion_obj.name,
            tuple(sorted(params.items())),
        )
        cached = self._verdicts.get(key)
        if cached is not None:
            needs_witness = (
                witness
                and not cached.equivalent
                and cached.witness is None
                and notion_obj.provides_witness
            )
            if not needs_witness:
                self._hits += 1
                self._verdicts.move_to_end(key)
                return cached_copy(cached)
        self._misses += 1

        begin = now()
        result = notion_obj.check(left_p, right_p, want_witness=witness, **params)
        seconds = now() - begin
        verdict = Verdict(
            equivalent=result.equivalent,
            notion=notion_obj.name,
            left=left_p.fsp,
            right=right_p.fsp,
            witness=result.witness,
            stats=CheckStats(
                notion=notion_obj.name,
                seconds=seconds,
                from_cache=False,
                left_states=left_p.num_states,
                left_transitions=left_p.num_transitions,
                right_states=right_p.num_states,
                right_transitions=right_p.num_transitions,
                details=dict(result.details),
            ),
        )
        self._verdicts[key] = verdict
        while len(self._verdicts) > self.max_verdicts:
            self._verdicts.popitem(last=False)
        return verdict

    def _aligned(self, left: Process, right: Process) -> tuple[Process, Process]:
        if left.fsp.alphabet == right.fsp.alphabet:
            return left, right
        alphabet = left.fsp.alphabet | right.fsp.alphabet
        return (
            self.process(left.fsp.with_alphabet(alphabet)),
            self.process(right.fsp.with_alphabet(alphabet)),
        )

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------
    def check_many(
        self,
        checks,
        *,
        notion: str | Notion = "observational",
        align: bool = True,
        witness: bool = True,
    ) -> BatchResult:
        """Run a manifest of checks through the shared caches.

        Each entry is ``(left, right)``, ``(left, right, notion)``, or a
        mapping with ``left``, ``right``, optional ``notion`` and notion
        parameters.  ``left`` / ``right`` may be FSPs, process handles, or
        paths to ``.json`` / ``.aut`` files; every distinct file is loaded
        once per batch.  Compiled artifacts and verdicts are shared across
        entries, so manifests that revisit processes or pairs -- the
        dominant server-side shape -- skip straight to the cached answers.
        """
        file_memo: dict[Path, FSP] = {}
        begin = now()
        verdicts: list[Verdict] = []
        for index, item in enumerate(checks):
            left, right, item_notion, params = _parse_check_spec(item, notion, index)
            left = self._resolve_source(left, file_memo)
            right = self._resolve_source(right, file_memo)
            verdicts.append(
                self.check(left, right, item_notion, align=align, witness=witness, **params)
            )
        return BatchResult(tuple(verdicts), seconds=now() - begin)

    def _resolve_source(self, source, file_memo: dict[Path, FSP]) -> FSP | Process:
        if isinstance(source, (FSP, Process)):
            return source
        if isinstance(source, (str, Path)):
            from repro.utils.serialization import load_process_file

            path = Path(source)
            fsp = file_memo.get(path)
            if fsp is None:
                fsp = load_process_file(path)
                file_memo[path] = fsp
            return fsp
        raise TypeError(
            f"a check entry must name an FSP, Process, or file path, not {type(source).__name__}"
        )

    # ------------------------------------------------------------------
    # the on-the-fly route (composed / implicit systems, Section 6)
    # ------------------------------------------------------------------
    def check_on_the_fly(
        self,
        left,
        right,
        notion: str = "observational",
        *,
        witness: bool = True,
        max_pairs: int | None = None,
        reduction: str = "none",
        frontier: str = "exact",
    ) -> Verdict:
        """Decide strong or observational equivalence without materialising.

        ``left`` / ``right`` may be FSPs, :class:`Process` handles, implicit
        systems (:class:`~repro.explore.implicit.ImplicitLTS`) or composition
        specs (:class:`~repro.explore.system.SystemSpec`) -- for composed
        systems nothing is ever built beyond the pairs the game touches, so
        a product with :math:`10^6` states can be decided in microseconds
        when the difference (or the proof) is local.

        The verdict's stats report *explored* component states and the
        number of product pairs visited (``details["pairs_visited"]``); on
        inequivalence a replay-verified distinguishing trace becomes a
        :class:`~repro.engine.verdict.TraceWitness`.  Eager FSP operands are
        kept on the verdict so ``verify_witness()`` re-checks the trace;
        composed/implicit operands leave ``left``/``right`` as None (there
        is nothing materialised to store).  Implicit systems have no value
        identity, so this route bypasses the verdict cache.

        ``reduction`` selects a sound state-space reduction
        (:data:`repro.explore.reduce.REDUCTIONS`) and ``frontier`` the
        visited-set representation (``"exact"`` or ``"compact"``); operands
        are handed to the checker unmaterialised so spec-level symmetry
        annotations survive.
        """
        from repro.engine.verdict import TraceWitness
        from repro.explore.onthefly import check_implicit

        begin = now()
        left = left.fsp if isinstance(left, Process) else left
        right = right.fsp if isinstance(right, Process) else right
        result = check_implicit(
            left,
            right,
            notion,
            max_pairs=max_pairs,
            reduction=reduction,
            frontier=frontier,
        )
        witness_obj = None
        if witness and not result.equivalent and result.trace_verified:
            witness_obj = TraceWitness(
                trace=result.trace,
                weak=(notion == "observational"),
                in_left=bool(result.trace_in_left),
            )
        details: dict[str, Any] = {
            "route": f"on-the-fly:{result.route}",
            "pairs_visited": result.pairs_visited,
            "reduction": result.reduction,
        }
        if result.trace is not None:
            details["trace"] = list(result.trace)
            details["trace_verified"] = result.trace_verified
        return Verdict(
            equivalent=result.equivalent,
            notion=notion,
            left=left if isinstance(left, FSP) else None,
            right=right if isinstance(right, FSP) else None,
            witness=witness_obj,
            stats=CheckStats(
                notion=notion,
                seconds=now() - begin,
                from_cache=False,
                left_states=result.left_states,
                left_transitions=0,
                right_states=result.right_states,
                right_transitions=0,
                details=details,
            ),
        )

    # ------------------------------------------------------------------
    # expressions (the CCS equivalence problem, Section 2.3)
    # ------------------------------------------------------------------
    def check_expressions(
        self,
        first,
        second,
        notion: str | Notion = "strong",
        *,
        witness: bool = True,
        **params: Any,
    ) -> Verdict:
        """Decide the CCS equivalence problem for two star expressions.

        The expressions (strings or parsed :class:`StarExpression` trees) are
        compiled to representative FSPs over their joint alphabet and
        compared under the chosen notion; notions may adapt the FSPs (failure
        semantics reads them as restricted processes) or answer directly from
        the expressions (language equivalence uses the regular-expression
        procedure).  On the direct route the representative FSPs -- whose
        construction can dwarf the decision itself -- are only built when a
        witness is actually needed; the verdict's size stats then report the
        expression lengths instead, and ``left`` / ``right`` are None.
        """
        from repro.expressions.parser import parse
        from repro.expressions.syntax import length_of

        notion_obj = get_notion(notion)
        if not notion_obj.supports_expressions:
            raise ValueError(f"notion {notion_obj.name!r} is not defined for star expressions")
        begin = now()
        left_expr = parse(first) if isinstance(first, str) else first
        right_expr = parse(second) if isinstance(second, str) else second

        direct = notion_obj.decide_expressions(left_expr, right_expr)
        if direct is None:
            left_fsp, right_fsp = self._representatives(notion_obj, left_expr, right_expr)
            return self.check(left_fsp, right_fsp, notion_obj, witness=witness, **params)

        left_fsp = right_fsp = None
        witness_obj = None
        if witness and not direct:
            left_fsp, right_fsp = self._representatives(notion_obj, left_expr, right_expr)
            witness_obj = notion_obj.expression_witness(left_fsp, right_fsp)
        return Verdict(
            equivalent=direct,
            notion=notion_obj.name,
            left=left_fsp,
            right=right_fsp,
            witness=witness_obj,
            stats=CheckStats(
                notion=notion_obj.name,
                seconds=now() - begin,
                from_cache=False,
                left_states=left_fsp.num_states if left_fsp else length_of(left_expr),
                left_transitions=left_fsp.num_transitions if left_fsp else 0,
                right_states=right_fsp.num_states if right_fsp else length_of(right_expr),
                right_transitions=right_fsp.num_transitions if right_fsp else 0,
                details={"route": "expression"},
            ),
        )

    @staticmethod
    def _representatives(notion_obj: Notion, left_expr, right_expr) -> tuple[FSP, FSP]:
        """The two representative FSPs over the joint alphabet, notion-adapted."""
        from repro.expressions.semantics import representative_fsp
        from repro.expressions.syntax import actions_of

        alphabet = actions_of(left_expr) | actions_of(right_expr)
        return (
            notion_obj.prepare_expression_fsp(representative_fsp(left_expr, alphabet=alphabet)),
            notion_obj.prepare_expression_fsp(representative_fsp(right_expr, alphabet=alphabet)),
        )

    # ------------------------------------------------------------------
    # minimisation
    # ------------------------------------------------------------------
    def minimize(
        self,
        source: FSP | Process,
        notion: str = "observational",
        method: Solver | str = Solver.PAIGE_TARJAN,
        backend: str = "auto",
    ) -> FSP:
        """The cached quotient of a process under strong or observational equivalence.

        ``backend="auto"`` (the default) dispatches by the size of what is
        refined -- the process for strong equivalence, its branching
        pre-quotient for observational equivalence: the vector kernel above
        :data:`~repro.partition.generalized.VECTOR_STATE_THRESHOLD` states
        when numpy is available, the python solvers otherwise.
        """
        handle = self.process(source)
        if notion == "strong":
            return handle.minimized_strong(method, backend)
        if notion == "observational":
            return handle.minimized_observational(method, backend)
        raise ValueError(
            f"minimisation is defined for 'strong' and 'observational', not {notion!r}"
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        """Cache occupancy and hit counters (for monitoring and tests)."""
        return {
            "processes": len(self._processes),
            "verdicts": len(self._verdicts),
            "hits": self._hits,
            "misses": self._misses,
        }

    def export_stats(self, node: str | None = None) -> dict[str, Any]:
        """A JSON-compatible snapshot of this engine's caches.

        Extends :meth:`cache_info` with the configured bounds and one row per
        cached process handle (sizes plus which derived artifacts have been
        materialised).  This is what a service worker ships back for the
        ``stats`` RPC, so operators can see whether a shard's cache actually
        stays hot for its routed processes.

        ``node`` stamps the snapshot with the cluster-node identity that
        produced it.  Prometheus renderers must emit these counters with a
        ``node=`` label -- without it, several nodes scraped into one
        dashboard collide on identical series names and the aggregation
        silently sums unrelated caches.
        """
        stats = {
            **self.cache_info(),
            "max_processes": self.max_processes,
            "max_verdicts": self.max_verdicts,
            "process_artifacts": [
                {
                    "states": handle.num_states,
                    "transitions": handle.num_transitions,
                    "artifacts": handle.artifact_summary(),
                }
                for handle in self._processes.values()
            ],
        }
        if node is not None:
            stats["node"] = node
        return stats

    def clear(self) -> None:
        """Drop all cached handles and verdicts (counters included)."""
        self._processes.clear()
        self._verdicts.clear()
        self._hits = 0
        self._misses = 0

    def __repr__(self) -> str:
        info = self.cache_info()
        return (
            f"Engine(processes={info['processes']}/{self.max_processes}, "
            f"verdicts={info['verdicts']}/{self.max_verdicts}, "
            f"hits={info['hits']}, misses={info['misses']})"
        )


def _parse_check_spec(item, default_notion, index: int):
    """Normalise one ``check_many`` entry to ``(left, right, notion, params)``."""
    if isinstance(item, dict):
        spec = dict(item)
        try:
            left = spec.pop("left")
            right = spec.pop("right")
        except KeyError as missing:
            raise ValueError(
                f"check #{index} is missing the {missing.args[0]!r} key"
            ) from None
        item_notion = spec.pop("notion", default_notion)
        return left, right, item_notion, spec
    if isinstance(item, (tuple, list)):
        if len(item) == 2:
            return item[0], item[1], default_notion, {}
        if len(item) == 3:
            return item[0], item[1], item[2], {}
    raise ValueError(
        f"check #{index} must be (left, right), (left, right, notion), or a mapping; "
        f"got {type(item).__name__}"
    )


# ----------------------------------------------------------------------
# the shared default engine
# ----------------------------------------------------------------------
_default: Engine | None = None


#: cache bounds of the shared default engine.  The classic free functions now
#: run on this engine, so its bounds govern how much memory the shim path may
#: retain; they are deliberately tighter than the :class:`Engine` defaults
#: (callers that want bigger caches construct their own engine, and
#: :func:`reset_default_engine` drops everything under memory pressure).
DEFAULT_MAX_PROCESSES = 64
DEFAULT_MAX_VERDICTS = 1024


def default_engine() -> Engine:
    """The process-wide shared engine (created on first use)."""
    global _default
    if _default is None:
        _default = Engine(max_processes=DEFAULT_MAX_PROCESSES, max_verdicts=DEFAULT_MAX_VERDICTS)
    return _default


def reset_default_engine() -> None:
    """Replace the shared engine with a fresh one (tests, memory pressure)."""
    global _default
    _default = None


def check(left, right, notion: str | Notion = "observational", **kwargs: Any) -> Verdict:
    """Module-level convenience: :meth:`Engine.check` on the default engine."""
    return default_engine().check(left, right, notion, **kwargs)


def check_many(checks, **kwargs: Any) -> BatchResult:
    """Module-level convenience: :meth:`Engine.check_many` on the default engine."""
    return default_engine().check_many(checks, **kwargs)


def check_expressions(first, second, notion: str | Notion = "strong", **kwargs: Any) -> Verdict:
    """Module-level convenience: :meth:`Engine.check_expressions` on the default engine."""
    return default_engine().check_expressions(first, second, notion, **kwargs)


def check_on_the_fly(left, right, notion: str = "observational", **kwargs: Any) -> Verdict:
    """Module-level convenience: :meth:`Engine.check_on_the_fly` on the default engine."""
    return default_engine().check_on_the_fly(left, right, notion, **kwargs)


def minimize(source, notion: str = "observational", **kwargs: Any) -> FSP:
    """Module-level convenience: :meth:`Engine.minimize` on the default engine."""
    return default_engine().minimize(source, notion, **kwargs)
