"""The Section 6 operators on processes: products and wrappers, explored lazily.

The paper's closing discussion extends star expressions with the concurrent
operators of CCS, above all composition, whose semantics is a "direct
product of states": the representative process of the whole is a product
of the representative processes of the parts.  This module is the one
state-machine implementation of those operators, independent of the CCS
term language:

* :class:`LazySynchronousProduct` -- both components move together on
  shared actions (the *intersection* operator of Section 6);
* :class:`LazyInterleavingProduct` -- pure asynchronous interleaving;
* :class:`LazyCCSProduct` -- CCS parallel composition: interleaving plus
  synchronisation of complementary actions (``a`` with ``a!``) into tau;
* :class:`LazyRestriction` and :class:`LazyHiding` -- the restriction
  operator and tau-hiding, the two ways of internalising channels;
* :class:`LazyRelabeling` -- action renaming.

Every operator defers its work to successor queries: a product state
``(l, r)`` exists only while somebody holds it, and its moves are computed
from the component moves on demand.  The wrappers compose freely with the
products and with each other, so an entire composition tree stays implicit
end to end; :func:`repro.explore.implicit.materialize` turns one into an
eager :class:`~repro.core.fsp.FSP` over its reachable states (product
states named by :func:`pair_name`).  Extensions of a product state are the
union of the component extensions (so acceptance in the standard model
means "some component accepts"), or their intersection with
``extension_mode="intersection"``, the default of the synchronous product.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.core.actions import channel_closure, co_action
from repro.core.errors import InvalidProcessError
from repro.core.fsp import TAU
from repro.explore.implicit import ImplicitLTS, Move, State, as_implicit

__all__ = [
    "LazyCCSProduct",
    "LazyHiding",
    "LazyInterleavingProduct",
    "LazyRelabeling",
    "LazyRestriction",
    "LazySynchronousProduct",
    "pair_name",
]


def pair_name(left: str, right: str) -> str:
    """The canonical name of a product state, e.g. ``(p|q)``.

    The separator is plain ASCII so that composed processes survive every
    serialisation path (``.aut`` headers, JSON with ``ensure_ascii``, DOT
    labels) without escaping.
    """
    return f"({left}|{right})"


class _LazyProduct(ImplicitLTS):
    """Shared scaffolding of the three binary products.

    Product states are ``(left_state, right_state)`` tuples, named by
    :func:`pair_name`; variables are the union of the components' and
    extension sets combine by ``extension_mode``.
    """

    __slots__ = ("left", "right", "extension_mode")

    def __init__(self, left, right, extension_mode: str) -> None:
        self.left = as_implicit(left)
        self.right = as_implicit(right)
        if extension_mode not in ("union", "intersection"):
            raise InvalidProcessError(f"unknown extension mode {extension_mode!r}")
        self.extension_mode = extension_mode

    def initial(self) -> tuple[State, State]:
        return (self.left.initial(), self.right.initial())

    def extension(self, state: tuple[State, State]) -> frozenset[str]:
        left_ext = self.left.extension(state[0])
        right_ext = self.right.extension(state[1])
        if self.extension_mode == "union":
            return left_ext | right_ext
        return left_ext & right_ext

    def state_name(self, state: tuple[State, State]) -> str:
        return pair_name(self.left.state_name(state[0]), self.right.state_name(state[1]))

    @property
    def variables(self) -> frozenset[str]:
        return self.left.variables | self.right.variables

    def _union_alphabet(self) -> frozenset[str] | None:
        if self.left.alphabet is None or self.right.alphabet is None:
            return None
        return self.left.alphabet | self.right.alphabet

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


class LazySynchronousProduct(_LazyProduct):
    """The fully synchronous (intersection) product, explored lazily.

    Both components must move together on shared observable actions; tau
    moves of either side are local.  With the default extension mode
    ``"intersection"`` and standard components the product accepts exactly
    the intersection of the two languages, the "intersection operator"
    reading of Section 6.  Both components must declare their alphabets --
    the set of shared actions cannot be discovered lazily.
    """

    def __init__(self, left, right, extension_mode: str = "intersection") -> None:
        super().__init__(left, right, extension_mode)
        if self.left.alphabet is None or self.right.alphabet is None:
            raise InvalidProcessError(
                "the synchronous product needs both component alphabets declared"
            )

    @property
    def alphabet(self) -> frozenset[str]:
        return self.left.alphabet & self.right.alphabet

    def successors(self, state: tuple[State, State]) -> Iterator[Move]:
        left_state, right_state = state
        shared = self.alphabet
        right_moves = list(self.right.successors(right_state))
        by_action: dict[str, list[State]] = {}
        for action, target in right_moves:
            by_action.setdefault(action, []).append(target)
        for action, target in self.left.successors(left_state):
            if action == TAU:
                yield TAU, (target, right_state)
            elif action in shared:
                for right_target in by_action.get(action, ()):
                    yield action, (target, right_target)
        for target in by_action.get(TAU, ()):
            yield TAU, (left_state, target)


class LazyInterleavingProduct(_LazyProduct):
    """Pure asynchronous interleaving: either component moves, never both at once."""

    def __init__(self, left, right, extension_mode: str = "union") -> None:
        super().__init__(left, right, extension_mode)

    @property
    def alphabet(self) -> frozenset[str] | None:
        return self._union_alphabet()

    def successors(self, state: tuple[State, State]) -> Iterator[Move]:
        left_state, right_state = state
        for action, target in self.left.successors(left_state):
            yield action, (target, right_state)
        for action, target in self.right.successors(right_state):
            yield action, (left_state, target)


class LazyCCSProduct(_LazyProduct):
    """CCS parallel composition ``left | right``, explored lazily.

    Interleaving of all moves plus a tau move whenever the components can
    perform complementary actions (``a`` with ``a!``) simultaneously: the
    SOS rule of :mod:`repro.ccs.semantics` applied to processes that need
    not come from CCS terms (for example representative FSPs of star
    expressions, the "extended star expressions" of Section 6).
    """

    def __init__(self, left, right, extension_mode: str = "union") -> None:
        super().__init__(left, right, extension_mode)

    @property
    def alphabet(self) -> frozenset[str] | None:
        return self._union_alphabet()

    def successors(self, state: tuple[State, State]) -> Iterator[Move]:
        left_state, right_state = state
        right_moves = list(self.right.successors(right_state))
        by_action: dict[str, list[State]] = {}
        for action, target in right_moves:
            by_action.setdefault(action, []).append(target)
        for action, target in self.left.successors(left_state):
            yield action, (target, right_state)
            if action != TAU:
                for right_target in by_action.get(co_action(action), ()):
                    yield TAU, (target, right_target)
        for action, target in right_moves:
            yield action, (left_state, target)


class _LazyWrapper(ImplicitLTS):
    """Shared scaffolding of the unary operators (states pass through)."""

    __slots__ = ("inner",)

    def __init__(self, inner) -> None:
        self.inner = as_implicit(inner)

    def initial(self) -> State:
        return self.inner.initial()

    def extension(self, state: State) -> frozenset[str]:
        return self.inner.extension(state)

    def state_name(self, state: State) -> str:
        return self.inner.state_name(state)

    @property
    def variables(self) -> frozenset[str]:
        return self.inner.variables

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


class LazyRestriction(_LazyWrapper):
    """CCS restriction ``P \\ L``: moves on the listed channels (and their
    co-actions) are pruned; tau moves pass."""

    __slots__ = ("blocked",)

    def __init__(self, inner, channels) -> None:
        super().__init__(inner)
        self.blocked = channel_closure(channels)

    @property
    def alphabet(self) -> frozenset[str] | None:
        declared = self.inner.alphabet
        return None if declared is None else declared - self.blocked

    def successors(self, state: State) -> Iterator[Move]:
        for action, target in self.inner.successors(state):
            if action == TAU or action not in self.blocked:
                yield action, target


class LazyHiding(_LazyWrapper):
    """Hiding: moves on the listed channels (and their co-actions) become tau
    moves -- the step that produces the tau-rich systems observational
    equivalence is about."""

    __slots__ = ("hidden",)

    def __init__(self, inner, channels) -> None:
        super().__init__(inner)
        self.hidden = channel_closure(channels)

    @property
    def alphabet(self) -> frozenset[str] | None:
        declared = self.inner.alphabet
        return None if declared is None else declared - self.hidden

    def successors(self, state: State) -> Iterator[Move]:
        for action, target in self.inner.successors(state):
            yield (TAU if action in self.hidden else action), target


class LazyRelabeling(_LazyWrapper):
    """Relabelling ``P[f]``: actions not in the mapping keep their name,
    co-actions follow their channel (renaming ``a`` to ``b`` also renames
    ``a!`` to ``b!``) and tau cannot be renamed."""

    __slots__ = ("mapping",)

    def __init__(self, inner, mapping: Mapping[str, str]) -> None:
        super().__init__(inner)
        if TAU in mapping:
            raise InvalidProcessError("tau cannot be relabelled")
        full: dict[str, str] = {}
        for old, new in mapping.items():
            full[old] = new
            full[co_action(old)] = co_action(new)
        self.mapping = full

    def _rename(self, action: str) -> str:
        if action == TAU:
            return action
        return self.mapping.get(action, action)

    @property
    def alphabet(self) -> frozenset[str] | None:
        declared = self.inner.alphabet
        if declared is None:
            return None
        return frozenset(self._rename(action) for action in declared)

    def successors(self, state: State) -> Iterator[Move]:
        for action, target in self.inner.successors(state):
            yield self._rename(action), target
