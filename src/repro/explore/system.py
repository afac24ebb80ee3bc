"""Composition specs: one description, three routes (lazy, eager, compositional).

A :class:`SystemSpec` is a small AST describing a composed system -- leaves
are processes (eager FSPs or CCS terms), internal nodes are the Section 6
operators (CCS composition, interleaving, synchronous product, restriction,
hiding, relabelling).  One spec value drives all three ways the library can
handle a composed system:

* :func:`build_implicit` -- the *lazy* route: an
  :class:`~repro.explore.implicit.ImplicitLTS` whose states materialise only
  as the on-the-fly checker touches them;
* :func:`compose_eager` -- the *eager* route: the classic
  :mod:`repro.core.composition` constructions, building the full product;
* :func:`minimize_compositionally` -- minimise each component under
  observational equivalence *before* composing, re-minimising after every
  operator.  Observational equivalence is a congruence for all the spec
  operators (parallel composition, restriction, hiding, relabelling -- the
  classic caveat about ``+`` does not arise because choice only occurs
  inside leaves), so the result is observationally equivalent to the eager
  composition while the intermediate products stay small.

Specs also have a JSON document form (:func:`spec_from_document` /
:func:`spec_to_document`) used by the ``explore`` CLI subcommand and by the
service when a manifest requests the lazy path; leaf resolution (files,
inline processes, store digests) is delegated to the caller.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.ccs.parser import parse_definitions, parse_process
from repro.ccs.semantics import compile_to_fsp
from repro.ccs.syntax import Definitions, Process as CCSTerm
from repro.core import composition
from repro.core.errors import InvalidProcessError
from repro.core.fsp import FSP
from repro.equivalence.minimize import minimize_observational
from repro.explore.implicit import CCSAdapter, FSPAdapter, ImplicitLTS
from repro.explore.products import (
    LazyCCSProduct,
    LazyHiding,
    LazyInterleavingProduct,
    LazyRelabeling,
    LazyRestriction,
    LazySynchronousProduct,
)
from repro.partition.generalized import Solver
from repro.utils.serialization import from_dict, to_dict

__all__ = [
    "HideSpec",
    "LeafSpec",
    "ProductSpec",
    "RelabelSpec",
    "RestrictSpec",
    "SystemSpec",
    "TermSpec",
    "build_implicit",
    "compose_eager",
    "minimize_compositionally",
    "spec_from_document",
    "spec_to_document",
]


class SystemSpec:
    """Base class of composition-spec nodes (see the module docstring)."""

    def describe(self) -> str:
        """A compact one-line rendering of the composition shape."""
        raise NotImplementedError


@dataclass(frozen=True)
class LeafSpec(SystemSpec):
    """A component given directly as an eager FSP."""

    fsp: FSP
    label: str = ""

    def describe(self) -> str:
        return self.label or f"<{self.fsp.num_states} states>"


@dataclass
class TermSpec(SystemSpec):
    """A component given as a CCS term, explored by direct SOS derivatives."""

    term: CCSTerm
    definitions: Definitions = field(default_factory=Definitions)
    max_states: int = 10_000

    def describe(self) -> str:
        return str(self.term)


#: eager constructor and default extension mode per product operator.
_PRODUCT_OPS = {
    "ccs": (composition.ccs_composition, "union"),
    "interleave": (composition.interleaving_product, "union"),
    "sync": (composition.synchronous_product, "intersection"),
}

_LAZY_PRODUCTS = {
    "ccs": LazyCCSProduct,
    "interleave": LazyInterleavingProduct,
    "sync": LazySynchronousProduct,
}


@dataclass
class ProductSpec(SystemSpec):
    """A binary product: ``op`` is ``"ccs"``, ``"interleave"`` or ``"sync"``."""

    op: str
    left: SystemSpec
    right: SystemSpec
    extension_mode: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _PRODUCT_OPS:
            raise InvalidProcessError(
                f"unknown product operator {self.op!r}; known: {sorted(_PRODUCT_OPS)}"
            )

    @property
    def mode(self) -> str:
        return self.extension_mode or _PRODUCT_OPS[self.op][1]

    def describe(self) -> str:
        return f"({self.left.describe()} {self.op} {self.right.describe()})"


@dataclass
class RestrictSpec(SystemSpec):
    """CCS restriction of the listed channels (and their co-actions)."""

    of: SystemSpec
    channels: frozenset[str]

    def describe(self) -> str:
        return f"({self.of.describe()} \\ {{{', '.join(sorted(self.channels))}}})"


@dataclass
class HideSpec(SystemSpec):
    """Hiding: the listed channels become tau moves."""

    of: SystemSpec
    channels: frozenset[str]

    def describe(self) -> str:
        return f"hide({self.of.describe()}, {{{', '.join(sorted(self.channels))}}})"


@dataclass
class RelabelSpec(SystemSpec):
    """Relabelling of observable channels (co-actions follow automatically)."""

    of: SystemSpec
    mapping: dict[str, str]

    def describe(self) -> str:
        inner = ", ".join(f"{new}/{old}" for old, new in sorted(self.mapping.items()))
        return f"({self.of.describe()}[{inner}])"


# ----------------------------------------------------------------------
# the three routes
# ----------------------------------------------------------------------
def build_implicit(spec: SystemSpec | FSP | ImplicitLTS) -> ImplicitLTS:
    """The lazy route: an implicit system over the spec, nothing materialised."""
    if isinstance(spec, ImplicitLTS):
        return spec
    if isinstance(spec, FSP):
        return FSPAdapter(spec)
    if isinstance(spec, LeafSpec):
        return FSPAdapter(spec.fsp)
    if isinstance(spec, TermSpec):
        return CCSAdapter(spec.term, spec.definitions, max_states=spec.max_states)
    if isinstance(spec, ProductSpec):
        factory = _LAZY_PRODUCTS[spec.op]
        return factory(build_implicit(spec.left), build_implicit(spec.right), spec.mode)
    if isinstance(spec, RestrictSpec):
        return LazyRestriction(build_implicit(spec.of), spec.channels)
    if isinstance(spec, HideSpec):
        return LazyHiding(build_implicit(spec.of), spec.channels)
    if isinstance(spec, RelabelSpec):
        return LazyRelabeling(build_implicit(spec.of), spec.mapping)
    raise InvalidProcessError(f"not a system spec: {type(spec).__name__}")


def compose_eager(spec: SystemSpec | FSP) -> FSP:
    """The eager route: materialise the full composition bottom-up."""
    if isinstance(spec, FSP):
        return spec
    if isinstance(spec, LeafSpec):
        return spec.fsp
    if isinstance(spec, TermSpec):
        return compile_to_fsp(spec.term, spec.definitions, max_states=spec.max_states)
    if isinstance(spec, ProductSpec):
        build = _PRODUCT_OPS[spec.op][0]
        return build(compose_eager(spec.left), compose_eager(spec.right), spec.mode)
    if isinstance(spec, RestrictSpec):
        return composition.restrict(compose_eager(spec.of), spec.channels)
    if isinstance(spec, HideSpec):
        return composition.hide(compose_eager(spec.of), spec.channels)
    if isinstance(spec, RelabelSpec):
        return composition.relabel(compose_eager(spec.of), spec.mapping)
    raise InvalidProcessError(f"not a system spec: {type(spec).__name__}")


def minimize_compositionally(
    spec: SystemSpec | FSP,
    method: Solver | str = Solver.PAIGE_TARJAN,
    backend: str = "auto",
) -> FSP:
    """Minimise components under observational equivalence *before* composing.

    Every leaf is replaced by its observational quotient and every operator
    application is re-quotiented, so no intermediate ever exceeds (minimised
    component) x (minimised component).  The result is observationally
    equivalent to ``compose_eager(spec)`` -- observational equivalence is a
    congruence for the spec operators -- and is itself minimal.  The
    benchmark harness cross-checks this against the eager
    minimise-after-compose route on every scenario family.

    ``backend`` selects the partition engine per intermediate quotient:
    ``"python"`` or ``"vector"`` force one engine everywhere, while the
    default ``"auto"`` lets
    :func:`~repro.partition.generalized.resolve_backend` route each quotient
    by state count -- intermediates with at least
    :data:`~repro.partition.generalized.VECTOR_STATE_THRESHOLD` states take
    the vectorized kernel when numpy is available, small ones stay on the
    Python solvers.
    """

    def shrink(process: FSP) -> FSP:
        return minimize_observational(process, method=method, backend=backend)

    def reduce(node: SystemSpec | FSP) -> FSP:
        if isinstance(node, (FSP, LeafSpec, TermSpec)):
            return shrink(compose_eager(node))
        if isinstance(node, ProductSpec):
            build = _PRODUCT_OPS[node.op][0]
            product = build(reduce(node.left), reduce(node.right), node.mode)
            return shrink(product)
        if isinstance(node, RestrictSpec):
            return shrink(composition.restrict(reduce(node.of), node.channels))
        if isinstance(node, HideSpec):
            return shrink(composition.hide(reduce(node.of), node.channels))
        if isinstance(node, RelabelSpec):
            return shrink(composition.relabel(reduce(node.of), node.mapping))
        raise InvalidProcessError(f"not a system spec: {type(node).__name__}")

    return reduce(spec)


# ----------------------------------------------------------------------
# JSON documents
# ----------------------------------------------------------------------
def _default_leaf_resolver(document: dict[str, Any]) -> FSP:
    if "process" in document:
        return from_dict(document["process"])
    raise InvalidProcessError(
        "this context resolves only inline {'process': ...} leaves; "
        f"got keys {sorted(document)}"
    )


def spec_from_document(
    document: dict[str, Any],
    resolve_leaf: Callable[[dict[str, Any]], FSP] | None = None,
) -> SystemSpec:
    """Parse a JSON system document into a :class:`SystemSpec`.

    Grammar (one object per node)::

        {"op": "ccs" | "interleave" | "sync",
         "left": <node>, "right": <node>, "extension_mode": "union"?}
        {"op": "restrict" | "hide", "of": <node>, "channels": [...]}
        {"op": "relabel", "of": <node>, "mapping": {"old": "new", ...}}
        {"term": "<ccs term>", "definitions": "<Name := term lines>"?,
         "max_states": 10000?}
        any other object                  -- a process leaf, handed to
                                             ``resolve_leaf``

    ``resolve_leaf`` turns leaf references into FSPs; the CLI resolves
    ``{"file": ...}`` against the document's directory, the service resolves
    ``{"digest": ...}`` against its store, and the default accepts inline
    ``{"process": ...}`` encodings only.
    """
    resolve = resolve_leaf if resolve_leaf is not None else _default_leaf_resolver
    if not isinstance(document, dict):
        raise InvalidProcessError(
            f"a system node must be a JSON object, not {type(document).__name__}"
        )
    if "term" in document:
        definitions = document.get("definitions")
        parsed = (
            parse_definitions(definitions)
            if isinstance(definitions, str) and definitions.strip()
            else Definitions()
        )
        try:
            max_states = int(document.get("max_states", 10_000))
        except (TypeError, ValueError):
            raise InvalidProcessError(
                f"'max_states' must be an integer, got {document.get('max_states')!r}"
            ) from None
        return TermSpec(
            term=parse_process(document["term"]),
            definitions=parsed,
            max_states=max_states,
        )
    op = document.get("op")
    if op is None:
        return LeafSpec(resolve(document), label=str(document.get("label", "")))
    if op in _PRODUCT_OPS:
        for side in ("left", "right"):
            if side not in document:
                raise InvalidProcessError(f"product node {op!r} is missing {side!r}")
        return ProductSpec(
            op=op,
            left=spec_from_document(document["left"], resolve),
            right=spec_from_document(document["right"], resolve),
            extension_mode=document.get("extension_mode"),
        )
    if op in ("restrict", "hide"):
        channels = document.get("channels")
        if not isinstance(channels, list):
            raise InvalidProcessError(f"{op!r} node needs a 'channels' list")
        inner = spec_from_document(_require_of(document, op), resolve)
        cls = RestrictSpec if op == "restrict" else HideSpec
        return cls(of=inner, channels=frozenset(str(c) for c in channels))
    if op == "relabel":
        mapping = document.get("mapping")
        if not isinstance(mapping, dict):
            raise InvalidProcessError("'relabel' node needs a 'mapping' object")
        return RelabelSpec(
            of=spec_from_document(_require_of(document, op), resolve),
            mapping={str(old): str(new) for old, new in mapping.items()},
        )
    raise InvalidProcessError(
        f"unknown system operator {op!r}; known: "
        f"{sorted([*_PRODUCT_OPS, 'restrict', 'hide', 'relabel'])}"
    )


def _require_of(document: dict[str, Any], op: str) -> dict[str, Any]:
    inner = document.get("of")
    if inner is None:
        raise InvalidProcessError(f"{op!r} node is missing 'of'")
    return inner


def spec_to_document(spec: SystemSpec | FSP) -> dict[str, Any]:
    """Render a spec as a JSON document (FSP leaves become inline processes)."""
    if isinstance(spec, FSP):
        return {"process": to_dict(spec)}
    if isinstance(spec, LeafSpec):
        document: dict[str, Any] = {"process": to_dict(spec.fsp)}
        if spec.label:
            document["label"] = spec.label
        return document
    if isinstance(spec, TermSpec):
        document = {"term": str(spec.term), "max_states": spec.max_states}
        if spec.definitions.bindings:
            document["definitions"] = "\n".join(
                f"{name} := {term}" for name, term in sorted(spec.definitions.bindings.items())
            )
        return document
    if isinstance(spec, ProductSpec):
        return {
            "op": spec.op,
            "left": spec_to_document(spec.left),
            "right": spec_to_document(spec.right),
            "extension_mode": spec.mode,
        }
    if isinstance(spec, RestrictSpec):
        return {
            "op": "restrict",
            "of": spec_to_document(spec.of),
            "channels": sorted(spec.channels),
        }
    if isinstance(spec, HideSpec):
        return {"op": "hide", "of": spec_to_document(spec.of), "channels": sorted(spec.channels)}
    if isinstance(spec, RelabelSpec):
        return {"op": "relabel", "of": spec_to_document(spec.of), "mapping": dict(spec.mapping)}
    raise InvalidProcessError(f"not a system spec: {type(spec).__name__}")
