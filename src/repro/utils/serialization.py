"""Lossless JSON serialisation of finite state processes, plus file dispatch.

Unlike the Aldebaran format (:mod:`repro.utils.aut_format`) the JSON encoding
preserves every component of Definition 2.1.1: state names, the start state,
the alphabet, the full variable set and the extension relation.  The format is
a plain dictionary so it can be embedded in larger experiment-description
files.

:func:`load_process_file` / :func:`save_process_file` dispatch on the file
extension across every on-disk format the library speaks (JSON, Aldebaran
``.aut``, Graphviz ``.dot``); unknown extensions are rejected with an error
that lists the supported formats instead of being silently parsed as JSON.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any

from repro.core.errors import InvalidProcessError
from repro.core.fsp import FSP, TAU
from repro.core.lts import _intern

#: Version tag embedded in serialised documents so future format changes can
#: remain backward compatible.
FORMAT_VERSION = 1


def to_dict(fsp: FSP) -> dict[str, Any]:
    """Encode an FSP as a JSON-compatible dictionary."""
    return {
        "format": "repro-fsp",
        "version": FORMAT_VERSION,
        "states": sorted(fsp.states),
        "start": fsp.start,
        "alphabet": sorted(fsp.alphabet),
        "variables": sorted(fsp.variables),
        "transitions": sorted([list(t) for t in fsp.transitions]),
        "extensions": sorted([list(e) for e in fsp.extensions]),
    }


def from_dict(document: dict[str, Any]) -> FSP:
    """Decode an FSP from a dictionary produced by :func:`to_dict`.

    The wire lists are checked against Definition 2.1.1 while they are
    interned into the CSR kernel, through the routine
    :meth:`~repro.core.lts.LTS.from_fsp` uses, and the returned FSP carries
    that kernel, so the engine does not intern it again.  A document the
    fast path cannot look up or check -- a name that is not a non-empty
    string or is missing from its table, an empty state set, tau in the
    alphabet, variables that meet the actions -- goes to the validating
    :class:`~repro.core.fsp.FSP` constructor instead, so every error and
    every ``str()`` coercion is the constructor's.
    """
    if document.get("format") != "repro-fsp":
        raise InvalidProcessError("document is not a serialised FSP")
    if int(document.get("version", 0)) > FORMAT_VERSION:
        raise InvalidProcessError(
            f"document version {document.get('version')} is newer than supported {FORMAT_VERSION}"
        )
    states, start = document["states"], document["start"]
    alphabet = document.get("alphabet", [])
    transitions = document.get("transitions", [])
    variables = document.get("variables", ["x"])
    extensions = document.get("extensions", [])
    try:
        return _decode(states, start, alphabet, transitions, variables, extensions)
    except (KeyError, TypeError, ValueError):
        pass
    return FSP(
        states=states,
        start=start,
        alphabet=alphabet,
        transitions=[tuple(t) for t in transitions],
        variables=variables,
        extensions=[tuple(e) for e in extensions],
    )


def _names(values: frozenset[Any]) -> bool:
    """Whether every member is a non-empty ``str``."""
    return "" not in values and set(map(type, values)) <= {str}


def _decode(
    states: Any, start: Any, alphabet: Any, transitions: Any, variables: Any, extensions: Any
) -> FSP:
    """The checked FSP of a document's fields, with its kernel, or an exception to fall back on.

    The sets are built as the constructor builds them.  A failed lookup in
    the intern raises :class:`KeyError`, a malformed field
    :class:`TypeError` or :class:`ValueError`, and a check that fails here
    raises :class:`ValueError`; none of these messages reaches the caller.
    """
    state_set = frozenset(states)
    alphabet_set = frozenset(alphabet) if alphabet else frozenset()
    variable_set = frozenset(variables) if variables else frozenset()
    if not (state_set and _names(state_set) and _names(alphabet_set) and _names(variable_set)):
        raise ValueError("names")
    if TAU in alphabet_set or TAU in variable_set or not variable_set.isdisjoint(alphabet_set):
        raise ValueError("tables")
    arcs = frozenset(map(tuple, transitions))
    pairs = frozenset(map(tuple, extensions))
    # Lists without repeats are interned in their own order: a document
    # from to_dict lists states and arcs sorted, so the intern's sorts find
    # one run.
    kernel = _intern(
        states if len(states) == len(state_set) else state_set,
        start,
        alphabet_set,
        transitions if len(transitions) == len(arcs) else arcs,
        variable_set,
        pairs,
    )
    return FSP._adopt(state_set, start, alphabet_set, arcs, variable_set, pairs, kernel)


def canonical_bytes(fsp: FSP) -> bytes:
    """The canonical byte encoding an FSP is digested over.

    Built from :func:`to_dict` -- which sorts the state set, alphabet,
    variables, transitions and extensions -- rendered as minimal-separator
    JSON with sorted keys, so two structurally equal FSPs (however their
    components were ordered at construction) produce identical bytes.
    """
    return json.dumps(to_dict(fsp), sort_keys=True, separators=(",", ":")).encode("utf-8")


def content_digest(fsp: FSP) -> str:
    """The content address of an FSP: ``sha256:<hex>`` over :func:`canonical_bytes`.

    Structurally equal processes share one digest regardless of the order
    their states/transitions were supplied in; any semantic difference (a
    state, arc, extension, start or alphabet change) produces a new digest.
    This is the key of :class:`repro.service.store.ProcessStore` and the
    shard-routing hash of :class:`repro.service.shards.ShardPool`.
    """
    return "sha256:" + hashlib.sha256(canonical_bytes(fsp)).hexdigest()


def dumps(fsp: FSP, indent: int | None = 2) -> str:
    """Serialise an FSP to a JSON string."""
    return json.dumps(to_dict(fsp), indent=indent, ensure_ascii=False)


def loads(text: str) -> FSP:
    """Deserialise an FSP from a JSON string."""
    return from_dict(json.loads(text))


def dump(fsp: FSP, path: str | Path) -> None:
    """Write an FSP to ``path`` as JSON."""
    Path(path).write_text(dumps(fsp), encoding="utf-8")


def load(path: str | Path) -> FSP:
    """Read an FSP from a JSON file."""
    return loads(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# extension-dispatched process files
# ----------------------------------------------------------------------
#: extension -> human-readable description, for the formats processes can be
#: *read* from / *written* to.  ``.dot`` is rendering-only: Graphviz output
#: drops the extension relation, so reading it back would be lossy.
LOADABLE_FORMATS = {
    ".json": "repro JSON (lossless)",
    ".aut": "Aldebaran .aut (accepting states via the ACCEPTING label)",
}
SAVABLE_FORMATS = {
    **LOADABLE_FORMATS,
    ".dot": "Graphviz DOT (write-only rendering)",
}

#: The self-loop label used to round-trip acceptance through ``.aut`` files
#: (the format itself has no accepting states).  Plain ``.aut`` files without
#: the marker load as restricted processes (every state accepting), the
#: conventional reading of LTS interchange files.
AUT_ACCEPTING_LABEL = "ACCEPTING"

_AUT_ACCEPTING_RE = re.compile(r',\s*"?' + AUT_ACCEPTING_LABEL + r'"?\s*,')


def _aut_has_accepting_marker(text: str) -> bool:
    return _AUT_ACCEPTING_RE.search(text) is not None


def _supported(formats: dict[str, str]) -> str:
    return "; ".join(f"{ext} = {what}" for ext, what in sorted(formats.items()))


def load_process_file(path: str | Path) -> FSP:
    """Load a process from a file, dispatching on its extension.

    Raises
    ------
    InvalidProcessError
        If the extension is not a loadable process format (unknown
        extensions are *not* guessed to be JSON).
    """
    from repro.utils import aut_format

    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return load(path)
    if suffix == ".aut":
        text = path.read_text(encoding="utf-8")
        if _aut_has_accepting_marker(text):
            return aut_format.loads(text, accepting_label=AUT_ACCEPTING_LABEL)
        return aut_format.loads(text, all_accepting=True)
    if suffix == ".dot":
        raise InvalidProcessError(
            f"cannot load {path}: .dot is a write-only rendering format; "
            f"loadable formats: {_supported(LOADABLE_FORMATS)}"
        )
    raise InvalidProcessError(
        f"cannot load {path}: unsupported extension {suffix or '(none)'!r}; "
        f"loadable formats: {_supported(LOADABLE_FORMATS)}"
    )


def save_process_file(fsp: FSP, path: str | Path) -> None:
    """Write a process to a file, dispatching on its extension.

    Raises
    ------
    InvalidProcessError
        If the extension is not a supported output format.
    """
    from repro.utils import aut_format, dot

    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        dump(fsp, path)
    elif suffix == ".aut":
        aut_format.dump(fsp, path, accepting_label=AUT_ACCEPTING_LABEL)
    elif suffix == ".dot":
        dot.write_dot(fsp, path)
    else:
        raise InvalidProcessError(
            f"cannot write {path}: unsupported extension {suffix or '(none)'!r}; "
            f"supported formats: {_supported(SAVABLE_FORMATS)}"
        )
