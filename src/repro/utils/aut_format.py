"""Aldebaran (``.aut``) import/export.

The Aldebaran format is the lingua franca of LTS tooling (CADP, mCRL2,
ltsmin).  A file consists of a header::

    des (<initial-state>, <number-of-transitions>, <number-of-states>)

followed by one line per transition::

    (<from>, "<label>", <to>)

States are non-negative integers.  The format has no notion of accepting
states or extensions, so exporting a non-restricted process is lossy unless
``accepting_label`` is used: when set, an extra self-loop transition with that
label is emitted on every accepting state and recognised again on import.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.errors import InvalidProcessError
from repro.core.fsp import FSP, TAU, FSPBuilder

#: Label conventionally used for the unobservable action in .aut files.
AUT_TAU_LABELS = frozenset({"tau", "i", "TAU"})

_TRANSITION_RE = re.compile(r'^\(\s*(\d+)\s*,\s*"?([^"]*?)"?\s*,\s*(\d+)\s*\)$')
_HEADER_RE = re.compile(r"^des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)$")


def dumps(fsp: FSP, accepting_label: str | None = None) -> str:
    """Serialise an FSP to the Aldebaran format.

    Parameters
    ----------
    fsp:
        The process to serialise.  State names are mapped to integers in
        sorted order with the start state first.
    accepting_label:
        When given, every accepting state receives a self-loop with this label
        so that acceptance information survives the round-trip.
    """
    ordered = [fsp.start] + sorted(fsp.states - {fsp.start})
    index = {state: i for i, state in enumerate(ordered)}
    lines = []
    for src, action, dst in sorted(fsp.transitions):
        label = "tau" if action == TAU else action
        lines.append(f'({index[src]}, "{label}", {index[dst]})')
    if accepting_label is not None:
        for state in sorted(fsp.accepting_states()):
            lines.append(f'({index[state]}, "{accepting_label}", {index[state]})')
    header = f"des (0, {len(lines)}, {len(ordered)})"
    return "\n".join([header, *lines]) + "\n"


def loads(text: str, accepting_label: str | None = None, all_accepting: bool = False) -> FSP:
    """Parse an Aldebaran file into an FSP.

    Parameters
    ----------
    text:
        The file contents.
    accepting_label:
        When given, self-loops with this label are interpreted as acceptance
        markers rather than transitions (the inverse of :func:`dumps`).
    all_accepting:
        Mark every state accepting (yielding a restricted process); useful
        when importing plain LTSs that carry no acceptance information.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise InvalidProcessError("empty .aut document")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise InvalidProcessError(f"malformed .aut header: {lines[0]!r}")
    initial, declared_transitions, declared_states = (int(g) for g in header.groups())
    builder = FSPBuilder()
    accepting: set[str] = set()
    seen_transitions = 0
    for line in lines[1:]:
        match = _TRANSITION_RE.match(line)
        if match is None:
            raise InvalidProcessError(f"malformed .aut transition: {line!r}")
        src, label, dst = match.group(1), match.group(2), match.group(3)
        seen_transitions += 1
        if accepting_label is not None and label == accepting_label and src == dst:
            accepting.add(src)
            builder.add_state(src)
            continue
        action = TAU if label in AUT_TAU_LABELS else label
        builder.add_transition(src, action, dst)
    if seen_transitions != declared_transitions:
        raise InvalidProcessError(
            f".aut header declares {declared_transitions} transitions, found {seen_transitions}"
        )
    for idx in range(declared_states):
        builder.add_state(str(idx))
    if all_accepting:
        builder.mark_all_accepting()
    else:
        builder.mark_accepting(*accepting)
    return builder.build(start=str(initial))


def dump(fsp: FSP, path: str | Path, accepting_label: str | None = None) -> None:
    """Write an FSP to ``path`` in Aldebaran format."""
    Path(path).write_text(dumps(fsp, accepting_label=accepting_label), encoding="utf-8")


def load(path: str | Path, accepting_label: str | None = None, all_accepting: bool = False) -> FSP:
    """Read an FSP from an Aldebaran file."""
    return loads(
        Path(path).read_text(encoding="utf-8"),
        accepting_label=accepting_label,
        all_accepting=all_accepting,
    )
