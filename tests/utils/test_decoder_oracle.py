"""Differential oracle for the decoder's fast path.

:func:`repro.utils.serialization.from_dict` checks a wire document while it
interns it into the CSR kernel, and hands anything it cannot look up or
check to the validating :class:`~repro.core.fsp.FSP` constructor.  A bug
there is a process the constructor would reject, or one that differs from
the constructor's.  So for ``to_dict`` documents of random mixed FSPs and
malformed mutations of them:

* ``from_dict`` raises exactly when the constructor raises on the same
  fields, with the same exception type and message;
* otherwise the two FSPs are equal, hash alike and pickle to the same
  bytes (the decoded kernel is never pickled);
* the decoded FSP's kernel is byte for byte ``LTS.from_fsp`` of the
  constructor's FSP, and a well-formed document takes the fast path.

``REDUCTION_ORACLE_EXAMPLES`` scales the hypothesis example budget (the CI
nightly lane raises it).
"""

from __future__ import annotations

import os
import pickle
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fsp import EPSILON, FSP, TAU
from repro.core.lts import LTS
from repro.utils.serialization import from_dict, to_dict
from tests.property.strategies import mixed_fsp_strategy

MAX_EXAMPLES = int(os.environ.get("REDUCTION_ORACLE_EXAMPLES", "25"))
ORACLE_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Mutations after which the document is still well formed and exactly
#: representable, so the decoder must not fall back.
FAST = frozenset({"none", "duplicate arc", "duplicate state", "epsilon in alphabet"})


def _replace_in_arc(doc: dict, draw, column: int, value: Any) -> None:
    arcs = doc["transitions"]
    if arcs:
        index = draw(st.integers(0, len(arcs) - 1))
        arcs[index] = [value if i == column else part for i, part in enumerate(arcs[index])]
    else:
        arcs.append([value if i == column else doc["start"] for i in range(3)])


def _replace_in_extension(doc: dict, draw, column: int, value: Any) -> None:
    pairs = doc["extensions"]
    if pairs:
        index = draw(st.integers(0, len(pairs) - 1))
        pairs[index] = [value if i == column else part for i, part in enumerate(pairs[index])]
    else:
        pairs.append([doc["start"], "x"][:column] + [value] + [doc["start"], "x"][column + 1 :])


MUTATIONS = (
    "none",
    "unknown source",
    "unknown target",
    "unknown action",
    "unknown extension state",
    "unknown variable",
    "tau in alphabet",
    "epsilon in alphabet",
    "empty state name",
    "non-string state",
    "non-string action",
    "non-string variable",
    "empty action name",
    "int name made valid by str",
    "int start made valid by str",
    "start outside the states",
    "missing start",
    "missing states",
    "no states",
    "duplicate arc",
    "duplicate state",
    "variable meets the alphabet",
    "missing alphabet",
    "missing variables",
    "short arc",
)


@st.composite
def wire_document(draw, mutation: str) -> dict:
    """A ``to_dict`` document of a mixed FSP, mutated as ``mutation`` says."""
    doc = to_dict(draw(mixed_fsp_strategy()))
    if mutation == "unknown source":
        _replace_in_arc(doc, draw, 0, "nowhere")
    elif mutation == "unknown target":
        _replace_in_arc(doc, draw, 2, "nowhere")
    elif mutation == "unknown action":
        _replace_in_arc(doc, draw, 1, "zz")
    elif mutation == "unknown extension state":
        _replace_in_extension(doc, draw, 0, "nowhere")
    elif mutation == "unknown variable":
        _replace_in_extension(doc, draw, 1, "w")
    elif mutation == "tau in alphabet":
        doc["alphabet"].append(TAU)
    elif mutation == "epsilon in alphabet":
        doc["alphabet"].append(EPSILON)
    elif mutation == "empty state name":
        doc["states"].append("")
    elif mutation == "non-string state":
        doc["states"].append(7)
    elif mutation == "non-string action":
        doc["alphabet"].append(draw(st.sampled_from((7, None, 1.5))))
    elif mutation == "non-string variable":
        doc["variables"] = doc["variables"] + [draw(st.sampled_from((7, True)))]
    elif mutation == "empty action name":
        doc["alphabet"].append("")
    elif mutation == "int name made valid by str":
        doc["states"].append("7")
        _replace_in_arc(doc, draw, draw(st.sampled_from((0, 2))), 7)
    elif mutation == "int start made valid by str":
        doc["states"].append("7")
        doc["start"] = 7
    elif mutation == "start outside the states":
        doc["start"] = "nowhere"
    elif mutation == "missing start":
        del doc["start"]
    elif mutation == "missing states":
        del doc["states"]
    elif mutation == "no states":
        doc["states"] = []
    elif mutation == "duplicate arc" and doc["transitions"]:
        doc["transitions"].append(list(draw(st.sampled_from(doc["transitions"]))))
    elif mutation == "duplicate state":
        doc["states"].append(draw(st.sampled_from(doc["states"])))
    elif mutation == "variable meets the alphabet":
        doc["variables"] = doc["variables"] + [draw(st.sampled_from(("a", TAU)))]
    elif mutation == "missing alphabet":
        del doc["alphabet"]
    elif mutation == "missing variables":
        del doc["variables"]
    elif mutation == "short arc" and doc["transitions"]:
        doc["transitions"][0] = doc["transitions"][0][:2]
    return doc


def constructor_fields(doc: dict) -> dict[str, Any]:
    """The constructor's arguments for a document, read as the decoder reads it."""
    return {
        "states": doc["states"],
        "start": doc["start"],
        "alphabet": doc.get("alphabet", []),
        "transitions": [tuple(t) for t in doc.get("transitions", [])],
        "variables": doc.get("variables", ["x"]),
        "extensions": [tuple(e) for e in doc.get("extensions", [])],
    }


def _outcome(function, *args) -> tuple[Any, Exception | None]:
    try:
        return function(*args), None
    except Exception as error:  # the type and message are compared
        return None, error


def assert_same_kernel(got: LTS, want: LTS) -> None:
    for column in ("fwd_offsets", "fwd_actions", "fwd_targets"):
        a, b = getattr(got, column), getattr(want, column)
        assert (a.typecode, a.tobytes()) == (b.typecode, b.tobytes()), column
    for field in (
        "n",
        "num_actions",
        "state_names",
        "action_names",
        "start",
        "ext_sets",
        "variables",
        "observable_alphabet",
    ):
        assert getattr(got, field) == getattr(want, field), field


@ORACLE_SETTINGS
@given(data=st.data())
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_the_decoder_answers_like_the_constructor(mutation, data):
    doc = data.draw(wire_document(mutation))
    built, expected = _outcome(lambda: FSP(**constructor_fields(doc)))
    decoded, raised = _outcome(from_dict, doc)
    if expected is not None:
        assert raised is not None
        assert (type(raised), str(raised)) == (type(expected), str(expected))
        return
    assert raised is None, raised
    assert decoded == built and hash(decoded) == hash(built)
    assert pickle.dumps(decoded) == pickle.dumps(built)
    assert_same_kernel(LTS.from_fsp(decoded), LTS.from_fsp(built))
    if mutation in FAST:
        assert decoded._kernel is not None
        assert LTS.from_fsp(decoded) is decoded._kernel


def test_an_int_name_is_coerced_like_the_constructor_does():
    doc = to_dict(FSP(["1", "2"], "1", ["a"], [("1", "a", "2")]))
    doc["transitions"] = [[1, "a", 2]]
    doc["start"] = 1
    decoded = from_dict(doc)
    assert decoded == FSP(**constructor_fields(doc))
    assert decoded.start == "1" and decoded.transitions == {("1", "a", "2")}


def test_a_decoded_kernel_drops_tau_only_on_request():
    doc = to_dict(FSP(["p", "q"], "p", ["a"], [("p", TAU, "q"), ("q", "a", "p")]))
    decoded = from_dict(doc)
    observable = LTS.from_fsp(decoded, include_tau=False)
    assert observable is not decoded._kernel
    assert TAU not in observable.action_names and observable.num_transitions == 1
    assert_same_kernel(observable, LTS.from_fsp(FSP(**constructor_fields(doc)), False))
