"""The service wire protocol: newline-delimited JSON frames over a socket.

One request or response per line, UTF-8, terminated by ``\\n`` (documented in
``docs/service-protocol.md``).  A request is::

    {"id": <scalar>, "op": <operation name>, "params": {...}}

and every request gets exactly one response, either::

    {"id": <echoed>, "ok": true, "result": {...}}
    {"id": <echoed>, "ok": false, "error": {"code": "...", "message": "..."}}

``id`` is chosen by the client (any JSON scalar) and echoed verbatim so
pipelined requests can be matched to their responses; requests on one
connection are answered in order.  Frames larger than
:data:`MAX_FRAME_BYTES` are rejected -- the bound exists so a client cannot
make the server buffer unbounded garbage, and it is far above any realistic
process upload.

Processes inside ``params`` are *references*: either an inline serialised
FSP (``{"process": {...}}``, the :func:`repro.utils.serialization.to_dict`
encoding) or a content address into the server's store
(``{"digest": "sha256:..."}``) obtained from a prior ``store`` request.
A check operand may also be a *composed system*
(``{"system": {...}}``, the :func:`repro.explore.spec_from_document`
grammar, with leaves that are themselves process references) -- composed
operands run through the on-the-fly route of :mod:`repro.explore` unless the
check sets ``on_the_fly`` to false, so the server never materialises the
product.

This module is shared by the server, the client and the protocol tests, so
framing and error vocabulary live in exactly one place.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.fsp import FSP
from repro.utils.serialization import from_dict, to_dict

#: Upper bound on one frame (request or response line), in bytes.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Default TCP port of the service (no IANA meaning; memorable: PODC'83).
#: Lives here -- not in :mod:`repro.service.server` -- so the CLI parser can
#: show it without importing the asyncio/multiprocessing stack.
DEFAULT_PORT = 8319

#: The operations the server understands (``docs/service-protocol.md``).
OPERATIONS = ("ping", "store", "check", "check_many", "minimize", "classify", "stats", "metrics")

# -- error codes -------------------------------------------------------
#: request line was not valid JSON, not an object, or missing/over-long.
BAD_REQUEST = "bad_request"
#: ``op`` is not one of :data:`OPERATIONS`.
UNKNOWN_OP = "unknown_op"
#: an inline process violates Definition 2.1.1 or is malformed.
INVALID_PROCESS = "invalid_process"
#: a ``digest`` reference names nothing in the server's store.
UNKNOWN_DIGEST = "unknown_digest"
#: the check itself was rejected (unknown notion, bad parameter, signature
#: mismatch, state-space bound exceeded).
CHECK_FAILED = "check_failed"
#: the request's deadline passed before (or while) the worker served it.
DEADLINE_EXCEEDED = "deadline_exceeded"
#: the server is shedding load: a shard queue is full or the client has
#: outrun its token-bucket quota (``error.data.retry_after_ms`` hints when
#: to try again).
OVERLOADED = "overloaded"
#: unexpected server-side failure (a bug; the message carries the repr).
INTERNAL = "internal"

ERROR_CODES = (
    BAD_REQUEST,
    UNKNOWN_OP,
    INVALID_PROCESS,
    UNKNOWN_DIGEST,
    CHECK_FAILED,
    DEADLINE_EXCEEDED,
    OVERLOADED,
    INTERNAL,
)


class ProtocolError(Exception):
    """A malformed frame (bad JSON, wrong shape, over-long line)."""


class ServiceError(Exception):
    """A structured error response, as raised client-side.

    ``code`` is one of :data:`ERROR_CODES`; ``message`` is human-readable;
    ``data`` carries optional machine-readable context (e.g. the
    ``retry_after_ms`` backpressure hint on :data:`OVERLOADED`).
    """

    def __init__(self, code: str, message: str, data: dict[str, Any] | None = None) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.data = data

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the joined string)
        # into the three-parameter __init__; shard workers raise these across
        # the process boundary, so spell the constructor call out.
        return (ServiceError, (self.code, self.message, self.data))


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(document: dict[str, Any]) -> bytes:
    """One wire frame: minimal-separator JSON plus the terminating newline."""
    return json.dumps(document, separators=(",", ":"), ensure_ascii=False).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one received line into a JSON object.

    Raises
    ------
    ProtocolError
        If the line exceeds :data:`MAX_FRAME_BYTES`, is not valid JSON, or
        is not a JSON object.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES} byte limit")
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ProtocolError(f"frame must be a JSON object, not {type(document).__name__}")
    return document


# ----------------------------------------------------------------------
# requests and responses
# ----------------------------------------------------------------------
def request_frame(request_id: Any, op: str, params: dict[str, Any] | None = None) -> bytes:
    """Encode one request line."""
    return encode_frame({"id": request_id, "op": op, "params": params or {}})


def ok_response(request_id: Any, result: dict[str, Any]) -> bytes:
    """Encode one success response line."""
    return encode_frame({"id": request_id, "ok": True, "result": result})


def error_object(code: str, message: str, data: dict[str, Any] | None = None) -> dict[str, Any]:
    """The ``error`` member of a failed answer (``data`` only when non-empty).

    One shape everywhere an error is reported: NDJSON responses, HTTP
    envelopes and the inline slots of a ``check_many`` result.
    """
    error: dict[str, Any] = {"code": code, "message": message}
    if data:
        error["data"] = data
    return error


def error_response(
    request_id: Any, code: str, message: str, data: dict[str, Any] | None = None
) -> bytes:
    """Encode one error response line (``data`` is optional extra context)."""
    return encode_frame({"id": request_id, "ok": False, "error": error_object(code, message, data)})


def parse_request(line: bytes) -> tuple[Any, str, dict[str, Any]]:
    """Validate a request line into ``(id, op, params)``.

    Raises
    ------
    ProtocolError
        On framing problems (the caller cannot even echo an id).
    ServiceError
        With :data:`BAD_REQUEST` / :data:`UNKNOWN_OP` when the frame is
        well-formed JSON but not a valid request.
    """
    document = decode_frame(line)
    op, params = validate_request(document)
    return document.get("id"), op, params


def validate_request(document: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """The ``(op, params)`` of an already-decoded request object.

    Split from :func:`parse_request` so the server can extract the request
    id from the frame *before* validation -- an error response echoes the id
    even when the op is unknown.
    """
    op = document.get("op")
    if not isinstance(op, str):
        raise ServiceError(BAD_REQUEST, "request must carry a string 'op' field")
    if op not in OPERATIONS:
        raise ServiceError(UNKNOWN_OP, f"unknown op {op!r}; supported: {', '.join(OPERATIONS)}")
    params = document.get("params", {})
    if not isinstance(params, dict):
        raise ServiceError(BAD_REQUEST, "'params' must be a JSON object when present")
    return op, params


def parse_response(line: bytes) -> tuple[Any, dict[str, Any]]:
    """Validate a response line into ``(id, result)``.

    Raises
    ------
    ProtocolError
        On framing problems.
    ServiceError
        Re-raised from an ``ok: false`` response, carrying its code.
    """
    document = decode_frame(line)
    return document.get("id"), response_result(document)


def response_result(document: dict[str, Any]) -> dict[str, Any]:
    """The ``result`` of a decoded ``{"ok": ...}`` answer (NDJSON or HTTP).

    Raises
    ------
    ProtocolError
        If the answer is neither a success nor a structured error.
    ServiceError
        Re-raised from an ``ok: false`` answer, carrying its code.
    """
    if document.get("ok") is True:
        result = document.get("result")
        if not isinstance(result, dict):
            raise ProtocolError("success response must carry a 'result' object")
        return result
    error = document.get("error")
    if not isinstance(error, dict):
        raise ProtocolError("response is neither ok nor carries an 'error' object")
    data = error.get("data")
    raise ServiceError(
        str(error.get("code", INTERNAL)),
        str(error.get("message", "unspecified error")),
        data if isinstance(data, dict) else None,
    )


# ----------------------------------------------------------------------
# process references
# ----------------------------------------------------------------------
def process_ref(source) -> dict[str, Any]:
    """Encode a process reference for a request.

    An :class:`FSP` is inlined (``{"process": {...}}``); a ``sha256:...``
    string becomes a digest reference; a
    :class:`~repro.explore.system.SystemSpec` becomes a composed-system
    reference (``{"system": {...}}``); a dict that already *is* a reference
    (has a ``digest``, ``process``, ``system`` or ``scenario`` key, the wire
    shapes of ``docs/service-protocol.md``) passes through unchanged, and any
    other dict is assumed to be a serialised FSP and is inlined.
    """
    if isinstance(source, FSP):
        return {"process": to_dict(source)}
    if isinstance(source, str):
        if not source.startswith("sha256:"):
            raise ValueError(f"digest references must start with 'sha256:', got {source!r}")
        return {"digest": source}
    if isinstance(source, dict):
        if (
            "digest" in source
            or "process" in source
            or "system" in source
            or "scenario" in source
        ):
            return source
        return {"process": source}
    from repro.explore.system import SystemSpec, spec_to_document

    if isinstance(source, SystemSpec):
        return {"system": spec_to_document(source)}
    raise TypeError(f"cannot encode a process reference from {type(source).__name__}")


def process_param(params: dict[str, Any], op: str) -> Any:
    """The ``process`` reference of a ``store``/``minimize``/``classify`` request.

    Raises
    ------
    ServiceError
        :data:`BAD_REQUEST` when the request carries none.
    """
    ref = params.get("process")
    if ref is None:
        raise ServiceError(BAD_REQUEST, f"{op} needs a 'process' reference")
    return ref


def resolve_operand(ref: Any, store=None):
    """Decode a check operand: an FSP, or a composed-system spec.

    ``{"system": {...}}`` references parse into a
    :class:`~repro.explore.system.SystemSpec` whose leaves resolve through
    :func:`resolve_ref` (inline processes and, given a ``store``, digests);
    ``{"scenario": {...}}`` references build a protocol-library scenario
    system (:func:`repro.protocols.system_from_document`); everything else
    behaves exactly like :func:`resolve_ref`.
    """
    if isinstance(ref, dict) and "scenario" in ref:
        from repro.core.errors import ReproError
        from repro.protocols import system_from_document

        try:
            return system_from_document(ref["scenario"])
        except ReproError as error:
            raise ServiceError(
                INVALID_PROCESS, f"scenario reference rejected: {error}"
            ) from None
    if isinstance(ref, dict) and "system" in ref:
        # ReproError covers the whole parse surface: malformed documents
        # (InvalidProcessError) and unparsable {"term": ...} leaves
        # (ExpressionError) are both client input errors, not server bugs.
        from repro.core.errors import ReproError
        from repro.explore.system import spec_from_document

        try:
            return spec_from_document(ref["system"], lambda leaf: resolve_ref(leaf, store))
        except ServiceError:
            raise  # a leaf's digest/process error keeps its own code
        except ReproError as error:
            raise ServiceError(INVALID_PROCESS, f"system reference rejected: {error}") from None
    return resolve_ref(ref, store)


def resolve_ref(ref: Any, store=None) -> FSP:
    """Decode a process reference received in a request.

    ``store`` (anything with a ``get(digest) -> FSP``) resolves digest
    references; without one, digest references are rejected.

    Raises
    ------
    ServiceError
        :data:`INVALID_PROCESS` for malformed inline processes,
        :data:`UNKNOWN_DIGEST` for unresolvable digests.
    """
    if not isinstance(ref, dict):
        raise ServiceError(
            INVALID_PROCESS,
            f"a process reference must be an object with 'process' or 'digest', "
            f"not {type(ref).__name__}",
        )
    if "process" in ref:
        try:
            return from_dict(ref["process"])
        except Exception as error:  # InvalidProcessError, KeyError, TypeError
            raise ServiceError(INVALID_PROCESS, f"inline process rejected: {error}") from None
    if "digest" in ref:
        digest = ref["digest"]
        if store is None:
            raise ServiceError(UNKNOWN_DIGEST, "this endpoint has no process store")
        try:
            return store.get(digest)
        except KeyError:
            raise ServiceError(
                UNKNOWN_DIGEST, f"no stored process with digest {digest!r}"
            ) from None
    raise ServiceError(INVALID_PROCESS, "a process reference needs a 'process' or 'digest' key")
