"""The provenance service wire protocol: newline-delimited JSON.

One request object per line, one response object per line — the lowest
common denominator that every language, ``netcat``, and a shell pipe can
speak, and the same framing whether the transport is a TCP socket or the
daemon's stdin/stdout. The full field-by-field reference with worked
examples lives in ``docs/SERVICE.md``; this module is the single source
of truth for the envelope shapes.

Requests
--------

Every request is a JSON object with an ``op`` (one of :data:`OPS`) and an
optional ``id`` the server echoes back, so clients can pipeline requests
and match responses out of order. Session-addressed operations carry
either a ``session`` content digest (from a previous response) or inline
``program`` / ``database`` Datalog texts (plus optional ``answer``),
which admit-or-reuse the session on the spot.

Responses
---------

Success::

    {"id": 7, "ok": true, "op": "why",
     "session": "6b3f…", "version": 2, "result": {…}}

``session`` / ``version`` appear on every session-addressed response:
``version`` is the session's update counter *at the time the request was
served* (read under the per-session lock), so a client interleaving
``update`` and read requests can tell exactly which database state each
answer reflects.

Failure::

    {"id": 7, "ok": false,
     "error": {"code": "unknown-session", "message": "…"}}

with ``code`` one of :data:`ERROR_CODES`.

Values on the wire
------------------

Answer tuples are JSON arrays of constants (strings and integers — the
two constant types the Datalog parser produces, both JSON-native).
Witnesses (members of ``whyUN``) are arrays of ``"fact."`` strings,
each member sorted internally; the *member list* keeps the solver's
discovery order, which is part of the byte-identity contract with
in-process sessions.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

#: Bumped on any incompatible envelope change; served by ``ping``/``stats``.
PROTOCOL_VERSION = 1

#: Every operation the daemon understands.
OPS = (
    "answers",
    "batch",
    "decide",
    "minimal",
    "open",
    "ping",
    "shutdown",
    "smallest",
    "stats",
    "update",
    "why",
)

#: Machine-readable failure codes. ``parse-error`` is a malformed request
#: line (not valid JSON), ``program-error`` a Datalog text that does not
#: parse, ``bad-request`` a structurally valid request with bad fields,
#: ``unknown-session`` a digest the registry no longer holds (evicted or
#: never admitted — re-send the texts to re-admit), ``worker-failure`` a
#: sharded daemon's worker process dying while this request was on it
#: (the supervisor restarts the worker; idempotent requests are retried
#: transparently, so clients normally only see this for an ``update``
#: whose commit status is unknowable), ``connection-closed`` is raised
#: client-side when the server goes away mid-call.
ERROR_CODES = (
    "bad-request",
    "connection-closed",
    "internal-error",
    "parse-error",
    "program-error",
    "unknown-op",
    "unknown-session",
    "worker-failure",
)


class ServiceError(Exception):
    """A protocol-level failure carrying a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def as_response(self, request_id=None) -> Dict:
        """The failure as a wire response object."""
        return error_response(request_id, self.code, self.message)


def session_address(request: Dict):
    """How a request addresses its session: digest or inline texts.

    Returns ``(digest, None)`` when the request carries a ``session``
    digest, or ``(None, (program, database, answer))`` when it carries
    inline texts, raising the canonical ``bad-request``
    :class:`ServiceError` otherwise. This is the single source of truth
    for session addressing — the in-process dispatcher resolves the
    result against its registry, the shard router uses it to pick
    the owning worker — so both reject malformed addressing with
    byte-identical errors.
    """
    digest = request.get("session")
    if digest is not None:
        if not isinstance(digest, str):
            raise ServiceError("bad-request", "'session' must be a string digest")
        return digest, None
    program = request.get("program")
    database = request.get("database")
    if not isinstance(program, str) or not isinstance(database, str):
        raise ServiceError(
            "bad-request",
            "request needs either a 'session' digest or inline "
            "'program' and 'database' texts",
        )
    answer = request.get("answer")
    if answer is not None and not isinstance(answer, str):
        raise ServiceError("bad-request", "'answer' must be a string")
    return None, (program, database, answer)


def decode_request(line: str) -> Dict:
    """Parse one request line into a dict (raises ``parse-error``)."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError("parse-error", f"request is not valid JSON: {exc}")
    if not isinstance(request, dict):
        raise ServiceError("parse-error", "request must be a JSON object")
    return request


def encode(message: Dict) -> str:
    """One wire line (no trailing newline): compact, key-sorted JSON.

    Key sorting makes equal responses textually equal — the property the
    byte-identity tests and client-side caching lean on.
    """
    return json.dumps(message, separators=(",", ":"), sort_keys=True)


def ok_response(
    request_id,
    op: str,
    result: Dict,
    session: Optional[str] = None,
    version: Optional[int] = None,
) -> Dict:
    """A success envelope around *result*."""
    response: Dict = {"id": request_id, "ok": True, "op": op, "result": result}
    if session is not None:
        response["session"] = session
    if version is not None:
        response["version"] = version
    return response


def error_response(request_id, code: str, message: str) -> Dict:
    """A failure envelope with a :data:`ERROR_CODES` code."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def render_member(member: Iterable) -> List[str]:
    """One witness as its sorted list of ``"fact."`` strings.

    Mirrors the CLI's member rendering exactly, so wire output and
    ``python -m repro batch`` output agree character for character.
    """
    return sorted(f"{fact}." for fact in member)


def render_members(members: Iterable[Iterable]) -> List[List[str]]:
    """A member list in discovery order, each member rendered sorted."""
    return [render_member(member) for member in members]


def tuple_from_json(values) -> Tuple:
    """An answer tuple from its JSON array form (``bad-request`` if not).

    Elements must be constants — strings or numbers, the types the
    Datalog parser produces — so a malformed tuple (nested arrays,
    objects, booleans, nulls) is a client error, never an unhashable
    value deep inside the pipeline.
    """
    if not isinstance(values, (list, tuple)):
        raise ServiceError("bad-request", "tuple must be a JSON array of constants")
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ServiceError(
                "bad-request",
                "tuple elements must be string or numeric constants, "
                f"got {value!r}",
            )
    return tuple(values)
