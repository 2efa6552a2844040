"""Wire protocol for the analysis service: JSON lines, both directions.

Every request and reply is one JSON object on one line.  Requests carry
``op`` (the verb), usually ``doc`` (the session name), and optionally
``id`` -- an opaque client token echoed verbatim in the matching reply
so clients can pipeline requests and match replies out of order.

Requests::

    {"op": "open",  "id": 1, "doc": "a.calc", "language": "calc",
     "text": "x = 1;"}
    {"op": "edit",  "id": 2, "doc": "a.calc",
     "edits": [{"at": 4, "remove": 1, "insert": "9"}],
     "defer": false, "echo_text": true}
    {"op": "parse", "id": 3, "doc": "a.calc"}
    {"op": "query", "id": 4, "doc": "a.calc"}
    {"op": "analyze", "id": 5, "doc": "a.minic"}
    {"op": "depends", "id": 6, "doc": "a.minic", "on": "types.minic"}
    {"op": "invalidate", "id": 7, "doc": "a.minic", "on": "types.minic",
     "added": ["Temp"], "removed": []}
    {"op": "snapshot", "id": 8, "doc": "a.calc"}
    {"op": "close", "id": 9, "doc": "a.calc"}
    {"op": "stats", "id": 10}
    {"op": "ping",  "id": 11}
    {"op": "shutdown", "id": 12}
    {"op": "reload_grammar", "id": 13, "language": "calc",
     "grammar": "%token NUM /[0-9]+/ ..."}
    {"op": "reload_grammar", "id": 14, "doc": "a.calc",
     "grammar": "..."}

**Semantics ops.**  ``analyze`` activates incremental typedef analysis
on a session: the reply (and every subsequent edit/parse reply) carries
``sem_decisions``/``sem_unresolved``/``sem_redecisions`` plus the
cumulative ``sem_state`` summary and the session's ``exports`` (typedef
names visible at top level).  ``depends`` declares a cross-document
edge: ``doc`` imports the exported typedefs of ``on`` (optionally
seeded explicitly with ``"seed": [...]`` -- the sharded dispatcher uses
this to keep each session single-writer).  After that, an edit in
``on`` whose exports change makes the service push an ``invalidate``
delta into each dependent, re-deciding only the choice points that
consulted the changed names; ``invalidate`` is also accepted directly
from clients driving their own project graph.  An ``invalidate`` whose
optional ``on`` names the source document is recorded in the project
graph as well (the sharded dispatcher always sets it), so the delta
survives eviction and rehydration of ``doc``; without ``on`` it
reaches only the live analysis.

**Grammar hot-reload.**  ``reload_grammar`` recompiles a grammar
without restarting the service, with compile-first semantics: a source
that does not compile is a ``protocol`` error and changes nothing.  The
*language form* (``"language": NAME``) rebinds a language name
service-wide -- future opens resolve to the new grammar, the
superseded parse table is evicted from the table cache, and every open
session using that name is re-parsed from its current text under the
new tables (a rung-2 rebuild: old parse states are meaningless under
new tables).  The reply carries ``table_key``/``old_table_key`` (the
new and previous table-cache fingerprints), ``invalidated`` (whether a
stale cache entry was actually evicted), and ``sessions_reloaded``
(sorted session names).  The *doc form* (``"doc": NAME``) retargets a
single session and answers like a ``parse`` with ``"reloaded": true``
plus the new ``table_key``.  Reloaded sessions snapshot immediately
with the grammar source embedded, so a rehydration anywhere (same
process, respawned shard worker) reconstructs the reloaded grammar
byte-identically.  On the sharded backend the language form broadcasts
to every worker and the reply unions their ``sessions_reloaded``.

Replies are ``{"id": ..., "ok": true, ...fields}`` or
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``.
Error codes are the :data:`E_*` constants below; ``backpressure`` and
``timeout`` are *flow-control* replies, not failures -- the session is
healthy and the client should retry (``backpressure``) or expect the
work to land later (``timeout`` with ``"pending": true``).

**Recovery status.**  When the server runs with a state directory, a
session op whose ``doc`` was evicted or lost to a restart may be
answered by a lazily *rehydrated* session; such replies carry
``"rehydrated": true`` so clients can differentially verify their
buffer (``sha256``) against the recovered text.  ``snapshot`` forces a
durable snapshot now and replies with ``"persisted": true/false``;
``no-session`` then means genuinely unknown -- never opened, closed, or
evicted with no snapshot to recover from.

**Edit coalescing algebra.**  An :class:`EditSpec` is one textual
splice; a list of specs is applied *sequentially* (each offset is
relative to the text produced by its predecessors).  Two adjacent specs
merge when the second continues or retracts the first -- the two
gestures an editor actually produces in a burst:

* *append*: ``b`` starts exactly where ``a``'s insertion ended --
  ``a=(o, r, "ab")`` then ``b=(o+2, r', "cd")`` becomes
  ``(o, r + r', "abcd")``;
* *backspace*: ``b`` deletes a suffix of ``a``'s insertion --
  ``a=(o, r, "abcd")`` then ``b=(o+2, 2, "")`` becomes ``(o, r, "ab")``.

Both rules preserve the final text exactly (the differential suite
checks this byte-for-byte); anything else stays a separate spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# Error codes.
E_PROTOCOL = "protocol"  # malformed request (bad JSON, missing field)
E_UNKNOWN_OP = "unknown-op"
E_NO_SESSION = "no-session"  # unknown doc name (possibly evicted)
E_EXISTS = "exists"  # open of an already-open doc name
E_CAPACITY = "capacity"  # session pool full, nothing evictable
E_BACKPRESSURE = "backpressure"  # session queue full; retry later
E_TIMEOUT = "timeout"  # reply deadline passed; work may still land
E_EDIT = "bad-edit"  # edit range outside the document
E_ANALYSIS = "analysis"  # degradation ladder exhausted
E_CLOSED = "closed"  # session shut down while request was queued
# Sharded backend only: the worker process owning this document died
# mid-request and is being respawned.  Flow control, not failure: the
# session is durable (snapshot store), so the client retries and the
# fresh worker rehydrates it; at most the in-flight batch is lost.
E_WORKER = "worker-restart"


class ProtocolError(ValueError):
    """A request that cannot even be dispatched."""


@dataclass(frozen=True)
class EditSpec:
    """One textual splice: remove ``remove`` chars at ``at``, insert text."""

    at: int
    remove: int
    insert: str

    @classmethod
    def from_json(cls, obj: object) -> "EditSpec":
        if not isinstance(obj, dict):
            raise ProtocolError(f"edit spec must be an object, got {obj!r}")
        try:
            at = obj["at"]
            remove = obj.get("remove", 0)
            insert = obj.get("insert", "")
        except (TypeError, KeyError) as error:
            raise ProtocolError(f"bad edit spec {obj!r}") from error
        if (
            not isinstance(at, int)
            or not isinstance(remove, int)
            or not isinstance(insert, str)
            or at < 0
            or remove < 0
        ):
            raise ProtocolError(f"bad edit spec {obj!r}")
        return cls(at, remove, insert)

    def apply(self, text: str) -> str:
        """Apply to a plain string; raises ValueError outside the range."""
        if self.at + self.remove > len(text):
            raise ValueError(
                f"edit at {self.at}+{self.remove} outside document "
                f"of length {len(text)}"
            )
        return text[: self.at] + self.insert + text[self.at + self.remove :]


def coalesce(a: EditSpec, b: EditSpec) -> EditSpec | None:
    """Merge ``b`` (applied after ``a``) into ``a``, or None if disjoint."""
    if b.at == a.at + len(a.insert):
        # append: b continues exactly where a's insertion ended
        return EditSpec(a.at, a.remove + b.remove, a.insert + b.insert)
    if (
        not b.insert
        and b.at + b.remove == a.at + len(a.insert)
        and b.remove <= len(a.insert)
        and b.at >= a.at
    ):
        # backspace: b retracts a suffix of a's insertion
        return EditSpec(a.at, a.remove, a.insert[: len(a.insert) - b.remove])
    return None


def coalesce_specs(specs: list[EditSpec]) -> list[EditSpec]:
    """Greedy left fold of :func:`coalesce` over a sequential spec list."""
    merged: list[EditSpec] = []
    for spec in specs:
        if merged:
            combined = coalesce(merged[-1], spec)
            if combined is not None:
                merged[-1] = combined
                continue
        merged.append(spec)
    return merged


# -- framing ------------------------------------------------------------------


def encode(obj: dict) -> str:
    """One reply/request as a single JSON line (no trailing newline)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def decode_line(line: str) -> dict:
    """Parse one request line; raises :class:`ProtocolError` on garbage."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"bad JSON: {error}") from error
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request missing string 'op'")
    return obj


def ok_reply(rid: object, **fields) -> dict:
    reply = {"id": rid, "ok": True}
    reply.update(fields)
    return reply


def error_reply(rid: object, code: str, message: str, **fields) -> dict:
    reply = {"id": rid, "ok": False, "error": {"code": code, "message": message}}
    reply.update(fields)
    return reply


def text_digest(text: str) -> str:
    """Stable content digest replies carry instead of (or beside) text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
