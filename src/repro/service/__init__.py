"""repro.service: a long-lived multi-document analysis service.

The library layers below this package analyze *one* document from a
*one-shot* entry point.  This package turns them into the interactive
editing environment the paper targets (section 1): an asyncio service
that keeps a pool of live :class:`~repro.versioned.document.Document`
sessions open behind a JSON-lines protocol, so each editor keystroke
pays the *incremental* cost -- bounded by the change, not the file --
across arbitrarily many concurrent documents.

Layering:

* :mod:`repro.service.protocol` -- the wire format: request/reply
  shapes, error codes, edit specs and their coalescing algebra;
* :mod:`repro.service.session` -- one open document: a single-writer
  worker behind a bounded queue, edit batching/coalescing, and the
  graceful-degradation ladder (incremental parse -> batch rebuild ->
  structured error) that keeps a poisoned session recoverable;
* :mod:`repro.service.manager` -- the session pool: LRU eviction of
  idle sessions, a cap on total resident DAG nodes;
* :mod:`repro.service.persist` -- durable session snapshots: a
  crash-safe store (atomic publish, verified reads, quarantine) that
  makes restart/eviction recoverable by one incremental pass;
* :mod:`repro.service.server` -- transports (stdio and TCP), request
  validation and dispatch (:class:`AnalysisService`, the one request
  path of every backend), per-request timeouts, the ``repro serve``
  entry point;
* :mod:`repro.service.pool` / :mod:`repro.service.worker` -- the
  multi-core backend (``repro serve --workers N``): a dispatcher that
  only routes documents to N worker subprocesses (each one a
  ``repro serve``) by consistent hashing, respawns dead workers
  (sessions rehydrate from the shared snapshot store), and merges
  per-worker stats.

Everything observable is exported through :mod:`repro.obs`
(``service.*`` counters and gauges, ``service.batch`` spans) and
surfaced by the protocol's ``stats`` request.  The conformance story is
differential: `tests/service/test_service_differential.py` proves that
replies after batched/coalesced edits are byte-identical to driving a
``Document`` directly.
"""

from .manager import CapacityError, SessionManager
from .persist import SessionSnapshot, SnapshotStore
from .protocol import (
    EditSpec,
    ProtocolError,
    coalesce_specs,
    decode_line,
    encode,
    error_reply,
    ok_reply,
)
from .pool import ShardDispatcher, shard_for
from .server import AnalysisService
from .session import Session

__all__ = [
    "AnalysisService",
    "CapacityError",
    "ShardDispatcher",
    "shard_for",
    "EditSpec",
    "ProtocolError",
    "Session",
    "SessionManager",
    "SessionSnapshot",
    "SnapshotStore",
    "coalesce_specs",
    "decode_line",
    "encode",
    "error_reply",
    "ok_reply",
]
