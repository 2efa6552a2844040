"""One open document: a single-writer worker behind a bounded queue.

Concurrency model
-----------------

All state belongs to the event loop.  The *dispatcher* side
(:meth:`Session.submit_*`, called by the server for each request) only
validates, updates the authoritative ``shadow_text``, and enqueues; the
*worker* task is the session's single writer -- the only code that ever
touches the :class:`~repro.versioned.document.Document`.  The queue is
bounded: when it is full the dispatcher replies ``backpressure``
immediately instead of buffering without limit.

Batching and coalescing
-----------------------

The worker drains greedily: consecutive queued edit requests are merged
into one batch (waiting indefinitely after a request marked ``defer``),
their specs coalesced by the protocol algebra, and the document parsed
*once*.  Every request in the batch receives the same post-batch reply,
so N keystrokes cost one incremental parse.

Text authority and the degradation ladder
-----------------------------------------

``shadow_text`` -- the plain string produced by applying every accepted
edit in order -- is the client's view of the buffer and the service's
ground truth.  A flush must land the document exactly on the batch's
target text, by the cheapest rung that works:

1. **incremental**: apply the coalesced specs and parse the text as
   typed (:func:`_parse_as_typed`): an incremental parse, and on a
   syntax error panic-mode isolation of the same document
   (:meth:`Document.isolate`), which keeps every edit and reports the
   damage as error regions.  The session never asks the document to
   revert edits the client still has in its buffer;
2. **batch rebuild**: a stale document or any other failure -- an
   injected fault, an invariant violation -- discards the document and
   parses the target text from scratch, the same way;
3. **structured error**: if even the rebuild fails, every waiter gets
   an ``analysis`` error reply and the session stays alive; the next
   request finds the document stale and re-runs the ladder.

A session can therefore be *poisoned* (rung 3) but never *wedged*: no
exception escapes the worker, and recovery needs no operator action.

Durability
----------

After every flush the document holds the client's text, so the durable
form needs no journal of its own: :meth:`Session.make_snapshot` captures
a checkpoint -- ``(text, version, pickled committed DAG when healthy)``
plus the one splice from the committed text to ``shadow_text``, which is
empty unless deferred edits are parked -- and :meth:`Session.restore_from`
applies that tail over the restored DAG and parses it as typed -- one
incremental pass -- with a text-only batch-rebuild fallback at every
failure point.  The ``on_persist`` hook (wired by the manager to the
snapshot store) runs *before* replies resolve, so an acked batch is a
persisted batch; it usually appends one log record for the batch's text
change, and the store's load folds that log into the tail
``restore_from`` replays.  The whole-document checkpoint a full log
needs is normally written later, while the service is idle
(``SessionManager.compact_idle``); the hook writes it before the
replies only when the log is still full at the next flush.
``persisted_text`` and ``log_records`` are the manager's bookkeeping of
what the store holds.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from .. import obs
from ..language import Language
from ..parser.iglr import ParseError
from ..semantics.analyzer import TypedefAnalyzer
from ..testing.faults import crash_point, register_points
from ..versioned.document import AnalysisReport, Document
from .persist import SessionSnapshot, _splice
from .protocol import (
    E_ANALYSIS,
    E_BACKPRESSURE,
    E_CLOSED,
    E_EDIT,
    EditSpec,
    coalesce_specs,
    error_reply,
    ok_reply,
    text_digest,
)

register_points(**{
    "service:batch-start": "flush entered, nothing applied yet",
    "service:before-parse": "edits applied, incremental parse next",
    "service:rebuild": "ladder rung 2: batch reparse of the target text",
    "persist:capture": "session state about to be captured as a snapshot",
    "persist:rehydrate": "snapshot about to be restored into a session",
    "persist:rehydrate-parse": "journal tail applied; incremental pass next",
})


@dataclass
class _Work:
    """One queued request: what to do, and whom to answer."""

    kind: str  # "edits" | "parse" | "query" | "analyze" | "invalidate"
    #          # | "snapshot" | "reload" | "close"
    rid: object
    future: asyncio.Future
    specs: list[EditSpec] = field(default_factory=list)
    defer: bool = False
    echo_text: bool = False
    base: str = ""  # shadow text before this item's specs
    target: str = ""  # shadow text after this item's specs
    # "invalidate" payload: an upstream document's export delta.
    names_added: set[str] = field(default_factory=set)
    names_removed: set[str] = field(default_factory=set)
    # "reload" payload: the replacement language (already compiled on
    # the dispatcher side -- a grammar that does not build never reaches
    # the worker) plus the session bookkeeping that goes with it.
    new_language: Language | None = None
    new_label: str | None = None
    new_grammar_source: str | None = None


def _parse_as_typed(doc: Document) -> AnalysisReport:
    """The session's parse: commit ``doc``'s text as it stands.

    Incremental when the text parses, panic-mode isolation of the same
    document when it does not -- never the library ladder's reversion,
    because the client's buffer owns the text.  Isolation always
    commits, so a syntax error never escapes; what can escape (an
    injected fault, a failed ``REPRO_VALIDATE`` check) leaves ``doc``
    as it was on entry, for the degradation ladder's next rung.
    """
    try:
        return doc.parse(recover=False)
    except ParseError:
        return doc.isolate()


def _resolve(work: _Work, reply: dict) -> None:
    """Deliver a reply unless the waiter timed out (future cancelled)."""
    if not work.future.done():
        work.future.set_result(reply)


class Session:
    """A live editing session over one versioned document."""

    def __init__(
        self,
        name: str,
        language: Language,
        *,
        balanced: bool = True,
        queue_limit: int = 64,
        on_flush=None,
        on_persist=None,
        on_exports=None,
    ) -> None:
        self.name = name
        self.language = language
        self.language_label = "<inline>"  # manager overwrites with the name
        # Long-lived interactive sessions default to the balanced
        # sequence representation: statement-list spines collapse to
        # log depth, so per-keystroke parses stay flat as buffers grow
        # (paper 3.4).  Clients can opt out per document.
        self.balanced = balanced
        self.doc: Document | None = None
        self.shadow_text = ""
        self.queue: asyncio.Queue[_Work] = asyncio.Queue(maxsize=queue_limit)
        self.closed = False
        self.busy = False  # worker holds un-replied work
        self.version_opened = False
        self._worker: asyncio.Task | None = None
        self._gate = asyncio.Event()  # cleared = paused (tests/ops seam)
        self._gate.set()
        self._on_flush = on_flush  # manager hook: resident accounting
        self._on_persist = on_persist  # manager hook: durable snapshot
        self._on_exports = on_exports  # manager hook: export delta fan-out
        # Semantic layer: lazily activated by the first "analyze" (or
        # "depends") op so sessions that never ask pay nothing.
        self.analyzer: TypedefAnalyzer | None = None
        self.semantics_active = False
        # Type names imported from dependency documents.  Shared *by
        # reference* with the analyzer so external deltas applied before
        # an analyzer exists are seen by the one built later.
        self.external_typedefs: set[str] = set()
        # Exports announced by the last analysis (None = never analyzed
        # this session lifetime; the first analysis re-announces).
        self.last_exports: set[str] | None = None
        self._parked = False  # worker awaiting input with a deferred batch
        # Manager's record of the session's snapshot file: the text it
        # holds (None until a warm checkpoint is on disk) and how many
        # log records follow that checkpoint.
        self.persisted_text: str | None = None
        self.log_records = 0
        self.restored = False  # session came back from a snapshot
        self.grammar_source: str | None = None  # inline DSL (manager sets)
        # Per-session work counters, kept unconditionally (obs may be
        # off); mirrored into obs.* so traces see them too.
        self.counts = {
            "edits_received": 0,
            "edits_applied": 0,
            "batches": 0,
            "parses": 0,
            "rebuilds": 0,
            "degraded": 0,
            "errors": 0,
            "backpressure": 0,
        }

    # -- dispatcher side ------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No queued or in-flight work: safe to evict."""
        return self.queue.empty() and not self.busy

    @property
    def quiesced(self) -> bool:
        """Safe to snapshot: idle, or parked awaiting a deferred batch.

        A parked worker holds accepted-but-unflushed edits -- all of them
        already in ``shadow_text``, so a snapshot taken now captures
        exactly the client's view.
        """
        return (not self.busy) or self._parked

    def pause(self) -> None:
        """Hold the worker before its next batch (tests, drains)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    def open_with(self, text: str, rid: object) -> asyncio.Future:
        """Queue the initial parse; the reply mirrors an edit reply."""
        self.shadow_text = text
        work = _Work(
            "edits",
            rid,
            asyncio.get_running_loop().create_future(),
            base=text,
            target=text,
        )
        return self._enqueue(work)

    def submit_edits(
        self,
        rid: object,
        specs: list[EditSpec],
        *,
        defer: bool = False,
        echo_text: bool = False,
    ) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        base = self.shadow_text
        text = base
        try:
            for spec in specs:
                text = spec.apply(text)
        except ValueError as error:
            future.set_result(error_reply(rid, E_EDIT, str(error)))
            return future
        work = _Work(
            "edits",
            rid,
            future,
            specs=list(specs),
            defer=defer,
            echo_text=echo_text,
            base=base,
            target=text,
        )
        future = self._enqueue(work)
        if not future.done():  # accepted: the edits are now authoritative
            self.shadow_text = text
            self.counts["edits_received"] += len(specs)
            obs.incr("service.edits_received", len(specs))
        return future

    def submit_op(
        self, kind: str, rid: object, *, echo_text: bool = False
    ) -> asyncio.Future:
        """Queue a parse / query / analyze / snapshot / close, ordered
        after edits."""
        work = _Work(
            kind,
            rid,
            asyncio.get_running_loop().create_future(),
            echo_text=echo_text,
            target=self.shadow_text,
        )
        return self._enqueue(work)

    def submit_reload(
        self,
        rid: object,
        language: Language,
        *,
        label: str | None = None,
        grammar_source: str | None = None,
    ) -> asyncio.Future:
        """Queue a grammar hot-reload, ordered after pending edits.

        The worker swaps the session's language and reparses the
        authoritative text under the new tables (the old DAG's parse
        states are meaningless against a different table, so this is a
        rung-2 batch reparse by construction, never a crash).  ``rid``
        may be ``None`` for the service-wide fan-out path.
        """
        work = _Work(
            "reload",
            rid,
            asyncio.get_running_loop().create_future(),
            target=self.shadow_text,
            new_language=language,
            new_label=label,
            new_grammar_source=grammar_source,
        )
        return self._enqueue(work)

    def submit_invalidate(
        self, rid: object, added: set[str], removed: set[str]
    ) -> asyncio.Future:
        """Queue an external-typedef delta from an upstream document.

        ``rid`` may be ``None`` for fire-and-forget propagation (the
        manager/dispatcher path); the future still resolves with the
        re-decision summary for callers that want it.
        """
        work = _Work(
            "invalidate",
            rid,
            asyncio.get_running_loop().create_future(),
            target=self.shadow_text,
            names_added=set(added),
            names_removed=set(removed),
        )
        return self._enqueue(work)

    def _enqueue(self, work: _Work) -> asyncio.Future:
        if self.closed:
            work.future.set_result(
                error_reply(work.rid, E_CLOSED, f"session {self.name!r} closed")
            )
            return work.future
        try:
            self.queue.put_nowait(work)
        except asyncio.QueueFull:
            self.counts["backpressure"] += 1
            obs.incr("service.backpressure")
            work.future.set_result(
                error_reply(
                    work.rid,
                    E_BACKPRESSURE,
                    f"session {self.name!r} queue full "
                    f"({self.queue.maxsize} pending); retry",
                    retry=True,
                )
            )
            return work.future
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name=f"repro-session-{self.name}"
            )
        return work.future

    def shut_down(self, *, cancel: bool = True) -> None:
        """Evict/stop: fail queued waiters, kill the worker, free the DAG."""
        self.closed = True
        while True:
            try:
                work = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            _resolve(
                work,
                error_reply(work.rid, E_CLOSED, f"session {self.name!r} closed"),
            )
        if cancel and self._worker is not None:
            self._worker.cancel()
            self._worker = None
        self._release_document()

    def _release_document(self) -> None:
        """Let go of the document and its analyzer, freeing the DAG now.

        A dropped DAG is otherwise one reference cycle that waits for a
        full collection (see :meth:`Document.release`).  Callers persist
        first: a released document has no committed tree to snapshot.
        """
        doc, self.doc, self.analyzer = self.doc, None, None
        if doc is not None:
            doc.release()

    # -- worker side ----------------------------------------------------------

    async def _run(self) -> None:
        while True:
            work = await self.queue.get()
            self.busy = True
            try:
                await self._gate.wait()
                stop = await self._step(work)
            except asyncio.CancelledError:
                # Shutdown/eviction mid-step: the in-flight request must
                # still get an answer (absorbed batch items are resolved
                # by _gather's own handler; _resolve is idempotent).
                _resolve(
                    work,
                    error_reply(
                        work.rid, E_CLOSED, f"session {self.name!r} closed"
                    ),
                )
                raise
            finally:
                self.busy = False
            if stop:
                return

    async def _step(self, work: _Work) -> bool:
        if work.kind == "edits":
            batch, follow = await self._gather(work)
            self._flush(batch)
            if follow is None:
                return False
            work = follow
        return self._handle(work)

    async def _gather(
        self, first: _Work
    ) -> tuple[list[_Work], _Work | None]:
        """Absorb consecutive queued edit requests into one batch.

        Returns the batch plus the first non-edit item encountered (to
        be handled after the flush), if any.  A trailing ``defer`` item
        holds the batch open until *anything* else arrives -- that next
        request is the flush trigger.
        """
        batch = [first]
        try:
            while True:
                try:
                    nxt = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    if not batch[-1].defer:
                        return batch, None
                    # Parked: every accepted edit is in shadow_text, so
                    # the session is snapshot-safe (and forcibly
                    # evictable) while we wait.
                    self._parked = True
                    try:
                        nxt = await self.queue.get()
                    finally:
                        self._parked = False
                if nxt.kind == "edits":
                    batch.append(nxt)
                else:
                    return batch, nxt
        except asyncio.CancelledError:
            # A deferred batch can be parked here indefinitely; shutdown
            # must not strand its waiters.
            for work in batch:
                _resolve(
                    work,
                    error_reply(
                        work.rid, E_CLOSED, f"session {self.name!r} closed"
                    ),
                )
            raise

    def _flush(self, batch: list[_Work]) -> None:
        """Land the document on the batch target, by the cheapest rung."""
        specs = [spec for work in batch for spec in work.specs]
        merged = coalesce_specs(specs)
        base, target = batch[0].base, batch[-1].target
        self.counts["batches"] += 1
        self.counts["edits_applied"] += len(merged)
        obs.incr("service.batches")
        obs.incr("service.edits_applied", len(merged))
        if len(batch) > 1:
            obs.incr("service.requests_batched", len(batch) - 1)
        degraded = False
        with obs.span(
            "service.batch", doc=self.name, edits=len(specs), merged=len(merged)
        ):
            try:
                crash_point("service:batch-start")
                if self.doc is None or self.doc.text != base:
                    # Stale (first open, or a rung-3 failure last time):
                    # the incremental rung has nothing sound to build on.
                    report = self._rebuild(target)
                    degraded = self.version_opened
                else:
                    for spec in merged:
                        self.doc.edit(spec.at, spec.remove, spec.insert)
                    crash_point("service:before-parse")
                    report = _parse_as_typed(self.doc)
                    self.counts["parses"] += 1
            except asyncio.CancelledError:
                raise
            except Exception:
                try:
                    report = self._rebuild(target)
                    degraded = True
                except asyncio.CancelledError:
                    raise
                except Exception as error:
                    self._fail_batch(batch, error)
                    return
        if degraded:
            self.counts["degraded"] += 1
            obs.incr("service.degraded")
        self.version_opened = True
        if self._on_persist is not None:
            # Write-ahead: persist before replies resolve, so an acked
            # batch is a persisted batch (the kill -9 suite relies on
            # recovered text being the last acked or last sent text).
            self._on_persist(self)
        fields = self._state_fields()
        fields.update(
            batched=len(batch),
            applied=len(merged),
            degraded=degraded,
            error_regions=report.error_regions,
            recovered=report.recovered,
            ambiguous=report.ambiguous_regions,
        )
        if self.semantics_active:
            # Keep the semantic layer current on every flush so export
            # deltas propagate as soon as the edit lands.
            fields.update(self._run_semantics())
        for work in batch:
            reply = ok_reply(work.rid, **fields)
            if work.echo_text:
                reply["text"] = self.doc.text
            _resolve(work, reply)
        if self._on_flush is not None:
            self._on_flush(self)

    def _rebuild(self, target: str) -> AnalysisReport:
        """Ladder rung 2: error-tolerant batch reparse of the target text."""
        crash_point("service:rebuild")
        self.counts["rebuilds"] += 1
        obs.incr("service.rebuilds")
        doc = Document(
            self.language, target, balanced_sequences=self.balanced
        )
        report = _parse_as_typed(doc)
        self._release_document()
        self.doc = doc
        return report

    def _fail_batch(self, batch: list[_Work], error: Exception) -> None:
        """Ladder rung 3: structured error; session stays recoverable."""
        self.counts["errors"] += 1
        obs.incr("service.errors")
        for work in batch:
            _resolve(
                work,
                error_reply(
                    work.rid,
                    E_ANALYSIS,
                    f"analysis failed: {type(error).__name__}: {error}",
                    recoverable=True,
                ),
            )

    def _handle(self, work: _Work) -> bool:
        """A non-edit op; pending edits have already been flushed."""
        if work.kind == "close":
            _resolve(work, ok_reply(work.rid, closed=self.name))
            self.shut_down(cancel=False)
            self._worker = None
            return True
        try:
            if work.kind == "reload":
                # Swap tables *before* the stale check below: the old
                # committed DAG is built from the old table's states, so
                # it is released and the rebuild parses the same
                # authoritative text under the new grammar.
                self.language = work.new_language
                if work.new_label is not None:
                    self.language_label = work.new_label
                self.grammar_source = work.new_grammar_source
                self._release_document()
            if (
                self.doc is None
                or self.doc.text != work.target
                # Dirty with matching text: a failed flush left edits
                # applied but unparsed, so tree-derived answers would
                # describe an older buffer.  Rebuild before answering.
                or self.doc.dirty
            ):
                self._rebuild(work.target)
                self.version_opened = True
            if work.kind == "reload":
                fields = self._state_fields()
                fields["reloaded"] = True
                fields["table_key"] = self.language.table_key
                if self.semantics_active:
                    fields.update(self._run_semantics())
                if self._on_persist is not None:
                    # Text and version may match the pre-reload marker,
                    # but the snapshot must pick up the new table
                    # fingerprint (and grammar source): force the save.
                    self._on_persist(self, force=True)
            elif work.kind == "snapshot":
                persisted = False
                if self._on_persist is not None:
                    persisted = bool(self._on_persist(self, force=True))
                fields = self._state_fields()
                fields["persisted"] = persisted
            elif work.kind == "parse":
                report = _parse_as_typed(self.doc)
                self.counts["parses"] += 1
                fields = self._state_fields()
                fields.update(
                    error_regions=report.error_regions,
                    recovered=report.recovered,
                    ambiguous=report.ambiguous_regions,
                )
                if self.semantics_active:
                    fields.update(self._run_semantics())
            elif work.kind == "analyze":
                self.semantics_active = True
                fields = self._state_fields()
                fields.update(self._run_semantics(include_exports=True))
            elif work.kind == "invalidate":
                fields = self._state_fields()
                fields.update(
                    self._apply_invalidate(
                        work.names_added, work.names_removed
                    )
                )
            else:  # query
                fields = self._state_fields()
                fields["has_errors"] = self.doc.has_errors
                fields["ambiguous"] = self.doc.is_ambiguous
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self.counts["errors"] += 1
            obs.incr("service.errors")
            _resolve(
                work,
                error_reply(
                    work.rid,
                    E_ANALYSIS,
                    f"analysis failed: {type(error).__name__}: {error}",
                    recoverable=True,
                ),
            )
            return False
        if self._on_persist is not None:
            self._on_persist(self)  # no-op when the text is already stored
        reply = ok_reply(work.rid, **fields)
        if work.echo_text:
            reply["text"] = self.doc.text
        _resolve(work, reply)
        if self._on_flush is not None:
            self._on_flush(self)
        return False

    def _state_fields(self) -> dict:
        return {
            "doc": self.name,
            "version": self.doc.version,
            "tokens": len(self.doc.tokens),
            "sha256": text_digest(self.doc.text),
        }

    # -- semantic layer -------------------------------------------------------

    def _run_semantics(self, *, include_exports: bool = False) -> dict:
        """Analyze (or incrementally update) typedef disambiguation.

        Never raises: semantic failure degrades to a ``sem_error`` field
        on an otherwise-ok reply, so the parsing service stays usable
        even when the semantic layer cannot run.
        """
        try:
            if self.doc is None or self.doc.dirty:
                raise ValueError("document has no committed parse")
            if self.analyzer is None or self.analyzer.document is not self.doc:
                # First analysis, or a rung-2 rebuild replaced the
                # document out from under the old analyzer.
                self.analyzer = TypedefAnalyzer(self.doc)
                self.analyzer.external_typedefs = self.external_typedefs
                report = self.analyzer.analyze()
            else:
                report = self.analyzer.update()
        except asyncio.CancelledError:
            raise
        except Exception as error:
            obs.incr("sem.service_errors")
            return {"sem_error": f"{type(error).__name__}: {error}"}
        return self._semantics_fields(report, include_exports)

    def _semantics_fields(self, report, include_exports: bool) -> dict:
        fields = {
            "sem_decisions": len(report.decisions),
            "sem_unresolved": len(report.unresolved),
            "sem_redecisions": report.sites_refiltered,
            "sem_full_pass": report.full_pass,
            "sem_errors": len(report.errors),
        }
        exports = self.analyzer.exported_typedefs()
        if include_exports:
            fields["exports"] = sorted(exports)
            fields["sem_state"] = self.analyzer.decision_summary()
        previous = self.last_exports
        self.last_exports = exports
        # A session with no prior announcement (first analysis, or just
        # rehydrated) cannot diff locally -- names may have *vanished*
        # relative to what the project last saw.  Announce
        # unconditionally and let the manager hook diff against the
        # project graph's cached exports; its return value is the
        # authoritative delta for the reply (the shard dispatcher reads
        # ``exports_changed`` for cross-worker fan-out).
        if previous is None or exports != previous:
            added = exports - (previous or set())
            removed = (previous or set()) - exports
            if self._on_exports is not None:
                added, removed = self._on_exports(self, added, removed)
            if added or removed:
                fields["exports_changed"] = {
                    "doc": self.name,
                    "added": sorted(added),
                    "removed": sorted(removed),
                }
        return fields

    def _apply_invalidate(self, added: set[str], removed: set[str]) -> dict:
        """Apply an upstream export delta; re-decide dependent choices."""
        self.semantics_active = True
        effective_added = set(added) - self.external_typedefs
        effective_removed = set(removed) & self.external_typedefs
        effective = len(effective_added | effective_removed)
        if self.analyzer is None or self.analyzer.document is not self.doc:
            # No live analysis to patch: record the imports and build
            # the analyzer fresh against them.
            self.external_typedefs |= effective_added
            self.external_typedefs -= effective_removed
            fields = self._run_semantics()
            fields["sem_invalidated"] = effective
            return fields
        try:
            report = self.analyzer.apply_external_delta(
                set(added), set(removed)
            )
        except asyncio.CancelledError:
            raise
        except Exception as error:
            obs.incr("sem.service_errors")
            return {
                "sem_error": f"{type(error).__name__}: {error}",
                "sem_invalidated": effective,
            }
        fields = self._semantics_fields(report, False)
        fields["sem_invalidated"] = effective
        return fields

    # -- durability -----------------------------------------------------------

    def make_snapshot(self) -> SessionSnapshot:
        """Capture the session's durable form: a full checkpoint.

        The pickled document payload rides along when the committed DAG
        is healthy, with the one splice from its text to ``shadow_text``
        (empty unless deferred edits are parked) as the journal tail.
        Without a healthy DAG the snapshot is text-only: rehydration is
        then one batch parse of the text -- robustness never depends on
        the warm path.
        """
        crash_point("persist:capture")
        doc_payload = None
        if self.doc is not None:
            doc_payload = self.doc.snapshot_state()  # None when dirty
        tail = []
        if doc_payload is None:
            tail = [(0, 0, self.shadow_text)]
        elif self.doc.text != self.shadow_text:
            tail = [_splice(self.doc.text, self.shadow_text)]
        label = self.language_label
        inline = label == "<inline>"
        return SessionSnapshot(
            name=self.name,
            language=None if inline else label,
            # Carried even for *named* languages once a hot-reload set
            # it: a fresh process (e.g. a respawned shard worker) has
            # only its built-in registry, so the source is what lets it
            # rehydrate this session under the reloaded grammar.
            grammar=self.grammar_source,
            balanced=self.balanced,
            text=self.shadow_text,
            journal_tail=tail,
            version=self.doc.version if self.doc is not None else 0,
            table_key=self.language.table_key,
            version_opened=self.version_opened,
            doc_payload=doc_payload,
        )

    def restore_from(self, snapshot: SessionSnapshot) -> None:
        """Rehydrate from a snapshot: one incremental pass, not a rebuild.

        Restores the committed DAG, replays the journal tail (the
        checkpoint's own splice, then the log records the store folded
        in, one edit each), and parses the result as typed: one
        incremental pass, isolating a syntax error in place.  *Any*
        failure falls back to text-only state -- the next request's
        flush finds ``doc is None`` and runs the ordinary degradation
        ladder, so a bad payload costs a batch reparse, never a crash.
        Counters restart at zero (the manager's retirement accounting
        already folded the old life in).
        """
        crash_point("persist:rehydrate")
        self.shadow_text = snapshot.text
        self.version_opened = snapshot.version_opened
        self.restored = True
        doc = None
        # A payload pickled under a different parse table (the snapshot
        # predates a grammar reload) must not be grafted onto this
        # session's tables: fall through to the text-only path, which
        # reparses under the current grammar.
        payload_usable = snapshot.doc_payload is not None
        if payload_usable and snapshot.table_key != self.language.table_key:
            obs.incr("persist.rehydrate_table_mismatch")
            payload_usable = False
        if payload_usable:
            try:
                doc = Document.restore_state(
                    self.language, snapshot.doc_payload
                )
                for at, remove, insert in snapshot.journal_tail:
                    doc.edit(at, remove, insert)
                crash_point("persist:rehydrate-parse")
                if doc.dirty:
                    _parse_as_typed(doc)
            except Exception:
                doc = None
        self.doc = doc
        if doc is not None:
            obs.incr("persist.rehydrate_incremental")
        else:
            obs.incr("persist.rehydrate_rebuild")

    # -- introspection --------------------------------------------------------

    def resident_nodes(self) -> int:
        """DAG size of the committed tree, read at its root."""
        return self.doc.tree_node_count() if self.doc is not None else 0

    def describe(self) -> dict:
        return {
            "language": self.language_label,
            "balanced": self.balanced,
            "version": self.doc.version if self.doc else 0,
            "tokens": len(self.doc.tokens) if self.doc else 0,
            "resident_nodes": self.resident_nodes(),
            "queue_depth": self.queue.qsize(),
            "busy": self.busy,
            "quiesced": self.quiesced,
            "restored": self.restored,
            "semantics": self.semantics_active,
            "counts": dict(self.counts),
        }
