"""The session pool: bounded residency with LRU eviction.

Two independent caps keep a long-lived server's memory bounded:

* ``max_sessions`` -- how many documents may be open at once.  Opening
  one more evicts the least-recently-used *idle* session (no queued or
  in-flight work); if every session is busy the open is refused with a
  ``capacity`` error instead of blocking.
* ``max_resident_nodes`` -- total committed-DAG nodes across all
  sessions.  Checked after every flush by summing every session's
  count, each read at its tree's root (the commit's census refilled
  only the nodes it changed), so the check costs one root read per
  resident session.  Excess evicts idle LRU sessions until the pool
  fits or nothing more is evictable.

Eviction is *stateless recovery* by design: an evicted session simply
disappears, and a client that still references it gets ``no-session``
and re-opens with its own buffer -- the authoritative text always lives
client-side (see `repro.service.session`).

With a :class:`~repro.service.persist.SnapshotStore` attached, eviction
and shutdown stop being lossy: every flush is persisted write-ahead of
its reply, sessions are checkpointed before they go, an unknown session
name is *rehydrated* from its snapshot on the next request, and a
saturated pool may snapshot-and-force-evict the least-recently-used
*quiesced* session (parked on a deferred batch) instead of refusing
with ``capacity`` outright.

The write-ahead save costs the edit, not the document: a flush appends
one log record to the session's snapshot file, and a full checkpoint
(the pickled parse DAG) is written only when there is no warm
checkpoint on disk yet, on the forced paths (``snapshot`` op, grammar
reload, forced eviction, shutdown), on idle eviction of a session with
a non-empty log, when the log is full (:data:`LOG_LIMIT`), or when the
store refuses the append.  A full log is checkpointed off the reply
path: the transport calls :meth:`SessionManager.compact_idle` (through
``AnalysisService.on_idle``) once a connection owes no reply, and only
a flush that still finds the log full -- traffic that never leaves the
connection idle -- checkpoints before its replies resolve.
"""

from __future__ import annotations

from collections import OrderedDict

from .. import obs
from ..language import Language
from ..langs import get_language
from ..semantics.project import ProjectGraph
from ..testing.faults import crash_point, register_points
from .persist import LOG_LIMIT, SnapshotStore
from .session import Session

register_points(**{
    "persist:evict": "idle session about to be snapshotted for eviction",
    "persist:evict-forced": "quiesced session snapshot-and-forced out",
    "persist:shutdown": "graceful shutdown about to snapshot a session",
    "persist:compact": "idle session's full log about to be checkpointed",
})


class CapacityError(RuntimeError):
    """The pool is full and nothing is idle enough to evict."""


class SessionManager:
    """Owns every open :class:`~repro.service.session.Session`."""

    def __init__(
        self,
        *,
        max_sessions: int = 32,
        max_resident_nodes: int = 2_000_000,
        queue_limit: int = 64,
        store: SnapshotStore | None = None,
    ) -> None:
        self.max_sessions = max_sessions
        self.max_resident_nodes = max_resident_nodes
        self.queue_limit = queue_limit
        self.store = store
        # Insertion order == recency order: move_to_end on every touch.
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        # Cross-document typedef dependencies.  Keyed by name (not live
        # session) so edges and cached exports survive LRU eviction.
        self.project = ProjectGraph()
        self.counts = {
            "opened": 0,
            "closed": 0,
            "evictions": 0,
            "forced_evictions": 0,
            "rehydrated": 0,
            "compactions": 0,
        }
        # Work counters of sessions that already closed or were evicted,
        # so stats() totals cover the pool's whole lifetime.
        self._retired: dict[str, int] = {}

    # -- lookup ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def get(self, name: str) -> Session:
        """The named session, marked most-recently-used."""
        session = self._sessions[name]
        self._sessions.move_to_end(name)
        return session

    def names(self) -> list[str]:
        return list(self._sessions)

    def sessions_using(self, language_label: str) -> list[Session]:
        """Open sessions speaking the named language (no LRU touch).

        The ``reload_grammar`` fan-out uses this to find every session
        that must be re-parsed under freshly compiled tables.
        """
        return [
            session
            for session in self._sessions.values()
            if session.language_label == language_label
        ]

    # -- lifecycle ------------------------------------------------------------

    def open(
        self,
        name: str,
        *,
        language: str | None = None,
        grammar: str | None = None,
        balanced: bool = True,
    ) -> Session:
        """Create a session (evicting an idle one if the pool is full).

        ``language`` names a built-in (``calc``, ``minic``, ...);
        ``grammar`` is an inline grammar-DSL source for ad-hoc
        languages.  Exactly one must be given.
        """
        if name in self._sessions:
            raise KeyError(f"session {name!r} already open")
        if (language is None) == (grammar is None):
            raise ValueError("specify exactly one of language/grammar")
        lang = (
            get_language(language)
            if language is not None
            else Language.from_dsl(grammar)
        )
        while len(self._sessions) >= self.max_sessions:
            if not self._evict_one():
                raise CapacityError(
                    f"{len(self._sessions)} sessions open, none idle"
                )
        session = Session(
            name,
            lang,
            balanced=balanced,
            queue_limit=self.queue_limit,
            on_flush=self._after_flush,
            on_persist=self._persist_session if self.store else None,
            on_exports=self._exports_changed,
        )
        session.language_label = language or "<inline>"
        session.grammar_source = grammar
        self._wire_semantics(session)
        if self.store is not None:
            # A fresh open supersedes any durable state for this name:
            # the client's buffer, not the old snapshot, is authority.
            self.store.delete(name)
        self._sessions[name] = session
        self.counts["opened"] += 1
        obs.incr("service.sessions_opened")
        obs.set_gauge("service.sessions", len(self._sessions))
        return session

    def close(self, name: str) -> None:
        """Forget a session the client closed (worker already stopped)."""
        session = self._sessions.pop(name, None)
        # The closed document stops importing; its exports (and edges
        # *into* it) stay cached for documents that still depend on it.
        self.project.drop_dependent(name)
        if session is not None:
            if self.store is not None:
                # An explicit close drops durable state too; eviction
                # (which must survive) goes through _evict_one instead.
                self.store.delete(name)
            self._retire(session)
            self.counts["closed"] += 1
            obs.set_gauge("service.sessions", len(self._sessions))

    def close_all(self, *, snapshot: bool = True) -> None:
        """Graceful shutdown: snapshot everything, then stop workers."""
        for session in list(self._sessions.values()):
            if snapshot and self.store is not None:
                crash_point("persist:shutdown")
                self._persist_session(session, force=True)
            session.shut_down()
            self._retire(session)
        self._sessions.clear()
        obs.set_gauge("service.sessions", 0)

    def _retire(self, session: Session) -> None:
        for key, value in session.counts.items():
            self._retired[key] = self._retired.get(key, 0) + value

    # -- eviction -------------------------------------------------------------

    def _evict_one(self, exclude: Session | None = None) -> bool:
        """Snapshot-and-drop the least-recently-used evictable session.

        First choice is an *idle* session (no queued or in-flight work).
        With a snapshot store attached, a saturated pool falls back to
        the LRU *quiesced* session -- one parked on a deferred batch,
        whose accepted edits are all in the text its snapshot holds -- instead
        of failing the open with ``capacity``.  Returns False only when
        nothing is evictable.
        """
        for name, session in self._sessions.items():
            if session is exclude or not session.idle:
                continue
            if self.store is not None:
                crash_point("persist:evict")
                # A non-empty log is compacted into a checkpoint, so a
                # session evicted and rehydrated again and again replays
                # nothing.
                self._persist_session(session, force=session.log_records > 0)
            self._drop(name, session, "evictions", "service.evictions")
            return True
        if self.store is None:
            return False
        for name, session in self._sessions.items():
            if session is exclude or not session.quiesced:
                continue
            crash_point("persist:evict-forced")
            if not self._persist_session(session, force=True):
                continue  # unpersistable: refusing beats losing edits
            self._drop(
                name, session, "forced_evictions", "service.forced_evictions"
            )
            return True
        return False

    def _drop(self, name: str, session: Session, count: str, metric: str) -> None:
        session.shut_down()
        self._retire(session)
        del self._sessions[name]
        self.counts[count] += 1
        obs.incr(metric)
        obs.set_gauge("service.sessions", len(self._sessions))

    # -- persistence ----------------------------------------------------------

    def compact_idle(self) -> None:
        """Checkpoint every idle session whose log is full.

        The transport calls this when a connection owes no reply, so
        the whole-document checkpoint a full log needs is written
        between requests rather than on the flush that finds the log
        full (that inline checkpoint stays as the fallback for traffic
        that never pauses).  Only an idle session with a warm checkpoint
        qualifies: one parked on a deferred batch is busy, and a session
        without a warm checkpoint writes one on its next flush anyway.
        A failed checkpoint raises nothing here: it clears the session's
        warm mark, so its next flush writes the checkpoint.
        """
        if self.store is None:
            return
        for session in self._sessions.values():
            if (
                not session.idle
                or session.persisted_text is None
                or session.log_records < LOG_LIMIT
            ):
                continue
            crash_point("persist:compact")
            if self._persist_session(session, force=True):
                self.counts["compactions"] += 1
                obs.incr("persist.compactions")

    def _persist_session(self, session: Session, force: bool = False) -> bool:
        """Make the store hold the session's text; never raises.

        Unless forced, nothing is written when the store already holds
        the text on a warm checkpoint, and a change is appended as one
        log record.  A checkpoint is written instead when forced, when
        there is no warm checkpoint on disk, when the log is full, or
        when the store refuses the append.  Returns False only when
        nothing could be saved.
        """
        if self.store is None:
            return False
        text = session.shadow_text
        persisted = session.persisted_text  # None: no warm checkpoint
        if not force and persisted is not None:
            if text == persisted:
                return True
            if session.log_records < LOG_LIMIT:
                try:
                    self.store.append(session.name, persisted, text)
                except Exception:
                    # File missing or rewritten, or I/O failed: the
                    # checkpoint below replaces whatever is there.
                    obs.incr("persist.append_refused")
                else:
                    session.persisted_text = text
                    session.log_records += 1
                    return True
        try:
            snapshot = session.make_snapshot()
            self.store.save(snapshot)
        except Exception:
            obs.incr("persist.hook_errors")
            session.persisted_text = None
            return False
        warm = snapshot.doc_payload is not None
        session.persisted_text = snapshot.text if warm else None
        session.log_records = 0
        return True

    def _language_for_snapshot(self, snapshot) -> Language:
        """Resolve the language a snapshot was taken under.

        Named languages resolve through the registry (override layer
        included) *when the fingerprints agree*.  A mismatch means this
        process's registry has moved on relative to the snapshot -- or,
        symmetrically, the snapshot was taken after a ``reload_grammar``
        this process never saw.  If the snapshot carries the grammar
        source (reloaded sessions always do), compile exactly that, so
        the restored DAG payload stays byte-valid; otherwise use the
        registry's current answer and let :meth:`Session.restore_from`
        degrade to a text-only reparse under the new tables.
        """
        lang: Language | None = None
        if snapshot.language is not None:
            try:
                lang = get_language(snapshot.language)
            except KeyError:
                lang = None
            if (
                lang is not None
                and snapshot.grammar is not None
                and lang.table_key != snapshot.table_key
            ):
                lang = None
        if lang is None:
            label = (
                f"reload:{snapshot.language}"
                if snapshot.language is not None
                else None
            )
            lang = Language.from_dsl(snapshot.grammar or "", label=label)
        return lang

    def rehydrate(self, name: str) -> Session | None:
        """Lazily resurrect a snapshotted session; None when unknown.

        Raises :class:`CapacityError` when the pool is full and nothing
        is evictable -- the caller's request is refusable, the snapshot
        stays on disk for a retry.
        """
        if self.store is None:
            return None
        snapshot = self.store.load(name)
        if snapshot is None:
            return None
        try:
            lang = self._language_for_snapshot(snapshot)
        except Exception:
            obs.incr("persist.rehydrate_errors")
            return None
        while len(self._sessions) >= self.max_sessions:
            if not self._evict_one():
                raise CapacityError(
                    f"{len(self._sessions)} sessions open, none idle"
                )
        session = Session(
            name,
            lang,
            balanced=snapshot.balanced,
            queue_limit=self.queue_limit,
            on_flush=self._after_flush,
            on_persist=self._persist_session,
            on_exports=self._exports_changed,
        )
        session.language_label = snapshot.language or "<inline>"
        session.grammar_source = snapshot.grammar
        self._wire_semantics(session)
        with obs.span("persist.rehydrate", doc=name):
            session.restore_from(snapshot)
        if session.doc is not None:
            # Warm: the store holds exactly this state, so the next
            # change appends to its log instead of re-checkpointing.
            session.persisted_text = snapshot.text
            session.log_records = snapshot.log_records
        self._sessions[name] = session
        self.counts["rehydrated"] += 1
        obs.incr("service.rehydrated")
        obs.set_gauge("service.sessions", len(self._sessions))
        return session

    def resident_nodes(self) -> int:
        return sum(s.resident_nodes() for s in self._sessions.values())

    def _after_flush(self, session: Session) -> None:
        """Resident-size check, run by each worker after it commits."""
        total = self.resident_nodes()
        obs.set_gauge("service.resident_nodes", total)
        while total > self.max_resident_nodes:
            if not self._evict_one(exclude=session):
                break
            total = self.resident_nodes()
            obs.set_gauge("service.resident_nodes", total)

    # -- project semantics ----------------------------------------------------

    def add_dependency(
        self, dependent: str, dependency: str, seed: set[str] | None = None
    ) -> set[str]:
        """Record ``dependent`` importing type names from ``dependency``.

        ``seed``, when given, installs ``dependency``'s export set as
        announced elsewhere (the cross-shard path, where this process
        must not analyze the other shard's document).  Returns the full
        import set now visible to ``dependent``.
        """
        self.project.depend(dependent, dependency)
        if seed is not None:
            self.project.seed_exports(dependency, set(seed))
        session = self._sessions.get(dependent)
        if session is not None:
            self._wire_semantics(session)
        return self.project.imports_for(dependent)

    def _wire_semantics(self, session: Session) -> None:
        """Seed a (re)opened session's semantic state from the project.

        Documents with no project edges stay semantics-off until a
        client sends ``analyze``; dependents come up with their import
        set pre-populated so the first analysis resolves against it.
        Documents others import from are re-activated too: an evicted
        header must resume announcing export deltas on its first edit
        after rehydration, not wait for a client ``analyze``.
        """
        if self.project.is_dependency(session.name):
            session.semantics_active = True
        if not self.project.has_dependencies(session.name):
            return
        session.semantics_active = True
        imported = self.project.imports_for(session.name)
        # In-place: the set object is shared with the session's analyzer.
        session.external_typedefs.clear()
        session.external_typedefs |= imported

    def _exports_changed(self, session: Session, added, removed):
        """Session hook: fan an export delta out to in-pool dependents.

        The project graph's cached exports are authoritative: a session
        re-announcing its full export set after rehydration diffs here
        against what the project last saw, so vanished names still
        propagate as removals and an unchanged set propagates nothing.
        Returns the authoritative ``(added, removed)`` for the reply's
        ``exports_changed`` field (the shard dispatcher's fan-out
        signal); this hook itself only reaches sessions co-resident in
        this manager.
        """
        # The session just recomputed its full export set; diff it
        # against the project cache for the authoritative delta.
        auth_added, auth_removed = self.project.update_exports(
            session.name, set(session.last_exports or ())
        )
        if not auth_added and not auth_removed:
            return auth_added, auth_removed
        dependents = self.project.dependents_of(session.name)
        if not dependents:
            return auth_added, auth_removed
        with obs.span(
            "project.invalidate",
            doc=session.name,
            added=len(auth_added),
            removed=len(auth_removed),
            dependents=len(dependents),
        ):
            for name in sorted(dependents):
                dependent = self._sessions.get(name)  # no LRU touch
                if dependent is None or dependent.closed:
                    continue  # evicted: rehydration re-seeds imports
                obs.incr("project.invalidations")
                dependent.submit_invalidate(
                    None, set(auth_added), set(auth_removed)
                )
        return auth_added, auth_removed

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        sessions = {
            name: session.describe()
            for name, session in self._sessions.items()
        }
        totals = dict(self.counts)
        for key, value in self._retired.items():
            totals[key] = totals.get(key, 0) + value
        for session in self._sessions.values():
            for key, value in session.counts.items():
                totals[key] = totals.get(key, 0) + value
        received = totals.get("edits_received", 0)
        applied = totals.get("edits_applied", 0)
        return {
            "sessions": sessions,
            "limits": {
                "max_sessions": self.max_sessions,
                "max_resident_nodes": self.max_resident_nodes,
                "queue_limit": self.queue_limit,
            },
            "resident_nodes": self.resident_nodes(),
            "project": self.project.stats(),
            "counters": totals,
            "coalesce_ratio": (received / applied) if applied else None,
            "persist": self.store.stats() if self.store is not None else None,
            "obs_counters": obs.counters() if obs.enabled() else {},
            "obs_gauges": obs.gauges() if obs.enabled() else {},
        }
