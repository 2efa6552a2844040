"""Transports and dispatch: ``repro serve`` over stdio or TCP.

The server is a thin shell around :class:`AnalysisService`: each
transport reads JSON lines, hands every request to
:meth:`AnalysisService.handle` in its own task (so a slow session never
blocks the read loop or other sessions), and serializes replies through
a single writer task per connection (replies may complete out of
order; clients match on ``id``).

Per-request timeouts live here, on the dispatcher side: the session
worker computes at its own pace, and a request whose reply misses the
deadline gets a ``timeout`` error with ``"pending": true`` -- accepted
edits are *not* un-applied, their effect lands with a later reply.
That, plus per-session bounded queues with ``backpressure`` replies and
the session-level degradation ladder, is the whole "never wedge"
contract: every request gets an answer in bounded time, whatever state
the analysis is in.

``repro serve --workers N`` (N > 1) serves the same protocol through
the multi-process :class:`~repro.service.pool.ShardDispatcher` instead:
N worker subprocesses that each run ``repro serve``, one shard per
document, one core each.  The dispatcher only routes: every request is
validated and answered by an :class:`AnalysisService` in some worker,
so both backends share one request path (and, via
:class:`ServiceTransport`, the same transports).
"""

from __future__ import annotations

import asyncio
import os
import sys

from .. import obs
from ..language import Language
from ..langs import get_language, language_names, set_language_override
from ..obs.collector import CollectorPauses
from ..tables.cache import cache_stats, invalidate
from .manager import CapacityError, SessionManager
from .persist import SnapshotStore
from .protocol import (
    E_CAPACITY,
    E_EXISTS,
    E_NO_SESSION,
    E_PROTOCOL,
    E_TIMEOUT,
    E_UNKNOWN_OP,
    EditSpec,
    ProtocolError,
    decode_line,
    encode,
    error_reply,
    ok_reply,
)
from .session import Session

# Every op the service answers, in the order of docs/SERVICE.md's op
# table (a test keeps the two equal).  This is the one list for both
# backends: the shard dispatcher hands whatever it does not answer
# itself to a worker's AnalysisService.
OPS = (
    "open",
    "edit",
    "parse",
    "query",
    "analyze",
    "depends",
    "invalidate",
    "snapshot",
    "close",
    "reload_grammar",
    "stats",
    "ping",
    "shutdown",
)


class _Refused(Exception):
    """A well-formed request the service answers with an error ``code``."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _doc_name(request: dict, op: str, key: str = "doc") -> str:
    name = request.get(key)
    if not isinstance(name, str) or not name:
        raise ProtocolError(f"{op} needs a non-empty string {key!r}")
    return name


def _names(request: dict, key: str) -> set[str]:
    names = request.get(key, [])
    if not isinstance(names, list) or any(
        not isinstance(item, str) for item in names
    ):
        raise ProtocolError(f"{key!r} must be a list of strings")
    return set(names)


class ServiceTransport:
    """Stdio/TCP JSON-lines plumbing shared by every protocol front end.

    Subclasses provide ``handle(request) -> reply`` and ``aclose()``
    and set ``self._stopping`` (an :class:`asyncio.Event`); both the
    single-process :class:`AnalysisService` and the multi-process
    :class:`~repro.service.pool.ShardDispatcher` serve through this
    same loop, which is what lets ``repro serve --workers N`` swap
    backends without touching a transport.
    """

    _stopping: asyncio.Event

    async def handle(self, request: dict) -> dict | None:
        raise NotImplementedError

    async def aclose(self) -> None:
        raise NotImplementedError

    def on_idle(self) -> None:
        """Upkeep for the moment a connection owes no reply; never raises.

        The transport calls this after writing a reply when the
        connection has no request in flight, so work done here delays
        no reply that is already owed.  The default does nothing.
        """

    async def _serve_streams(
        self,
        reader: asyncio.StreamReader,
        write_line,
        *,
        eof_closes: bool = False,
    ) -> None:
        """Shared read loop: one task per request, ordered writes.

        ``eof_closes`` picks the EOF-without-shutdown semantics: on
        stdio the sole client has closed its write end but is still
        reading replies (``subprocess.run`` pipes the whole script and
        closes stdin at once), so drain every in-flight request and
        close; on TCP the peer is simply gone -- abandon its pending
        replies and keep serving other connections.
        """
        outgoing: asyncio.Queue[dict | None] = asyncio.Queue()
        pending: set[asyncio.Task] = set()

        async def writer() -> None:
            while True:
                reply = await outgoing.get()
                if reply is None:
                    return
                await write_line(encode(reply))
                # A finished task's done callback may not have left
                # ``pending`` yet, so ask each task rather than the set.
                if outgoing.empty() and all(task.done() for task in pending):
                    self.on_idle()

        async def run_one(request: dict) -> None:
            reply = await self.handle(request)
            if reply is not None:
                outgoing.put_nowait(reply)

        writer_task = asyncio.ensure_future(writer())
        stop_task = asyncio.ensure_future(self._stopping.wait())
        try:
            while not self._stopping.is_set():
                line_task = asyncio.ensure_future(reader.readline())
                done, _ = await asyncio.wait(
                    {line_task, stop_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if line_task not in done:
                    line_task.cancel()
                    break
                line = line_task.result()
                if not line:
                    break  # EOF
                text = line.decode("utf-8", "replace").strip()
                if not text:
                    continue
                try:
                    request = decode_line(text)
                except ProtocolError as error:
                    outgoing.put_nowait(
                        error_reply(None, E_PROTOCOL, str(error))
                    )
                    continue
                task = asyncio.ensure_future(run_one(request))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if self._stopping.is_set() or eof_closes:
                # Real shutdown (or stdio EOF, which means the same):
                # closing the pool resolves every queued and in-flight
                # waiter (deferred batches included), so this gather
                # cannot hang.
                await self.aclose()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
            else:
                # A client merely disconnected (a `stats --service`
                # scrape, an editor restart).  The service lives on for
                # other connections; just abandon replies nobody will
                # read -- including deferred batches that would
                # otherwise pin this connection open forever.
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
        finally:
            stop_task.cancel()
            outgoing.put_nowait(None)
            await writer_task

    async def serve_stdio(self) -> None:
        """JSON lines on stdin/stdout until EOF or ``shutdown``."""
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )

        async def write_line(line: str) -> None:
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

        try:
            await self._serve_streams(reader, write_line, eof_closes=True)
        finally:
            await self.aclose()

    async def serve_tcp(self, host: str, port: int) -> None:
        """One JSON-lines protocol instance per TCP connection."""

        async def on_connect(reader, writer) -> None:
            async def write_line(line: str) -> None:
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()

            try:
                await self._serve_streams(reader, write_line)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        server = await asyncio.start_server(on_connect, host, port)
        addrs = ", ".join(
            str(sock.getsockname()) for sock in server.sockets
        )
        print(f"repro serve: listening on {addrs}", file=sys.stderr)
        try:
            async with server:
                await self._stopping.wait()
        finally:
            await self.aclose()


class AnalysisService(ServiceTransport):
    """Protocol-level front end over a :class:`SessionManager`.

    The only code that validates and dispatches a request, for both
    backends: a sharded server runs one of these per worker process.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 32,
        max_resident_nodes: int = 2_000_000,
        queue_limit: int = 64,
        request_timeout: float = 30.0,
        state_dir: str | os.PathLike | None = None,
    ) -> None:
        self.store = SnapshotStore(state_dir) if state_dir else None
        self.manager = SessionManager(
            max_sessions=max_sessions,
            max_resident_nodes=max_resident_nodes,
            queue_limit=queue_limit,
            store=self.store,
        )
        self.request_timeout = request_timeout
        self.requests = 0
        self.timeouts = 0
        self._stopping = asyncio.Event()
        # Collector pauses stall every session at once and sit inside
        # no span; the stats reply reports them per generation.
        self.collector = CollectorPauses()
        self.collector.install()

    # -- dispatch -------------------------------------------------------------

    async def handle(self, request: dict) -> dict | None:
        """One request to one reply (None only for ``shutdown``'s tail)."""
        self.requests += 1
        obs.incr("service.requests")
        rid = request.get("id")
        op = request.get("op")
        if op not in OPS:
            return error_reply(rid, E_UNKNOWN_OP, f"unknown op {op!r}")
        try:
            if op == "ping":
                return ok_reply(rid, pong=True)
            if op == "stats":
                stats = self.manager.stats()
                stats["requests"] = self.requests
                stats["timeouts"] = self.timeouts
                stats["table_cache"] = cache_stats()
                stats["collector"] = self.collector.report()
                return ok_reply(rid, stats=stats)
            if op == "shutdown":
                self._stopping.set()
                return ok_reply(rid, stopping=True)
            if op == "open":
                return await self._handle_open(rid, request)
            if op == "reload_grammar":
                return await self._handle_reload(rid, request)
            if op == "depends":
                return await self._handle_depends(rid, request)
            return await self._handle_session_op(rid, op, request)
        except ProtocolError as error:
            return error_reply(rid, E_PROTOCOL, str(error))
        except _Refused as error:
            return error_reply(rid, error.code, str(error))

    def _session(self, name: str) -> tuple[Session, bool]:
        """The named session, and whether it had to be rehydrated.

        An unknown name may be an evicted (or pre-restart) session with
        a durable snapshot: it is resurrected lazily and the request
        proceeds as if nothing happened.  Raises :class:`_Refused`
        (``no-session`` or ``capacity``) otherwise.
        """
        try:
            return self.manager.get(name), False
        except KeyError:
            pass
        try:
            session = self.manager.rehydrate(name)
        except CapacityError as error:
            raise _Refused(E_CAPACITY, str(error)) from None
        except Exception as error:
            raise _Refused(
                E_NO_SESSION, f"session {name!r} failed to rehydrate: {error}"
            ) from None
        if session is None:
            raise _Refused(
                E_NO_SESSION,
                f"no session {name!r} (never opened, closed, or evicted"
                " without a snapshot)",
            )
        return session, True

    async def _handle_open(self, rid: object, request: dict) -> dict:
        name = _doc_name(request, "open")
        text = request.get("text", "")
        if not isinstance(text, str):
            raise ProtocolError("'text' must be a string")
        if name in self.manager:
            return error_reply(
                rid, E_EXISTS, f"session {name!r} already open"
            )
        try:
            session = self.manager.open(
                name,
                language=request.get("language"),
                grammar=request.get("grammar"),
                balanced=bool(request.get("balanced", True)),
            )
        except CapacityError as error:
            return error_reply(rid, E_CAPACITY, str(error))
        except Exception as error:
            # Unknown built-in name, bad language/grammar combination, or
            # a grammar-DSL source that does not compile.
            known = ", ".join(language_names())
            raise ProtocolError(
                f"cannot open {name!r}: {error} (built-ins: {known})"
            ) from None
        return await self._await_reply(session.open_with(text, rid), rid)

    async def _handle_reload(self, rid: object, request: dict) -> dict:
        """Hot-swap a grammar without restarting the service.

        Two forms: ``{"op": "reload_grammar", "language": NAME,
        "grammar": SRC}`` recompiles a (possibly built-in) language
        name and re-parses every open session using it, while
        ``{"op": "reload_grammar", "doc": NAME, "grammar": SRC}``
        retargets a single session.  Compile-first semantics: a grammar
        that does not compile changes nothing.
        """
        source = request.get("grammar")
        if not isinstance(source, str) or not source:
            raise ProtocolError(
                "reload_grammar needs a non-empty string 'grammar'"
            )
        lang_name = request.get("language")
        if (lang_name is None) == (request.get("doc") is None):
            raise ProtocolError(
                "reload_grammar needs exactly one of 'language' or 'doc'"
            )
        if lang_name is None:
            name = _doc_name(request, "reload_grammar")
        elif not isinstance(lang_name, str) or not lang_name:
            raise ProtocolError("'language' must be a non-empty string")
        label = None if lang_name is None else f"reload:{lang_name}"
        try:
            new_lang = Language.from_dsl(source, label=label)
        except Exception as error:
            raise ProtocolError(
                f"grammar does not compile: {error}"
            ) from None

        if lang_name is None:
            session, rehydrated = self._session(name)
            future = session.submit_reload(
                rid, new_lang, grammar_source=source
            )
            return self._tag(await self._await_reply(future, rid), rehydrated)

        new_key = new_lang.table_key
        old_key = None
        try:
            old_key = get_language(lang_name).table_key
        except KeyError:
            pass  # brand-new name: nothing to supersede
        # From here the new grammar wins: future opens resolve to it...
        set_language_override(lang_name, new_lang)
        invalidated = False
        if old_key is not None and old_key != new_key:
            # ...and the superseded tables leave both cache layers so a
            # worker respawn cannot resurrect them.
            invalidated = invalidate(old_key)
        obs.incr("service.reloads")
        # ...while every open session re-parses under the new tables.
        reloaded: list[str] = []
        for session in self.manager.sessions_using(lang_name):
            reply = await self._await_reply(
                session.submit_reload(
                    None, new_lang, label=lang_name, grammar_source=source
                ),
                None,
            )
            if reply.get("ok"):
                reloaded.append(session.name)
        return ok_reply(
            rid,
            language=lang_name,
            table_key=new_key,
            old_table_key=old_key,
            invalidated=invalidated,
            sessions_reloaded=sorted(reloaded),
        )

    async def _handle_session_op(
        self, rid: object, op: str, request: dict
    ) -> dict:
        name = _doc_name(request, op)
        if op == "edit":
            raw = request.get("edits")
            if not isinstance(raw, list) or not raw:
                raise ProtocolError("edit needs a non-empty 'edits' list")
            specs = [EditSpec.from_json(item) for item in raw]
        elif op == "invalidate":
            added = _names(request, "added")
            removed = _names(request, "removed")
            on = None
            if request.get("on") is not None:
                on = _doc_name(request, op, "on")
                if on == name:
                    raise ProtocolError("a document cannot depend on itself")
        session, rehydrated = self._session(name)
        echo = bool(request.get("echo_text"))
        defer = op == "edit" and bool(request.get("defer"))
        if op == "edit":
            future = session.submit_edits(
                rid, specs, defer=defer, echo_text=echo
            )
        elif op == "invalidate":
            if on is not None:
                # The delta names a source document: record it in the
                # project graph too, so a rehydration of this session
                # re-seeds the current names instead of stale ones.
                self.manager.project.record_delta(name, on, added, removed)
            future = session.submit_invalidate(rid, added, removed)
        else:
            future = session.submit_op(op, rid, echo_text=echo)
        if defer:
            # Deferred edits are answered at the next flush; do not
            # start the timeout clock on an intentionally open batch.
            reply = await future
        else:
            reply = await self._await_reply(future, rid)
        if op == "close":
            self.manager.close(name)
        return self._tag(reply, rehydrated)

    async def _handle_depends(self, rid: object, request: dict) -> dict:
        """Register ``doc`` importing type names from another document.

        Without a ``seed``, the dependency is resolved (or rehydrated)
        locally and analyzed first, so its exports are cached before the
        dependent's first resolution against them.  The shard dispatcher
        pre-computes ``seed`` when the dependency lives on another shard
        -- this process must then leave that document alone (single
        writer per shard).
        """
        name = _doc_name(request, "depends")
        on = _doc_name(request, "depends", "on")
        if on == name:
            raise ProtocolError("a document cannot depend on itself")
        seed = None
        if request.get("seed") is not None:
            seed = _names(request, "seed")
        else:
            try:
                header, _ = self._session(on)
            except _Refused:
                pass  # unknown dependency: nothing to cache yet
            else:
                # Populate the export cache (via the manager's exports
                # hook); a failed analysis just leaves it empty until
                # the dependency's next successful analysis.
                await self._await_reply(
                    header.submit_op("analyze", None), None
                )
        session, rehydrated = self._session(name)
        self.manager.add_dependency(name, on, seed=seed)
        reply = await self._await_reply(
            session.submit_op("analyze", rid), rid
        )
        reply.setdefault(
            "depends_on",
            sorted(self.manager.project.dependencies_of(name)),
        )
        return self._tag(reply, rehydrated)

    @staticmethod
    def _tag(reply: dict, rehydrated: bool) -> dict:
        if rehydrated:
            reply["rehydrated"] = True
        return reply

    async def _await_reply(self, future: asyncio.Future, rid: object) -> dict:
        if self.request_timeout is None or self.request_timeout <= 0:
            return await future
        try:
            return await asyncio.wait_for(future, self.request_timeout)
        except asyncio.TimeoutError:
            # wait_for cancels the future *unless* it completed in the
            # same tick the deadline fired -- a worker that answered
            # just-too-late raced the clock.  Salvage that reply instead
            # of discarding it, and count the timeout exactly once.
            if future.done() and not future.cancelled():
                obs.incr("service.late_replies")
                return future.result()
            self.timeouts += 1
            obs.incr("service.timeouts")
            return error_reply(
                rid,
                E_TIMEOUT,
                f"no reply within {self.request_timeout}s; "
                "accepted edits will land with a later reply",
                pending=True,
            )

    def on_idle(self) -> None:
        """Checkpoint full snapshot logs while no reply is owed."""
        self.manager.compact_idle()

    async def aclose(self) -> None:
        self.manager.close_all(snapshot=True)
        self.collector.remove()


def serve(args) -> int:
    """``repro serve`` entry point (see `repro.cli`).

    ``--workers N`` with N > 1 swaps the in-process backend for the
    multi-core :class:`~repro.service.pool.ShardDispatcher`: N worker
    subprocesses, each itself a ``repro serve``, documents routed by
    consistent hashing, the same protocol on the same transports.
    Residency/queue limits then apply per worker shard.
    """
    kwargs = dict(
        max_sessions=args.max_sessions,
        max_resident_nodes=args.max_nodes,
        queue_limit=args.queue_limit,
        request_timeout=args.timeout,
        state_dir=args.state_dir or os.environ.get("REPRO_STATE_DIR"),
    )
    if args.workers > 1:
        from .pool import ShardDispatcher

        service: ServiceTransport = ShardDispatcher(args.workers, **kwargs)
    else:
        service = AnalysisService(**kwargs)
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        asyncio.run(service.serve_tcp(host or "127.0.0.1", int(port)))
    else:
        asyncio.run(service.serve_stdio())
    return 0
