"""Multi-core backend: shard the session pool across worker processes.

A single :class:`~repro.service.server.AnalysisService` is single-writer
per session but still one CPU-bound process, so aggregate throughput
caps at one core however many documents are open.  Sessions share no
mutable state (the paper's per-document incrementality is embarrassingly
parallel across documents), which makes the scaling move mechanical:
run N copies of the service and route each document to exactly one of
them.

:class:`ShardDispatcher` is that router, and only a router.  It speaks
the same JSON-lines protocol as the in-process service -- ``handle
(request) -> reply`` -- but validates nothing: a request goes to the
worker owning its ``doc`` (shard 0 when there is no usable ``doc``),
whose ``AnalysisService`` checks it and writes the reply, error
replies included.  Both backends therefore run one request path, and
every transport, bench, and differential suite runs unchanged:

* **workers** are subprocesses running ``repro serve``
  (:mod:`repro.service.worker`) on stdio pipes, each with its own event
  loop, session pool, and degradation ladder;
* **routing** is rendezvous (highest-random-weight) hashing on the
  document id: ``shard_for(doc, N)`` is deterministic, uniform, and
  *consistent* -- resizing from N to N+1 workers remaps only ~1/(N+1)
  of the documents, and because every worker shares one on-disk
  :class:`~repro.service.persist.SnapshotStore` (``--state-dir``) and
  one parse-table cache (`repro.tables.cache`), a remapped or respawned
  worker lazily rehydrates its sessions instead of losing them;
* **worker death is a routine event**, not an outage: the dispatcher
  notices EOF on the worker's pipe, answers that worker's in-flight
  requests with a ``worker-restart`` error (``retry: true`` -- the
  session itself is durable), folds the worker's last-known counters
  into a retired total so aggregate stats never move backwards, and
  respawns the shard.  The next request for one of its documents
  rehydrates from the shared snapshot store -- a worker crash costs one
  warm recovery, not a lost pool;
* **what routing by ``doc`` cannot do** is the dispatcher's own work:
  it answers ``ping``; fans ``stats`` and the language form of
  ``reload_grammar`` out to every worker and merges the replies;
  broadcasts ``shutdown`` so every shard snapshots before exiting;
  pre-seeds a cross-shard ``depends`` with the dependency's exports;
  and forwards each ``exports_changed`` delta to the dependents on
  other shards.

Residency limits (``max_sessions``, ``max_resident_nodes``, queue
bounds) apply *per shard*: the flags keep their single-process meaning
inside each worker.

Fault injection: a ``REPRO_CRASH_AT`` inherited from the environment is
deliberately *stripped* from worker environments -- otherwise every
respawned worker would re-arm the same kill and crash-loop.  The
kill-a-worker suite arms a specific shard's *first* life via
``fault_env={shard_index: {"REPRO_CRASH_AT": ...}}``; respawns always
come up clean, which is what makes the recovery path testable.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

from .. import obs
from ..testing.faults import CRASH_ENV
from .protocol import E_TIMEOUT, E_WORKER, encode, error_reply, ok_reply
from .server import ServiceTransport

# Extra seconds past the worker's own request timeout before the
# dispatcher gives up on a reply (the worker answers its own timeouts;
# this net only catches a hung or dying worker).
_TIMEOUT_GRACE = 5.0

# Reply deadline for the stats fan-out: a wedged worker must not stall
# the whole aggregate view (its last-known counters stand in).
_STATS_TIMEOUT = 10.0

_SRC_ROOT = Path(__file__).resolve().parents[2]


def shard_for(doc: str, shards: int) -> int:
    """Which worker owns ``doc``: rendezvous (HRW) hashing.

    Every (shard, doc) pair gets an independent score; the highest
    score wins.  Uniform for any shard count, and consistent: adding or
    removing one shard remaps only the documents whose winner changed,
    ~1/N of them -- which matters because remapped documents pay one
    snapshot rehydration on their new worker.
    """
    if shards <= 1:
        return 0
    best, best_score = 0, b""
    for index in range(shards):
        score = hashlib.sha256(b"%d|%s" % (index, doc.encode("utf-8"))).digest()
        if score > best_score:
            best, best_score = index, score
    return best


def _merged_collector(per_worker: list[dict]) -> list[dict]:
    """The workers' collector reports summed per generation.

    Passes, objects collected and pause time add up; the largest pause
    is the largest any worker saw.  The dispatcher's own collector is
    not counted: it holds no parse DAGs.
    """
    merged: dict[int, dict] = {}
    for stats in per_worker:
        for entry in stats.get("collector") or ():
            into = merged.setdefault(
                entry["generation"],
                {"generation": entry["generation"], "collections": 0,
                 "collected": 0, "pause_ms": 0.0, "max_pause_ms": 0.0},
            )
            into["collections"] += entry["collections"]
            into["collected"] += entry["collected"]
            into["pause_ms"] = round(into["pause_ms"] + entry["pause_ms"], 3)
            into["max_pause_ms"] = max(
                into["max_pause_ms"], entry["max_pause_ms"]
            )
    return [merged[generation] for generation in sorted(merged)]


class _Worker:
    """One shard slot: the live subprocess plus its bookkeeping."""

    __slots__ = (
        "index",
        "proc",
        "reader_task",
        "pending",
        "last_stats",
        "generation",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: asyncio.subprocess.Process | None = None
        self.reader_task: asyncio.Task | None = None
        # internal id -> (client id, waiting future)
        self.pending: dict[int, tuple[object, asyncio.Future]] = {}
        # Last stats dict this worker life reported (folded into the
        # retired totals when the life ends).
        self.last_stats: dict | None = None
        self.generation = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.returncode is None


class ShardDispatcher(ServiceTransport):
    """Protocol front end that routes requests to N worker processes."""

    def __init__(
        self,
        workers: int,
        *,
        max_sessions: int = 32,
        max_resident_nodes: int = 2_000_000,
        queue_limit: int = 64,
        request_timeout: float = 30.0,
        state_dir: str | os.PathLike | None = None,
        worker_env: dict[str, str] | None = None,
        fault_env: dict[int, dict[str, str]] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.max_sessions = max_sessions
        self.max_resident_nodes = max_resident_nodes
        self.queue_limit = queue_limit
        self.request_timeout = request_timeout
        # How long the dispatcher waits for a forwarded reply (None:
        # forever, when the workers themselves run without a deadline).
        self._deadline = (
            request_timeout + _TIMEOUT_GRACE
            if request_timeout and request_timeout > 0
            else None
        )
        self.state_dir = os.fspath(state_dir) if state_dir else None
        self.worker_env = dict(worker_env or {})
        self.fault_env = {k: dict(v) for k, v in (fault_env or {}).items()}
        self.requests = 0
        self.timeouts = 0
        self.counts = {
            "routed": 0,
            "worker_restarts": 0,
            "forward_errors": 0,
            "invalidations": 0,
        }
        # Cross-shard dependency edges: dependency doc -> dependents on
        # *other* shards get their "names changed" deltas routed here
        # (co-sharded dependents are the owning worker's manager's job).
        self._rdeps: dict[str, set[str]] = {}
        self._handles = [_Worker(i) for i in range(workers)]
        self._iid = itertools.count(1)
        # Counters of completed worker lives, so stats() totals cover
        # the pool's whole lifetime (the respawn-reset fix).
        self._retired_counters: dict[str, int] = {}
        self._retired_requests = 0
        self._retired_timeouts = 0
        self._stopping = asyncio.Event()
        self._closing = False
        self._started = False
        self._start_lock = asyncio.Lock()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker (idempotent; also done lazily by handle)."""
        async with self._start_lock:
            if self._started or self._closing:
                return
            for handle in self._handles:
                await self._spawn(handle)
            self._started = True

    def _worker_command(self) -> list[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro.service.worker",
            "--max-sessions",
            str(self.max_sessions),
            "--max-nodes",
            str(self.max_resident_nodes),
            "--queue-limit",
            str(self.queue_limit),
            "--timeout",
            str(self.request_timeout or 0.0),
        ]
        if self.state_dir:
            cmd += ["--state-dir", self.state_dir]
        return cmd

    def _worker_environment(self, handle: _Worker) -> dict[str, str]:
        env = dict(os.environ)
        # An armed kill must fire once per shard slot, not once per
        # life: a respawn that re-armed the same SIGKILL would loop.
        env.pop(CRASH_ENV, None)
        # Workers run `repro serve`, which would fall back to this;
        # the dispatcher's own state_dir (passed as a flag) must win.
        env.pop("REPRO_STATE_DIR", None)
        env["PYTHONPATH"] = str(_SRC_ROOT) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.update(self.worker_env)
        if handle.generation == 0:
            env.update(self.fault_env.get(handle.index, {}))
        return env

    async def _spawn(self, handle: _Worker) -> None:
        handle.proc = await asyncio.create_subprocess_exec(
            *self._worker_command(),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=self._worker_environment(handle),
        )
        handle.reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(handle),
            name=f"repro-shard-{handle.index}-g{handle.generation}",
        )
        obs.incr("shard.spawns")

    async def _read_loop(self, handle: _Worker) -> None:
        """Match worker replies to waiting futures; handle death on EOF."""
        proc = handle.proc
        while True:
            line = await proc.stdout.readline()
            if not line:
                break
            try:
                reply = json.loads(line)
            except json.JSONDecodeError:
                continue  # a line truncated by a dying worker
            if not isinstance(reply, dict):
                continue
            entry = handle.pending.pop(reply.get("id"), None)
            if entry is None:
                continue  # reply raced a timeout or a death sweep
            rid, future = entry
            reply["id"] = rid
            if not future.done():
                future.set_result(reply)
        await self._on_worker_exit(handle, proc)

    async def _on_worker_exit(self, handle: _Worker, proc) -> None:
        returncode = await proc.wait()
        self._fail_pending(
            handle,
            f"shard {handle.index} worker exited "
            f"(rc={returncode}); respawning",
        )
        self._retire_worker(handle)
        if self._closing or self._stopping.is_set():
            return
        handle.generation += 1
        self.counts["worker_restarts"] += 1
        obs.incr("shard.worker_restarts")
        await self._spawn(handle)

    def _fail_pending(self, handle: _Worker, message: str) -> None:
        pending, handle.pending = handle.pending, {}
        for rid, future in pending.values():
            if not future.done():
                future.set_result(
                    error_reply(rid, E_WORKER, message, retry=True)
                )

    def _retire_worker(self, handle: _Worker) -> None:
        """Fold a dead life's last-known counters into the totals.

        The fold is as fresh as the last ``stats`` fan-out (work done
        after that scrape died with the process), but it guarantees the
        aggregate counters never *decrease* across a respawn.
        """
        stats = handle.last_stats
        handle.last_stats = None
        if not stats:
            return
        for key, value in (stats.get("counters") or {}).items():
            if isinstance(value, int):
                self._retired_counters[key] = (
                    self._retired_counters.get(key, 0) + value
                )
        self._retired_requests += stats.get("requests", 0)
        self._retired_timeouts += stats.get("timeouts", 0)

    async def aclose(self) -> None:
        """Broadcast shutdown so every shard snapshots, then reap."""
        # Wait out an in-progress start(): closing mid-spawn would skip
        # the not-yet-alive workers and leak them.
        async with self._start_lock:
            self._closing = True
        self._stopping.set()
        procs = []
        for handle in self._handles:
            if not handle.alive:
                continue
            procs.append(handle.proc)
            try:
                handle.proc.stdin.write(
                    (encode({"op": "shutdown", "id": None}) + "\n").encode()
                )
                await handle.proc.stdin.drain()
                handle.proc.stdin.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
        if procs:
            done, pending = await asyncio.wait(
                [asyncio.ensure_future(p.wait()) for p in procs],
                timeout=15.0,
            )
            if pending:
                for proc in procs:
                    if proc.returncode is None:
                        proc.kill()
                await asyncio.gather(*pending, return_exceptions=True)
        for handle in self._handles:
            if handle.reader_task is not None:
                try:
                    await handle.reader_task
                except asyncio.CancelledError:
                    pass
                handle.reader_task = None

    # -- dispatch -------------------------------------------------------------

    async def handle(self, request: dict) -> dict | None:
        """One request to one reply, same contract as AnalysisService."""
        # Unconditional: requests that arrive while the pool is still
        # spawning queue FIFO on the start lock, and a later request
        # must queue BEHIND them, not skip ahead on the fast path --
        # otherwise a query pipelined after an open can reach the
        # worker first and find no session.
        await self.start()
        self.requests += 1
        obs.incr("shard.requests")
        rid = request.get("id")
        op = request.get("op")
        doc = request.get("doc")
        if op == "ping":
            return ok_reply(rid, pong=True, workers=self.workers)
        if op == "shutdown":
            self._stopping.set()
            return ok_reply(rid, stopping=True)
        if op == "stats":
            return await self._merged_stats(rid)
        if op == "reload_grammar" and doc is None:
            # Language-form reload: every worker holds its own override
            # map and its own slice of the session pool, so all of them
            # must recompile.
            return await self._broadcast_reload(rid, request)
        # Everything else has one owner.  Without a usable doc there is
        # none, and shard 0's service writes the error reply.
        routable = isinstance(doc, str) and bool(doc)
        shard = shard_for(doc, self.workers) if routable else 0
        self.counts["routed"] += 1
        if op == "depends" and routable:
            request = await self._seed_depends(shard, request)
        reply = await self._forward(self._handles[shard], request)
        if op == "depends" and reply.get("ok"):
            self._rdeps.setdefault(request["on"], set()).add(doc)
        await self._propagate_exports(reply, shard)
        return reply

    # -- cross-shard semantics ------------------------------------------------

    async def _seed_depends(self, shard: int, request: dict) -> dict:
        """Pre-seed a cross-shard ``depends`` with the dependency's exports.

        When the dependency ``on`` lives on another shard, its exports
        are fetched from the owning worker first and passed along as a
        ``seed`` -- the dependent's worker must never open or rehydrate
        a document it does not own (single writer per shard).
        """
        on = request.get("on")
        if request.get("seed") is not None or not isinstance(on, str):
            return request
        source = shard_for(on, self.workers)
        if source == shard:
            return request
        head = await self._forward(
            self._handles[source], {"op": "analyze", "doc": on, "id": None}
        )
        await self._propagate_exports(head, source)
        seed = head.get("exports") if head.get("ok") else None
        return dict(request, seed=seed or [])

    async def _propagate_exports(self, reply: dict, source_shard: int) -> None:
        """Fan a reply's ``exports_changed`` delta out across shards.

        Invalidations are awaited inline (deterministic: by the time the
        triggering reply reaches the client, every dependent shard has
        queued its re-decision).  Dependents co-sharded with the source
        are skipped -- the owning worker's manager already reached them
        in-process.  Each forwarded ``invalidate`` names its source in
        ``on``, so the dependent's worker records the delta in its
        project graph and a later rehydration re-seeds current names.
        """
        changed = reply.get("exports_changed")
        if not changed:
            return
        doc = changed.get("doc")
        dependents = self._rdeps.get(doc)
        if not dependents:
            return
        added = list(changed.get("added") or [])
        removed = list(changed.get("removed") or [])
        with obs.span(
            "shard.invalidate",
            doc=doc,
            added=len(added),
            removed=len(removed),
            dependents=len(dependents),
        ):
            for dependent in sorted(dependents):
                dependent_shard = shard_for(dependent, self.workers)
                if dependent_shard == source_shard:
                    continue
                self.counts["invalidations"] += 1
                obs.incr("shard.invalidations")
                sub_reply = await self._forward(
                    self._handles[dependent_shard],
                    {
                        "op": "invalidate",
                        "doc": dependent,
                        "on": doc,
                        "id": None,
                        "added": added,
                        "removed": removed,
                    },
                )
                await self._propagate_exports(sub_reply, dependent_shard)

    # -- forwarding -----------------------------------------------------------

    def _post(
        self, handle: _Worker, request: dict
    ) -> tuple[int, asyncio.Future | None, dict | None]:
        """Synchronous half of a forward: queue the request on the
        worker pipe without yielding, so several posts made back to
        back hit their pipes in program order.  Returns
        ``(iid, future, None)`` or ``(0, None, error_reply)``.
        """
        rid = request.get("id")
        if not handle.alive:
            # Died between EOF and respawn completing: the client
            # retries, the respawned worker rehydrates the session.
            self.counts["forward_errors"] += 1
            return 0, None, error_reply(
                rid,
                E_WORKER,
                f"shard {handle.index} worker restarting; retry",
                retry=True,
            )
        iid = next(self._iid)
        future = asyncio.get_running_loop().create_future()
        handle.pending[iid] = (rid, future)
        payload = dict(request)
        payload["id"] = iid
        try:
            handle.proc.stdin.write((encode(payload) + "\n").encode())
        except (ConnectionError, OSError, RuntimeError):
            handle.pending.pop(iid, None)
            self.counts["forward_errors"] += 1
            return 0, None, error_reply(
                rid,
                E_WORKER,
                f"shard {handle.index} worker pipe broken; retry",
                retry=True,
            )
        return iid, future, None

    async def _await(
        self,
        handle: _Worker,
        posted: tuple[int, asyncio.Future | None, dict | None],
        rid: object,
        timeout: float | None,
    ) -> dict:
        """The reply to one posted request, or a ``timeout`` error reply
        after ``timeout`` seconds (None: wait for the worker)."""
        iid, future, error = posted
        if error is not None:
            return error
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            handle.pending.pop(iid, None)
            self.timeouts += 1
            obs.incr("shard.timeouts")
            return error_reply(
                rid,
                E_TIMEOUT,
                f"no reply from shard {handle.index} within {timeout}s; "
                "accepted edits will land with a later reply",
                pending=True,
            )

    async def _forward(self, handle: _Worker, request: dict) -> dict:
        posted = self._post(handle, request)
        _, future, _ = posted
        if future is not None:
            try:
                await handle.proc.stdin.drain()
            except (ConnectionError, OSError, RuntimeError):
                pass  # exit/respawn handling resolves the pending future
        # The worker applies its own per-request deadline; a deferred
        # edit legitimately waits for its flush trigger.
        deferred = request.get("op") == "edit" and bool(request.get("defer"))
        return await self._await(
            handle,
            posted,
            request.get("id"),
            None if deferred else self._deadline,
        )

    async def _fan_out(
        self, request: dict, timeout: float | None
    ) -> list[tuple[_Worker, dict]]:
        """Send ``request`` to every worker; ``(worker, reply)`` pairs.

        Every post happens before any await: the writes land on each
        pipe in program order, so a fan-out pipelined after session ops
        is answered after them on every shard -- and a concurrent
        shutdown cannot close a pipe between two posts.
        """
        rid = request.get("id")
        posted = [
            (handle, self._post(handle, request)) for handle in self._handles
        ]
        return [
            (handle, await self._await(handle, item, rid, timeout))
            for handle, item in posted
        ]

    async def _broadcast_reload(self, rid: object, request: dict) -> dict:
        """Fan a language-form ``reload_grammar`` out to every shard.

        Each worker recompiles independently (shared table cache makes
        N-1 of those compiles disk hits), re-parses its own sessions,
        and reports what it reloaded; the merged reply unions the
        session lists and notes failed shards under ``partial``.
        """
        replies = await self._fan_out(request, self._deadline)
        ok = [reply for _, reply in replies if reply.get("ok")]
        if not ok:
            # Every shard failed alike (e.g. the grammar does not
            # compile, or the request is malformed): answer as one would.
            return replies[0][1]
        errors = [
            f"shard {handle.index}: {reply['error']['message']}"
            for handle, reply in replies
            if not reply.get("ok")
        ]
        return ok_reply(
            rid,
            language=ok[0].get("language"),
            table_key=ok[0].get("table_key"),
            old_table_key=ok[0].get("old_table_key"),
            invalidated=any(reply.get("invalidated") for reply in ok),
            sessions_reloaded=sorted(
                name for reply in ok for name in reply["sessions_reloaded"]
            ),
            **({"partial": errors} if errors else {}),
        )

    # -- stats fan-out --------------------------------------------------------

    async def _merged_stats(self, rid: object) -> dict:
        per_worker: list[dict] = []
        for handle, reply in await self._fan_out(
            {"op": "stats", "id": rid}, _STATS_TIMEOUT
        ):
            if reply.get("ok"):
                stats = reply["stats"]
                stats["worker"] = {
                    "shard": handle.index,
                    "pid": handle.proc.pid,
                }
                handle.last_stats = stats
                per_worker.append(stats)
            elif handle.last_stats is not None:
                per_worker.append(dict(handle.last_stats, stale=True))
        merged: dict[str, int] = dict(self._retired_counters)
        table_cache: dict[str, int] = {}
        sessions: dict[str, dict] = {}
        persist: dict | None = None
        requests = self._retired_requests + self.requests
        timeouts = self._retired_timeouts + self.timeouts
        resident = 0
        # Directory-scan values every worker reports identically for the
        # shared store; summing them would multiply by N.
        dirstate = {"snapshots", "bytes", "quarantined_files"}
        for stats in per_worker:
            for key, value in (stats.get("counters") or {}).items():
                if isinstance(value, int):
                    merged[key] = merged.get(key, 0) + value
            for key, value in (stats.get("table_cache") or {}).items():
                if isinstance(value, int):
                    table_cache[key] = table_cache.get(key, 0) + value
            store = stats.get("persist")
            if store:
                if persist is None:
                    persist = {
                        "dir": store.get("dir"),
                        "format": store.get("format"),
                    }
                for key, value in store.items():
                    if not isinstance(value, int) or key == "format":
                        continue
                    if key in dirstate:
                        persist[key] = max(persist.get(key, 0), value)
                    else:
                        persist[key] = persist.get(key, 0) + value
            sessions.update(stats.get("sessions") or {})
            requests += stats.get("requests", 0)
            timeouts += stats.get("timeouts", 0)
            resident += stats.get("resident_nodes", 0)
        received = merged.get("edits_received", 0)
        applied = merged.get("edits_applied", 0)
        return ok_reply(
            rid,
            stats={
                "workers": self.workers,
                "dispatcher": {
                    "requests": self.requests,
                    "timeouts": self.timeouts,
                    **self.counts,
                    "shards": [
                        {
                            "shard": handle.index,
                            "alive": handle.alive,
                            "generation": handle.generation,
                            "pid": handle.proc.pid if handle.proc else None,
                            "pending": len(handle.pending),
                        }
                        for handle in self._handles
                    ],
                },
                "per_worker": per_worker,
                "collector": _merged_collector(per_worker),
                "sessions": sessions,
                "persist": persist,
                "counters": merged,
                "table_cache": table_cache,
                "resident_nodes": resident,
                "coalesce_ratio": (received / applied) if applied else None,
                "requests": requests,
                "timeouts": timeouts,
            },
        )
