"""Durable session snapshots: store, log, rehydration, eviction, corruption.

Five contracts from the persistence design:

* **round trip** -- a snapshotted session rehydrates with byte-identical
  text and a *warm* document (recovery is one incremental pass over the
  journal tail, not a batch rebuild);
* **corruption is quarantined** -- truncated, version-mismatched, or
  garbage snapshot files are renamed aside and counted; the service
  answers ``no-session`` and keeps running;
* **eviction is no longer lossy** -- LRU eviction snapshots first, and a
  saturated pool force-evicts the LRU *quiesced* (parked) session
  instead of refusing with ``capacity``;
* **the write-ahead save costs the edit** -- a flush appends one log
  record; a checkpoint is written only where the manager's rules ask
  for one, a torn final record is dropped, any other bad record
  quarantines the file, and recovery from a full log stays warm;
* **the dispatcher survives late replies** -- a worker answering after
  the request deadline neither wedges the dispatcher nor double-counts
  the timeout.
"""

import asyncio

import pytest

from repro.langs.calc import calc_language
from repro.service import (
    AnalysisService,
    CapacityError,
    EditSpec,
    Session,
    SessionManager,
    SnapshotStore,
)
from repro.service.persist import _HEADER, _RECORD, FORMAT, LOG_LIMIT, MAGIC
from repro.testing import inject

pytestmark = [pytest.mark.service, pytest.mark.persistence]


def run(coro):
    return asyncio.run(coro)


def make_store(tmp_path):
    return SnapshotStore(tmp_path / "state")


async def open_session(manager, name, text):
    session = manager.open(name, language="calc")
    reply = await session.open_with(text, 0)
    assert reply["ok"], reply
    return session


# -- snapshot store ------------------------------------------------------------


class TestSnapshotStore:
    def test_missing_is_a_counted_miss(self, tmp_path):
        store = make_store(tmp_path)
        assert store.load("nope") is None
        assert store.counts["misses"] == 1

    def test_save_load_round_trip(self, tmp_path):
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", "a = 1;")
            store.save(session.make_snapshot())
            manager.close_all(snapshot=False)

        run(go())
        snap = store.load("d")
        assert snap is not None
        assert snap.name == "d" and snap.text == "a = 1;"
        assert snap.language == "calc" and snap.doc_payload is not None
        assert store.counts["saves"] >= 1 and store.counts["loads"] == 1

    def test_save_is_atomic_no_tmp_residue(self, tmp_path):
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(store=store)
            await open_session(manager, "d", "a = 1;")
            manager.close_all()

        run(go())
        names = [p.name for p in store.directory.iterdir()]
        assert not any(n.endswith(".tmp") for n in names), names

    def test_delete_and_entries(self, tmp_path):
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(store=store)
            await open_session(manager, "one", "a = 1;")
            await open_session(manager, "two", "b = 2;")
            manager.close_all()  # snapshots both

        run(go())
        entries = store.entries()
        assert sorted(e["name"] for e in entries) == ["one", "two"]
        assert all(e["warm"] for e in entries)
        assert store.delete("one") is True
        assert store.delete("one") is False
        assert [e["name"] for e in store.entries()] == ["two"]

    def test_unpicklable_payload_degrades_not_fails(self, tmp_path):
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", "a = 1;")
            snap = session.make_snapshot()
            snap.doc_payload = {"oops": lambda: None}  # unpicklable
            store.save(snap)
            manager.close_all(snapshot=False)

        run(go())
        assert store.counts["save_degraded"] == 1
        snap = store.load("d")
        assert snap is not None and snap.doc_payload is None
        assert snap.text == "a = 1;"


# -- corruption: quarantined, never a crash ------------------------------------


class TestCorruption:
    def _persisted_store(self, tmp_path, text="a = 1;"):
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(store=store)
            await open_session(manager, "d", text)
            manager.close_all()

        run(go())
        assert store.load("d") is not None  # sanity: good before damage
        store.counts["loads"] = 0
        return store

    def corrupt(self, store, mutate):
        path = store.path_for("d")
        mutate(path)
        return path

    @pytest.mark.parametrize(
        "label, mutate",
        [
            ("truncated-header", lambda p: p.write_bytes(p.read_bytes()[:8])),
            (
                "truncated-payload",
                lambda p: p.write_bytes(p.read_bytes()[:-20]),
            ),
            ("garbage", lambda p: p.write_bytes(b"not a snapshot at all")),
            (
                "format-bump",
                lambda p: p.write_bytes(
                    _HEADER.pack(
                        MAGIC, FORMAT + 1, *_HEADER.unpack_from(p.read_bytes())[2:]
                    )
                    + p.read_bytes()[_HEADER.size:]
                ),
            ),
            # What an upgraded server finds on disk: the previous format.
            (
                "format-previous",
                lambda p: p.write_bytes(
                    _HEADER.pack(
                        MAGIC, FORMAT - 1, *_HEADER.unpack_from(p.read_bytes())[2:]
                    )
                    + p.read_bytes()[_HEADER.size:]
                ),
            ),
            (
                "digest-flip",
                lambda p: p.write_bytes(
                    p.read_bytes()[:-1]
                    + bytes([p.read_bytes()[-1] ^ 0xFF])
                ),
            ),
        ],
    )
    def test_bad_file_quarantined(self, tmp_path, label, mutate):
        store = self._persisted_store(tmp_path)
        path = self.corrupt(store, mutate)
        assert store.load("d") is None
        assert store.counts["quarantined"] == 1
        assert not path.exists()
        assert len(store.quarantined_files()) == 1
        # A quarantined name is a plain miss from now on.
        assert store.load("d") is None
        assert store.counts["misses"] == 1

    def test_corrupt_snapshot_never_crashes_the_service(self, tmp_path):
        state = tmp_path / "state"

        async def first_life():
            service = AnalysisService(state_dir=state)
            reply = await service.handle(
                {"op": "open", "id": 0, "doc": "d", "language": "calc",
                 "text": "a = 1;"}
            )
            assert reply["ok"]
            await service.aclose()

        run(first_life())
        store = SnapshotStore(state)
        store.path_for("d").write_bytes(b"\x00" * 64)

        async def second_life():
            service = AnalysisService(state_dir=state)
            reply = await service.handle(
                {"op": "query", "id": 1, "doc": "d"}
            )
            assert not reply["ok"]
            assert reply["error"]["code"] == "no-session"
            # The service is alive and the name is reusable.
            reopened = await service.handle(
                {"op": "open", "id": 2, "doc": "d", "language": "calc",
                 "text": "b = 2;"}
            )
            assert reopened["ok"]
            stats = (await service.handle({"op": "stats", "id": 3}))["stats"]
            assert stats["persist"]["quarantined"] == 1
            await service.aclose()

        run(second_life())

    def test_gc_sweeps_quarantined_files(self, tmp_path):
        store = self._persisted_store(tmp_path)
        self.corrupt(store, lambda p: p.write_bytes(b"junk"))
        assert store.load("d") is None
        assert len(store.quarantined_files()) == 1
        result = store.gc()
        assert result["quarantined_removed"] == 1
        assert store.quarantined_files() == []


# -- rehydration ---------------------------------------------------------------


class TestRehydration:
    def test_warm_rehydrate_is_incremental_not_rebuild(self, tmp_path):
        store = make_store(tmp_path)
        text = "a = 1;\n" + "\n".join(f"x{i} = {i};" for i in range(40))

        async def first_life():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", text)
            reply = await session.submit_edits(1, [EditSpec(4, 1, "9")])
            assert reply["ok"]
            version = session.doc.version
            manager.close_all()
            return version

        version = run(first_life())

        async def second_life():
            manager = SessionManager(store=store)
            session = manager.rehydrate("d")
            assert session is not None and session.restored
            # Warm: the committed DAG came back; no batch rebuild ran.
            assert session.doc is not None
            assert session.doc.text == text.replace("a = 1;", "a = 9;", 1)
            assert session.doc.version == version  # versions survive
            assert session.counts["rebuilds"] == 0
            # And it keeps editing incrementally from here.
            reply = await session.submit_edits(2, [EditSpec(0, 1, "b")])
            assert reply["ok"] and reply["version"] == version + 1
            assert session.counts["rebuilds"] == 0
            manager.close_all(snapshot=False)

        run(second_life())

    def test_text_only_snapshot_falls_back_to_rebuild(self, tmp_path):
        store = make_store(tmp_path)

        async def first_life():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", "a = 1;")
            snap = session.make_snapshot()
            snap.doc_payload = None  # simulate a degraded save
            store.save(snap)
            manager.close_all(snapshot=False)

        run(first_life())

        async def second_life():
            manager = SessionManager(store=store)
            session = manager.rehydrate("d")
            assert session is not None
            assert session.doc is None  # lazy: rebuilt on first request
            reply = await session.submit_op("query", 1, echo_text=True)
            assert reply["ok"] and reply["text"] == "a = 1;"
            assert session.counts["rebuilds"] == 1
            manager.close_all(snapshot=False)

        run(second_life())

    def test_journal_tail_replays_unflushed_edits(self, tmp_path):
        """A snapshot taken while parked carries accepted-but-unflushed
        edits in its journal tail; rehydration replays them."""
        store = make_store(tmp_path)

        async def first_life():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", "a = 1;")
            deferred = session.submit_edits(
                1, [EditSpec(4, 1, "7")], defer=True
            )
            for _ in range(20):  # let the worker park on the open batch
                await asyncio.sleep(0)
                if session._parked:
                    break
            assert session._parked
            snap = session.make_snapshot()
            assert snap.doc_payload is not None
            assert snap.doc_payload["text"] == "a = 1;"
            assert snap.text == "a = 7;"
            assert snap.journal_tail == [(4, 1, "7")]
            store.save(snap)
            session.shut_down()
            reply = await deferred
            assert not reply["ok"]  # eviction answered the parked batch
            manager.close_all(snapshot=False)

        run(first_life())

        async def second_life():
            manager = SessionManager(store=store)
            session = manager.rehydrate("d")
            assert session is not None
            assert session.doc is not None
            assert session.doc.text == "a = 7;"  # tail replayed, warm
            assert session.shadow_text == "a = 7;"
            manager.close_all(snapshot=False)

        run(second_life())

    def test_rehydrate_through_the_protocol_tags_replies(self, tmp_path):
        state = tmp_path / "state"

        async def first_life():
            service = AnalysisService(state_dir=state)
            await service.handle(
                {"op": "open", "id": 0, "doc": "d", "language": "calc",
                 "text": "a = 1;"}
            )
            await service.aclose()

        run(first_life())

        async def second_life():
            service = AnalysisService(state_dir=state)
            reply = await service.handle(
                {"op": "query", "id": 1, "doc": "d", "echo_text": True}
            )
            assert reply["ok"] and reply["rehydrated"] is True
            assert reply["text"] == "a = 1;"
            # Only the first touch rehydrates; the session is live now.
            again = await service.handle({"op": "query", "id": 2, "doc": "d"})
            assert again["ok"] and "rehydrated" not in again
            # The snapshot op forces a durable save on demand.
            snap = await service.handle(
                {"op": "snapshot", "id": 3, "doc": "d"}
            )
            assert snap["ok"] and snap["persisted"] is True
            await service.aclose()

        run(second_life())

    def test_explicit_close_drops_durable_state(self, tmp_path):
        state = tmp_path / "state"

        async def go():
            service = AnalysisService(state_dir=state)
            await service.handle(
                {"op": "open", "id": 0, "doc": "d", "language": "calc",
                 "text": "a = 1;"}
            )
            await service.handle({"op": "close", "id": 1, "doc": "d"})
            reply = await service.handle({"op": "query", "id": 2, "doc": "d"})
            assert reply["error"]["code"] == "no-session"
            await service.aclose()

        run(go())
        assert SnapshotStore(state).entries() == []

    def test_open_over_supersedes_old_snapshot(self, tmp_path):
        state = tmp_path / "state"

        async def first_life():
            service = AnalysisService(state_dir=state)
            await service.handle(
                {"op": "open", "id": 0, "doc": "d", "language": "calc",
                 "text": "a = 1;"}
            )
            await service.aclose()

        run(first_life())

        async def second_life():
            service = AnalysisService(state_dir=state)
            # Client reopens with fresh text instead of touching the old
            # session: its buffer, not the snapshot, is authoritative.
            reply = await service.handle(
                {"op": "open", "id": 1, "doc": "d", "language": "calc",
                 "text": "z = 9;"}
            )
            assert reply["ok"]
            query = await service.handle(
                {"op": "query", "id": 2, "doc": "d", "echo_text": True}
            )
            assert query["text"] == "z = 9;"
            await service.aclose()

        run(second_life())

    def test_inline_grammar_sessions_survive_restart(self, tmp_path):
        state = tmp_path / "state"
        dsl = """
%token NUM /[0-9]+/
%token ID /[a-z]+/
program : stmt* ;
stmt : ID '=' NUM ';' ;
"""

        async def first_life():
            service = AnalysisService(state_dir=state)
            reply = await service.handle(
                {"op": "open", "id": 0, "doc": "d", "grammar": dsl,
                 "text": "a = 1;"}
            )
            assert reply["ok"]
            await service.aclose()

        run(first_life())

        async def second_life():
            service = AnalysisService(state_dir=state)
            reply = await service.handle(
                {"op": "query", "id": 1, "doc": "d", "echo_text": True}
            )
            assert reply["ok"] and reply["rehydrated"] is True
            assert reply["text"] == "a = 1;"
            await service.aclose()

        run(second_life())


# -- eviction ------------------------------------------------------------------


class TestEvictionPersistence:
    def test_lru_eviction_snapshots_then_rehydrates(self, tmp_path):
        state = tmp_path / "state"

        async def go():
            service = AnalysisService(state_dir=state, max_sessions=2)
            for i, name in enumerate(["one", "two", "three"]):
                reply = await service.handle(
                    {"op": "open", "id": i, "doc": name, "language": "calc",
                     "text": f"a = {i};"}
                )
                assert reply["ok"]
            # "one" was evicted (pool of 2) -- but not lost.
            assert "one" not in service.manager
            reply = await service.handle(
                {"op": "query", "id": 10, "doc": "one", "echo_text": True}
            )
            assert reply["ok"] and reply["rehydrated"] is True
            assert reply["text"] == "a = 0;"
            await service.aclose()

        run(go())

    def test_saturated_pool_force_evicts_quiesced_lru(self, tmp_path):
        """All sessions busy-but-parked: snapshot-and-evict instead of
        an immediate CapacityError (the all-busy satellite)."""
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(max_sessions=2, store=store)
            parked = []
            for name in ["one", "two"]:
                session = await open_session(manager, name, "a = 1;")
                parked.append(
                    session.submit_edits(1, [EditSpec(4, 1, "7")], defer=True)
                )
                for _ in range(20):
                    await asyncio.sleep(0)
                    if session._parked:
                        break
                assert session._parked
            # No idle session anywhere; without a store this refuses.
            session = await open_session(manager, "three", "b = 2;")
            assert "one" not in manager  # LRU quiesced session went
            assert manager.counts["forced_evictions"] == 1
            # Its parked waiter was answered, not stranded ...
            reply = await parked[0]
            assert not reply["ok"] and reply["error"]["code"] == "closed"
            # ... and its full text (accepted edit included) survived.
            snap = store.load("one")
            assert snap is not None and snap.text == "a = 7;"
            manager.close_all(snapshot=False)

        run(go())

    def test_saturated_pool_without_store_still_refuses(self, tmp_path):
        async def go():
            manager = SessionManager(max_sessions=1)
            session = await open_session(manager, "one", "a = 1;")
            deferred = session.submit_edits(
                1, [EditSpec(4, 1, "7")], defer=True
            )
            for _ in range(20):
                await asyncio.sleep(0)
                if session._parked:
                    break
            with pytest.raises(CapacityError):
                manager.open("two", language="calc")
            session.resume()
            session.shut_down()
            await deferred
            manager.close_all(snapshot=False)

        run(go())

    def test_truly_busy_sessions_are_never_force_evicted(self, tmp_path):
        """Mid-flush (busy, not parked) is not quiesced: refuse."""
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(max_sessions=1, store=store)
            session = await open_session(manager, "one", "a = 1;")
            session.pause()
            future = session.submit_edits(1, [EditSpec(4, 1, "7")])
            # Let the worker pick the item up and block on the gate:
            # busy=True, parked=False.
            for _ in range(20):
                await asyncio.sleep(0)
                if session.busy:
                    break
            assert session.busy and not session._parked
            with pytest.raises(CapacityError):
                manager.open("two", language="calc")
            session.resume()
            reply = await future
            assert reply["ok"]
            manager.close_all(snapshot=False)

        run(go())


# -- persist-path fault injection ----------------------------------------------


class TestPersistFaults:
    @pytest.mark.parametrize(
        "point", ["persist:capture", "persist:serialize", "persist:write",
                  "persist:publish"]
    )
    def test_save_crash_never_fails_the_batch(self, tmp_path, point):
        """The write-ahead hook absorbs any save failure: the reply
        still lands, the old snapshot (if any) is untouched.  The
        append fails too, so the batch's save is the checkpoint the
        hook falls back to."""
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", "a = 1;")
            before = store.load("d")
            assert before is not None and before.text == "a = 1;"
            with inject([point, "persist:append"]):
                reply = await session.submit_edits(1, [EditSpec(4, 1, "7")])
            assert reply["ok"], reply  # the batch is not the victim
            # The store still holds a *valid* snapshot of one of the two
            # consistent states (publish crashes after the rename, so
            # the new text may already be visible; every earlier point
            # leaves the old file untouched).
            after = store.load("d")
            assert after is not None and after.text in ("a = 1;", "a = 7;")
            # Next flush (no fault) catches the store up.
            reply = await session.submit_edits(2, [EditSpec(0, 1, "b")])
            assert reply["ok"]
            assert store.load("d").text == "b = 7;"
            manager.close_all(snapshot=False)

        run(go())

    @pytest.mark.parametrize("point", ["persist:append", "persist:appended"])
    def test_append_crash_falls_back_to_checkpoint(self, tmp_path, point):
        """A failed append (before or after its write) never fails the
        batch: the hook writes a checkpoint of the new text instead."""
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", "a = 1;")
            with inject(point):
                reply = await session.submit_edits(1, [EditSpec(4, 1, "7")])
            assert reply["ok"], reply
            assert store.counts["saves"] == 2
            snap = store.load("d")
            assert snap.text == "a = 7;" and snap.log_records == 0
            # The log resumes on the new checkpoint.
            reply = await session.submit_edits(2, [EditSpec(0, 1, "b")])
            assert reply["ok"] and store.counts["appends"] == 1
            assert store.load("d").text == "b = 7;"
            manager.close_all(snapshot=False)

        run(go())

    @pytest.mark.parametrize(
        "point", ["persist:rehydrate-parse", "persist:doc-restore"]
    )
    def test_rehydrate_crash_degrades_to_text_only(self, tmp_path, point):
        store = make_store(tmp_path)

        async def first_life():
            manager = SessionManager(store=store)
            await open_session(manager, "d", "a = 1;")
            manager.close_all()

        run(first_life())

        async def second_life():
            manager = SessionManager(store=store)
            with inject(point):
                session = manager.rehydrate("d")
            assert session is not None
            assert session.doc is None  # warm path lost, text survived
            reply = await session.submit_op("query", 1, echo_text=True)
            assert reply["ok"] and reply["text"] == "a = 1;"
            manager.close_all(snapshot=False)

        run(second_life())

    def test_evict_persist_crash_keeps_prior_snapshot(self, tmp_path):
        state = tmp_path / "state"

        async def go():
            service = AnalysisService(state_dir=state, max_sessions=2)
            for i, name in enumerate(["one", "two"]):
                await service.handle(
                    {"op": "open", "id": i, "doc": name, "language": "calc",
                     "text": f"a = {i};"}
                )
            # Eviction's snapshot attempt dies -- but the write-ahead
            # save from the open already persisted the session.
            with inject("persist:serialize"):
                reply = await service.handle(
                    {"op": "open", "id": 2, "doc": "three",
                     "language": "calc", "text": "a = 2;"}
                )
            assert reply["ok"]
            back = await service.handle(
                {"op": "query", "id": 3, "doc": "one", "echo_text": True}
            )
            assert back["ok"] and back["text"] == "a = 0;"
            await service.aclose()

        run(go())


# -- the write-ahead log -------------------------------------------------------


def checkpoint_with_log(tmp_path, edits):
    """A store holding ``d``: a checkpoint of "a = 1; b = 2;" followed
    by one appended record per ``(at, remove, insert)`` in ``edits``.
    Returns the store and the text after each record."""
    store = make_store(tmp_path)

    async def go():
        manager = SessionManager(store=store)
        session = await open_session(manager, "d", "a = 1; b = 2;")
        texts = []
        for i, edit in enumerate(edits):
            reply = await session.submit_edits(
                i, [EditSpec(*edit)], echo_text=True
            )
            assert reply["ok"], reply
            texts.append(reply["text"])
        manager.close_all(snapshot=False)
        return texts

    texts = run(go())
    assert store.counts["saves"] == 1
    assert store.counts["appends"] == len(edits)
    return store, texts


def record_offsets(path):
    """Byte offset of every log record in a snapshot file."""
    blob = path.read_bytes()
    offset = _HEADER.size + _HEADER.unpack_from(blob)[2]
    offsets = []
    while offset < len(blob):
        offsets.append(offset)
        offset += _RECORD.size + _RECORD.unpack_from(blob, offset)[0]
    return offsets


class TestWriteAheadLog:
    def test_flush_appends_one_record_not_a_checkpoint(self, tmp_path):
        store, texts = checkpoint_with_log(
            tmp_path, [(4, 1, "7"), (11, 1, "8")]
        )
        snap = store.load("d")
        assert snap.text == texts[-1] == "a = 7; b = 8;"
        assert snap.log_records == 2
        assert snap.doc_payload["text"] == "a = 1; b = 2;"
        assert snap.journal_tail == [(4, 1, "7"), (11, 1, "8")]
        (entry,) = store.entries()
        assert entry["log_records"] == 2 and entry["warm"]

    def test_sessions_list_reports_log_records(self, tmp_path, capsys):
        from repro.cli import build_parser

        store, _ = checkpoint_with_log(tmp_path, [(4, 1, "7")])
        args = build_parser().parse_args(
            ["sessions", "--state-dir", str(store.directory), "--list"]
        )
        assert args.func(args) == 0
        assert "1 log record(s)" in capsys.readouterr().out

    def test_truncated_final_record_is_dropped_and_counted(self, tmp_path):
        store, texts = checkpoint_with_log(
            tmp_path, [(4, 1, "7"), (11, 1, "8")]
        )
        path = store.path_for("d")
        last = record_offsets(path)[-1]
        path.write_bytes(path.read_bytes()[:-3])  # a torn append
        snap = store.load("d")
        assert snap is not None and snap.text == texts[0]
        assert snap.log_records == 1
        assert store.counts["torn_records"] == 1
        assert store.counts["quarantined"] == 0
        # The torn bytes are cut off, so the log can grow again.
        assert path.stat().st_size == last
        store.append("d", snap.text, "a = 7; b = 9;")
        again = store.load("d")
        assert again.text == "a = 7; b = 9;" and again.log_records == 2
        assert store.counts["torn_records"] == 1

    def test_flipped_byte_in_non_final_record_quarantines(self, tmp_path):
        store, _ = checkpoint_with_log(tmp_path, [(4, 1, "7"), (11, 1, "8")])
        path = store.path_for("d")
        first, second = record_offsets(path)
        blob = bytearray(path.read_bytes())
        blob[second - 1] ^= 0xFF  # last byte of the first record
        path.write_bytes(bytes(blob))
        assert store.load("d") is None
        assert store.counts["quarantined"] == 1
        assert store.counts["torn_records"] == 0
        assert not path.exists() and len(store.quarantined_files()) == 1

    def test_record_that_does_not_chain_quarantines(self, tmp_path):
        store, _ = checkpoint_with_log(tmp_path, [(4, 1, "7")])
        # A well-formed record computed against the wrong text: its
        # splice applies, but the text it yields has another digest.
        store.load("d")
        store.append("d", "z = 7; b = 2;", "z = 7; b = 5;")
        assert store.load("d") is None
        assert store.counts["quarantined"] == 1

    def test_append_refused_when_file_missing_or_resized(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(OSError):
            store.append("d", "a = 1;", "a = 2;")  # no file at all

        async def go():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", "a = 1;")
            assert store.counts["saves"] == 1
            # Another writer rewrites the file behind this process.
            SnapshotStore(store.directory).save(session.make_snapshot())
            with pytest.raises(OSError):
                store.append("d", "a = 1;", "a = 2;")
            # The hook's append is refused the same way; it checkpoints.
            reply = await session.submit_edits(1, [EditSpec(4, 1, "7")])
            assert reply["ok"]
            assert store.counts["saves"] == 2
            assert store.counts["appends"] == 0
            assert store.load("d").text == "a = 7;"
            # A vanished file is refused too, and checkpointed again.
            store.path_for("d").unlink()
            reply = await session.submit_edits(2, [EditSpec(4, 1, "8")])
            assert reply["ok"]
            assert store.counts["saves"] == 3
            assert store.counts["appends"] == 0
            snap = store.load("d")
            assert snap.text == "a = 8;" and snap.log_records == 0
            manager.close_all(snapshot=False)

        run(go())

    def test_append_past_log_limit_becomes_checkpoint(self, tmp_path):
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", "a = 10;")
            for i in range(LOG_LIMIT):
                reply = await session.submit_edits(
                    i, [EditSpec(4, 2, str(11 + i))]
                )
                assert reply["ok"]
            assert store.counts["saves"] == 1
            assert store.counts["appends"] == LOG_LIMIT
            assert store.load("d").log_records == LOG_LIMIT
            reply = await session.submit_edits(99, [EditSpec(4, 2, "99")])
            assert reply["ok"]
            assert store.counts["saves"] == 2
            assert store.counts["appends"] == LOG_LIMIT
            snap = store.load("d")
            assert snap.text == "a = 99;" and snap.log_records == 0
            manager.close_all(snapshot=False)

        run(go())

    def test_idle_eviction_compacts_a_non_empty_log(self, tmp_path):
        store = make_store(tmp_path)

        async def go():
            manager = SessionManager(max_sessions=1, store=store)
            one = await open_session(manager, "one", "a = 1;")
            reply = await one.submit_edits(1, [EditSpec(4, 1, "7")])
            assert reply["ok"] and store.counts["appends"] == 1
            assert store.counts["saves"] == 1
            await open_session(manager, "two", "b = 2;")  # evicts "one"
            assert "one" not in manager
            # One checkpoint for the eviction of "one", one for "two".
            assert store.counts["saves"] == 3
            snap = store.load("one")
            assert snap.text == "a = 7;" and snap.log_records == 0
            manager.close_all(snapshot=False)

        run(go())

    def test_rehydration_churn_without_edits_saves_nothing(self, tmp_path):
        """A rehydrated session's store already holds its state: read-only
        traffic that rehydrates and evicts over and over writes nothing."""
        state = tmp_path / "state"

        async def go():
            service = AnalysisService(state_dir=state, max_sessions=2)
            names = ["one", "two", "three"]
            for i, name in enumerate(names):
                reply = await service.handle(
                    {"op": "open", "id": i, "doc": name, "language": "calc",
                     "text": f"a = {i};"}
                )
                assert reply["ok"]
            saves = service.store.counts["saves"]
            rehydrated = 0
            for i in range(30):
                name = names[i % 3]
                reply = await service.handle(
                    {"op": "query", "id": 10 + i, "doc": name,
                     "echo_text": True}
                )
                assert reply["ok"] and reply["text"] == f"a = {i % 3};"
                rehydrated += bool(reply.get("rehydrated"))
            assert rehydrated >= 28  # the pool of 2 really churned
            assert service.store.counts["saves"] == saves
            await service.aclose()

        run(go())

    def test_warm_rehydration_from_a_full_log(self, tmp_path):
        """A checkpoint plus LOG_LIMIT scattered records rehydrates to
        byte-identical text with one incremental pass, no rebuild."""
        store = make_store(tmp_path)
        text = " ".join(f"x{i} = {i % 10};" for i in range(3 * LOG_LIMIT))
        sites = [
            text.index(f"x{i} = ") + len(f"x{i} = ")
            for i in range(0, 3 * LOG_LIMIT, 3)
        ]

        async def first_life():
            manager = SessionManager(store=store)
            session = await open_session(manager, "d", text)
            for i, site in enumerate(reversed(sites)):
                reply = await session.submit_edits(
                    i, [EditSpec(site, 1, str((i + 5) % 10) * 2)]
                )
                assert reply["ok"]
            expected = session.shadow_text
            manager.close_all(snapshot=False)
            return expected

        expected = run(first_life())
        assert store.load("d").log_records == LOG_LIMIT

        async def second_life():
            manager = SessionManager(store=store)
            session = manager.rehydrate("d")
            assert session is not None and session.doc is not None
            assert session.doc.text == expected
            assert session.doc.source_text() == expected
            assert session.counts["rebuilds"] == 0
            assert session.log_records == LOG_LIMIT
            manager.close_all(snapshot=False)

        run(second_life())


# -- late replies (timeout race) -----------------------------------------------


class TestLateReplies:
    def test_delayed_reply_after_timeout_keeps_dispatcher_healthy(self):
        """A worker answering after the deadline: the client got its
        ``timeout`` reply, the late result is dropped by the resolved-
        future guard, the next request is served normally, and
        ``service.timeouts`` counted exactly once."""

        async def go():
            service = AnalysisService(request_timeout=0.05)
            opened = await service.handle(
                {"op": "open", "id": 0, "doc": "d", "language": "calc",
                 "text": "a = 1;"}
            )
            assert opened["ok"]
            session = service.manager.get("d")
            session.pause()  # the worker stalls; the deadline will fire
            reply = await service.handle(
                {"op": "edit", "id": 1, "doc": "d",
                 "edits": [{"at": 4, "remove": 1, "insert": "7"}]}
            )
            assert not reply["ok"]
            assert reply["error"]["code"] == "timeout"
            assert reply["pending"] is True
            assert service.timeouts == 1
            # Now the "late reply": the worker wakes and flushes into a
            # cancelled future -- which must be a silent no-op.
            session.resume()
            for _ in range(50):
                await asyncio.sleep(0.01)
                if session.idle:
                    break
            assert session.idle  # worker completed; nothing wedged
            query = await service.handle(
                {"op": "query", "id": 2, "doc": "d", "echo_text": True}
            )
            assert query["ok"]
            assert query["text"] == "a = 7;"  # the timed-out edit landed
            assert service.timeouts == 1  # counted once, not re-counted
            await service.aclose()

        run(go())

    def test_reply_completing_in_deadline_tick_is_salvaged(self, monkeypatch):
        """wait_for can raise TimeoutError even though the future
        completed in the same event-loop tick; that reply must be
        delivered, not discarded, and not counted as a timeout."""
        from repro.service import server as server_module

        async def race_wait_for(future, timeout):
            future.set_result({"id": 1, "ok": True, "raced": True})
            raise asyncio.TimeoutError

        monkeypatch.setattr(
            server_module.asyncio, "wait_for", race_wait_for
        )

        async def go():
            service = AnalysisService(request_timeout=5.0)
            future = asyncio.get_running_loop().create_future()
            reply = await service._await_reply(future, 1)
            assert reply == {"id": 1, "ok": True, "raced": True}
            assert service.timeouts == 0

        run(go())
