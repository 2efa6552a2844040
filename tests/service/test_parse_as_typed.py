"""The service commits the client's text as typed.

A syntax error is no degradation: a session parses with
``recover=False`` and, when that fails, isolates the error in the same
document (:meth:`~repro.versioned.document.Document.isolate`).  So a
flush never reverts what the client typed, never swaps the document
for a rebuilt one, and keeps the reply versions counting up.  The same
rule holds for rehydration, and the durable form follows from it: a
checkpoint's tail is the one splice from the committed text to the
client's text.
"""

import asyncio

import pytest

from repro import Document, obs
from repro.langs.calc import calc_language
from repro.service import EditSpec, Session, SessionManager, SnapshotStore
from repro.testing import inject

pytestmark = [pytest.mark.service]

TEXT = "a = 1; b = 2;"
BROKEN = "a = ; b = 2;"  # the literal 1 deleted


def run(coro):
    return asyncio.run(coro)


class TestSyntaxErrorFlush:
    def test_clean_session_isolates_in_place(self):
        async def go():
            session = Session("d", calc_language())
            opened = await session.open_with(TEXT, 0)
            rebuilds = session.counts["rebuilds"]  # the open's batch parse
            doc = session.doc
            reply = await session.submit_edits(
                1, [EditSpec(4, 1, "")], echo_text=True
            )
            assert reply["ok"]
            assert reply["degraded"] is False
            assert reply["recovered"] is True
            assert reply["error_regions"] >= 1
            assert reply["version"] == opened["version"] + 1
            assert reply["text"] == BROKEN
            assert session.doc is doc
            assert session.counts["rebuilds"] == rebuilds
            assert session.counts["degraded"] == 0
            # The same tokens and error regions a fresh document isolates.
            fresh = Document(calc_language(), BROKEN)
            report = fresh.parse()
            assert reply["tokens"] == len(fresh.tokens)
            assert reply["error_regions"] == report.error_regions
            fixed = await session.submit_edits(
                2, [EditSpec(4, 0, "5")], echo_text=True
            )
            assert fixed["ok"] and fixed["error_regions"] == 0
            assert fixed["degraded"] is False
            assert fixed["text"] == "a = 5; b = 2;"
            assert fixed["version"] == reply["version"] + 1
            assert session.counts["rebuilds"] == rebuilds
            session.shut_down()

        run(go())

    def test_no_session_path_asks_for_reversion(self, monkeypatch, tmp_path):
        """Every session parse -- flush, ``parse`` op, rebuild,
        rehydration -- runs with ``recover=False``."""
        modes = []
        parse = Document.parse

        def spy(doc, recover=True):
            modes.append(recover)
            return parse(doc, recover)

        monkeypatch.setattr(Document, "parse", spy)
        store = SnapshotStore(tmp_path / "state")

        async def first_life():
            manager = SessionManager(store=store)
            session = manager.open("d", language="calc")
            await session.open_with(TEXT, 0)
            await session.submit_edits(1, [EditSpec(4, 1, "")])
            await session.submit_op("parse", 2)
            with inject("service:before-parse"):  # rung 2: a rebuild
                await session.submit_edits(3, [EditSpec(4, 0, "7")])
            await session.submit_edits(4, [EditSpec(4, 1, "")])
            manager.close_all(snapshot=False)  # checkpoint plus log

        async def second_life():
            manager = SessionManager(store=store)
            session = manager.rehydrate("d")
            assert session.doc is not None and session.doc.text == BROKEN
            manager.close_all(snapshot=False)

        run(first_life())
        run(second_life())
        assert modes and not any(modes)


@pytest.mark.persistence
class TestDurableForm:
    def test_unparseable_tail_rehydrates_warm(self, tmp_path):
        store = SnapshotStore(tmp_path / "state")

        async def first_life():
            manager = SessionManager(store=store)
            session = manager.open("d", language="calc")
            await session.open_with(TEXT, 0)  # a clean checkpoint
            reply = await session.submit_edits(1, [EditSpec(4, 1, "")])
            assert reply["ok"] and reply["error_regions"] >= 1
            assert session.log_records == 1  # the tail: one record
            manager.close_all(snapshot=False)

        run(first_life())
        snap = store.load("d")
        assert snap.doc_payload is not None and snap.log_records == 1

        async def second_life():
            manager = SessionManager(store=store)
            with obs.collecting() as counts:
                session = manager.rehydrate("d")
            assert counts.get("persist.rehydrate_incremental") == 1
            assert not counts.get("persist.rehydrate_rebuild")
            assert session.doc is not None
            assert session.doc.text == BROKEN
            assert session.doc.has_errors
            reply = await session.submit_op("query", 2, echo_text=True)
            assert reply["ok"] and reply["text"] == BROKEN
            assert reply["has_errors"] is True
            assert session.counts["rebuilds"] == 0
            manager.close_all(snapshot=False)

        run(second_life())

    def test_parked_edits_checkpoint_as_one_splice(self, tmp_path):
        store = SnapshotStore(tmp_path / "state")
        text = "a = 1; b = 2; c = 3;"
        target = "a = 7; b = 2; c = 9;"

        async def first_life():
            manager = SessionManager(store=store)
            session = manager.open("d", language="calc")
            await session.open_with(text, 0)
            parked = [
                session.submit_edits(1, [EditSpec(4, 1, "7")], defer=True),
                session.submit_edits(2, [EditSpec(18, 1, "9")], defer=True),
            ]
            for _ in range(20):  # let the worker park on the open batch
                await asyncio.sleep(0)
                if session._parked:
                    break
            assert session._parked and session.shadow_text == target
            snap = session.make_snapshot()
            assert snap.doc_payload["text"] == text
            assert snap.journal_tail == [(4, 15, "7; b = 2; c = 9")]
            store.save(snap)
            session.shut_down()
            await asyncio.gather(*parked)
            manager.close_all(snapshot=False)

        run(first_life())

        async def second_life():
            manager = SessionManager(store=store)
            session = manager.rehydrate("d")
            assert session.doc is not None
            assert session.doc.text == session.shadow_text == target
            assert not session.doc.has_errors
            manager.close_all(snapshot=False)

        run(second_life())
