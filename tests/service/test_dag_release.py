"""The service releases every parse DAG it lets go of.

A session that was opened, analyzed and edited holds a ~1.5k-token
MiniC document.  Whichever way the service drops that document -- idle
eviction, forced eviction, ``close``, a batch rebuild that replaces it,
a grammar reload -- none of its nodes may be left to the cyclic
collector.  Each case lets the event loop settle inside the counted
block and keeps no reference of its own to the session or the old
document, so without a release the dropped DAG shows up as garbage.
Shutdown releases only after the checkpoint is written, so that
checkpoint still carries the DAG and rehydrates warm.
"""

import asyncio
import re

import pytest

from repro import obs
from repro.langs import clear_language_overrides
from repro.langs.generators import generate_program
from repro.langs.minic import MINIC_GRAMMAR
from repro.service import AnalysisService, EditSpec
from repro.service.persist import SnapshotStore
from repro.testing import inject

from ..versioned.test_release import cyclic_garbage

pytestmark = pytest.mark.service

DOC = "big.minic"
TEXT = generate_program("minic", 220, seed=3)  # ~1.5k tokens
NUMBER = re.search(r"\b\d+\b", TEXT)
EDITED = TEXT[: NUMBER.start()] + "7" + TEXT[NUMBER.end():]


def run(coro):
    return asyncio.run(coro)


async def request(service, **fields):
    reply = await service.handle({"id": None, **fields})
    assert reply["ok"], reply
    return reply


async def settle():
    """Let finished and cancelled session workers run to their end."""
    for _ in range(5):
        await asyncio.sleep(0)


async def analyzed_and_edited(service):
    await request(service, op="open", doc=DOC, language="minic", text=TEXT)
    reply = await request(service, op="analyze", doc=DOC)
    assert "sem_error" not in reply
    reply = await request(
        service, op="edit", doc=DOC,
        edits=[{"at": NUMBER.start(), "remove": len(NUMBER.group()),
                "insert": "7"}],
    )
    assert reply["error_regions"] == 0
    session = service.manager.get(DOC)
    assert session.doc.tree_node_count() > 1000
    assert session.analyzer is not None
    return session


def test_idle_eviction_releases_the_dag(tmp_path):
    async def go():
        service = AnalysisService(state_dir=tmp_path / "state")
        await analyzed_and_edited(service)
        with cyclic_garbage() as found:
            assert service.manager._evict_one()
            await settle()
        assert DOC not in service.manager
        assert service.manager.counts["evictions"] == 1
        await service.aclose()
        return found["nodes"]

    assert run(go()) == 0


def test_forced_eviction_releases_the_dag(tmp_path):
    async def go():
        service = AnalysisService(state_dir=tmp_path / "state")
        session = await analyzed_and_edited(service)
        parked = session.submit_edits(
            None, [EditSpec(0, 0, "\n")], defer=True
        )
        for _ in range(20):
            await asyncio.sleep(0)
            if session._parked:
                break
        assert session._parked and not session.idle
        del session
        with cyclic_garbage() as found:
            assert service.manager._evict_one()
            reply = await parked
            await settle()
        assert service.manager.counts["forced_evictions"] == 1
        assert reply["error"]["code"] == "closed"
        await service.aclose()
        return found["nodes"]

    assert run(go()) == 0


def test_close_releases_the_dag():
    async def go():
        service = AnalysisService()
        await analyzed_and_edited(service)
        with cyclic_garbage() as found:
            await request(service, op="close", doc=DOC)
            await settle()
        assert DOC not in service.manager
        await service.aclose()
        return found["nodes"]

    assert run(go()) == 0


def test_a_rebuild_releases_the_document_it_replaces():
    async def go():
        service = AnalysisService()
        await analyzed_and_edited(service)
        with cyclic_garbage() as found:
            with inject("service:before-parse"):
                reply = await request(
                    service, op="edit", doc=DOC,
                    edits=[{"at": 0, "remove": 0, "insert": "\n"}],
                )
            await settle()
        assert reply["degraded"] is True
        assert service.manager.get(DOC).counts["rebuilds"] == 2
        await service.aclose()
        return found["nodes"]

    assert run(go()) == 0


def test_a_grammar_reload_releases_the_old_dag():
    async def go():
        service = AnalysisService()
        await analyzed_and_edited(service)
        try:
            with cyclic_garbage() as found:
                reply = await request(
                    service, op="reload_grammar", language="minic",
                    grammar=MINIC_GRAMMAR,
                )
                await settle()
        finally:
            clear_language_overrides()
        assert reply["sessions_reloaded"] == [DOC]
        await service.aclose()
        return found["nodes"]

    assert run(go()) == 0


@pytest.mark.persistence
def test_shutdown_checkpoint_is_written_before_the_release(tmp_path):
    """``close_all`` persists, then releases: the checkpoint is warm."""
    state = tmp_path / "state"

    async def shut_down():
        service = AnalysisService(state_dir=state)
        await analyzed_and_edited(service)
        await service.aclose()

    async def come_back():
        service = AnalysisService(state_dir=state)
        with obs.collecting() as work:
            reply = await request(
                service, op="query", doc=DOC, echo_text=True
            )
        await service.aclose()
        return reply, work

    run(shut_down())
    snapshot = SnapshotStore(state).load(DOC)
    assert snapshot is not None and snapshot.doc_payload is not None
    reply, work = run(come_back())
    assert reply["rehydrated"] is True and reply["text"] == EDITED
    assert work.get("persist.rehydrate_incremental") == 1
    assert not work.get("persist.rehydrate_rebuild")
