"""Service-level cross-document semantics (ISSUE 8).

The ``depends`` / ``analyze`` / ``invalidate`` protocol surface over
the project graph: activating semantics on a session, declaring
import edges, pushing export deltas into dependents -- in process,
across LRU eviction and rehydration, and across worker shards.
"""

import asyncio

import pytest

from repro.service.server import AnalysisService

pytestmark = [pytest.mark.service, pytest.mark.semantics]

HEADER = "types.minic"
DEP = "user.minic"
HEADER_TEXT = "typedef int T;\n"
DEP_TEXT = "int f(int p) {\n  T (u);\n}\n"

DECL = {"decisions": 1, "unresolved": 0, "decl": 1, "stmt": 0}
UNRESOLVED = {"decisions": 1, "unresolved": 1, "decl": 0, "stmt": 0}


async def _req(service, payload, ok=True):
    reply = await service.handle(dict(payload, id="t"))
    assert reply.get("ok") is ok, reply
    return reply


async def _open(service, doc, text):
    return await _req(
        service, {"op": "open", "doc": doc, "language": "minic", "text": text}
    )


def test_depends_resolves_imported_typedefs():
    async def go():
        service = AnalysisService()
        await _open(service, HEADER, HEADER_TEXT)
        await _open(service, DEP, DEP_TEXT)
        reply = await _req(service, {"op": "depends", "doc": DEP,
                                     "on": HEADER})
        # The reply is the dependent's analysis against the imports.
        assert reply["depends_on"] == [HEADER]
        assert reply["sem_state"] == DECL
        assert reply["exports"] == []  # the dependent exports nothing
        assert not reply.get("sem_errors")

    asyncio.run(go())


def test_header_edit_pushes_delta_into_dependent():
    async def go():
        service = AnalysisService()
        await _open(service, HEADER, HEADER_TEXT)
        await _open(service, DEP, DEP_TEXT)
        await _req(service, {"op": "depends", "doc": DEP, "on": HEADER})

        reply = await _req(
            service,
            {"op": "edit", "doc": HEADER,
             "edits": [{"at": 0, "remove": len(HEADER_TEXT), "insert": ""}]},
        )
        assert reply["exports_changed"] == {
            "doc": HEADER, "added": [], "removed": ["T"],
        }
        reply = await _req(service, {"op": "analyze", "doc": DEP})
        assert reply["sem_state"] == UNRESOLVED

        reply = await _req(
            service,
            {"op": "edit", "doc": HEADER,
             "edits": [{"at": 0, "remove": 0, "insert": HEADER_TEXT}]},
        )
        assert reply["exports_changed"] == {
            "doc": HEADER, "added": ["T"], "removed": [],
        }
        reply = await _req(service, {"op": "analyze", "doc": DEP})
        assert reply["sem_state"] == DECL

    asyncio.run(go())


def test_direct_invalidate_op():
    async def go():
        service = AnalysisService()
        await _open(service, DEP, DEP_TEXT)
        reply = await _req(service, {"op": "analyze", "doc": DEP})
        assert reply["sem_state"] == UNRESOLVED  # no typedef anywhere
        reply = await _req(
            service,
            {"op": "invalidate", "doc": DEP, "added": ["T"], "removed": []},
        )
        assert reply["sem_invalidated"] == 1
        assert reply["sem_redecisions"] == 1
        reply = await _req(service, {"op": "analyze", "doc": DEP})
        assert reply["sem_state"] == DECL
        # Replaying the same delta is a no-op.
        reply = await _req(
            service,
            {"op": "invalidate", "doc": DEP, "added": ["T"], "removed": []},
        )
        assert reply["sem_invalidated"] == 0

    asyncio.run(go())


def test_depends_with_seed_skips_dependency_session():
    async def go():
        service = AnalysisService()
        await _open(service, DEP, DEP_TEXT)
        reply = await _req(
            service,
            {"op": "depends", "doc": DEP, "on": "never-opened.minic",
             "seed": ["T"]},
        )
        assert reply["sem_state"] == DECL
        stats = (await _req(service, {"op": "stats"}))["stats"]
        assert "never-opened.minic" not in stats["sessions"]

    asyncio.run(go())


def test_protocol_errors():
    async def go():
        service = AnalysisService()
        await _open(service, DEP, DEP_TEXT)
        for bad in (
            {"op": "depends", "doc": DEP},
            {"op": "depends", "doc": DEP, "on": ""},
            {"op": "depends", "doc": DEP, "on": DEP},
            {"op": "depends", "doc": DEP, "on": HEADER, "seed": "T"},
            {"op": "depends", "doc": DEP, "on": HEADER, "seed": [1]},
            {"op": "invalidate", "doc": DEP, "added": "T"},
            {"op": "invalidate", "doc": DEP, "added": ["T"],
             "removed": [2]},
        ):
            reply = await _req(service, bad, ok=False)
            assert reply["error"]["code"] == "protocol", bad

    asyncio.run(go())


@pytest.mark.persistence
def test_delta_survives_eviction_and_rehydration(tmp_path):
    # Squeeze the pool so sessions bounce in and out of residency; the
    # project graph (edges + export cache) must keep cross-document
    # deltas flowing as rehydration re-seeds each side: a rehydrated
    # header resumes announcing exports, a rehydrated dependent comes
    # up with the current import set.
    async def go():
        service = AnalysisService(
            max_sessions=2, state_dir=tmp_path / "state"
        )
        await _open(service, HEADER, HEADER_TEXT)
        await _open(service, DEP, DEP_TEXT)
        reply = await _req(service, {"op": "depends", "doc": DEP,
                                     "on": HEADER})
        assert reply["sem_state"] == DECL

        # Force evictions: two fillers cycle both project docs out.
        await _open(service, "filler0.minic", "int a;\n")
        await _open(service, "filler1.minic", "int b;\n")

        reply = await _req(
            service,
            {"op": "edit", "doc": HEADER,
             "edits": [{"at": 0, "remove": len(HEADER_TEXT), "insert": ""}]},
        )
        assert reply.get("rehydrated") is True
        assert reply["exports_changed"] == {
            "doc": HEADER, "added": [], "removed": ["T"],
        }
        reply = await _req(service, {"op": "analyze", "doc": DEP})
        assert reply.get("rehydrated") is True
        assert reply["sem_state"] == UNRESOLVED

        # And back: the re-added export reaches the dependent again.
        await _req(
            service,
            {"op": "edit", "doc": HEADER,
             "edits": [{"at": 0, "remove": 0, "insert": HEADER_TEXT}]},
        )
        reply = await _req(service, {"op": "analyze", "doc": DEP})
        assert reply["sem_state"] == DECL

        stats = (await _req(service, {"op": "stats"}))["stats"]
        assert stats["counters"]["evictions"] >= 2
        assert stats["project"]["edges"] == 1

    asyncio.run(go())


@pytest.mark.multiproc
@pytest.mark.slow
def test_cross_shard_invalidation():
    # Two worker processes; "doc0" and "doc1" land on different shards,
    # so the export delta crosses a process boundary through the
    # dispatcher (which also pre-seeds the dependency's exports so the
    # dependent's worker never analyzes the other shard's document).
    async def go():
        from repro.service.pool import ShardDispatcher, shard_for

        header, dep = "doc0", "doc1"
        assert shard_for(header, 2) != shard_for(dep, 2)
        service = ShardDispatcher(2, request_timeout=60.0)
        try:
            await _open(service, header, HEADER_TEXT)
            await _open(service, dep, DEP_TEXT)
            reply = await _req(service, {"op": "depends", "doc": dep,
                                         "on": header})
            assert reply["depends_on"] == [header]
            assert reply["sem_state"] == DECL

            await _req(
                service,
                {"op": "edit", "doc": header,
                 "edits": [{"at": 0, "remove": len(HEADER_TEXT),
                            "insert": ""}]},
            )
            reply = await _req(service, {"op": "analyze", "doc": dep})
            assert reply["sem_state"] == UNRESOLVED

            await _req(
                service,
                {"op": "edit", "doc": header,
                 "edits": [{"at": 0, "remove": 0, "insert": HEADER_TEXT}]},
            )
            reply = await _req(service, {"op": "analyze", "doc": dep})
            assert reply["sem_state"] == DECL

            stats = (await _req(service, {"op": "stats"}))["stats"]
            assert stats["dispatcher"]["invalidations"] == 2
        finally:
            await service.aclose()

    asyncio.run(go())


@pytest.mark.persistence
def test_client_invalidate_with_source_survives_eviction(tmp_path):
    # An ``invalidate`` naming its source document (``on``) is recorded
    # in the project graph, not just in the live analysis: once the
    # session is evicted, rehydration re-seeds the pushed names.
    async def go():
        service = AnalysisService(
            max_sessions=2, state_dir=tmp_path / "state"
        )
        await _open(service, DEP, DEP_TEXT)
        reply = await _req(
            service,
            {"op": "invalidate", "doc": DEP, "on": HEADER,
             "added": ["T"], "removed": []},
        )
        assert reply["sem_invalidated"] == 1

        await _open(service, "filler0.minic", "int a;\n")
        await _open(service, "filler1.minic", "int b;\n")
        assert DEP not in service.manager

        reply = await _req(service, {"op": "analyze", "doc": DEP})
        assert reply.get("rehydrated") is True
        assert reply["sem_state"] == DECL

    asyncio.run(go())


@pytest.mark.multiproc
@pytest.mark.persistence
@pytest.mark.slow
def test_cross_shard_delta_survives_eviction_and_rehydration(tmp_path):
    # The two-worker form of test_delta_survives_eviction_and_rehydration:
    # header and dependent on different shards, fillers squeezing the
    # dependent's shard.  The dispatcher's forwarded invalidate must
    # reach the dependent worker's project graph, or the dependent
    # comes back from its next eviction resolving against the exports
    # seen at ``depends`` time.
    async def go():
        from repro.service.pool import ShardDispatcher, shard_for

        header, dep = "doc0", "doc1"
        dep_shard = shard_for(dep, 2)
        assert shard_for(header, 2) != dep_shard
        fillers = (
            name
            for name in (f"filler{i}.minic" for i in range(100))
            if shard_for(name, 2) == dep_shard
        )
        service = ShardDispatcher(
            2,
            max_sessions=2,
            request_timeout=60.0,
            state_dir=tmp_path / "state",
        )

        async def evict_dependent():
            for _ in range(2):
                await _open(service, next(fillers), "int a;\n")
            stats = (await _req(service, {"op": "stats"}))["stats"]
            assert dep not in stats["sessions"]

        try:
            await _open(service, header, HEADER_TEXT)
            await _open(service, dep, DEP_TEXT)
            reply = await _req(service, {"op": "depends", "doc": dep,
                                         "on": header})
            assert reply["sem_state"] == DECL
            await evict_dependent()

            # The header drops T: the forwarded invalidate rehydrates
            # the dependent, which is then evicted once more.
            await _req(
                service,
                {"op": "edit", "doc": header,
                 "edits": [{"at": 0, "remove": len(HEADER_TEXT),
                            "insert": ""}]},
            )
            await evict_dependent()
            reply = await _req(service, {"op": "analyze", "doc": dep})
            assert reply.get("rehydrated") is True
            assert reply["sem_state"] == UNRESOLVED

            # And back: the re-added export survives the same trip.
            await _req(
                service,
                {"op": "edit", "doc": header,
                 "edits": [{"at": 0, "remove": 0, "insert": HEADER_TEXT}]},
            )
            await evict_dependent()
            reply = await _req(service, {"op": "analyze", "doc": dep})
            assert reply.get("rehydrated") is True
            assert reply["sem_state"] == DECL
        finally:
            await service.aclose()

    asyncio.run(go())
