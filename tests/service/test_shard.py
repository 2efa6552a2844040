"""Shard routing and the multi-process dispatcher (ISSUE 7 tentpole).

Three layers:

* :func:`repro.service.pool.shard_for` as a pure function --
  deterministic, in range, roughly uniform, and *consistent*: growing
  the pool by one worker remaps only ~1/(N+1) of the documents;
* the :class:`ShardDispatcher` end to end against real worker
  subprocesses: the full protocol surface, per-worker shard stamps,
  merged stats, clean shutdown;
* the cross-process parse-table warm start: the worker that opens a
  language first pays the compile (miss + store), every *other* worker
  process hits the shared on-disk cache entry -- no recompile, asserted
  via each worker's own cache counters.
"""

import asyncio
from collections import Counter

import pytest

from repro.service.pool import ShardDispatcher, shard_for

pytestmark = [pytest.mark.service, pytest.mark.multiproc]


def docs_for_shard(target: int, shards: int, count: int = 1) -> list[str]:
    """First ``count`` generated doc names that route to ``target``."""
    out = []
    i = 0
    while len(out) < count:
        name = f"doc{i}"
        if shard_for(name, shards) == target:
            out.append(name)
        i += 1
    return out


# -- shard_for as a pure function ---------------------------------------------


def test_shard_for_deterministic_and_in_range():
    for shards in (1, 2, 3, 8):
        for i in range(200):
            doc = f"file-{i}.calc"
            shard = shard_for(doc, shards)
            assert 0 <= shard < shards
            assert shard == shard_for(doc, shards)
    assert shard_for("anything", 1) == 0


def test_shard_for_roughly_uniform():
    shards = 4
    counts = Counter(
        shard_for(f"src/module_{i}.c", shards) for i in range(2000)
    )
    assert set(counts) == set(range(shards))
    for shard in range(shards):
        # 2000 docs over 4 shards: expect ~500 each; 3-sigma is ~±58.
        assert 400 <= counts[shard] <= 600, counts


def test_shard_for_consistent_on_resize():
    """Rendezvous hashing: N -> N+1 workers remaps only ~1/(N+1) docs."""
    docs = [f"project/file_{i}.py" for i in range(2000)]
    for shards in (2, 4):
        moved = sum(
            1
            for doc in docs
            if shard_for(doc, shards) != shard_for(doc, shards + 1)
        )
        expected = len(docs) / (shards + 1)
        # Everything that moved must have moved *to* the new shard.
        for doc in docs:
            before, after = shard_for(doc, shards), shard_for(doc, shards + 1)
            if before != after:
                assert after == shards
        assert expected * 0.7 <= moved <= expected * 1.3, (
            f"{moved} of {len(docs)} docs moved going {shards} -> "
            f"{shards + 1}; consistent hashing should move ~{expected:.0f}"
        )


# -- dispatcher end to end ----------------------------------------------------


def test_dispatcher_end_to_end(tmp_path):
    async def go():
        service = ShardDispatcher(
            2, request_timeout=30.0, state_dir=tmp_path / "state"
        )
        ping = await service.handle({"op": "ping", "id": 1})
        assert ping["ok"] and ping["pong"] and ping["workers"] == 2

        unknown = await service.handle({"op": "frobnicate", "id": 2})
        assert not unknown["ok"]
        assert unknown["error"]["code"] == "unknown-op"

        missing_doc = await service.handle({"op": "edit", "id": 3})
        assert not missing_doc["ok"]
        assert missing_doc["error"]["code"] == "protocol"

        # One document per shard so both workers carry real sessions.
        docs = [docs_for_shard(shard, 2)[0] for shard in (0, 1)]
        for doc in docs:
            reply = await service.handle(
                {"op": "open", "id": f"open:{doc}", "doc": doc,
                 "language": "calc", "text": "x = 1;"}
            )
            assert reply["ok"], reply

        for doc in docs:
            reply = await service.handle(
                {"op": "edit", "id": f"edit:{doc}", "doc": doc,
                 "edits": [{"at": 4, "remove": 1, "insert": "9"}],
                 "echo_text": True}
            )
            assert reply["ok"], reply
            assert reply["text"] == "x = 9;"
            assert reply["id"] == f"edit:{doc}"  # client id restored

        stats = (await service.handle({"op": "stats", "id": "s"}))["stats"]
        assert stats["workers"] == 2
        assert set(stats["sessions"]) == set(docs)
        assert stats["counters"]["opened"] == 2
        assert stats["counters"]["edits_applied"] == 2
        shards = stats["dispatcher"]["shards"]
        assert [s["shard"] for s in shards] == [0, 1]
        assert all(s["alive"] and s["generation"] == 0 for s in shards)
        pids = {w["worker"]["pid"] for w in stats["per_worker"]}
        assert len(pids) == 2  # genuinely two processes
        assert {w["worker"]["shard"] for w in stats["per_worker"]} == {0, 1}

        for doc in docs:
            reply = await service.handle(
                {"op": "close", "id": f"close:{doc}", "doc": doc}
            )
            assert reply["ok"], reply
        await service.aclose()
        for handle in service._handles:
            assert not handle.alive

    asyncio.run(go())


def test_dispatcher_deferred_edits_coalesce():
    async def go():
        service = ShardDispatcher(2, request_timeout=30.0)
        doc = "burst.calc"
        reply = await service.handle(
            {"op": "open", "id": 0, "doc": doc, "language": "calc",
             "text": "x = 1;"}
        )
        assert reply["ok"], reply
        # A typed burst: deferred single-character inserts, then the
        # flush trigger.  The owning worker must coalesce the burst
        # into one applied spec and one parse, same as in-process.
        requests = [
            {"op": "edit", "id": i, "doc": doc, "defer": i < 3,
             "edits": [{"at": 4 + i, "remove": 1 if i == 0 else 0,
                        "insert": "1234"[i]}],
             "echo_text": i == 3}
            for i in range(4)
        ]
        replies = await asyncio.gather(
            *(service.handle(r) for r in requests)
        )
        assert all(r["ok"] for r in replies), replies
        assert replies[-1]["text"] == "x = 1234;"
        stats = (await service.handle({"op": "stats", "id": "s"}))["stats"]
        assert stats["counters"]["edits_received"] == 4
        assert stats["counters"]["edits_applied"] == 1
        assert stats["coalesce_ratio"] == 4.0
        await service.aclose()

    asyncio.run(go())


def test_merged_collector_sums_the_workers():
    """The top-level ``collector`` is the workers' reports, summed."""

    async def go():
        service = ShardDispatcher(2, request_timeout=30.0)
        for shard in (0, 1):
            doc = docs_for_shard(shard, 2)[0]
            reply = await service.handle(
                {"op": "open", "id": doc, "doc": doc, "language": "calc",
                 "text": "x = 1;"}
            )
            assert reply["ok"], reply
        stats = (await service.handle({"op": "stats", "id": "s"}))["stats"]
        await service.aclose()
        return stats

    stats = asyncio.run(go())
    workers = [w["collector"] for w in stats["per_worker"]]
    assert len(workers) == 2
    merged = stats["collector"]
    assert [entry["generation"] for entry in merged] == [0, 1, 2]
    for entry in merged:
        own = [worker[entry["generation"]] for worker in workers]
        for key in ("collections", "collected"):
            assert entry[key] == sum(e[key] for e in own), key
        assert entry["pause_ms"] == pytest.approx(
            sum(e["pause_ms"] for e in own), abs=1e-3
        )
        assert entry["max_pause_ms"] == max(e["max_pause_ms"] for e in own)
    assert merged[0]["collections"] > 0


# -- cross-process parse-table warm start -------------------------------------


def test_cross_process_table_cache_warm_start(tmp_path):
    """Worker B must hit the disk entry worker A compiled (no recompile)."""

    async def go():
        service = ShardDispatcher(
            2,
            request_timeout=60.0,
            # A private cache directory: the first compile in *any*
            # process of this pool is a genuine cold miss.
            worker_env={"REPRO_TABLE_CACHE": str(tmp_path / "tables")},
        )
        doc_a = docs_for_shard(0, 2)[0]
        doc_b = docs_for_shard(1, 2)[0]
        # Sequential on purpose: A's open must finish (and publish the
        # table) before B's open looks for it.
        for doc in (doc_a, doc_b):
            reply = await service.handle(
                {"op": "open", "id": doc, "doc": doc,
                 "language": "calc", "text": "x = 1;"}
            )
            assert reply["ok"], reply
        stats = (await service.handle({"op": "stats", "id": "s"}))["stats"]
        by_shard = {
            w["worker"]["shard"]: w for w in stats["per_worker"]
        }
        first = by_shard[0]["table_cache"]
        second = by_shard[1]["table_cache"]
        # Worker A paid the one compile and published it...
        assert first["misses"] == 1, first
        assert first["stores"] == 1, first
        assert first["disk_hits"] == 0, first
        # ...and worker B warm-started from A's on-disk entry.
        assert second["disk_hits"] == 1, second
        assert second["misses"] == 0, second
        assert second["stores"] == 0, second
        # The aggregate view shows one compile for the whole pool.
        assert stats["table_cache"]["misses"] == 1
        assert stats["table_cache"]["disk_hits"] == 1
        await service.aclose()

    asyncio.run(go())
