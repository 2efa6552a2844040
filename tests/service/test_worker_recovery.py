"""Kill a worker mid-save; the dispatcher respawns, the session survives.

The PR-5 crash-point registry arms a real ``SIGKILL`` inside one worker
subprocess (``fault_env`` arms only that shard's *first* life, so the
respawn comes up clean).  The scripted session then is:

1. ``open`` -- acked, and therefore durable (write-ahead: persist runs
   before replies resolve; the open writes the first checkpoint);
2. ``stats`` -- scrapes the doomed worker's counters into the
   dispatcher's last-known view;
3. the killed request -- the client gets the ``worker-restart``
   flow-control error.  Either the ``edit`` dies while appending its
   log record (``persist:append`` before the write, so recovery lands
   on the open text; ``persist:appended`` after it, so either text is
   legitimate), or the edit is acked and a ``snapshot`` op dies while
   writing its checkpoint (``persist:write`` before publish,
   ``persist:publish`` after; the acked edit survives either way, in
   the old file's log or in the new checkpoint);
4. retry ``query`` until the respawned worker answers: the rehydrated
   text must be byte-identical to an *acked-or-later* state;
5. retry the edit: the recovered session keeps editing incrementally;
6. ``stats`` again: exactly one restart, generation bumped, and the
   merged counters never moved backwards (the retired-fold fix for
   counters silently resetting on respawn).
"""

import asyncio

import pytest

from repro.service.pool import ShardDispatcher, shard_for

pytestmark = [
    pytest.mark.service,
    pytest.mark.persistence,
    pytest.mark.faults,
    pytest.mark.multiproc,
    pytest.mark.slow,
]

ARMED_SHARD = 0
RETRY_DEADLINE = 30.0

# (armed kill, killed op, texts a recovery may legitimately land on).
# The open's checkpoint is the first arrival at the checkpoint points,
# so ":1" arms the snapshot op's; the edit's append is the first
# arrival at the append points.
CASES = [
    pytest.param("persist:append:0", "edit", {"x = 1;"}, id="append"),
    pytest.param(
        "persist:appended:0", "edit", {"x = 1;", "x = 9;"}, id="appended"
    ),
    pytest.param("persist:write:1", "snapshot", {"x = 9;"}, id="write"),
    pytest.param("persist:publish:1", "snapshot", {"x = 9;"}, id="publish"),
]


def owned_doc(shard: int, shards: int) -> str:
    i = 0
    while shard_for(f"doc{i}", shards) != shard:
        i += 1
    return f"doc{i}"


async def retry_until_ok(service, request: dict) -> dict:
    deadline = asyncio.get_running_loop().time() + RETRY_DEADLINE
    while True:
        reply = await service.handle(dict(request))
        if reply["ok"]:
            return reply
        assert reply["error"]["code"] in ("worker-restart", "timeout"), reply
        assert asyncio.get_running_loop().time() < deadline, (
            f"worker never recovered: {reply}"
        )
        await asyncio.sleep(0.1)


@pytest.mark.parametrize("crash_at,killed_op,allowed_texts", CASES)
def test_killed_worker_respawns_and_recovers(
    tmp_path, crash_at, killed_op, allowed_texts
):
    async def go():
        service = ShardDispatcher(
            2,
            request_timeout=30.0,
            state_dir=tmp_path / "state",
            fault_env={ARMED_SHARD: {"REPRO_CRASH_AT": crash_at}},
        )
        doc = owned_doc(ARMED_SHARD, 2)

        reply = await service.handle(
            {"op": "open", "id": 0, "doc": doc, "language": "calc",
             "text": "x = 1;"}
        )
        assert reply["ok"], reply

        before = (await service.handle({"op": "stats", "id": 1}))["stats"]
        assert before["counters"]["opened"] == 1

        edit = {"op": "edit", "id": 2, "doc": doc,
                "edits": [{"at": 4, "remove": 1, "insert": "9"}]}
        if killed_op == "edit":
            crashed = await service.handle(edit)
        else:
            acked = await service.handle(edit)
            assert acked["ok"], acked
            crashed = await service.handle(
                {"op": killed_op, "id": 6, "doc": doc}
            )
        assert not crashed["ok"], crashed
        assert crashed["error"]["code"] == "worker-restart"
        assert crashed["error"].get("retry") or crashed.get("retry")

        recovered = await retry_until_ok(
            service,
            {"op": "query", "id": 3, "doc": doc, "echo_text": True},
        )
        assert recovered.get("rehydrated"), recovered
        assert recovered["text"] in allowed_texts, (
            f"recovered {recovered['text']!r}, acked-or-later states "
            f"are {allowed_texts}"
        )

        # The recovered session keeps working: redo the lost gesture.
        edited = await retry_until_ok(
            service,
            {"op": "edit", "id": 4, "doc": doc,
             "edits": [{"at": 4, "remove": 1, "insert": "7"}],
             "echo_text": True},
        )
        assert edited["text"] == "x = 7;"

        after = (await service.handle({"op": "stats", "id": 5}))["stats"]
        dispatcher = after["dispatcher"]
        assert dispatcher["worker_restarts"] == 1
        shards = {s["shard"]: s for s in dispatcher["shards"]}
        assert shards[ARMED_SHARD]["generation"] == 1
        assert shards[ARMED_SHARD]["alive"]
        assert shards[1 - ARMED_SHARD]["generation"] == 0
        # Retired-fold: the dead life's scraped counters survive the
        # respawn -- the aggregate never moves backwards.
        assert (
            after["counters"]["opened"] >= before["counters"]["opened"]
        )
        assert after["counters"]["rehydrated"] >= 1
        assert after["requests"] >= before["requests"]
        await service.aclose()

    asyncio.run(go())


def test_respawn_comes_up_clean(tmp_path):
    """The armed kill fires once per shard slot, never on a respawn."""

    async def go():
        service = ShardDispatcher(
            2,
            request_timeout=30.0,
            state_dir=tmp_path / "state",
            # Armed on the *first* arrival: the open itself is the kill,
            # so nothing was ever durable for this doc.
            fault_env={ARMED_SHARD: {"REPRO_CRASH_AT": "persist:write:0"}},
        )
        doc = owned_doc(ARMED_SHARD, 2)
        crashed = await service.handle(
            {"op": "open", "id": 0, "doc": doc, "language": "calc",
             "text": "x = 1;"}
        )
        assert not crashed["ok"]
        assert crashed["error"]["code"] == "worker-restart"

        # The respawned worker must NOT re-arm the kill: the same open
        # (retried) now passes through the same crash point and lives.
        reply = await retry_until_ok(
            service,
            {"op": "open", "id": 1, "doc": doc, "language": "calc",
             "text": "x = 1;"},
        )
        assert reply["ok"], reply
        stats = (await service.handle({"op": "stats", "id": 2}))["stats"]
        assert stats["dispatcher"]["worker_restarts"] == 1
        await service.aclose()

    asyncio.run(go())
