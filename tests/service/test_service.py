"""Unit and protocol tests for `repro.service`.

Covers the wire protocol (framing, edit-spec validation, the coalescing
algebra and its text-preservation property), the session worker
(batching, deferred flushes, backpressure, pause/resume), the manager
(LRU eviction, resident-node cap), and the service front end (error
codes, timeouts, stats) -- plus one end-to-end subprocess run of
``repro serve`` over stdio.
"""

import asyncio
import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from repro.langs.calc import calc_language
from repro.service import (
    AnalysisService,
    EditSpec,
    ProtocolError,
    Session,
    coalesce_specs,
    decode_line,
)
from repro.service.protocol import coalesce, encode

pytestmark = pytest.mark.service

REPO_ROOT = Path(__file__).resolve().parents[2]


# -- protocol ------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        obj = {"op": "edit", "id": 7, "edits": [{"at": 0, "insert": "x"}]}
        assert decode_line(encode(obj)) == obj

    @pytest.mark.parametrize(
        "line",
        ["", "{", "[1, 2]", '"just a string"', '{"id": 1}', '{"op": 3}'],
    )
    def test_garbage_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_line(line)

    @pytest.mark.parametrize(
        "spec",
        [
            "nope",
            {},
            {"at": -1},
            {"at": 0, "remove": -2},
            {"at": "x"},
            {"at": 0, "insert": 5},
        ],
    )
    def test_bad_edit_specs_rejected(self, spec):
        with pytest.raises(ProtocolError):
            EditSpec.from_json(spec)

    def test_spec_defaults(self):
        assert EditSpec.from_json({"at": 3}) == EditSpec(3, 0, "")


class TestCoalesce:
    def test_append_rule(self):
        a = EditSpec(4, 2, "ab")
        b = EditSpec(6, 1, "cd")
        assert coalesce(a, b) == EditSpec(4, 3, "abcd")

    def test_backspace_rule(self):
        a = EditSpec(4, 1, "abcd")
        b = EditSpec(6, 2, "")
        assert coalesce(a, b) == EditSpec(4, 1, "ab")

    def test_disjoint_edits_stay_separate(self):
        assert coalesce(EditSpec(0, 0, "x"), EditSpec(9, 1, "y")) is None

    def test_typing_burst_becomes_one_spec(self):
        burst = [EditSpec(5, 3, "1")] + [
            EditSpec(5 + i, 0, c) for i, c in enumerate("234", start=1)
        ]
        assert coalesce_specs(burst) == [EditSpec(5, 3, "1234")]

    @pytest.mark.parametrize("seed", range(40))
    def test_coalescing_preserves_text(self, seed):
        """apply(coalesce(specs)) == apply(specs), byte for byte."""
        rng = Random(seed)
        text = "".join(
            rng.choice("abcdefgh \n") for _ in range(rng.randrange(2, 60))
        )
        specs = []
        cursor = text
        for _ in range(rng.randrange(1, 12)):
            if specs and rng.random() < 0.5:
                # Half the time continue the previous gesture so the
                # append/backspace rules actually fire.
                prev = specs[-1]
                tail = prev.at + len(prev.insert)
                if rng.random() < 0.6 or not prev.insert:
                    spec = EditSpec(tail, 0, rng.choice("xyz"))
                else:
                    spec = EditSpec(tail - 1, 1, "")
            else:
                at = rng.randrange(len(cursor) + 1)
                remove = rng.randrange(0, len(cursor) - at + 1)
                spec = EditSpec(at, remove, rng.choice(["", "q", "rs", "tuv"]))
            specs.append(spec)
            cursor = spec.apply(cursor)
        merged = coalesce_specs(specs)
        assert len(merged) <= len(specs)
        out = text
        for spec in merged:
            out = spec.apply(out)
        assert out == cursor


# -- session worker ------------------------------------------------------------


def run(coro):
    return asyncio.run(coro)


class TestSession:
    def test_greedy_batching(self):
        async def go():
            session = Session("d", calc_language())
            await session.open_with("a = 1;", 0)
            futures = [
                session.submit_edits(i, [EditSpec(4, 1, str(i))])
                for i in (1, 2, 3)
            ]
            replies = await asyncio.gather(*futures)
            assert all(r["ok"] for r in replies)
            # All three edits queued before the worker ran: one batch,
            # one parse, identical replies.
            assert [r["batched"] for r in replies] == [3, 3, 3]
            assert session.counts["parses"] == 1
            assert session.counts["batches"] == 2  # open + edits
            session.shut_down()

        run(go())

    def test_deferred_edit_waits_for_flush_trigger(self):
        async def go():
            session = Session("d", calc_language())
            await session.open_with("a = 1;", 0)
            deferred = session.submit_edits(
                1, [EditSpec(4, 1, "9")], defer=True
            )
            await asyncio.sleep(0.01)
            assert not deferred.done()  # batch held open
            query = session.submit_op("query", 2)
            edit_reply, query_reply = await asyncio.gather(deferred, query)
            assert edit_reply["ok"] and query_reply["ok"]
            assert session.shadow_text == "a = 9;"
            session.shut_down()

        run(go())

    def test_backpressure_when_queue_full(self):
        async def go():
            session = Session("d", calc_language(), queue_limit=2)
            futures = [
                session.submit_edits(i, [EditSpec(0, 0, "x")]) for i in range(3)
            ]
            # Third enqueue finds the queue full before the worker has
            # ever run: immediate flow-control reply, nothing blocked.
            reply = await futures[2]
            assert not reply["ok"]
            assert reply["error"]["code"] == "backpressure"
            assert reply["retry"] is True
            assert session.counts["backpressure"] == 1
            # The rejected edit did NOT touch the authoritative text.
            assert session.shadow_text == "xx"
            await asyncio.gather(*futures[:2])
            session.shut_down()

        run(go())

    def test_bad_edit_rejected_without_queueing(self):
        async def go():
            session = Session("d", calc_language())
            await session.open_with("ab", 0)
            reply = await session.submit_edits(1, [EditSpec(5, 4, "x")])
            assert not reply["ok"]
            assert reply["error"]["code"] == "bad-edit"
            assert session.shadow_text == "ab"
            session.shut_down()

        run(go())

    def test_shutdown_fails_queued_waiters(self):
        async def go():
            session = Session("d", calc_language())
            session.pause()
            futures = [
                session.submit_edits(i, [EditSpec(0, 0, "x")]) for i in range(3)
            ]
            session.shut_down()
            replies = await asyncio.gather(*futures)
            assert all(r["error"]["code"] == "closed" for r in replies)
            late = await session.submit_edits(9, [EditSpec(0, 0, "y")])
            assert late["error"]["code"] == "closed"

        run(go())


# -- service front end ---------------------------------------------------------


async def open_doc(service, name, text, language="calc"):
    reply = await service.handle(
        {"op": "open", "id": f"open:{name}", "doc": name,
         "language": language, "text": text}
    )
    assert reply["ok"], reply
    return reply


class TestService:
    def test_edit_query_round_trip(self):
        async def go():
            service = AnalysisService()
            opened = await open_doc(service, "d", "a = 1;")
            assert opened["tokens"] == 5
            reply = await service.handle(
                {"op": "edit", "id": 1, "doc": "d",
                 "edits": [{"at": 4, "remove": 1, "insert": "2 + 3"}],
                 "echo_text": True}
            )
            assert reply["ok"] and reply["text"] == "a = 2 + 3;"
            query = await service.handle(
                {"op": "query", "id": 2, "doc": "d"}
            )
            assert query["ok"] and query["has_errors"] is False
            assert query["sha256"] == reply["sha256"]
            await service.aclose()

        run(go())

    def test_error_codes(self):
        async def go():
            service = AnalysisService()
            cases = [
                ({"op": "frobnicate", "id": 1}, "unknown-op"),
                ({"op": "edit", "id": 2, "doc": "nope",
                  "edits": [{"at": 0}]}, "no-session"),
                ({"op": "open", "id": 3, "doc": "d",
                  "language": "not-a-language"}, "protocol"),
                ({"op": "open", "id": 4, "doc": "d"}, "protocol"),
                ({"op": "open", "id": 5, "doc": "d", "language": "calc",
                  "grammar": "s : 'x' ;"}, "protocol"),
            ]
            for request, code in cases:
                reply = await service.handle(request)
                assert not reply["ok"], request
                assert reply["error"]["code"] == code, request
            await open_doc(service, "d", "a = 1;")
            dup = await service.handle(
                {"op": "open", "id": 6, "doc": "d", "language": "calc"}
            )
            assert dup["error"]["code"] == "exists"
            bad = await service.handle(
                {"op": "edit", "id": 7, "doc": "d",
                 "edits": [{"at": 999, "remove": 1, "insert": ""}]}
            )
            assert bad["error"]["code"] == "bad-edit"
            await service.aclose()

        run(go())

    def test_inline_grammar_session(self):
        async def go():
            service = AnalysisService()
            reply = await service.handle(
                {"op": "open", "id": 1, "doc": "d",
                 "grammar": "%start s\ns : s 'x' | 'x' ;", "text": "xxx"}
            )
            assert reply["ok"] and reply["tokens"] == 4  # 3 + end sentinel
            await service.aclose()

        run(go())

    def test_close_then_no_session(self):
        async def go():
            service = AnalysisService()
            await open_doc(service, "d", "a = 1;")
            closed = await service.handle(
                {"op": "close", "id": 1, "doc": "d"}
            )
            assert closed["ok"] and closed["closed"] == "d"
            gone = await service.handle(
                {"op": "query", "id": 2, "doc": "d"}
            )
            assert gone["error"]["code"] == "no-session"
            await service.aclose()

        run(go())

    def test_timeout_reply_then_work_lands(self):
        async def go():
            service = AnalysisService(request_timeout=0.05)
            await open_doc(service, "d", "a = 1;")
            session = service.manager.get("d")
            session.pause()
            reply = await service.handle(
                {"op": "edit", "id": 1, "doc": "d",
                 "edits": [{"at": 4, "remove": 1, "insert": "7"}]}
            )
            assert reply["error"]["code"] == "timeout"
            assert reply["pending"] is True
            session.resume()
            # The timed-out edit was accepted; it lands with the next
            # request's flush rather than being un-applied.
            query = await service.handle(
                {"op": "query", "id": 2, "doc": "d", "echo_text": True}
            )
            assert query["ok"] and query["text"] == "a = 7;"
            stats = await service.handle({"op": "stats", "id": 3})
            assert stats["stats"]["timeouts"] == 1
            await service.aclose()

        run(go())

    def test_lru_eviction_at_session_cap(self):
        async def go():
            service = AnalysisService(max_sessions=2)
            await open_doc(service, "a", "a = 1;")
            await open_doc(service, "b", "b = 2;")
            await service.handle({"op": "query", "id": 0, "doc": "a"})
            # "b" is now least recently used; the third open evicts it.
            await open_doc(service, "c", "c = 3;")
            assert service.manager.names() == ["a", "c"]
            gone = await service.handle({"op": "query", "id": 1, "doc": "b"})
            assert gone["error"]["code"] == "no-session"
            stats = (await service.handle({"op": "stats", "id": 2}))["stats"]
            assert stats["counters"]["evictions"] == 1
            await service.aclose()

        run(go())

    def test_resident_node_cap_evicts_idle_lru(self):
        async def go():
            service = AnalysisService(max_resident_nodes=10)
            await open_doc(service, "a", "a = 1; b = a + 2; c = b * 3;")
            assert "a" in service.manager  # sole session is never evicted
            await open_doc(service, "b", "x = 1; y = x + 2; z = y * 4;")
            # b's first flush found the pool over budget and evicted a.
            assert service.manager.names() == ["b"]
            stats = (await service.handle({"op": "stats", "id": 1}))["stats"]
            assert stats["counters"]["evictions"] == 1
            assert stats["resident_nodes"] <= stats["counters"]["opened"] * 40
            await service.aclose()

        run(go())

    def test_stats_shape(self):
        async def go():
            service = AnalysisService()
            await open_doc(service, "d", "a = 1;")
            stats = (await service.handle({"op": "stats", "id": 1}))["stats"]
            assert stats["sessions"]["d"]["language"] == "calc"
            assert stats["sessions"]["d"]["queue_depth"] == 0
            assert stats["limits"]["max_sessions"] == 32
            assert stats["counters"]["opened"] == 1
            assert stats["coalesce_ratio"] is None  # no edits yet
            assert stats["requests"] == 2
            await service.aclose()

        run(go())

    def test_stats_report_collector_passes(self):
        async def go():
            service = AnalysisService()

            async def collector():
                stats = await service.handle({"op": "stats", "id": 1})
                return stats["stats"]["collector"]

            before = await collector()
            assert [entry["generation"] for entry in before] == [0, 1, 2]
            gc.collect()
            after = await collector()
            assert after[2]["collections"] >= before[2]["collections"] + 1
            assert after[2]["pause_ms"] >= after[2]["max_pause_ms"] > 0
            await service.aclose()
            assert service.collector not in gc.callbacks

        run(go())

    def test_counters_survive_close_and_eviction(self):
        async def go():
            service = AnalysisService(max_sessions=1)
            await open_doc(service, "a", "a = 1;")
            await service.handle(
                {"op": "edit", "id": 1, "doc": "a",
                 "edits": [{"at": 4, "remove": 1, "insert": "5"}]}
            )
            await open_doc(service, "b", "b = 2;")  # evicts a
            stats = (await service.handle({"op": "stats", "id": 2}))["stats"]
            assert stats["counters"]["edits_received"] == 1
            assert stats["counters"]["evictions"] == 1
            await service.aclose()

        run(go())


# -- stdio transport, end to end ----------------------------------------------


@pytest.mark.slow
def test_serve_stdio_subprocess():
    """A scripted session through a real ``repro serve`` process."""
    requests = [
        {"op": "ping", "id": 0},
        {"op": "open", "id": 1, "doc": "d", "language": "calc",
         "text": "a = 1;"},
        {"op": "edit", "id": 2, "doc": "d",
         "edits": [{"at": 4, "remove": 1, "insert": "42"}],
         "echo_text": True},
        {"op": "query", "id": 3, "doc": "d"},
        {"op": "close", "id": 4, "doc": "d"},
        {"op": "shutdown", "id": 5},
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    replies = {
        reply["id"]: reply
        for reply in map(json.loads, proc.stdout.splitlines())
    }
    assert replies[0]["pong"] is True
    assert replies[1]["ok"] and replies[1]["tokens"] == 5
    assert replies[2]["ok"] and replies[2]["text"] == "a = 42;"
    assert replies[3]["ok"] and replies[3]["has_errors"] is False
    assert replies[4]["ok"] and replies[4]["closed"] == "d"
    assert replies[5]["ok"] and replies[5]["stopping"] is True
