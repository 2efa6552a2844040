"""A full snapshot log is checkpointed while the service is idle.

Every flush appends one record to its session's snapshot log, and a
log of ``LOG_LIMIT`` records needs a whole-document checkpoint.  The
transport calls ``on_idle`` once a connection owes no reply, and the
service writes that checkpoint then, not on the next flush.  These
tests drive ``ServiceTransport._serve_streams`` in-process and record
replies and checkpoint calls in one event list:

* edits sent one at a time: the reply that fills the log is written
  before the checkpoint, and the next edit appends;
* traffic that never leaves the connection idle still gets the inline
  checkpoint, so the log never holds more than ``LOG_LIMIT`` records;
* a session parked on a deferred batch is not compacted;
* a checkpoint that fails at idle raises nothing, the connection keeps
  serving, and the next flush still persists.
"""

import asyncio
import json

import pytest

from repro.service import AnalysisService
from repro.service.persist import LOG_LIMIT
from repro.testing import inject

pytestmark = [pytest.mark.service, pytest.mark.persistence]


def run(coro):
    return asyncio.run(coro)


def make_service(tmp_path, events):
    """A persistent service whose checkpoints and appends are logged.

    ``("save", doc)`` is recorded when a checkpoint starts, ``("append",
    doc, records)`` after a log record landed, with the number of
    records the file then holds.
    """
    service = AnalysisService(state_dir=tmp_path / "state")
    store = service.store
    save, append = store.save, store.append

    def recording_save(snapshot):
        events.append(("save", snapshot.name))
        return save(snapshot)

    def recording_append(name, base, text):
        size = append(name, base, text)
        events.append(("append", name, store.load(name).log_records))
        return size

    store.save = recording_save
    store.append = recording_append
    return service


class Link:
    """One JSON-lines connection to ``service``, served in-process."""

    def __init__(self, service, events):
        self.reader = asyncio.StreamReader()
        self.replies: asyncio.Queue = asyncio.Queue()

        async def write_line(line):
            reply = json.loads(line)
            events.append(("reply", reply.get("id")))
            self.replies.put_nowait(reply)

        self.task = asyncio.ensure_future(
            service._serve_streams(self.reader, write_line)
        )

    def send(self, *requests):
        for request in requests:
            self.reader.feed_data((json.dumps(request) + "\n").encode())

    async def reply(self):
        reply = await asyncio.wait_for(self.replies.get(), 30)
        assert reply["ok"], reply
        return reply

    async def request(self, request):
        self.send(request)
        return await self.reply()

    async def close(self):
        self.reader.feed_eof()
        await self.task


def open_request(doc="d", text="a = 10;"):
    return {"op": "open", "id": f"open:{doc}", "doc": doc,
            "language": "calc", "text": text}


def edit_request(rid, number, doc="d", **extra):
    """Replace the two-digit literal of ``a = NN;`` with ``number``."""
    return {"op": "edit", "id": rid, "doc": doc, "echo_text": True,
            "edits": [{"at": 4, "remove": 2, "insert": str(number)}],
            **extra}


async def fill_log(link, records, first=0):
    """Edits sent one at a time; returns the last reply."""
    reply = None
    for i in range(first, first + records):
        reply = await link.request(edit_request(i, 20 + i))
    return reply


def test_full_log_is_checkpointed_after_the_reply(tmp_path):
    events = []

    async def go():
        service = make_service(tmp_path, events)
        link = Link(service, events)
        await link.request(open_request())
        assert events == [("save", "d"), ("reply", "open:d")]
        await fill_log(link, LOG_LIMIT - 1)
        assert service.manager.counts["compactions"] == 0
        events.clear()
        await link.request(edit_request("fill", 77))
        # The reply that fills the log goes out first; the checkpoint
        # follows at the idle moment after it.
        assert events == [
            ("append", "d", LOG_LIMIT), ("reply", "fill"), ("save", "d")
        ]
        assert service.store.load("d").log_records == 0
        events.clear()
        reply = await link.request(edit_request("next", 78))
        assert events == [("append", "d", 1), ("reply", "next")]
        assert reply["text"] == "a = 78;"
        stats = await link.request({"op": "stats", "id": "s"})
        assert stats["stats"]["counters"]["compactions"] == 1
        await link.close()
        await service.aclose()

    run(go())


def test_traffic_without_idle_moments_still_checkpoints_inline(tmp_path):
    events = []

    async def go():
        service = make_service(tmp_path, events)
        link = Link(service, events)
        await link.request(open_request())
        await link.request(open_request("hold", "b = 10;"))
        # A deferred edit keeps one request in flight on the connection,
        # so no reply below leaves it idle.
        link.send(edit_request("held", 11, doc="hold", defer=True))
        events.clear()
        for i in range(2 * LOG_LIMIT):
            await link.request(edit_request(i, 20 + i))
        appends = [event[2] for event in events if event[0] == "append"]
        assert len(appends) == 2 * LOG_LIMIT - 1
        assert max(appends) == LOG_LIMIT
        # The flush that found the log full wrote the checkpoint before
        # its own reply.
        assert events.count(("save", "d")) == 1
        assert events.index(("save", "d")) < events.index(("reply", LOG_LIMIT))
        assert events.index(("save", "d")) > events.index(
            ("reply", LOG_LIMIT - 1)
        )
        assert service.manager.counts["compactions"] == 0
        link.send(edit_request("release", 12, doc="hold"))
        replies = {(await link.reply())["id"] for _ in range(2)}
        assert replies == {"held", "release"}
        assert service.store.load("d").log_records == LOG_LIMIT - 1
        await link.close()
        await service.aclose()

    run(go())


def test_parked_session_is_not_compacted(tmp_path):
    events = []

    async def go():
        service = make_service(tmp_path, events)
        editor = Link(service, events)
        await editor.request(open_request())
        await fill_log(editor, LOG_LIMIT - 1)
        # Fill the log and park on a deferred edit in one worker step,
        # so the editor's connection never goes idle in between.
        session = service.manager.get("d")
        session.pause()
        editor.send(
            edit_request("fill", 77),
            {"op": "query", "id": "q", "doc": "d"},
            edit_request("parked", 55, defer=True),
        )
        for _ in range(1000):
            if session.queue.qsize() == 2:
                break
            await asyncio.sleep(0)
        session.resume()
        assert (await editor.reply())["id"] == "fill"
        assert (await editor.reply())["id"] == "q"
        assert session.log_records == LOG_LIMIT and not session.idle
        # Another connection going idle runs the hook: the parked
        # session is busy, so nothing is written.
        events.clear()
        other = Link(service, events)
        await other.request({"op": "ping", "id": "p"})
        assert events == [("reply", "p")]
        assert session.log_records == LOG_LIMIT
        # The flush that ends the deferred batch finds the log full and
        # checkpoints inline.
        editor.send(edit_request("flush", 66))
        replies = {(await editor.reply())["id"] for _ in range(2)}
        assert replies == {"parked", "flush"}
        assert ("save", "d") in events
        assert service.store.load("d").text == "a = 66;"
        assert service.manager.counts["compactions"] == 0
        await other.close()
        await editor.close()
        await service.aclose()

    run(go())


def test_failed_idle_checkpoint_keeps_the_connection_serving(tmp_path):
    events = []

    async def go():
        service = make_service(tmp_path, events)
        link = Link(service, events)
        await link.request(open_request())
        await fill_log(link, LOG_LIMIT - 1)
        with inject("persist:serialize"):
            await link.request(edit_request("fill", 77))
        assert ("save", "d") in events
        assert service.store.counts["save_errors"] == 1
        assert service.manager.counts["compactions"] == 0
        assert not link.task.done()
        # The store still holds the full log; the next flush writes the
        # checkpoint the idle pass could not.
        assert service.store.load("d").text == "a = 77;"
        events.clear()
        reply = await link.request(edit_request("next", 78))
        assert events == [("save", "d"), ("reply", "next")]
        snapshot = service.store.load("d")
        assert snapshot.text == reply["text"] == "a = 78;"
        assert snapshot.log_records == 0
        await link.close()
        await service.aclose()

    run(go())
