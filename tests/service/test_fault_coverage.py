"""The crash-point coverage gate: no registered point rots untested.

Every instrumented module declares its crash points in a registry
(`repro.testing.faults.register_points`).  This suite runs a set of
*drivers* -- small end-to-end flows through the document pipeline and
the persistence-enabled service -- under a recording fault plan, and
asserts that the union of points they pass covers the whole registry.
Adding a ``crash_point`` call with a new registered name therefore
fails this gate until some fault-suite flow actually reaches it.

The ``repro faults --list`` CLI is backed by the same registry and is
checked against it here too.
"""

import asyncio

import pytest

from repro import Document, Language
from repro.langs.calc import calc_language
from repro.service import EditSpec, SessionManager, SnapshotStore
from repro.service.persist import LOG_LIMIT
from repro.testing import observed_points, registered_points

pytestmark = [pytest.mark.service, pytest.mark.faults]

LANG = Language.from_dsl(
    """
%token NUM /[0-9]+/
%token ID /[a-z]+/
program : stmt* ;
stmt : ID '=' NUM ';' ;
"""
)


def driver_document_lifecycle():
    """commit:*, recover:*, isolate:*, repair:*, persist:doc-*."""
    doc = Document(LANG, "a = 1; b = 2;")
    doc.parse()
    doc.edit(4, 1, "7")
    doc.parse()
    payload = doc.snapshot_state()
    assert payload is not None
    Document.restore_state(LANG, payload)
    # History-sensitive recovery (an edit that must be reverted).
    bad = Document(LANG, "a = 1; b = 2;")
    bad.parse()
    bad.insert(0, "(((")
    bad.parse()
    # Error isolation on a first parse.
    Document(LANG, "a = 1; )))").parse()
    # Sequence repair needs the balanced representation.
    seq = Document(calc_language(), "a = 1; b = 2; c = 3;",
                   balanced_sequences=True)
    seq.parse()
    seq.edit(seq.text.index("2"), 1, "55")
    seq.parse()


def make_service_driver(tmp_path):
    """service:*, persist:* -- one flow through the durable pool."""

    async def park(session):
        future = session.submit_edits(99, [EditSpec(4, 1, "7")], defer=True)
        for _ in range(50):
            await asyncio.sleep(0)
            if session._parked:
                return future
        raise AssertionError("worker never parked")

    async def flow():
        store = SnapshotStore(tmp_path / "state")
        manager = SessionManager(max_sessions=2, store=store)
        # Open + edit: the flush rungs and the write-ahead save path
        # (capture, serialize, write, publish).
        one = manager.open("one", language="calc")
        await one.open_with("a = 1;", 0)
        # Fill the snapshot log; the idle pass checkpoints it
        # (persist:compact).
        for i in range(LOG_LIMIT):
            number = one.shadow_text[4:-1]
            await one.submit_edits(
                i, [EditSpec(4, len(number), str(10 + i))]
            )
        manager.compact_idle()
        assert manager.counts["compactions"] == 1
        await one.submit_edits(1, [EditSpec(4, 2, "9")])
        two = manager.open("two", language="calc")
        await two.open_with("b = 2;", 0)
        # Idle eviction snapshots "one" (persist:evict).
        manager.open("three", language="calc")
        assert "one" not in manager
        # Saturate with parked sessions, then force-evict the LRU
        # quiesced one (persist:evict-forced).
        three = manager.get("three")
        await three.open_with("c = 3;", 0)
        parked = [await park(two), await park(three)]
        manager.open("four", language="calc")
        assert manager.counts["forced_evictions"] == 1
        for future in parked:
            if future.done():
                await future
        # Lazy rehydration of the evicted warm session
        # (persist:load, persist:rehydrate, persist:rehydrate-parse,
        # persist:doc-restore).
        restored = manager.rehydrate("one")
        assert restored is not None and restored.shadow_text == "a = 9;"
        # Corruption quarantine (persist:quarantine).
        name = "three" if "three" not in manager else "two"
        path = store.path_for(name)
        assert path.exists()
        path.write_bytes(b"garbage")
        assert store.load(name) is None
        # Explicit close drops durable state (persist:delete).
        await restored.submit_op("close", 2)
        manager.close("one")
        # Graceful shutdown snapshots survivors (persist:shutdown).
        manager.close_all(snapshot=True)

    def driver():
        asyncio.run(flow())

    return driver


def test_every_registered_crash_point_is_exercised(tmp_path):
    observed = set()
    observed |= set(observed_points(driver_document_lifecycle))
    observed |= set(observed_points(make_service_driver(tmp_path)))
    # Read the registry *after* the drivers ran: points that were used
    # but never declared get auto-registered at first visit, so an
    # undeclared point cannot hide from this comparison either.
    registered = set(registered_points())
    missing = registered - observed
    assert not missing, (
        f"registered crash points never exercised by any fault driver: "
        f"{sorted(missing)}"
    )


def test_faults_cli_lists_the_registry(capsys):
    from repro.cli import build_parser

    args = build_parser().parse_args(["faults", "--list"])
    assert args.func(args) == 0
    out = capsys.readouterr().out
    for name, description in registered_points().items():
        assert name in out
        assert description in out
