"""Cross-process SnapshotStore locking (ISSUE 7, satellite 1).

The sharded service runs N workers against one ``--state-dir``.  Shard
routing means two workers *should* never touch the same session, but
storage safety must not depend on routing being right: these tests
hammer one store from two real processes and assert that every
published snapshot file stays verifiable, that no save ever observes a
*live* concurrent writer (``save_conflicts == 0``), and that claim
files left by dead writers are detected as stale rather than treated
as conflicts.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.persist import SessionSnapshot, SnapshotStore

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"

pytestmark = [pytest.mark.service, pytest.mark.persistence,
              pytest.mark.multiproc]


def make_snapshot(name: str, version: int, pad: str = "") -> SessionSnapshot:
    text = f"x = {version};{pad}"
    return SessionSnapshot(
        name=name,
        language="calc",
        grammar=None,
        balanced=True,
        text=text,
        journal_tail=[],
        version=version,
        table_key="t" * 64,
        version_opened=True,
        doc_payload=None,
    )


HAMMER_CHILD = r"""
import json, os, sys
sys.path.insert(0, {src!r})
from repro.service.persist import SnapshotStore, SessionSnapshot

directory, rounds = sys.argv[1], int(sys.argv[2])
store = SnapshotStore(directory)
# Start barrier: without it one child can finish every save before the
# other has even imported repro, and the hammer never contends.
print("ready", flush=True)
sys.stdin.readline()


def snap(version):
    # Vary the payload size so torn interleaved writes could not
    # accidentally produce a verifiable file.
    text = "x = %d;" % version + "#" * (version % 97)
    return SessionSnapshot(
        name="shared", language="calc", grammar=None, balanced=True,
        text=text, journal_tail=[],
        version=version, table_key="t" * 64, version_opened=True,
    )


for i in range(rounds):
    store.save(snap(i + 1))
    if i % 7 == 0:
        loaded = store.load("shared")
        assert loaded is not None, "verified read failed under contention"
print(json.dumps(store.counts))
"""


def run_hammer(directory: Path, rounds: int) -> dict:
    script = HAMMER_CHILD.format(src=str(SRC_ROOT))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(directory), str(rounds)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        readable, _, _ = select.select([proc.stdout], [], [], 120)
        assert readable, "hammer child never reported ready"
        assert proc.stdout.readline() == "ready\n", (
            f"hammer child failed:\n{proc.communicate(timeout=120)[1]}"
        )
    for proc in procs:
        proc.stdin.write("go\n")
        proc.stdin.flush()
    counts = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"hammer child failed:\n{err}"
        counts.append(json.loads(out.strip().splitlines()[-1]))
    return {
        key: sum(child[key] for child in counts) for key in counts[0]
    }


def test_two_process_hammer(tmp_path):
    rounds = 120
    totals = run_hammer(tmp_path, rounds)
    # Every save published; the flock means no save ever saw a live
    # concurrent writer, and nothing needed quarantining.
    assert totals["saves"] == 2 * rounds
    assert totals["save_errors"] == 0
    assert totals["save_conflicts"] == 0
    assert totals["stale_claims"] == 0
    assert totals["quarantined"] == 0
    assert not list(tmp_path.glob("*.bad"))
    assert not list(tmp_path.glob("*.claim"))
    assert not list(tmp_path.glob("*.tmp"))
    # Two processes racing 120 saves each on one session must actually
    # have contended -- otherwise this test proves nothing.
    assert totals["lock_waits"] > 0, "hammer never contended; weak test"
    # The surviving file is the complete snapshot of *some* round.
    store = SnapshotStore(tmp_path)
    final = store.load("shared")
    assert final is not None
    assert 1 <= final.version <= rounds
    assert final.text.startswith(f"x = {final.version};")


WRITES = ["save", "append"]


def prepare(store: SnapshotStore, write: str):
    """Set up ``write`` on session "doc"; returns (do it, text after).

    An append needs a checkpoint to extend, written before the test
    plants its claim file.
    """
    if write == "save":
        return lambda: store.save(make_snapshot("doc", 2)), "x = 2;"
    store.save(make_snapshot("doc", 1))
    return lambda: store.append("doc", "x = 1;", "x = 2;"), "x = 2;"


@pytest.mark.parametrize("write", WRITES)
def test_stale_claim_from_dead_writer(tmp_path, write):
    """A claim left by a killed process is cleaned up, not a conflict."""
    store = SnapshotStore(tmp_path)
    do_write, text = prepare(store, write)
    claim = store.path_for("doc").with_suffix(".claim")
    # A pid that cannot be alive: fork a child and wait for it to exit.
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    claim.write_text(str(proc.pid))
    do_write()
    assert store.counts["stale_claims"] == 1
    assert store.counts["save_conflicts"] == 0
    assert not claim.exists()
    assert store.load("doc").text == text


@pytest.mark.parametrize("write", WRITES)
def test_live_claim_counts_conflict(tmp_path, write):
    """A claim naming a live pid is the alarm case: counted, not fatal."""
    store = SnapshotStore(tmp_path)
    do_write, text = prepare(store, write)
    claim = store.path_for("doc").with_suffix(".claim")
    claim.write_text(str(os.getpid()))
    do_write()
    assert store.counts["save_conflicts"] == 1
    assert store.counts["stale_claims"] == 0
    # The write still went through -- atomic publish and verified
    # appends keep the bytes safe.
    assert store.load("doc").text == text


def test_gc_sweeps_dead_claims(tmp_path):
    store = SnapshotStore(tmp_path)
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    (tmp_path / "a.claim").write_text(str(dead.pid))
    (tmp_path / "b.claim").write_text(str(os.getpid()))  # live: kept
    (tmp_path / "c.claim").write_text("not-a-pid")  # unreadable: swept
    result = store.gc()
    assert result["stale_claims_removed"] == 2
    assert not (tmp_path / "a.claim").exists()
    assert (tmp_path / "b.claim").exists()


def test_lock_file_persists_across_saves(tmp_path):
    """The lock sidecar is never unlinked (inode-stability invariant)."""
    store = SnapshotStore(tmp_path)
    store.save(make_snapshot("doc", 1))
    lock = store.path_for("doc").with_suffix(".lock")
    assert lock.exists()
    inode = lock.stat().st_ino
    store.save(make_snapshot("doc", 2))
    store.delete("doc")
    assert lock.stat().st_ino == inode
