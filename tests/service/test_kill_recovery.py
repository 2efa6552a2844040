"""Kill -9 anywhere on the persistence path; the restart must recover.

Each scenario murders a live ``repro serve --state-dir`` subprocess with
``SIGKILL`` at a registered crash point (armed via ``REPRO_CRASH_AT``:
no exception unwinding, no atexit, no flushed buffers -- the real
thing), restarts the service over the same state directory, and checks
the recovery contract *differentially* against the client's own view:

* every session whose open was acknowledged rehydrates with text that is
  byte-identical to some acknowledged-or-later state -- acked work is
  never lost, and at most the in-flight batch is;
* a session killed before its open was acknowledged may come back as
  ``no-session`` (the client still owns the text and reopens);
* the restarted service is fully live: it answers, accepts edits, and
  shuts down cleanly.

Kill points cover the per-flush append (before and after the record's
write), the checkpoint path (capture/serialize/write/publish: the
open's first checkpoint, and with ``:2`` the graceful-shutdown
checkpoint, since every edit in between appends), the
graceful-shutdown snapshot, the checkpoint of a full log written while
the service is idle, and -- killing the *second* process during
recovery -- the load/rehydrate path, which a third process must then
survive.
"""

import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.persist import LOG_LIMIT

pytestmark = [
    pytest.mark.service,
    pytest.mark.faults,
    pytest.mark.persistence,
    pytest.mark.slow,
]

REPO_ROOT = Path(__file__).resolve().parents[2]

DOCS = {
    "alpha.calc": ["a = 1;", "a = 9;", "b = 9;"],
    "beta.calc": ["x = 2; y = 3;", "x = 2; y = 30;"],
}
# (doc, edit spec) producing texts[i] -> texts[i+1] above.
EDITS = [
    ("alpha.calc", {"at": 4, "remove": 1, "insert": "9"}),
    ("beta.calc", {"at": 11, "remove": 1, "insert": "30"}),
    ("alpha.calc", {"at": 0, "remove": 1, "insert": "b"}),
]


def serve_env(crash_at=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    if crash_at is not None:
        env["REPRO_CRASH_AT"] = crash_at
    else:
        env.pop("REPRO_CRASH_AT", None)
    return env


def serve_argv(state_dir):
    return [sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state_dir)]


def run_serve(state_dir, requests, crash_at=None, timeout=120):
    """One ``repro serve`` subprocess; returns (returncode, replies).

    The whole script is piped at once, so whether the service goes idle
    between two requests is up to timing; :class:`InteractiveServe`
    waits for each reply instead.
    """
    proc = subprocess.run(
        serve_argv(state_dir),
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True,
        text=True,
        timeout=timeout,
        env=serve_env(crash_at),
        cwd=REPO_ROOT,
    )
    replies = []
    for line in proc.stdout.splitlines():
        try:
            replies.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # a line truncated by SIGKILL mid-write
    return proc.returncode, replies


def editing_session_requests():
    requests = []
    rid = 0
    for doc, texts in DOCS.items():
        requests.append({"op": "open", "id": rid, "doc": doc,
                         "language": "calc", "text": texts[0],
                         "echo_text": True})
        rid += 1
    for doc, spec in EDITS:
        requests.append({"op": "edit", "id": rid, "doc": doc,
                         "edits": [spec], "echo_text": True})
        rid += 1
    requests.append({"op": "shutdown", "id": rid})
    return requests


def acked_texts(replies):
    """doc -> last acknowledged text, from the replies that made it out."""
    acked = {}
    for reply in replies:
        if reply.get("ok") and "text" in reply and "doc" in reply:
            acked[reply["doc"]] = reply["text"]
    return acked


def allowed_recovery_texts(doc, acked):
    """Byte-exact candidates: the last acked state or anything later
    (at most the in-flight batch may be lost, never acked work)."""
    texts = DOCS[doc]
    if doc not in acked:
        return set(texts)  # nothing acked: any sent state (or no session)
    return set(texts[texts.index(acked[doc]):])


def verify_recovery(state_dir, acked):
    """Restart cleanly and differentially check every session."""
    requests = []
    for rid, doc in enumerate(DOCS):
        requests.append({"op": "query", "id": rid, "doc": doc,
                         "echo_text": True})
    requests.append({"op": "edit", "id": 90, "doc": "alpha.calc",
                     "edits": [{"at": 0, "remove": 0, "insert": "z = 7; "}],
                     "echo_text": True})
    requests.append({"op": "shutdown", "id": 99})
    code, replies = run_serve(state_dir, requests)
    assert code == 0, replies
    by_id = {r["id"]: r for r in replies}
    recovered = {}
    for rid, doc in enumerate(DOCS):
        reply = by_id[rid]
        if not reply["ok"]:
            # Only a session whose open was never acknowledged may have
            # vanished entirely.
            assert reply["error"]["code"] == "no-session", reply
            assert doc not in acked, (doc, acked)
            continue
        assert reply.get("rehydrated") is True, reply
        assert reply["text"] in allowed_recovery_texts(doc, acked), (
            doc, reply["text"], acked
        )
        recovered[doc] = reply["text"]
    # The recovered service is live, not read-only.
    if "alpha.calc" in recovered:
        edited = by_id[90]
        assert edited["ok"], edited
        assert edited["text"] == "z = 7; " + recovered["alpha.calc"]
    return recovered


SAVE_PATH_KILLS = [
    "persist:capture:2",
    "persist:serialize:2",
    "persist:write:2",
    "persist:publish:2",
    "persist:capture:0",  # die on the very first save: open never acked
    "persist:shutdown:0",  # die snapshotting during graceful shutdown
    "persist:append:0",  # first edit's record never written: not acked
    "persist:appended:0",  # first edit's record on disk, reply not sent
    "persist:append:2",  # third edit, on top of a two-record log
    "persist:appended:2",
]


@pytest.mark.parametrize("crash_at", SAVE_PATH_KILLS)
def test_kill_during_save_then_restart_recovers(tmp_path, crash_at):
    state = tmp_path / "state"
    code, replies = run_serve(state, editing_session_requests(),
                              crash_at=crash_at)
    assert code == -9, (code, replies)  # SIGKILL actually landed
    verify_recovery(state, acked_texts(replies))


RECOVERY_PATH_KILLS = [
    "persist:load:0",
    "persist:doc-restore:0",
    "persist:rehydrate-parse:0",
]


@pytest.mark.parametrize("crash_at", RECOVERY_PATH_KILLS)
def test_kill_during_recovery_then_third_process_recovers(
    tmp_path, crash_at
):
    state = tmp_path / "state"
    # First life: a full editing session, clean shutdown.
    code, replies = run_serve(state, editing_session_requests())
    assert code == 0, replies
    acked = acked_texts(replies)
    assert set(acked) == set(DOCS)
    # Second life: killed mid-rehydration by the first query.
    requests = [{"op": "query", "id": 0, "doc": "alpha.calc",
                 "echo_text": True},
                {"op": "shutdown", "id": 9}]
    code, _ = run_serve(state, requests, crash_at=crash_at)
    assert code == -9, code
    # Third life: everything still recovers, byte-identical.
    recovered = verify_recovery(state, acked)
    assert recovered == {doc: texts[-1] for doc, texts in DOCS.items()}


class InteractiveServe:
    """A ``repro serve`` subprocess that answers one request at a time.

    Each request waits for its reply before the next is sent, so the
    service goes idle after every reply, as it does under an editor.
    """

    def __init__(self, state_dir, crash_at=None):
        self.proc = subprocess.Popen(
            serve_argv(state_dir),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=serve_env(crash_at),
            cwd=REPO_ROOT,
        )

    def request(self, request, timeout=60):
        """The reply, or None when the service died before writing it."""
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        assert ready, f"no reply to {request} within {timeout}s"
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def wait(self, timeout=60):
        return self.proc.wait(timeout=timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


IDLE_CHECKPOINT_KILLS = [
    "persist:compact:0",  # the full log's idle checkpoint about to start
    "persist:publish:1",  # that checkpoint published, bookkeeping not
]


@pytest.mark.parametrize("crash_at", IDLE_CHECKPOINT_KILLS)
def test_kill_during_idle_checkpoint_recovers_last_acked_text(
    tmp_path, crash_at
):
    state = tmp_path / "state"
    serve = InteractiveServe(state, crash_at=crash_at)
    try:
        reply = serve.request({"op": "open", "id": "open", "doc": "d",
                               "language": "calc", "text": "a = 10;"})
        assert reply["ok"], reply
        acked = None
        # The open wrote the first checkpoint (publish arrival 0); the
        # edits append until the log is full, and the idle moment after
        # the last reply checkpoints it -- where the kill lands.
        for i in range(LOG_LIMIT):
            reply = serve.request(
                {"op": "edit", "id": i, "doc": "d", "echo_text": True,
                 "edits": [{"at": 4, "remove": 2, "insert": str(20 + i)}]}
            )
            assert reply["ok"], reply
            acked = reply["text"]
        assert serve.wait() == -9
    finally:
        serve.kill()
    assert acked == f"a = {20 + LOG_LIMIT - 1};"
    code, replies = run_serve(state, [
        {"op": "query", "id": "q", "doc": "d", "echo_text": True},
        {"op": "shutdown", "id": "s"},
    ])
    assert code == 0, replies
    recovered = next(reply for reply in replies if reply["id"] == "q")
    assert recovered["ok"] and recovered.get("rehydrated") is True
    assert recovered["text"] == acked
