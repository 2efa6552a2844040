"""Durable session snapshots: crash-safe persistence for the service.

A process restart -- deploy, OOM eviction, ``kill -9`` -- must be just
another disruption whose repair cost is bounded by the change, not the
document (Wiren's bounded-incremental-parsing framing).  So must the
write-ahead save that makes it recoverable: persisting after every
flush has to cost the edit, not the document.  This module gives the
session pool both properties:

* a :class:`SessionSnapshot` is the compact durable form of one open
  session: the authoritative text, the committed document version, the
  language identity (built-in name or inline grammar-DSL source, plus
  the parse-table fingerprint the shared table cache warms from), the
  *journal tail* -- the splice that turns the committed text into the
  authoritative text, then one splice per log record -- and the
  degradation-ladder state.
  When the committed parse DAG is healthy it rides along as a pickled
  payload, so rehydration replays one incremental pass over the journal
  tail instead of a batch reparse;
* a :class:`SnapshotStore` owns one directory of snapshot files.  A
  file is a *checkpoint* -- a checksummed header and the pickled
  snapshot -- followed by a *log* of zero or more checksummed records,
  each one splice ``(at, remove, insert)`` plus the digest of the text
  it produces.  :meth:`SnapshotStore.save` publishes a checkpoint
  atomically (temp file + ``os.replace``, the same discipline as
  `repro.tables.cache`); :meth:`SnapshotStore.append` adds one record
  with a single ``O_APPEND`` write of O(edit) bytes;
  :meth:`SnapshotStore.load` verifies the checkpoint and folds the log
  into the snapshot's text and journal tail.  Every read is verified
  (magic, format version, lengths, digests, and the text-digest chain
  that ties each record to the text before it), and a file that fails
  verification -- truncated checkpoint, version mismatch, garbage, a
  damaged record -- is *quarantined*: renamed aside, counted, and
  treated as a miss, never an exception.  A corrupt snapshot therefore
  costs one cold session, not a crashed service.  The one exception is
  a truncated *final* record: an append torn by a crash before its
  batch was acknowledged, so it is dropped and counted instead.
  With the sharded service (``repro serve --workers N``) several
  processes share one store, so every mutation additionally takes a
  per-session ``flock`` sidecar lock and plants an O_EXCL claim file as
  a tripwire: two live writers on the same session can never interleave
  a write, and if they somehow try, ``save_conflicts`` counts the alarm.
  An append also refuses unless the file is still the one (inode and
  size) this process last wrote or read.

Recovery replays one relex per log record, so the manager keeps the log
at most :data:`LOG_LIMIT` records long: it checkpoints a full log while
the service is idle, and a flush that still finds the log full writes a
checkpoint instead of its append.

The file layout is :data:`FORMAT` (the comment next to it says what the
current format changed).  A file of an earlier format fails the format
check and is quarantined like any other unverifiable file; the session
then starts cold from its text.

Crash points cover every transition (serialize, write, publish, append,
load, quarantine, rehydrate), so the fault suite can kill the process
at any of them and assert recovery.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-posix: claim files only
    fcntl = None

from .. import obs
from ..testing.faults import crash_point, register_points

register_points(**{
    "persist:serialize": "session snapshot about to be pickled",
    "persist:write": "snapshot bytes written to the temp file",
    "persist:publish": "temp file about to be atomically renamed",
    "persist:append": "log record about to be appended to a snapshot",
    "persist:appended": "log record appended, replies not yet resolved",
    "persist:load": "snapshot file about to be read and verified",
    "persist:quarantine": "corrupt snapshot about to be renamed aside",
    "persist:delete": "snapshot about to be removed",
})

# Bytes identifying a snapshot file; changing the layout bumps FORMAT.
# Format 6: SessionSnapshot has no base_text field; the committed text
# is the document payload's own ``text`` (format 5 carried both).  A
# checkpoint's journal tail is at most the one splice from the committed
# text to the session's text.
MAGIC = b"REPROSNAP"
FORMAT = 6

# MAGIC + format (u32) + checkpoint length (u64) + sha256 of the checkpoint.
_HEADER = struct.Struct(f"<{len(MAGIC)}sIQ32s")
# A log record: payload length (u32) + sha256 of the payload, then the
# payload: at (u64), remove (u64), sha256 of the text after the splice,
# and the inserted text as UTF-8.
_RECORD = struct.Struct("<I32s")
_SPLICE = struct.Struct("<QQ32s")

# Most records a snapshot's log holds; the manager checkpoints a full
# log at idle, or instead of appending past it.  Recovery replays one
# relex per record, and a relex still costs O(edit offset), so a
# constant cap keeps a warm recovery below a batch reparse at any
# document size.  Calc, the cheapest grammar to batch-parse, sets the
# value: on the 3k-token document `repro.bench.service` gates, a log of
# 16 scattered records already brings recovery close to a batch reparse.
LOG_LIMIT = 8

# Parent-linked parse DAGs pickle recursively; give deep (unbalanced)
# trees headroom instead of letting RecursionError degrade the snapshot.
_PICKLE_RECURSION = 100_000


def _pid_alive(pid: int) -> bool:
    """Is there a live process with this pid (signal-0 probe)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by other uid
        return True
    except OSError:
        return False
    return True


def _text_digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def _splice(old: str, new: str) -> tuple[int, int, str]:
    """The one ``(at, remove, insert)`` turning ``old`` into ``new``.

    Common prefix and suffix by bisection: each probe is one C-level
    slice compare, so this costs O(N log N) byte compares, not a
    Python loop over characters.
    """
    limit = min(len(old), len(new))
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if old[:mid] == new[:mid]:
            lo = mid
        else:
            hi = mid - 1
    prefix = lo
    lo, hi = 0, limit - prefix
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if old[len(old) - mid:] == new[len(new) - mid:]:
            lo = mid
        else:
            hi = mid - 1
    return prefix, len(old) - prefix - lo, new[prefix:len(new) - lo]


class _Corrupt(ValueError):
    """A snapshot file failed verification; the message says how."""


@dataclass
class SessionSnapshot:
    """Everything needed to resurrect one session in a fresh process."""

    name: str
    language: str | None  # built-in language name, or None for inline
    grammar: str | None  # inline grammar-DSL source, or None for built-in
    balanced: bool
    text: str  # authoritative (client-equal) text
    # Splices from the payload's committed text ("" without one) to text.
    journal_tail: list[tuple[int, int, str]]
    version: int
    table_key: str  # parse-table cache fingerprint (warm-start identity)
    version_opened: bool
    doc_payload: dict | None = None  # Document.snapshot_state(), if healthy
    log_records: int = 0  # log records load() folded into text and tail


def _decode(blob: bytes) -> tuple[SessionSnapshot, int]:
    """Verify one snapshot file and fold its log into the snapshot.

    Returns the snapshot and the length of the verified prefix of
    ``blob``, which is shorter than ``blob`` only when the final record
    is torn.  Raises :class:`_Corrupt` on anything else that does not
    verify.
    """
    if len(blob) < _HEADER.size:
        raise _Corrupt("truncated")
    magic, fmt, length, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise _Corrupt("garbage")
    if fmt != FORMAT:
        raise _Corrupt(f"format v{fmt}")
    end = _HEADER.size + length
    payload = blob[_HEADER.size:end]
    if len(payload) != length:
        raise _Corrupt("truncated")
    if hashlib.sha256(payload).digest() != digest:
        raise _Corrupt("digest mismatch")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _PICKLE_RECURSION))
    try:
        snapshot = pickle.loads(payload)
    except Exception as error:
        raise _Corrupt("unpicklable") from error
    finally:
        sys.setrecursionlimit(limit)
    if not isinstance(snapshot, SessionSnapshot):
        raise _Corrupt("wrong type")
    text = snapshot.text
    records = 0
    while len(blob) - end >= _RECORD.size:
        length, digest = _RECORD.unpack_from(blob, end)
        start = end + _RECORD.size
        if len(blob) - start < length:
            break  # torn final record
        payload = blob[start:start + length]
        if (
            hashlib.sha256(payload).digest() != digest
            or length < _SPLICE.size
        ):
            raise _Corrupt("bad log record")
        at, remove, after = _SPLICE.unpack_from(payload)
        try:
            insert = payload[_SPLICE.size:].decode("utf-8")
        except UnicodeDecodeError as error:
            raise _Corrupt("bad log record") from error
        if at + remove > len(text):
            raise _Corrupt("log record out of range")
        text = text[:at] + insert + text[at + remove:]
        if _text_digest(text) != after:
            raise _Corrupt("log record does not chain")
        snapshot.journal_tail.append((at, remove, insert))
        records += 1
        end = start + length
    snapshot.text = text
    snapshot.log_records = records
    return snapshot, end


class SnapshotStore:
    """One directory of verified session snapshots: checkpoint + log."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.counts = {
            "saves": 0,
            "save_errors": 0,
            "save_degraded": 0,  # doc payload dropped to keep the save
            "appends": 0,
            "torn_records": 0,  # torn final records dropped by load
            "loads": 0,
            "misses": 0,
            "quarantined": 0,
            "deletes": 0,
            "lock_waits": 0,  # mutations that found the lock held
            "save_conflicts": 0,  # live concurrent writer seen (alarm!)
            "stale_claims": 0,  # dead writer's claim file cleaned up
        }
        # (inode, size) each snapshot file had when this process last
        # wrote or verified it.  An append to a file with any other
        # identity would chain onto bytes another writer produced.
        self._left: dict[str, tuple[int, int]] = {}

    # -- cross-process locking ------------------------------------------------

    @contextmanager
    def _locked(self, name: str):
        """Serialize mutations of one session's files across processes.

        The sharded service routes each document to exactly one worker,
        but that invariant must not be load-bearing for storage safety:
        a respawn race, a resized pool, or an operator's ``repro
        sessions --gc`` can all touch the same snapshot concurrently.
        ``flock`` on a per-session sidecar file makes every mutation
        exclusive, and -- unlike claim files -- is released by the
        kernel even on ``kill -9``.  The lock file itself is never
        unlinked: remove-and-recreate races would hand two processes
        locks on different inodes.
        """
        if fcntl is None:  # pragma: no cover - non-posix
            yield
            return
        fd = os.open(
            self.path_for(name).with_suffix(".lock"),
            os.O_CREAT | os.O_RDWR,
            0o644,
        )
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self.counts["lock_waits"] += 1
                obs.incr("persist.lock_waits")
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _claim(self, name: str) -> Path | None:
        """O_EXCL tripwire proving the lock actually excludes writers.

        Created (with our pid) for the duration of a write.  Finding one
        already present means either a *dead* writer was killed mid-write
        (stale: remove and carry on -- the flock guarantees nobody live
        holds it) or a *live* process is writing concurrently, i.e. the
        locking failed; that is counted as ``save_conflicts``, the
        counter the two-process hammer test asserts stays zero.  Either
        way the write proceeds: atomic publish and verified appends keep
        the bytes safe, the counters keep the invariant observable.
        """
        claim = self.path_for(name).with_suffix(".claim")
        for _ in range(2):
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    pid = int(claim.read_text() or "0")
                except (OSError, ValueError):
                    pid = 0
                if pid and _pid_alive(pid):
                    self.counts["save_conflicts"] += 1
                    obs.incr("persist.save_conflicts")
                else:
                    self.counts["stale_claims"] += 1
                    obs.incr("persist.stale_claims")
                try:
                    claim.unlink()
                except OSError:
                    return None
                continue
            except OSError:
                return None
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            return claim
        return None

    @contextmanager
    def _exclusive(self, name: str):
        """The flock plus the claim tripwire, around one write."""
        with self._locked(name):
            claim = self._claim(name)
            try:
                yield
            finally:
                if claim is not None:
                    try:
                        claim.unlink()
                    except OSError:
                        pass

    # -- naming ---------------------------------------------------------------

    def path_for(self, name: str) -> Path:
        """Snapshot file for a session name (names are arbitrary strings)."""
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:32]
        return self.directory / f"{digest}.snap"

    # -- save -----------------------------------------------------------------

    def save(self, snapshot: SessionSnapshot) -> int:
        """Atomically publish a checkpoint (empty log); returns its size.

        Raises on I/O failure -- callers on the request path guard and
        count, because a full or read-only state directory must never
        fail a batch.
        """
        name = snapshot.name
        with obs.span("persist.save", doc=name):
            try:
                with self._exclusive(name):
                    inode, size = self._save_inner(snapshot)
                    self._left[name] = (inode, size)
            except Exception:
                self._left.pop(name, None)
                self.counts["save_errors"] += 1
                obs.incr("persist.save_errors")
                raise
        self.counts["saves"] += 1
        obs.incr("persist.saves")
        obs.incr("persist.save_bytes", size)
        return size

    def _save_inner(self, snapshot: SessionSnapshot) -> tuple[int, int]:
        crash_point("persist:serialize")
        payload = self._serialize(snapshot)
        header = _HEADER.pack(
            MAGIC, FORMAT, len(payload), hashlib.sha256(payload).digest()
        )
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(payload)
                fh.flush()
                stat = os.fstat(fh.fileno())
            crash_point("persist:write")
            os.replace(tmp, self.path_for(snapshot.name))
            crash_point("persist:publish")
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return stat.st_ino, stat.st_size

    def _serialize(self, snapshot: SessionSnapshot) -> bytes:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, _PICKLE_RECURSION))
        try:
            try:
                return pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL)
            except Exception:
                if snapshot.doc_payload is None:
                    raise
                # An unpicklable tree must not lose the session: retry
                # text-only, trading warm recovery for a batch rebuild.
                snapshot.doc_payload = None
                self.counts["save_degraded"] += 1
                obs.incr("persist.save_degraded")
                return pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL)
        finally:
            sys.setrecursionlimit(limit)

    # -- append ---------------------------------------------------------------

    def append(self, name: str, base: str, text: str) -> int:
        """Log the splice turning ``base`` into ``text``; returns its size.

        ``base`` must be the text the file holds now (checkpoint plus
        log).  The record goes out in one ``os.write`` to a file opened
        ``O_APPEND`` and never created here.  Raises -- and the caller
        writes a checkpoint instead -- when the file is missing, when it
        is not the file (inode and size) this process last wrote or read
        (another writer has touched it since), or on I/O failure.
        """
        at, remove, insert = _splice(base, text)
        payload = _SPLICE.pack(at, remove, _text_digest(text))
        payload += insert.encode("utf-8")
        record = _RECORD.pack(len(payload), hashlib.sha256(payload).digest())
        record += payload
        with obs.span("persist.append", doc=name):
            with self._exclusive(name):
                self._append_inner(name, record)
        self.counts["appends"] += 1
        obs.incr("persist.appends")
        obs.incr("persist.append_bytes", len(record))
        return len(record)

    def _append_inner(self, name: str, record: bytes) -> None:
        # Popped first: after any failure the file's state is unknown
        # here, and the next write must be a checkpoint.
        left = self._left.pop(name, None)
        fd = os.open(self.path_for(name), os.O_WRONLY | os.O_APPEND)
        try:
            stat = os.fstat(fd)
            if (stat.st_ino, stat.st_size) != left:
                raise OSError(
                    f"snapshot of {name!r} changed since this process "
                    "last wrote it"
                )
            crash_point("persist:append")
            written = os.write(fd, record)
            if written != len(record):
                raise OSError(f"short append: {written} of {len(record)}")
            self._left[name] = (stat.st_ino, stat.st_size + written)
            crash_point("persist:appended")
        finally:
            os.close(fd)

    # -- load -----------------------------------------------------------------

    def load(self, name: str) -> SessionSnapshot | None:
        """Verified read; missing -> None, corrupt -> quarantined + None.

        The log is folded in: the snapshot's ``text`` is the text after
        its last record, and its ``journal_tail`` ends with the records'
        splices.  A torn final record is cut off the file, so the next
        append lands after the last verified record.
        """
        path = self.path_for(name)
        with obs.span("persist.load", doc=name):
            crash_point("persist:load")
            with self._locked(name):
                self._left.pop(name, None)
                try:
                    with open(path, "rb") as fh:
                        blob = fh.read()
                        ino = os.fstat(fh.fileno()).st_ino
                except FileNotFoundError:
                    self.counts["misses"] += 1
                    obs.incr("persist.misses")
                    return None
                except OSError:
                    return self._quarantine(path, "unreadable")
                try:
                    snapshot, end = _decode(blob)
                except _Corrupt as error:
                    return self._quarantine(path, str(error))
                if snapshot.name != name:
                    # Hash-prefix collision or a copied file: not this
                    # session.
                    return self._quarantine(path, "name-mismatch")
                self._drop_torn(path, name, ino, end, len(blob))
        self.counts["loads"] += 1
        obs.incr("persist.loads")
        return snapshot

    def _drop_torn(
        self, path: Path, name: str, ino: int, end: int, size: int
    ) -> None:
        """Remember the verified file; cut a torn final record off it."""
        if end < size:
            self.counts["torn_records"] += 1
            obs.incr("persist.torn_records")
            try:
                os.truncate(path, end)
            except OSError:
                return  # unknown tail: the next write is a checkpoint
        self._left[name] = (ino, end)

    def _quarantine(self, path: Path, reason: str) -> None:
        """Rename a bad file aside so it is kept for forensics, not retried."""
        crash_point("persist:quarantine")
        self.counts["quarantined"] += 1
        obs.incr("persist.quarantined")
        try:
            os.replace(path, path.with_suffix(".snap.bad"))
        except OSError:
            pass  # already gone, or directory read-only: miss either way
        return None

    # -- maintenance ----------------------------------------------------------

    def delete(self, name: str) -> bool:
        """Drop a session's snapshot (close, or open-over with fresh text)."""
        crash_point("persist:delete")
        with self._locked(name):
            self._left.pop(name, None)
            try:
                self.path_for(name).unlink()
            except FileNotFoundError:
                return False
            except OSError:
                return False
        self.counts["deletes"] += 1
        obs.incr("persist.deletes")
        return True

    def entries(self) -> list[dict]:
        """One descriptor per snapshot file (``repro sessions --list``).

        Listing is read-only: a corrupt file is reported, not
        quarantined, and a torn final record is not cut off --
        quarantine and repair happen on the load path, where a
        session's recovery actually depends on the bytes.
        """
        out = []
        for path in sorted(self.directory.glob("*.snap")):
            stat = path.stat()
            entry = {
                "file": path.name,
                "bytes": stat.st_size,
                "mtime": stat.st_mtime,
            }
            try:
                snapshot, _end = _decode(path.read_bytes())
            except Exception:
                entry["corrupt"] = True
            else:
                entry.update(
                    name=snapshot.name,
                    language=snapshot.language or "<inline>",
                    version=snapshot.version,
                    text_bytes=len(snapshot.text),
                    journal_edits=len(snapshot.journal_tail),
                    log_records=snapshot.log_records,
                    warm=snapshot.doc_payload is not None,
                )
            out.append(entry)
        return out

    def quarantined_files(self) -> list[Path]:
        return sorted(self.directory.glob("*.bad"))

    def gc(self, max_age_seconds: float | None = None, *,
           now: float | None = None) -> dict:
        """Remove quarantined files, and snapshots older than ``max_age``."""
        import time

        now = time.time() if now is None else now
        removed_bad = removed_old = removed_claims = 0
        for path in self.quarantined_files():
            try:
                path.unlink()
                removed_bad += 1
            except OSError:
                pass
        # Claim files normally vanish with their write; one left behind
        # belongs to a writer that died mid-write (its pid is dead).
        for path in list(self.directory.glob("*.claim")):
            try:
                pid = int(path.read_text() or "0")
            except (OSError, ValueError):
                pid = 0
            if pid and _pid_alive(pid):
                continue
            try:
                path.unlink()
                removed_claims += 1
            except OSError:
                pass
        if max_age_seconds is not None:
            for path in list(self.directory.glob("*.snap")):
                try:
                    if now - path.stat().st_mtime > max_age_seconds:
                        path.unlink()
                        removed_old += 1
                except OSError:
                    pass
        return {
            "quarantined_removed": removed_bad,
            "expired_removed": removed_old,
            "stale_claims_removed": removed_claims,
        }

    def stats(self) -> dict:
        snaps = list(self.directory.glob("*.snap"))
        return {
            "dir": str(self.directory),
            "format": FORMAT,
            "snapshots": len(snaps),
            "bytes": sum(p.stat().st_size for p in snaps),
            "quarantined_files": len(self.quarantined_files()),
            **self.counts,
        }
