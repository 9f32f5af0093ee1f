"""Write-ahead job journal: a restarted server resumes its queue.

The journal is a JSON-lines file.  Admission appends a ``submit`` event
carrying the job's full durable form before the client gets its 202;
every terminal transition appends a matching ``done`` / ``failed`` /
``cancelled`` event.  Each append is flushed and fsynced, so a server
killed outright (``kill -9``, OOM) loses at most the event being
written — and a torn final line is tolerated by replay.

On startup :meth:`JobJournal.replay` returns the jobs that were
admitted but never finished, in their original admission order; the
server resubmits them.  Resubmission is idempotent by construction:
units whose results already landed in the result store are served from
it at admission, so only genuinely unfinished work re-executes, and
job ids are preserved so clients polling across the restart keep
working.  :meth:`compact` then rewrites the file to just the live
jobs, bounding its growth across restarts.

Two servers pointed at one journal would interleave their write-ahead
logs, so the second one fails fast with :class:`JournalLocked`.  The
guard is a POSIX record lock (``fcntl.lockf``) on a ``<journal>.lock``
sidecar plus a process-local registry.  Each half covers the other's
blind spot: record locks — unlike ``flock`` — are owned by the process
and die with it, so the fork pool workers that inherit the descriptor
cannot keep a kill -9'd server's lock alive and wedge the restart; but
they are invisible within one process (and dropped when *any* handle
on the locked file closes — hence the sidecar no other code path ever
opens), so duplicate opens in-process are caught by the registry.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional, Union

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro import faults

from .jobs import TERMINAL_STATES, Job

__all__ = ["JobJournal", "JournalLocked"]


class JournalLocked(RuntimeError):
    """Another live server already holds this journal."""


#: Journal paths locked by this process (record locks cannot see them).
_LOCAL_LOCKS: set = set()
_LOCAL_LOCKS_GUARD = threading.Lock()


class JobJournal:
    """Append-only JSON-lines write-ahead log of job lifecycles."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Append mode creates the file when absent and never truncates
        # the history a replay will need.
        self._handle = open(self.path, "a", encoding="utf-8")
        #: Set after a failed/torn append; the next append writes a
        #: newline first so the torn line cannot swallow it.
        self._needs_newline = False
        self._lock_key = str(self.path.resolve())
        self._lock_handle = None
        with _LOCAL_LOCKS_GUARD:
            if self._lock_key in _LOCAL_LOCKS:
                self._handle.close()
                raise JournalLocked(
                    f"journal {self.path} is locked by this process"
                )
            _LOCAL_LOCKS.add(self._lock_key)
        if fcntl is not None:
            # Lock a sidecar, not the journal itself: record locks drop
            # when any handle on the locked file closes, and replay's
            # read would do exactly that.  Nothing else opens the .lock.
            self._lock_handle = open(
                self.path.with_name(self.path.name + ".lock"), "a"
            )
            try:
                fcntl.lockf(
                    self._lock_handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB
                )
            except OSError:
                self._release_local()
                self._lock_handle.close()
                self._handle.close()
                raise JournalLocked(
                    f"journal {self.path} is locked by another server"
                ) from None

    def _release_local(self) -> None:
        with _LOCAL_LOCKS_GUARD:
            _LOCAL_LOCKS.discard(self._lock_key)

    # ------------------------------------------------------------------
    def _append(self, job: Job, event: dict) -> None:
        """One fsynced JSON line for ``job``; self-healing after a torn write.

        If a previous append failed partway (disk full, injected torn
        write) the file may end mid-line; the next successful append
        starts with a newline so the damage is confined to the one
        line replay already tolerates, instead of gluing two events
        into one unparseable record.  The append is a span of the job.
        """
        with faults.site(
            "journal.append", job.trace_id, job.root_span_id,
            job_id=job.id, kind=event["event"],
        ) as hit:
            line = json.dumps(event, separators=(",", ":"))
            if hit is not None:
                if hit.action == "error":
                    raise OSError(f"injected fault: journal append to {self.path.name}")
                if hit.action == "torn":
                    self._handle.write(line[: max(1, len(line) // 2)])
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                    self._needs_newline = True
                    raise OSError(
                        f"injected fault: torn journal append to {self.path.name}"
                    )
            try:
                if self._needs_newline:
                    self._handle.write("\n")
                    self._needs_newline = False
                self._handle.write(line + "\n")
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:
                # The write may have landed partially; make the next append
                # terminate this line before starting its own.
                self._needs_newline = True
                raise

    def record_submit(self, job: Job) -> None:
        """WAL a job before its admission is acknowledged.

        The wall-clock ``t`` lets a session recorder reconstruct the
        original inter-arrival gaps; replay ignores it (and compaction
        drops it — recorders must tolerate its absence).
        """
        self._append(
            job, {"v": 1, "event": "submit", "t": round(time.time(), 6),
                  "job": job.to_dict()}
        )

    def record_finish(self, job: Job) -> None:
        """WAL a terminal transition (done/failed/cancelled/poisoned)."""
        event = {"v": 1, "event": job.status, "id": job.id}
        if job.error:
            event["error"] = job.error
        self._append(job, event)

    # ------------------------------------------------------------------
    def replay(self) -> List[Job]:
        """The jobs admitted but never finished, in admission order.

        Unparseable lines (a torn final write from a killed server) and
        jobs whose serialised configurations no longer load are skipped
        — a bad record must not keep the whole service from booting.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        submitted: dict = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if not isinstance(event, dict):
                continue
            name = event.get("event")
            if name == "submit":
                try:
                    job = Job.from_dict(event["job"])
                except (KeyError, TypeError, ValueError):
                    continue
                submitted[job.id] = job
            elif name in TERMINAL_STATES:
                submitted.pop(event.get("id"), None)
        return list(submitted.values())

    def compact(self, live_jobs: List[Job]) -> None:
        """Rewrite the journal to exactly the given unfinished jobs.

        Runs at startup after :meth:`replay`, so the file carries one
        ``submit`` line per live job instead of the full history.  The
        rewrite is staged in a temp file and atomically renamed, then
        the append handle (and its advisory lock) is reopened on the
        new inode.
        """
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for job in live_jobs:
                    handle.write(
                        json.dumps(
                            {"v": 1, "event": "submit", "job": job.to_dict()},
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        old = self._handle
        self._handle = open(self.path, "a", encoding="utf-8")
        self._needs_newline = False  # the rewritten file ends cleanly
        # The advisory lock lives on the .lock sidecar, untouched by the
        # rewrite — no unlock/relock window for a second server here.
        old.close()

    def close(self) -> None:
        """Release the advisory lock and close the file (idempotent)."""
        if not self._handle.closed:
            self._release_local()
            if self._lock_handle is not None:
                self._lock_handle.close()  # releases the record lock
            self._handle.close()
