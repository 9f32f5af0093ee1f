"""Priority job queue with request coalescing.

The :class:`JobBoard` is the service's shared state: admitted jobs, the
priority heap the scheduler pops from, and the *unit table* that makes
coalescing work.

A **unit** is one unique configuration, keyed by its run key
(:meth:`~repro.sim.config.SimulationConfig.cache_key`), the key the
engine's result cache and store use too.  Every job references units;
several jobs referencing the same key share one unit, so

* a configuration that is already **done** (result in the engine's
  cache or store) is served immediately — the job's unit count drops
  without touching the worker pool;
* a configuration that is **running** on behalf of another job is not
  re-executed — the late job simply attaches and completes when the
  unit does;
* only genuinely new configurations become **pending** work for the
  scheduler.

The board keeps no results of its own: finished results live in the
engine, and the board reads them through
:meth:`~repro.sim.engine.SimEngine.lookup`.

All mutation happens under one lock; the scheduler blocks on a
condition variable instead of polling.  Completion is event-driven:
when a unit finishes, every attached job's pending set shrinks, and
jobs whose pending set empties are finished (and reported through the
``on_job_finished`` hook, which the server wires to the journal and
telemetry).
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.sim.metrics import RunResult

from .jobs import Job, TERMINAL_STATES

__all__ = ["JobBoard", "QueueFull", "SubmitReceipt", "Unit"]

#: Terminal jobs kept for status queries; the earliest-finished is
#: evicted first.
RETENTION_JOBS = 1024

#: Execution failures a unit absorbs, with retries in between, before
#: it is quarantined and its jobs finish ``poisoned``.
MAX_UNIT_FAILURES = 3


class QueueFull(Exception):
    """Admission rejected: the queue is at capacity (HTTP 429).

    Attributes:
        retry_after: Suggested client back-off in seconds, derived from
            the queue depth and the recent per-unit execution time.
    """

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"job queue is full ({depth} jobs queued); retry in {retry_after:.0f}s"
        )
        self.depth = depth
        self.retry_after = retry_after


@dataclass
class Unit:
    """One unique configuration shared by every job that references it."""

    key: str
    config: SimulationConfig
    status: str = "pending"  # pending | running
    jobs: Set[str] = field(default_factory=set)
    #: Execution failures so far (drives retry-then-quarantine).
    failures: int = 0


@dataclass(frozen=True)
class SubmitReceipt:
    """What admission tells the client about its job.

    ``unit_keys`` is parallel to the job's configurations (duplicates
    repeated), so a client can map results back to its request order.
    """

    job_id: str
    status: str
    unit_keys: List[str]
    coalesced: int
    cached: int
    queue_depth: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.job_id,
            "status": self.status,
            "units": list(self.unit_keys),
            "coalesced": self.coalesced,
            "cached": self.cached,
            "queue_depth": self.queue_depth,
        }


class JobBoard:
    """Jobs, units and the priority heap, behind one lock.

    Retained jobs live in one table in admission order.  Each job that
    reaches a terminal state is also appended to a deque, so the live
    count is a difference of two lengths and eviction takes the
    earliest-finished job: admission never scans the table.  Up to
    :data:`RETENTION_JOBS` jobs are kept; live jobs are never evicted.

    Args:
        engine: The engine that executes the units and holds their
            results.  Admission serves a unit the engine already has
            (cache or store), and result and job documents read through
            :meth:`~repro.sim.engine.SimEngine.lookup`.  ``None`` keeps
            no results: every unit is new work and no result is served.
        queue_limit: Maximum queued-or-running jobs before admission
            returns :class:`QueueFull`.
    """

    def __init__(
        self,
        engine: Optional[SimEngine] = None,
        queue_limit: int = 256,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.engine = engine
        self.queue_limit = queue_limit
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        #: Retained jobs, in admission order.
        self._jobs: Dict[str, Job] = {}
        #: Ids of the retained terminal jobs, in completion order.
        self._terminal: Deque[str] = deque()
        self._units: Dict[str, Unit] = {}
        self._heap: List = []
        self._seq = 0
        self._closed = False
        #: Recent per-unit execution seconds (drives Retry-After).
        self._unit_seconds = 2.0
        #: Called with every job that reaches a terminal state.
        self.on_job_finished: Optional[Callable[[Job], None]] = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> SubmitReceipt:
        """Admit one parsed job; serve/coalesce/queue its units.

        Raises:
            QueueFull: when the live-job count is at the limit.
        """
        finished: Optional[Job] = None
        with self._lock:
            live = self._live_count()
            if self._closed:
                raise QueueFull(live, 5.0)
            if live >= self.queue_limit:
                retry = max(1.0, live * self._unit_seconds)
                raise QueueFull(live, min(retry, 120.0))
            if job.id in self._jobs:
                raise ValueError(f"duplicate job id {job.id!r}")

            job.unit_keys = [config.cache_key() for config in job.configs]
            job.submitted_at = time.time()
            coalesced = cached = 0
            seen: Set[str] = set()
            for key, config in zip(job.unit_keys, job.configs):
                if key in seen:
                    continue
                seen.add(key)
                unit = self._units.get(key)
                if unit is not None:
                    coalesced += 1
                elif self._lookup(key) is not None:
                    cached += 1
                    continue
                else:
                    unit = self._units[key] = Unit(key=key, config=config)
                unit.jobs.add(job.id)
                job.pending.add(key)

            self._jobs[job.id] = job
            self._prune_jobs()
            if not job.pending:
                self._finish(job, "done")
                finished = job
            else:
                job.status = "queued"
                self._push(job)
                self._work.notify_all()
            receipt = SubmitReceipt(
                job_id=job.id,
                status=job.status,
                unit_keys=job.unit_keys,
                coalesced=coalesced,
                cached=cached,
                queue_depth=self._live_count(),
            )
        if finished is not None:
            self._notify(finished)
        return receipt

    def _lookup(self, key: str) -> Optional[RunResult]:
        return self.engine.lookup(key) if self.engine is not None else None

    def _live_count(self) -> int:
        return len(self._jobs) - len(self._terminal)

    def _prune_jobs(self) -> None:
        """Evict terminal jobs, earliest-finished first, down to the retention."""
        while len(self._jobs) > RETENTION_JOBS and self._terminal:
            del self._jobs[self._terminal.popleft()]

    def _push(self, job: Job) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (-job.priority, self._seq, job.id))

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next job by (priority, submission order); blocks up to ``timeout``.

        Returns ``None`` on timeout or after :meth:`close`.  The
        returned job is marked ``running``; jobs that reached a terminal
        state while queued (cancellation, coalesced completion) are
        skipped.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs.get(job_id)
                    if job is None or job.status in TERMINAL_STATES:
                        continue
                    if job.status == "queued":
                        job.status = "running"
                        job.started_at = time.time()
                    return job
                if self._closed:
                    return None
                if deadline is None:
                    self._work.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._work.wait(remaining):
                        return None

    def claim(self, job: Job) -> List[Unit]:
        """Mark the job's pending units running; return them for execution.

        Units already running on behalf of another job are not returned
        (the job waits for them); units that completed meanwhile are
        resolved on the spot.
        """
        finished: Optional[Job] = None
        with self._lock:
            if job.status in TERMINAL_STATES:
                return []
            claimed: List[Unit] = []
            for key in sorted(job.pending):
                unit = self._units.get(key)
                if unit is None:
                    job.pending.discard(key)
                    continue
                if unit.status == "pending":
                    unit.status = "running"
                    claimed.append(unit)
            if not job.pending and job.status not in TERMINAL_STATES:
                self._finish(job, "done")
                finished = job
        if finished is not None:
            self._notify(finished)
        return claimed

    def complete_unit(self, key: str, elapsed: Optional[float] = None) -> None:
        """Resolve every job attached to a finished unit.

        The result itself is the engine's: :meth:`SimEngine.run_many`
        has already cached it under ``key``.
        """
        finished: List[Job] = []
        with self._lock:
            if elapsed is not None:
                # Exponential moving average; drives Retry-After hints.
                self._unit_seconds = 0.7 * self._unit_seconds + 0.3 * max(elapsed, 0.01)
            unit = self._units.pop(key, None)
            if unit is None:
                return
            for job_id in unit.jobs:
                job = self._jobs.get(job_id)
                if job is None or job.status in TERMINAL_STATES:
                    continue
                job.pending.discard(key)
                if not job.pending:
                    self._finish(job, "done")
                    finished.append(job)
        for job in finished:
            self._notify(job)

    def note_unit_failure(self, key: str, error: str) -> Optional[str]:
        """One execution failure on a running unit: retry or quarantine.

        Below :data:`MAX_UNIT_FAILURES` accumulated failures the unit
        returns to pending and its attached jobs requeue — a transient
        fault (worker death, injected chaos) re-executes.  At the limit
        the unit is presumed *poison*: it is dropped and every attached
        job finishes in the distinct terminal state ``"poisoned"``
        carrying the last error, so a config that reliably kills
        executors cannot pin the scheduler in a retry loop.  Returns
        ``"retried"``, ``"quarantined"``, or ``None`` when the key is
        not a running unit (already completed or released).
        """
        finished: List[Job] = []
        with self._lock:
            unit = self._units.get(key)
            if unit is None or unit.status != "running":
                return None
            unit.failures += 1
            if unit.failures < MAX_UNIT_FAILURES:
                self._return_to_pending(unit)
                return "retried"
            del self._units[key]
            message = (
                f"unit {key} quarantined after {unit.failures} "
                f"failed executions: {error}"
            )
            for job_id in unit.jobs:
                job = self._jobs.get(job_id)
                if job is None or job.status in TERMINAL_STATES:
                    continue
                self._finish(job, "poisoned", error=message)
                finished.append(job)
            self._drop_orphan_units()
        for job in finished:
            self._notify(job)
        return "quarantined"

    def release_units(self, keys: List[str]) -> None:
        """Return running units to pending (a cancelled/aborted execution)."""
        with self._lock:
            for key in keys:
                unit = self._units.get(key)
                if unit is not None and unit.status == "running":
                    self._return_to_pending(unit)

    def _return_to_pending(self, unit: Unit) -> None:
        """Requeue a running unit for the live jobs still waiting on it.

        Those jobs are pushed back onto the heap so a later :meth:`pop`
        re-claims the work; a unit no live job waits on is dropped.
        """
        unit.status = "pending"
        unit.jobs = self._live_ids(unit.jobs)
        if not unit.jobs:
            del self._units[unit.key]
            return
        for job_id in unit.jobs:
            self._push(self._jobs[job_id])
        self._work.notify_all()

    def _live_ids(self, job_ids: Set[str]) -> Set[str]:
        """The ids among ``job_ids`` of retained jobs not yet terminal."""
        return {
            job_id
            for job_id in job_ids
            if job_id in self._jobs
            and self._jobs[job_id].status not in TERMINAL_STATES
        }

    def _drop_orphan_units(self) -> None:
        """Detach terminal jobs from pending units; drop units left with none."""
        for key, unit in list(self._units.items()):
            if unit.status != "pending":
                continue
            unit.jobs = self._live_ids(unit.jobs)
            if not unit.jobs:
                del self._units[key]

    # ------------------------------------------------------------------
    # Job control / inspection
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job; returns it, or ``None`` if unknown.

        The job finishes ``cancelled`` immediately (whether queued,
        waiting on coalesced units, or mid-execution) and its
        cancellation event is set — the scheduler notices at the next
        configuration/chunk boundary, salvages any units that finished
        before the cancellation, and requeues units other live jobs
        still need.  Terminal jobs are returned unchanged.
        """
        finished: Optional[Job] = None
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.status in TERMINAL_STATES:
                return job
            job.cancel.set()
            self._finish(job, "cancelled")
            finished = job
            self._drop_orphan_units()
        if finished is not None:
            self._notify(finished)
        return job

    def finish_cancelled(self, job: Job) -> None:
        """Scheduler callback: a running job's execution was cancelled."""
        finished = False
        with self._lock:
            if job.status not in TERMINAL_STATES:
                self._finish(job, "cancelled")
                finished = True
                self._drop_orphan_units()
        if finished:
            self._notify(job)

    def _finish(self, job: Job, status: str, error: Optional[str] = None) -> None:
        job.status = status
        job.error = error
        job.finished_at = time.time()
        self._terminal.append(job.id)

    def _notify(self, job: Job) -> None:
        hook = self.on_job_finished
        if hook is not None:
            hook(job)

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every retained job, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def depth(self) -> int:
        """Jobs admitted but not yet terminal."""
        with self._lock:
            return self._live_count()

    def pending_units(self) -> int:
        with self._lock:
            return sum(1 for unit in self._units.values() if unit.status == "pending")

    def priority_depths(self) -> Dict[int, int]:
        """Live-job count per priority level (highest priority first).

        The per-priority breakdown of :meth:`depth`: a load generator
        (or an operator) can see whether a deep queue is bulk
        background work or high-priority traffic actually backing up.
        """
        with self._lock:
            depths: Dict[int, int] = {}
            for job in self._jobs.values():
                if job.status not in TERMINAL_STATES:
                    depths[job.priority] = depths.get(job.priority, 0) + 1
            return dict(sorted(depths.items(), key=lambda item: -item[0]))

    def result_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """A finished unit's result dict, read through the engine.

        A malformed key (not a run key) is simply absent — the store's
        key validation must not escape as an error from a lookup API.
        """
        try:
            result = self._lookup(key)
        except ValueError:
            return None
        return None if result is None else result.to_dict()

    def job_payload(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The full status document for ``GET /v1/jobs/<id>``."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            unit_keys = list(job.unit_keys)
            pending = set(job.pending)
            payload: Dict[str, Any] = job.summary()
            payload["labels"] = list(job.labels)
            payload["unit_keys"] = unit_keys
            payload["pending_units"] = len(pending)
            payload["submitted_at"] = job.submitted_at
            payload["finished_at"] = job.finished_at
        results: Dict[str, Any] = {}
        for key in unit_keys:
            if key in results or key in pending:
                continue
            result = self.result_payload(key)
            if result is not None:
                results[key] = result
        payload["results"] = results
        return payload

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admission and wake any blocked :meth:`pop` callers."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
