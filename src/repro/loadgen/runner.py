"""The load drivers: open loop, closed loop, saturation sweeps, identity.

:class:`LoadRunner` drives a live ``repro serve`` endpoint over real
HTTP and reduces per-request outcomes to a :class:`LoadReport`:

* **open loop** (:meth:`LoadRunner.open_loop`): a dispatcher paces an
  engine's request stream on its scheduled offsets and hands each
  request to a submission thread.  Offered load never adapts to the
  service — when the service cannot keep up the queue grows, latency
  climbs and (past admission control) 429s appear, while *lateness*
  (actual send minus scheduled send) records any point where the
  generator itself fell behind, so a saturated curve point is
  distinguishable from an undriven one;
* **closed loop** (:meth:`LoadRunner.closed_loop`): N client threads
  each submit, wait for completion, think, repeat — the classic
  interactive-user model, whose offered load self-throttles with
  latency.

Submissions deliberately use a retry-free client: a 429 is an
*observation* (the admission control working) and is counted, not
hidden behind the client library's backoff.  Server-side context —
coalesce rate, per-priority queue depths, the rolling 429 counter —
is captured as a ``/metrics`` counter delta across the run.

**Correctness hammer.**  Every run can verify a sampled subset of the
results it pulled over the wire against a local
:class:`~repro.sim.engine.SimEngine` execution, byte-identically
(exact ``RunResult.to_dict()`` equality) — load testing doubles as an
end-to-end equivalence check of the whole service stack under
concurrency.

:func:`saturation_sweep` runs one open-loop point per offered rate and
returns the curve (offered vs achieved jobs/sec, latency percentiles,
429 rate) that the ``repro loadgen --sweep`` CLI plots.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.service.client import JobFailed, ServiceClient, ServiceError
from repro.service.telemetry import percentile
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine

from .base import Request, RequestEngine, take_requests

__all__ = [
    "LoadReport",
    "LoadRunner",
    "RequestOutcome",
    "saturation_sweep",
    "verify_identity",
]

#: Hard cap on concurrently in-flight open-loop requests; past it the
#: dispatcher blocks (and the blockage is visible as lateness).
MAX_IN_FLIGHT = 256

#: Counters whose across-run delta the report embeds.
_DELTA_COUNTERS = (
    "jobs_submitted",
    "jobs_rejected",
    "units_requested",
    "units_cached",
    "units_coalesced",
    "units_executed",
)


@dataclass
class RequestOutcome:
    """What happened to one driven request."""

    tag: str
    scheduled_s: float
    sent_s: float
    lateness_s: float
    status: str  # done | rejected | failed | error
    latency_s: Optional[float] = None
    http_status: Optional[int] = None
    detail: Optional[str] = None
    unit_keys: List[str] = field(default_factory=list)
    payload: Optional[Dict[str, Any]] = None


@dataclass
class LoadReport:
    """One load run, reduced to the numbers a saturation curve needs."""

    mode: str
    generator: str
    duration_s: float
    wall_s: float
    offered: int
    completed: int
    rejected: int
    failed: int
    latencies_s: List[float]
    lateness_s: List[float]
    metrics_delta: Dict[str, int]
    server_metrics: Dict[str, Any]
    identity_checked: int = 0
    identity_ok: Optional[bool] = None
    outcomes: List[RequestOutcome] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def offered_rate(self) -> float:
        return self.offered / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def achieved_rate(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def achieved_ratio(self) -> float:
        """Completed jobs over offered jobs (the load-smoke CI gate)."""
        return self.completed / self.offered if self.offered else 1.0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def coalesce_rate(self) -> Optional[float]:
        requested = self.metrics_delta.get("units_requested", 0)
        if not requested:
            return None
        served = self.metrics_delta.get("units_cached", 0) + self.metrics_delta.get(
            "units_coalesced", 0
        )
        return round(served / requested, 4)

    def latency(self, fraction: float) -> Optional[float]:
        return percentile(self.latencies_s, fraction)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON row (one saturation-curve point / one CLI report)."""
        return {
            "mode": self.mode,
            "generator": self.generator,
            "duration_s": round(self.duration_s, 3),
            "wall_s": round(self.wall_s, 4),
            "offered": self.offered,
            "offered_per_s": round(self.offered_rate, 3),
            "completed": self.completed,
            "achieved_per_s": round(self.achieved_rate, 3),
            "achieved_ratio": round(self.achieved_ratio, 4),
            "rejected_429": self.rejected,
            "rejection_rate": round(self.rejection_rate, 4),
            "failed": self.failed,
            "latency_s": {
                "p50": self.latency(0.50),
                "p95": self.latency(0.95),
                "p99": self.latency(0.99),
                "samples": len(self.latencies_s),
            },
            "lateness_s": {
                "p95": percentile(self.lateness_s, 0.95),
                "max": max(self.lateness_s) if self.lateness_s else None,
            },
            "coalesce_rate": self.coalesce_rate,
            "metrics_delta": dict(self.metrics_delta),
            "identity": {
                "checked": self.identity_checked,
                "ok": self.identity_ok,
            },
        }


class LoadRunner:
    """Drives one server URL; construct once, run many points."""

    def __init__(
        self,
        url: str,
        poll_s: float = 0.02,
        max_in_flight: int = MAX_IN_FLIGHT,
        request_timeout_s: float = 30.0,
        client_factory: Optional[Callable[[], ServiceClient]] = None,
    ) -> None:
        self.url = url
        self.poll_s = poll_s
        self.max_in_flight = max_in_flight
        self.request_timeout_s = request_timeout_s
        # Retry-free on purpose: admission pushback must be *counted*,
        # not quietly absorbed by the client library's backoff.
        self._client_factory = client_factory or (
            lambda: ServiceClient(url, timeout=request_timeout_s, retries=0)
        )

    # ------------------------------------------------------------------
    def _submit_and_wait(
        self,
        client: ServiceClient,
        request: Request,
        started: float,
        scheduled_s: float,
    ) -> RequestOutcome:
        sent_s = time.monotonic() - started
        begin = time.perf_counter()
        try:
            receipt = client.submit(request.payload)
        except ServiceError as error:
            status = "rejected" if error.status == 429 else "error"
            return RequestOutcome(
                tag=request.tag,
                scheduled_s=scheduled_s,
                sent_s=sent_s,
                lateness_s=max(0.0, sent_s - scheduled_s),
                status=status,
                http_status=error.status or None,
                detail=error.message,
                payload=request.payload,
            )
        try:
            client.wait(
                receipt["id"], poll_s=self.poll_s, timeout=self.request_timeout_s
            )
        except (JobFailed, ServiceError, TimeoutError) as error:
            return RequestOutcome(
                tag=request.tag,
                scheduled_s=scheduled_s,
                sent_s=sent_s,
                lateness_s=max(0.0, sent_s - scheduled_s),
                status="failed",
                detail=str(error),
                unit_keys=list(receipt.get("units", [])),
                payload=request.payload,
            )
        return RequestOutcome(
            tag=request.tag,
            scheduled_s=scheduled_s,
            sent_s=sent_s,
            lateness_s=max(0.0, sent_s - scheduled_s),
            status="done",
            latency_s=time.perf_counter() - begin,
            unit_keys=list(receipt.get("units", [])),
            payload=request.payload,
        )

    def _metrics(self) -> Dict[str, Any]:
        try:
            return self._client_factory().metrics()
        except Exception:  # noqa: BLE001 - metrics context is best-effort
            return {}

    @staticmethod
    def _counter_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, int]:
        b = before.get("counters", {}) if isinstance(before, dict) else {}
        a = after.get("counters", {}) if isinstance(after, dict) else {}
        return {
            name: int(a.get(name, 0)) - int(b.get(name, 0))
            for name in _DELTA_COUNTERS
        }

    # ------------------------------------------------------------------
    def open_loop(
        self,
        engine: RequestEngine,
        duration: float,
        keep_outcomes: bool = True,
    ) -> LoadReport:
        """Drive the engine's stream at its scheduled times.

        Blocks until every dispatched request reaches an outcome (the
        drain after the offered window closes is part of ``wall_s``,
        so achieved throughput reflects the service absorbing the whole
        offered load, not just admitting it).
        """
        requests = take_requests(engine, duration)
        before = self._metrics()
        outcomes: List[Optional[RequestOutcome]] = [None] * len(requests)
        in_flight = threading.Semaphore(self.max_in_flight)
        local = threading.local()

        def client() -> ServiceClient:
            if not hasattr(local, "client"):
                local.client = self._client_factory()
            return local.client

        started = time.monotonic()

        def work(index: int, request: Request, scheduled_s: float) -> None:
            try:
                outcomes[index] = self._submit_and_wait(
                    client(), request, started, scheduled_s
                )
            finally:
                in_flight.release()

        threads: List[threading.Thread] = []
        for index, request in enumerate(requests):
            delay = request.at_s - (time.monotonic() - started)
            if delay > 0:
                time.sleep(delay)
            # A full window means the service (or this process) is
            # saturated; the dispatcher blocks here and the blockage is
            # measured as lateness on the requests it delays.
            in_flight.acquire()
            thread = threading.Thread(
                target=work, args=(index, request, request.at_s), daemon=True
            )
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        wall_s = time.monotonic() - started
        after = self._metrics()
        done = [o for o in outcomes if o is not None]
        return self._report(
            "open",
            engine.describe(),
            duration,
            wall_s,
            done,
            before,
            after,
            keep_outcomes,
        )

    # ------------------------------------------------------------------
    def closed_loop(
        self,
        engine: RequestEngine,
        clients: int,
        duration: float,
        think_s: float = 0.0,
        keep_outcomes: bool = True,
    ) -> LoadReport:
        """N synchronous clients, each submit -> wait -> think -> repeat.

        Each client walks its own offset of the engine's request stream
        (client *i* starts at request *i* and strides by ``clients``),
        so the submitted payload population matches the open-loop run
        of the same engine and stays reproducible.
        """
        if clients < 1:
            raise ValueError("closed_loop needs at least one client")
        # Materialise a bounded window of the stream and cycle it: a
        # cache-hot service can complete jobs far faster than one per
        # poll interval, and a closed loop must keep offering for the
        # whole duration (resubmitting recent payloads is the
        # duplicate-heavy traffic a result cache exists for).
        budget = max(64, int(duration / max(self.poll_s, 1e-3)) + 8) * clients
        stream: List[Request] = []
        for request in engine.requests():
            stream.append(request)
            if len(stream) >= budget:
                break
        if not stream:
            raise ValueError(f"{engine.describe()} produced no requests")
        before = self._metrics()
        outcomes: List[RequestOutcome] = []
        lock = threading.Lock()
        started = time.monotonic()
        deadline = started + duration

        def run_client(which: int) -> None:
            client = self._client_factory()
            position = which
            while time.monotonic() < deadline:
                request = stream[position % len(stream)]
                position += clients
                now = time.monotonic() - started
                outcome = self._submit_and_wait(client, request, started, now)
                with lock:
                    outcomes.append(outcome)
                if outcome.status == "rejected":
                    # A closed-loop user backs off briefly on admission
                    # pushback instead of hammering the full queue.
                    time.sleep(min(0.2, max(self.poll_s, 0.05)))
                elif think_s > 0:
                    time.sleep(think_s)

        threads = [
            threading.Thread(target=run_client, args=(index,), daemon=True)
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.monotonic() - started
        after = self._metrics()
        generator = f"{clients} clients (think {think_s:g}s) over {engine.describe()}"
        return self._report(
            "closed", generator, duration, wall_s, outcomes, before, after,
            keep_outcomes,
        )

    # ------------------------------------------------------------------
    def _report(
        self,
        mode: str,
        generator: str,
        duration: float,
        wall_s: float,
        outcomes: List[RequestOutcome],
        before: Dict[str, Any],
        after: Dict[str, Any],
        keep_outcomes: bool,
    ) -> LoadReport:
        return LoadReport(
            mode=mode,
            generator=generator,
            duration_s=duration,
            wall_s=wall_s,
            offered=len(outcomes),
            completed=sum(1 for o in outcomes if o.status == "done"),
            rejected=sum(1 for o in outcomes if o.status == "rejected"),
            failed=sum(1 for o in outcomes if o.status in ("failed", "error")),
            latencies_s=[o.latency_s for o in outcomes if o.latency_s is not None],
            lateness_s=[o.lateness_s for o in outcomes],
            metrics_delta=self._counter_delta(before, after),
            server_metrics=after,
            outcomes=list(outcomes) if keep_outcomes else [],
        )

    # ------------------------------------------------------------------
    def verify(
        self,
        report: LoadReport,
        sample: int = 3,
        engine: Optional[SimEngine] = None,
    ) -> LoadReport:
        """Byte-identity check of a sampled subset; annotates the report.

        Picks the first ``sample`` distinct configurations among the
        run's completed requests, fetches their results from the server
        by unit key, executes them on a local engine, and requires
        exact ``RunResult.to_dict()`` equality.
        """
        checked, ok = verify_identity(
            self.url,
            report.outcomes,
            sample=sample,
            engine=engine,
            client_factory=self._client_factory,
        )
        report.identity_checked = checked
        report.identity_ok = ok
        return report


def verify_identity(
    url: str,
    outcomes: Iterable[RequestOutcome],
    sample: int = 3,
    engine: Optional[SimEngine] = None,
    client_factory: Optional[Callable[[], ServiceClient]] = None,
) -> "tuple[int, Optional[bool]]":
    """Compare sampled served results against local engine execution.

    Returns ``(configs checked, all identical or None)`` — ``None``
    when there was nothing to check (no completed runs, or
    ``sample=0``).
    """
    from repro.service.jobs import JobError, parse_job_payload

    if sample <= 0:
        return 0, None
    client = (client_factory or (lambda: ServiceClient(url, retries=1)))()
    picked: Dict[str, SimulationConfig] = {}
    for outcome in outcomes:
        if outcome.status != "done" or outcome.payload is None:
            continue
        try:
            job = parse_job_payload(
                {k: v for k, v in outcome.payload.items() if k != "id"}
            )
        except JobError:
            continue
        for key, config in zip(outcome.unit_keys, job.configs):
            if key not in picked:
                picked[key] = config
            if len(picked) >= sample:
                break
        if len(picked) >= sample:
            break
    if not picked:
        return 0, None
    own_engine = engine is None
    engine = engine if engine is not None else SimEngine(fast=True)
    try:
        identical = True
        for key, config in picked.items():
            try:
                served = client.result(key)
            except ServiceError:
                identical = False
                continue
            local = engine.run(config)
            if served != local.to_dict():
                identical = False
    finally:
        if own_engine:
            engine.close()
    return len(picked), identical


def saturation_sweep(
    runner: LoadRunner,
    make_engine: Callable[[float], RequestEngine],
    rates: Sequence[float],
    duration: float,
    verify_sample: int = 3,
    engine: Optional[SimEngine] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> List[LoadReport]:
    """One open-loop point per offered rate: the saturation curve.

    ``make_engine(rate)`` builds the request engine for each point (a
    fresh engine per point keeps every point's stream reproducible in
    isolation).  Each point is identity-verified on ``verify_sample``
    configurations; a shared local ``engine`` makes repeated
    verification cheap (its LRU carries across points).
    """
    reports: List[LoadReport] = []
    for rate in rates:
        report = runner.open_loop(make_engine(rate), duration)
        runner.verify(report, sample=verify_sample, engine=engine)
        report.outcomes = []  # the sweep only keeps the reduced rows
        reports.append(report)
        if echo is not None:
            row = report.to_dict()
            echo(
                f"  offered {row['offered_per_s']:7.2f}/s -> achieved "
                f"{row['achieved_per_s']:7.2f}/s  p95 "
                f"{(row['latency_s']['p95'] or 0.0) * 1000:7.1f}ms  "
                f"429s {row['rejected_429']:3d}  identity "
                f"{row['identity']['ok']}"
            )
    return reports
