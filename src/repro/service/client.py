"""Client library for the simulation service.

:class:`ServiceClient` is a thin stdlib (:mod:`urllib`) HTTP client
with the retry discipline the server's admission control expects:

* **429** responses honour the server's ``Retry-After`` header (capped)
  before retrying;
* transient transport failures and 5xx responses retry with
  exponential backoff and a retry budget;
* every retry sleep is **jittered** (AWS-style full jitter: a uniform
  draw over the backoff window) so a fleet of clients rejected at the
  same instant does not come back as one synchronised thundering herd —
  a ``Retry-After`` hint keeps a floor of half the server's figure;
* 4xx responses never retry — they surface as :class:`ServiceError`
  with the server's message (so an unknown policy reads exactly like a
  local validation error).

:class:`RemoteEngine` adapts the client to the
:class:`~repro.sim.engine.SimEngine` surface (``run`` / ``run_many`` /
``sweep`` / ``cached_results``), which is what
lets ``repro run/sweep/experiment --server URL`` execute against a
remote server with byte-identical results — every result travels as
its exact :meth:`~repro.sim.metrics.RunResult.to_dict` JSON.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from repro import faults
from repro.obs import trace as obs_trace
from repro.sim.config import SimulationConfig
from repro.sim.metrics import RunResult
from repro.workloads.characteristics import benchmark_names

__all__ = [
    "JobFailed",
    "RemoteEngine",
    "RetryBudgetExceeded",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
]

#: Never sleep longer than this on one Retry-After / backoff step.
MAX_BACKOFF_S = 30.0

#: Job states the server will never change again (wire constants).
_TERMINAL = ("done", "failed", "cancelled", "poisoned")

#: Most recent job-id → trace-id pairs a client remembers.
_TRACE_MEMORY = 4096


class ServiceError(RuntimeError):
    """An HTTP error from the service (carries the status code)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceUnavailable(ServiceError):
    """The server could not be reached within the retry budget."""

    def __init__(self, message: str) -> None:
        super(ServiceError, self).__init__(message)
        self.status = 0
        self.message = message


class RetryBudgetExceeded(ServiceUnavailable):
    """The wall-clock retry budget ran out before a request succeeded.

    A :class:`ServiceUnavailable` subclass, so existing callers that
    handle unreachability handle deadline exhaustion too; the distinct
    type lets deadline-aware callers (the chaos driver, loadgen) tell
    "the server was down" from "my deadline passed while backing off".
    """


class JobFailed(RuntimeError):
    """A submitted job finished ``failed``/``cancelled``/``poisoned``."""

    def __init__(self, job: Dict[str, Any]) -> None:
        detail = job.get("error") or job.get("status")
        super().__init__(f"job {job.get('id')} {job.get('status')}: {detail}")
        self.job = job


class ServiceClient:
    """Talk to a ``repro serve`` instance.

    Args:
        base_url: e.g. ``http://127.0.0.1:8023``.
        timeout: Per-request socket timeout, seconds.
        retries: Transport/5xx/429 retry budget per request.
        backoff: Initial exponential-backoff delay, seconds.
        sleep: Injection point for tests (defaults to :func:`time.sleep`).
        jitter: Randomise every retry sleep (full jitter); disable for
            exactly-reproducible retry timing.
        rng: Injection point for tests (defaults to a private
            :class:`random.Random`).
        retry_budget_s: Overall wall-clock deadline for one request's
            retry loop, seconds.  However many attempts ``retries``
            allows, Retry-After hints and backoff sleeps never push a
            call past this budget: the final sleep is clipped to the
            time remaining and an attempt that would start after the
            deadline raises :class:`RetryBudgetExceeded` instead.
            ``None`` (the default) keeps the attempt-count bound only.
        clock: Injection point for tests (defaults to
            :func:`time.monotonic`).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 5,
        backoff: float = 0.2,
        sleep=time.sleep,
        jitter: bool = True,
        rng: Optional[random.Random] = None,
        retry_budget_s: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if retry_budget_s is not None and retry_budget_s <= 0:
            raise ValueError("retry_budget_s must be positive")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.jitter = jitter
        self.retry_budget_s = retry_budget_s
        self._sleep = sleep
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        #: job id -> the trace id this client minted at submission
        #: (bounded: oldest forgotten beyond _TRACE_MEMORY entries).
        self._trace_ids: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request_headers = {"Content-Type": "application/json"}
        if headers:
            request_headers.update(headers)
        delay = self.backoff
        last_error = "no attempts made"
        started = self._clock()
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                self.base_url + path,
                data=body,
                method=method,
                headers=request_headers,
            )
            try:
                _injected_transport_fault()
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as error:
                detail = self._error_message(error)
                if error.code == 429 and attempt < self.retries:
                    hint = self._retry_after(error, delay)
                    last_error = f"HTTP 429: {detail}"
                    # Equal jitter: honour at least half the server's
                    # figure so admission control still works, but
                    # decorrelate the herd it just turned away.
                    self._pause(
                        self._jittered(hint, floor=hint / 2), started, last_error
                    )
                    delay = min(delay * 2, MAX_BACKOFF_S)
                    continue
                if error.code >= 500 and attempt < self.retries:
                    last_error = f"HTTP {error.code}: {detail}"
                    self._pause(self._jittered(delay), started, last_error)
                    delay = min(delay * 2, MAX_BACKOFF_S)
                    continue
                raise ServiceError(error.code, detail) from None
            except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as error:
                last_error = str(getattr(error, "reason", error))
                if attempt < self.retries:
                    self._pause(self._jittered(delay), started, last_error)
                    delay = min(delay * 2, MAX_BACKOFF_S)
                    continue
        raise ServiceUnavailable(
            f"cannot reach {self.base_url}: {last_error}"
        )

    def _pause(self, seconds: float, started: float, last_error: str) -> None:
        """One retry sleep, clipped to the wall-clock retry budget.

        With ``retry_budget_s`` set, a retry whose deadline already
        passed raises :class:`RetryBudgetExceeded` (carrying the last
        failure, so the caller sees *why* the loop was still retrying)
        and a sleep never extends past the deadline.
        """
        if self.retry_budget_s is not None:
            remaining = self.retry_budget_s - (self._clock() - started)
            if remaining <= 0:
                raise RetryBudgetExceeded(
                    f"retry budget of {self.retry_budget_s}s exhausted for "
                    f"{self.base_url}: {last_error}"
                )
            seconds = min(seconds, remaining)
        self._sleep(seconds)

    @staticmethod
    def _error_message(error: urllib.error.HTTPError) -> str:
        try:
            payload = json.loads(error.read().decode("utf-8"))
            return str(payload.get("error", payload))
        except (ValueError, UnicodeDecodeError, OSError):
            return error.reason or f"status {error.code}"

    def _jittered(self, delay: float, floor: float = 0.01) -> float:
        """Full-jitter sleep: uniform over ``[floor, delay]``.

        With ``jitter=False`` the nominal delay is returned unchanged
        (deterministic timing for tests and debugging).
        """
        if not self.jitter or delay <= floor:
            return delay
        return self._rng.uniform(floor, delay)

    @staticmethod
    def _retry_after(error: urllib.error.HTTPError, fallback: float) -> float:
        header = error.headers.get("Retry-After") if error.headers else None
        try:
            value = float(header) if header is not None else fallback
        except ValueError:
            value = fallback
        return max(0.05, min(value, MAX_BACKOFF_S))

    # ------------------------------------------------------------------
    # Raw endpoints
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> Dict[str, Any]:
        """POST a raw job payload; returns the admission receipt.

        Every submission mints a trace context and sends it in the
        ``X-Repro-Trace`` header (trace id, root span id, epoch-ms send
        time), so the server records a ``client.submit`` root span and
        threads the trace id through the job's whole execution.  The
        minted id is remembered per job id — :meth:`trace_id_for` — so
        drivers (chaos, loadgen) can cite it in their reports.  Retries
        reuse the same context: one logical submission, one trace.
        """
        ctx = obs_trace.TraceContext(
            trace_id=obs_trace.new_trace_id(),
            span_id=obs_trace.new_span_id(),
            t_ms=int(time.time() * 1000),
        )
        receipt = self._request(
            "POST", "/v1/jobs", payload,
            headers={obs_trace.HEADER: ctx.header()},
        )
        job_id = receipt.get("id")
        if job_id:
            self._trace_ids[job_id] = ctx.trace_id
            while len(self._trace_ids) > _TRACE_MEMORY:
                self._trace_ids.pop(next(iter(self._trace_ids)))
        return receipt

    def trace_id_for(self, job_id: str) -> Optional[str]:
        """The trace id minted when this client submitted ``job_id``."""
        return self._trace_ids.get(job_id)

    def trace(self, since: Optional[int] = None) -> Dict[str, Any]:
        """GET ``/v1/trace``: the server's span ring as Chrome-trace JSON."""
        path = "/v1/trace" if since is None else f"/v1/trace?since={int(since)}"
        return self._request("GET", path)

    def submit_run(
        self,
        config: SimulationConfig,
        priority: int = 0,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.submit(
            _with_options(
                {"kind": "run", "config": config.to_dict()}, priority, timeout_s
            )
        )

    def submit_sweep(
        self,
        config: SimulationConfig,
        benchmarks: Optional[Sequence[str]] = None,
        priority: int = 0,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        names = list(benchmarks) if benchmarks is not None else benchmark_names()
        return self.submit(
            _with_options(
                {"kind": "sweep", "config": config.to_dict(), "benchmarks": names},
                priority,
                timeout_s,
            )
        )

    def submit_batch(
        self,
        configs: Sequence[SimulationConfig],
        priority: int = 0,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.submit(
            _with_options(
                {"kind": "batch", "configs": [c.to_dict() for c in configs]},
                priority,
                timeout_s,
            )
        )

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def result(self, key: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/results/{key}")["result"]

    def policies(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/policies")["policies"]

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        poll_s: float = 0.15,
        timeout: Optional[float] = None,
        raise_on_failure: bool = True,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; return its document.

        Raises:
            JobFailed: when the job finished ``failed``/``cancelled``
                (suppress with ``raise_on_failure=False``).
            TimeoutError: when ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] in _TERMINAL:
                if raise_on_failure and job["status"] != "done":
                    raise JobFailed(job)
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['status']} after {timeout}s"
                )
            self._sleep(poll_s)

    def collect(
        self, receipt: Dict[str, Any], job: Dict[str, Any]
    ) -> List[Dict[str, Any]]:
        """Result dicts in the receipt's request order.

        Falls back to ``GET /v1/results/<key>`` for entries the job
        document no longer carries (evicted from the server's LRU).
        """
        results = dict(job.get("results", {}))
        ordered = []
        for key in receipt["units"]:
            if key not in results:
                results[key] = self.result(key)
            ordered.append(results[key])
        return ordered


def _injected_transport_fault() -> None:
    """The ``client.request`` failpoint: a fault before the wire.

    ``drop`` raises :class:`urllib.error.URLError`, which flows through
    the normal transport-retry branch (backoff, budget, jitter) exactly
    as a connection reset would; ``stall`` sleeps in place, modelling a
    slow network without consuming a retry attempt.
    """
    hit = faults.check("client.request")
    if hit is None:
        return
    if hit.action == "stall":
        time.sleep(hit.delay)
    elif hit.action == "drop":
        raise urllib.error.URLError("injected fault: client.request drop")


def _with_options(payload: dict, priority: int, timeout_s: Optional[float]) -> dict:
    if priority:
        payload["priority"] = priority
    if timeout_s is not None:
        payload["timeout_s"] = timeout_s
    return payload


class RemoteEngine:
    """A :class:`~repro.sim.engine.SimEngine`-shaped facade over a server.

    Experiments and the CLI drive this exactly like a local engine;
    every ``run_many`` becomes one batch job (so the server coalesces
    and shards it), and results come back as exact ``RunResult`` JSON.
    The local ``cached_results`` list mirrors what a local engine's LRU
    would have held, so ``repro experiment --json`` payloads keep their
    ``runs`` section.
    """

    def __init__(
        self,
        client: ServiceClient,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        poll_s: float = 0.15,
    ) -> None:
        self.client = client
        self.priority = priority
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self.stats: Dict[str, int] = {"jobs": 0, "remote_units": 0}
        self._results: "Dict[tuple, RunResult]" = {}

    # -- SimEngine surface ---------------------------------------------
    def run(self, config: SimulationConfig, **_: Any) -> RunResult:
        return self.run_many([config])[0]

    def run_many(
        self,
        configs: Sequence[SimulationConfig],
        workers: Optional[int] = None,
        use_cache: bool = True,
        fast: Optional[bool] = None,
        cancel=None,
    ) -> List[RunResult]:
        """Submit one batch job and block until it completes.

        ``workers``/``fast`` are the *server's* choice (its engine was
        configured at ``repro serve`` time); they are accepted and
        ignored so experiment code written against ``SimEngine`` runs
        unchanged.
        """
        configs = list(configs)
        if not configs:
            return []
        receipt = self.client.submit_batch(
            configs, priority=self.priority, timeout_s=self.timeout_s
        )
        job = self.client.wait(receipt["id"], poll_s=self.poll_s)
        payloads = self.client.collect(receipt, job)
        self.stats["jobs"] += 1
        self.stats["remote_units"] += len(configs)
        results = [RunResult.from_dict(payload) for payload in payloads]
        for config, result in zip(configs, results):
            self._results[config.cache_key()] = result
        return results

    def sweep(
        self,
        base_config: SimulationConfig,
        benchmarks: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
        fast: Optional[bool] = None,
    ) -> Dict[str, RunResult]:
        names = list(benchmarks) if benchmarks is not None else benchmark_names()
        configs = [replace(base_config, benchmark=name) for name in names]
        return dict(zip(names, self.run_many(configs, workers=workers, fast=fast)))

    def cached_results(self) -> List[RunResult]:
        """Results fetched through this facade (insertion order)."""
        return list(self._results.values())

    def clear(self) -> None:
        self._results.clear()

    def close(self) -> None:
        """Nothing to release locally (the pool lives on the server)."""

    def __enter__(self) -> "RemoteEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
