"""The ``serve-miss`` workload: a closed loop against ``repro serve``.

``nproc`` client threads each submit one job, wait for its terminal
state and submit the next, with no think time, against a ``repro serve
--fast --store DIR --journal PATH`` subprocess.  Every job is a fresh
unit, so each pays a write-ahead append, a kernel run and a store put
(the write path).

Every server runs in its own session, so stopping it can SIGKILL its
whole process group (pool workers included) after the graceful drain.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceError
from repro.sim import fastpath
from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_run

import host
import inputs
import ledger
from common import MAX_WINDOW_S, MIN_LATENCY_SAMPLES, Result, RunContext, mean, median, ratio
from ledger import ENGINE_STATS, JobRecord, Observed, SpanRec

#: Client status-poll period.  Part of the workload: it quantises the
#: latency every job sees.  At 10 ms the polls competed with the
#: kernel for the server's interpreter lock and doubled the run-to-run
#: spread of serve-miss.
POLL_S = 0.02

#: Per-request socket timeout and per-job wait bound.
JOB_TIMEOUT_S = 60.0

#: Server boots per untraced run; setup_s is their median.
SETUPS = 3

READY_TIMEOUT_S = 60.0

#: Grace for the SIGTERM drain before the process group is SIGKILLed.
STOP_GRACE_S = 20.0

#: Served results re-executed on the reference loop per run.
REFERENCE_SAMPLE = 3

#: Span collection period, and how far each poll reaches back to pick
#: up spans recorded while the previous response was being built.
TRACE_POLL_S = 0.5
TRACE_OVERLAP = 256


def _cpu_split(ctx: RunContext) -> Tuple[List[int], List[int]]:
    """(server CPUs, client CPUs): the load generator gets the last CPU to itself.

    Sharing CPUs, the clients' threads and the server's contend for the
    same cores and the measured rate swings by a quarter from run to
    run.  On a single CPU both share it.
    """
    if len(ctx.cpus) < 2:
        return ctx.cpus, ctx.cpus
    return ctx.cpus[:-1], ctx.cpus[-1:]


class Server:
    """One ``repro serve`` subprocess in its own session and directory."""

    def __init__(self, ctx: RunContext, traced: bool) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="server-", dir=ctx.run_dir))
        self.trace_dir = self.dir / "traces"
        (self.dir / "tmp").mkdir()
        self.ready = self.dir / "ready"
        args = [
            "--port", "0", "--fast", "--workers", str(ctx.workers),
            "--ready-file", str(self.ready), "--drain-timeout", "5",
            "--store", str(self.dir / "store"), "--journal", str(self.dir / "jobs.wal"),
        ]
        if traced:
            command = [sys.executable, str(Path(__file__).with_name("traced_server.py")), *args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *args]
        env = host.scrubbed_env(
            PYTHONPATH=str(ctx.root / "src"),
            REPRO_TRACE_CACHE_DIR=str(self.trace_dir),
            TMPDIR=str(self.dir / "tmp"),
            XDG_CACHE_HOME=str(self.dir / "tmp"),
        )
        if traced:
            env["REPRO_PROFILE"] = "1"
        self._log = open(self.dir / "serve.log", "ab")
        try:
            self.proc = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=self._log, stderr=self._log,
                env=env, cwd=ctx.root, start_new_session=True,
            )
        except BaseException:
            self._log.close()
            raise
        ctx.server_groups.append(self.proc.pid)
        server_cpus, _ = _cpu_split(ctx)
        # Set before the interpreter starts its threads or forks its pool,
        # so every server thread and worker inherits it.
        os.sched_setaffinity(self.proc.pid, server_cpus)

    def wait_ready(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.ready.exists():
                url = self.ready.read_text().strip()
                if url:
                    return url
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: {self.log_tail()}")
            time.sleep(0.02)
        raise RuntimeError(f"server not ready within {READY_TIMEOUT_S}s")

    def log_tail(self) -> str:
        try:
            return (self.dir / "serve.log").read_text(errors="replace")[-600:]
        except OSError:
            return ""

    def pids(self) -> List[int]:
        return [self.proc.pid, *host.descendants(self.proc.pid)]

    def stop(self) -> None:
        """SIGTERM (graceful drain terminates the pool), then SIGKILL the group."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(STOP_GRACE_S)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(STOP_GRACE_S)
        finally:
            self._log.close()


@dataclass
class Job:
    config: SimulationConfig
    outcome: str = "failed"
    latency_s: float = 0.0
    key: str = ""
    result: Optional[dict] = None
    record: Optional[JobRecord] = None


@dataclass
class Window:
    """Shared state of one closed-loop measurement window."""

    seconds: float
    lock: threading.Lock = field(default_factory=threading.Lock)
    stop: threading.Event = field(default_factory=threading.Event)
    jobs: List[Job] = field(default_factory=list)
    done: int = 0
    errors: List[str] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    #: Server pids, read for peak memory once the window has as many
    #: completed jobs as the latency percentiles need.
    pids: Optional[Callable[[], List[int]]] = None
    rss_mb: float = 0.0

    def keep_going(self) -> bool:
        elapsed = time.perf_counter() - self.started
        if self.stop.is_set() or elapsed >= MAX_WINDOW_S:
            return False
        return elapsed < self.seconds or self.done < MIN_LATENCY_SAMPLES


def _instrument(client: ServiceClient, holder: Dict[str, JobRecord]) -> None:
    """Traced runs: time the client's submit and status-poll calls."""
    submit, job = client.submit, client.job

    def timed_submit(payload):
        start = time.time()
        try:
            return submit(payload)
        finally:
            holder["job"].submit = (start, time.time())

    def timed_job(job_id):
        start = time.time()
        try:
            return job(job_id)
        finally:
            holder["job"].polls.append((start, time.time()))

    client.submit = timed_submit
    client.job = timed_job


def _one_job(client: ServiceClient, job: Job) -> None:
    began = time.perf_counter()
    try:
        receipt = client.submit_run(job.config)
        job.key = receipt["units"][0]
        doc = client.wait(receipt["id"], poll_s=POLL_S, timeout=JOB_TIMEOUT_S,
                          raise_on_failure=False)
        if doc["status"] == "done":
            job.outcome = "ok"
            job.result = doc["results"].get(job.key)
        else:
            job.outcome = "poisoned" if doc["status"] == "poisoned" else "failed"
        if job.record is not None:
            job.record.job_id = receipt["id"]
            job.record.trace_id = client.trace_id_for(receipt["id"]) or ""
            job.record.key = job.key
    except ServiceError as error:
        job.outcome = "rejected" if error.status == 429 else "failed"
    except TimeoutError:
        job.outcome = "timeout"
    except (KeyError, ValueError):
        job.outcome = "failed"
    job.latency_s = time.perf_counter() - began
    if job.record is not None:
        job.record.end = time.time()
        job.record.done = job.outcome == "ok"


def _client(url: str, configs: Iterator[SimulationConfig], window: Window, traced: bool) -> None:
    client = ServiceClient(url, timeout=JOB_TIMEOUT_S, retries=0)
    holder: Dict[str, JobRecord] = {}
    if traced:
        _instrument(client, holder)
    try:
        while True:
            with window.lock:
                if not window.keep_going():
                    return
                job = Job(next(configs))
            if traced:
                job.record = holder["job"] = JobRecord(start=time.time())
            _one_job(client, job)
            with window.lock:
                window.jobs.append(job)
                window.done += job.outcome == "ok"
                if window.pids is not None and not window.rss_mb and window.done >= MIN_LATENCY_SAMPLES:
                    window.rss_mb = host.peak_rss_mb(window.pids())
    except Exception as error:  # noqa: BLE001 - reported, and fails the run
        with window.lock:
            window.errors.append(f"{type(error).__name__}: {error}")
            window.stop.set()


def _closed_loop(url: str, streams: List[Iterator[SimulationConfig]], seconds: float,
                 traced: bool = False, pids: Optional[Callable[[], List[int]]] = None) -> Window:
    window = Window(seconds=seconds, pids=pids)
    threads = [
        threading.Thread(target=_client, args=(url, stream, window, traced), daemon=True)
        for stream in streams
    ]
    window.started = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            while thread.is_alive():
                thread.join(0.2)
    finally:
        window.stop.set()
        for thread in threads:
            thread.join(JOB_TIMEOUT_S)
    window.ended = time.perf_counter()
    if window.errors:
        raise RuntimeError(f"client thread died: {window.errors[0]}")
    return window


def _counters(client: ServiceClient) -> Dict[str, float]:
    metrics = client.metrics()
    counters = metrics["counters"]
    values = {name: counters.get(name, 0) for name in
              ("units_requested", "units_cached", "units_coalesced", "jobs_rejected")}
    values.update({name: metrics["engine"].get(name, 0) for name in ENGINE_STATS})
    return values


def _boot(ctx: RunContext, traced: bool, warm: List[SimulationConfig]) -> Tuple[Server, float]:
    """Start a server and run the set-up job (trace compile, pool fork)."""
    began = time.perf_counter()
    server = Server(ctx, traced)
    try:
        client = ServiceClient(server.wait_ready(), timeout=JOB_TIMEOUT_S, retries=0)
        receipt = client.submit_batch(warm)
        client.wait(receipt["id"], poll_s=POLL_S, timeout=MAX_WINDOW_S)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - began


def _canonical(result) -> dict:
    """A RunResult as it reads after a trip through JSON."""
    return json.loads(json.dumps(result.to_dict()))


def _check(ctx: RunContext, url: str, window: Window, result: Result) -> None:
    """Served results against the reference loop, outside the timed window."""
    client = ServiceClient(url, timeout=JOB_TIMEOUT_S, retries=2)
    done = [job for job in window.jobs if job.outcome == "ok"]
    picked = random.Random(f"serve-miss-check:{ctx.seed}").sample(
        done, min(REFERENCE_SAMPLE, len(done))
    )
    mismatched = 0
    for job in picked:
        served = client.result(job.key)
        if served != job.result or served != _canonical(execute_run(job.config)):
            mismatched += 1
            result.fail(f"served {job.config.benchmark}/{job.config.dcache.name} "
                        "differs from the reference loop")
    if mismatched:
        result.tally.mismatch(mismatched)
    result.lines.append(f"checked: {len(picked)} served results against the reference loop")


def _intent(delta: Dict[str, float], result: Result) -> None:
    """Every job a fresh unit: none answered from cache, none coalesced."""
    if delta["units_cached"] or delta["units_coalesced"]:
        result.fail(f"serve-miss hit the cache {delta['units_cached']} and coalesced "
                    f"{delta['units_coalesced']} times")


class SpanCollector:
    """Incremental ``/v1/trace?since=`` collection, deduplicated by span id."""

    def __init__(self, url: str) -> None:
        self.client = ServiceClient(url, timeout=JOB_TIMEOUT_S, retries=2)
        self.first = self.last = self.client.trace(since=1 << 62)["reproLastSeq"]
        self.spans: Dict[Tuple[str, str], SpanRec] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def poll(self) -> None:
        doc = self.client.trace(since=max(self.first, self.last - TRACE_OVERLAP))
        for event in doc["traceEvents"]:
            span = SpanRec.from_event(event)
            self.spans[(span.trace_id, span.span_id)] = span
        self.last = doc["reproLastSeq"]

    def _loop(self) -> None:
        while not self._stop.wait(TRACE_POLL_S):
            self.poll()

    def __enter__(self) -> "SpanCollector":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(JOB_TIMEOUT_S)
        if exc_info[0] is None:
            self.poll()
            time.sleep(0.05)
            self.poll()

    @property
    def dropped(self) -> int:
        return (self.last - self.first) - len(self.spans)


def _measure(ctx: RunContext, result: Result, mode: str, baseline_rate: float = 0.0) -> Window:
    """Boot, measure one window on the last server booted, record ``mode``'s metrics.

    ``mode`` is ``end_to_end`` (untraced, :data:`SETUPS` boots),
    ``baseline`` (the untraced window a traced run compares its
    throughput with; records nothing) or ``per_layer`` (traced).
    """
    traced = mode == "per_layer"
    setups = SETUPS if mode == "end_to_end" else 1
    miss = inputs.MissStream(ctx.seed)
    warm = miss.warm_configs()
    setup_times = []
    server: Optional[Server] = None
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
            server, took = _boot(ctx, traced, warm)
            setup_times.append(took)
        url = server.wait_ready()
        client = ServiceClient(url, timeout=JOB_TIMEOUT_S, retries=2)
        setup_spans = (
            [SpanRec.from_event(e) for e in client.trace()["traceEvents"]] if traced else []
        )
        # One shared seeded stream: the lock in _client serialises draws.
        streams = [iter(miss.next, None)] * ctx.workers
        _, client_cpus = _cpu_split(ctx)
        # Threads inherit the affinity of the thread that starts them.
        os.sched_setaffinity(0, client_cpus)
        try:
            before = _counters(client)
            if traced:
                with SpanCollector(url) as collector:
                    window = _closed_loop(url, streams, ctx.seconds, traced)
            else:
                # Memory is read after a fixed number of jobs: the server
                # keeps every finished job and result up to its retention
                # limits, so a reading at the end of the window would grow
                # with throughput.
                window = _closed_loop(url, streams, ctx.seconds, traced, pids=server.pids)
        finally:
            os.sched_setaffinity(0, ctx.cpus)
        delta = {name: value - before[name] for name, value in _counters(client).items()}
        _intent(delta, result)
        if mode != "baseline":
            for job in window.jobs:
                result.tally.add(job.outcome)
            _check(ctx, url, window, result)
        if traced:
            _traced_ledger(ctx, server, window, delta, collector, setup_spans,
                           warm, baseline_rate, result)
        elif mode == "end_to_end":
            _end_to_end(window, median(setup_times), window.rss_mb, result)
    finally:
        if server is not None:
            server.stop()
    return window


def _end_to_end(window: Window, setup_s: float, rss_mb: float, result: Result) -> None:
    done = [job for job in window.jobs if job.outcome == "ok"]
    elapsed = window.ended - window.started
    result.put("setup_s", setup_s, "s")
    result.put("ops_per_s", len(done) / elapsed, "1/s")
    result.put("sim_mops_per_s", sum(job.config.n_instructions for job in done) / elapsed / 1e6, "Mop/s")
    result.latency([job.latency_s * 1e3 for job in done])
    result.put("peak_rss_mb", rss_mb, "MiB")


def _trace_load_ms(server: Server, configs: List[SimulationConfig]) -> float:
    """Mean time for this process to load one of the server's persisted traces."""
    fastpath.set_trace_cache_dir(server.trace_dir)
    loads = []
    for name, seed in sorted({(c.benchmark, c.seed) for c in configs}):
        fastpath.clear_trace_cache(disk=False)
        start = time.perf_counter()
        fastpath.compiled_trace_for(name, seed)
        loads.append((time.perf_counter() - start) * 1e3)
    fastpath.clear_trace_cache(disk=False)
    return mean(loads)


def _traced_ledger(ctx: RunContext, server: Server, window: Window,
                   delta: Dict[str, float], collector: SpanCollector,
                   setup_spans: List[SpanRec], warm: List[SimulationConfig],
                   baseline_rate: float, result: Result) -> None:
    done = [job for job in window.jobs if job.outcome == "ok"]
    elapsed = window.ended - window.started
    compile_s = sum(
        float(span.attrs.get("compile_s", 0.0)) for span in setup_spans if span.name == "bench.kernel"
    )
    ledger.fill(result, Observed(
        spans=list(collector.spans.values()),
        window_s=elapsed,
        workers=ctx.workers,
        jobs=[job.record for job in window.jobs if job.record is not None],
        counters=delta,
        computed_ops=sum(job.config.n_instructions for job in done),
        trace_compile_s=compile_s,
        trace_load_ms=_trace_load_ms(server, warm),
        spans_dropped=collector.dropped,
        trace_overhead=1.0 - ratio(len(done) / elapsed, baseline_rate),
        rejected=int(delta["jobs_rejected"]),
    ))


def _rate(window: Window) -> float:
    done = sum(1 for job in window.jobs if job.outcome == "ok")
    return done / (window.ended - window.started)


def run(ctx: RunContext, traced: bool) -> Result:
    result = Result()
    if traced:
        baseline = _rate(_measure(ctx, result, "baseline"))
        window = _measure(ctx, result, "per_layer", baseline_rate=baseline)
    else:
        window = _measure(ctx, result, "end_to_end")
    result.lines.insert(0, (
        f"{len(window.jobs)} jobs from {ctx.workers} closed-loop clients in "
        f"{window.ended - window.started:.1f} s, polling every {POLL_S * 1e3:.0f} ms"
    ))
    return result
