"""The per-layer ledger of a traced run, and the attribution of client latency.

Both workload modules hand :func:`fill` what they observed: spans (the
program's own plus the ``bench.*`` ones from :mod:`layers`), counter
deltas, and on ``serve-miss`` the client's own record of every job.
:func:`fill` turns that into every metric in :data:`PER_LAYER`; a layer
a workload never reaches reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from common import Result, mean, ratio
from stats import exclusive_times, median_band

PHASES = ("compile", "quiet_skip", "fetch", "issue_scan", "cache")

#: Attribution rows: each instant of a job's client-observed latency goes
#: to the deepest span active then (see stats.exclusive_times).
ATTRIBUTION = {
    # span name: (row, depth)
    "client.submit_call": ("client", 1),
    "client.poll": ("client", 1),
    "client.submit": ("server.send_to_admit", 2),
    "job.wait": ("queue", 2),
    "unit.exec": ("scheduler", 2),
    "bench.journal.append": ("journal", 4),
    "server.admit": ("server.admit", 3),
    "bench.engine.run_many": ("engine", 3),
    "engine.chunk": ("fastpath", 4),
    "bench.store.get": ("store", 4),
    "bench.store.put": ("store", 4),
}
ROWS = ("client", "server.send_to_admit", "server.admit", "journal", "store",
        "queue", "scheduler", "engine", "fastpath")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("client.submit_ms", "ms"), ("client.poll_ms", "ms"), ("client.polls_per_job", "count"),
    ("server.send_to_admit_ms", "ms"), ("server.admit_ms", "ms"), ("server.rejected", "count"),
    ("journal.append_ms", "ms"), ("journal.appends", "count"),
    ("queue.wait_ms", "ms"), ("queue.cached_ratio", "ratio"), ("queue.coalesced", "count"),
    ("scheduler.unit_exec_ms", "ms"), ("scheduler.busy_ratio", "ratio"),
    ("store.put_ms", "ms"), ("store.get_ms", "ms"), ("store.puts", "count"),
    ("engine.run_many_s", "s"), ("engine.worker_busy_ratio", "ratio"), ("engine.chunks", "count"),
    ("engine.computed", "count"), ("engine.memory_hits", "count"), ("engine.store_hits", "count"),
    ("engine.chunk_retries", "count"), ("engine.pool_rebuilds", "count"),
    ("fastpath.run_ms", "ms"), ("fastpath.ns_per_op", "ns"),
    *((f"fastpath.phase.{phase}_s", "s") for phase in PHASES),
    ("fastpath.cache_accesses", "count"), ("fastpath.issue_scans", "count"),
    ("fastpath.trace_compile_s", "s"), ("fastpath.trace_load_ms", "ms"),
    ("obs.spans_dropped", "count"), ("obs.trace_overhead", "ratio"),
    ("error_rate", "ratio"),
    *((f"attr.{row}_ms", "ms") for row in ROWS),
    ("unattributed_ms", "ms"),
)

ENGINE_STATS = ("computed", "memory_hits", "store_hits", "chunk_retries", "pool_rebuilds")


@dataclass
class SpanRec:
    """One finished span, from the in-process recorder or ``/v1/trace``."""

    name: str
    start: float
    dur: float
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    attrs: Dict[str, object]

    @property
    def end(self) -> float:
        return self.start + self.dur

    @classmethod
    def from_span(cls, span) -> "SpanRec":
        return cls(span.name, span.start_s, span.duration_s, span.trace_id,
                   span.span_id, span.parent_id, dict(span.attrs))

    @classmethod
    def from_event(cls, event: Dict[str, object]) -> "SpanRec":
        args = dict(event.get("args", {}))
        return cls(
            str(event["name"]), float(event["ts"]) / 1e6, float(event["dur"]) / 1e6,
            str(args.pop("trace_id", "")), str(args.pop("span_id", "")),
            args.pop("parent_id", None), args,
        )


@dataclass
class JobRecord:
    """The client's view of one job in a traced ``serve-miss`` run (wall clock)."""

    start: float
    end: float = 0.0
    job_id: str = ""
    trace_id: str = ""
    key: str = ""
    submit: Tuple[float, float] = (0.0, 0.0)
    polls: List[Tuple[float, float]] = field(default_factory=list)
    done: bool = False


@dataclass
class Observed:
    spans: List[SpanRec]
    window_s: float
    workers: int
    #: Divides counts: rounds on ``grid`` (counts per sweep), 1 on ``serve-miss``.
    per: int = 1
    jobs: List[JobRecord] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    computed_ops: int = 0
    trace_compile_s: float = 0.0
    trace_load_ms: float = 0.0
    spans_dropped: int = 0
    trace_overhead: float = 0.0
    rejected: int = 0


def _named(spans: Sequence[SpanRec], name: str) -> List[SpanRec]:
    return [span for span in spans if span.name == name]


def _mean_ms(spans: Sequence[SpanRec]) -> float:
    return mean([span.dur for span in spans]) * 1e3


def fill(result: Result, seen: Observed) -> None:
    """Put every :data:`PER_LAYER` metric into ``result``."""
    spans = seen.spans
    jobs = [job for job in seen.jobs if job.done]
    counters = seen.counters
    put = result.put

    put("client.submit_ms", mean([job.submit[1] - job.submit[0] for job in jobs]) * 1e3, "ms")
    polls = [end - start for job in jobs for start, end in job.polls]
    put("client.poll_ms", mean(polls) * 1e3, "ms")
    put("client.polls_per_job", ratio(len(polls), len(jobs)), "count")

    roots = {span.trace_id: span for span in _named(spans, "client.submit")}
    admits = _named(spans, "server.admit")
    send = [roots[a.trace_id].dur - a.dur for a in admits if a.trace_id in roots]
    put("server.send_to_admit_ms", mean(send) * 1e3, "ms")
    put("server.admit_ms", _mean_ms(admits), "ms")
    put("server.rejected", seen.rejected, "count")

    appends = _named(spans, "bench.journal.append")
    put("journal.append_ms", _mean_ms(appends), "ms")
    put("journal.appends", len(appends) / seen.per, "count")

    put("queue.wait_ms", _mean_ms(_named(spans, "job.wait")), "ms")
    put("queue.cached_ratio", ratio(counters.get("units_cached", 0), counters.get("units_requested", 0)), "ratio")
    put("queue.coalesced", counters.get("units_coalesced", 0) / seen.per, "count")

    execs = _named(spans, "unit.exec")
    put("scheduler.unit_exec_ms", _mean_ms(execs), "ms")
    put("scheduler.busy_ratio", ratio(sum(s.dur for s in execs), seen.window_s), "ratio")

    puts = _named(spans, "bench.store.put")
    put("store.put_ms", _mean_ms(puts), "ms")
    put("store.get_ms", _mean_ms(_named(spans, "bench.store.get")), "ms")
    put("store.puts", len(puts) / seen.per, "count")

    chunks = _named(spans, "engine.chunk")
    chunk_s = sum(span.dur for span in chunks)
    put("engine.run_many_s", mean([s.dur for s in _named(spans, "bench.engine.run_many")]), "s")
    put("engine.worker_busy_ratio", ratio(chunk_s, seen.window_s * seen.workers), "ratio")
    put("engine.chunks", len(chunks) / seen.per, "count")
    for name in ENGINE_STATS:
        put(f"engine.{name}", counters.get(name, 0) / seen.per, "count")

    computed = counters.get("computed", 0)
    put("fastpath.run_ms", ratio(chunk_s, computed) * 1e3, "ms")
    put("fastpath.ns_per_op", ratio(chunk_s, seen.computed_ops) * 1e9, "ns")
    kernels = _named(spans, "bench.kernel")
    runs = sum(int(span.attrs.get("runs", 0)) for span in kernels)
    for phase in PHASES:
        seconds = sum(float(span.attrs.get(f"{phase}_s", 0.0)) for span in kernels)
        put(f"fastpath.phase.{phase}_s", ratio(seconds, runs), "s")
    for metric, phase in (("cache_accesses", "cache"), ("issue_scans", "issue_scan")):
        events = sum(int(span.attrs.get(f"{phase}_events", 0)) for span in kernels)
        put(f"fastpath.{metric}", ratio(events, runs), "count")
    put("fastpath.trace_compile_s", seen.trace_compile_s, "s")
    put("fastpath.trace_load_ms", seen.trace_load_ms, "ms")

    put("obs.spans_dropped", seen.spans_dropped, "count")
    put("obs.trace_overhead", seen.trace_overhead, "ratio")
    put("error_rate", result.tally.error_rate, "ratio")
    _attribute(result, spans, jobs)


def _job_spans(spans: Sequence[SpanRec], jobs: Sequence[JobRecord]) -> Dict[str, List[SpanRec]]:
    """Group server spans by job: by trace id, else by job id or unit key."""
    by_trace = {job.trace_id: job.job_id for job in jobs}
    by_key = {job.key: job.job_id for job in jobs}
    grouped: Dict[str, List[SpanRec]] = {job.job_id: [] for job in jobs}
    for span in spans:
        if span.name not in ATTRIBUTION:
            continue
        owner = by_trace.get(span.trace_id)
        if owner is None:
            # Spans recorded before admission assigns the trace id (the
            # write-ahead append, the admission store lookup).
            owner = span.attrs.get("job_id") or by_key.get(str(span.attrs.get("key")))
        if owner in grouped:
            grouped[owner].append(span)
    return grouped


def _attribute(result: Result, spans: Sequence[SpanRec], jobs: Sequence[JobRecord]) -> None:
    """Break the median-band client latency into per-layer exclusive time."""
    rows = {row: 0.0 for row in ROWS}
    unattributed = latency = 0.0
    band = [jobs[i] for i in median_band([job.end - job.start for job in jobs])]
    grouped = _job_spans(spans, band)
    for job in band:
        parts = [("unattributed", job.start, job.end, 0),
                 ("client.submit_call", *job.submit, 1)]
        parts += [("client.poll", start, end, 1) for start, end in job.polls]
        parts += [(span.name, span.start, span.end, ATTRIBUTION[span.name][1])
                  for span in grouped[job.job_id]]
        clipped = [(label, max(start, job.start), min(end, job.end), depth)
                   for label, start, end, depth in parts]
        for label, seconds in exclusive_times(clipped).items():
            if label == "unattributed":
                unattributed += seconds
            else:
                rows[ATTRIBUTION[label][0]] += seconds
        latency += job.end - job.start
    count = max(len(band), 1)
    for row in ROWS:
        result.put(f"attr.{row}_ms", rows[row] / count * 1e3, "ms")
    result.put("unattributed_ms", unattributed / count * 1e3, "ms")
    if band:
        shown = ", ".join(f"{row} {rows[row] / count * 1e3:.3f}" for row in ROWS)
        result.lines.append(
            f"attribution of the median band ({len(band)} jobs, mean latency "
            f"{latency / count * 1e3:.3f} ms): {shown}, unattributed "
            f"{unattributed / count * 1e3:.3f} ms"
        )
