"""Traced-run wrappers: spans around layer entry points the program leaves unspanned.

The program already records ``client.submit``, ``server.admit``,
``job.wait``, ``unit.exec`` and ``engine.chunk``.  :func:`install` adds
spans, through the program's own recorder, around the journal, the
result store and :meth:`SimEngine.run_many`, and republishes each
worker's kernel phase profile (events as well as seconds).  It runs in
traced runs only: untraced runs measure the program exactly as shipped.

Span names all start with ``bench.`` so they can never be mistaken for
the program's own.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Optional

from repro.obs import trace as obs_trace

_INSTALLED = False


def _context(trace_id: Optional[str] = None, parent_id: Optional[str] = None):
    """The caller's span context: explicit ids, else the thread's current span."""
    if trace_id is None:
        current = obs_trace.get_current()
        if current is not None:
            return current
    return trace_id, parent_id


def _timed(name: str, call: Callable[[], Any], attrs: Dict[str, Any],
           trace_id: Optional[str] = None, parent_id: Optional[str] = None) -> Any:
    trace_id, parent_id = _context(trace_id, parent_id)
    start = time.time()
    began = time.perf_counter()
    try:
        return call()
    finally:
        obs_trace.record_span(
            name, start, time.perf_counter() - began,
            trace_id=trace_id, parent_id=parent_id, attrs=attrs,
        )


def install() -> None:
    """Wrap the layer entry points (idempotent; traced runs only)."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    from repro.service.journal import JobJournal
    from repro.sim import engine as engine_module
    from repro.sim.store import ResultStore

    def journal(method, kind):
        @functools.wraps(method)
        def wrapper(self, job):
            # The submit append runs before admission assigns a trace id;
            # the analysis links it to its job through ``job_id``.
            trace_id = getattr(job, "trace_id", None)
            return _timed(
                "bench.journal.append", lambda: method(self, job),
                {"job_id": job.id, "kind": kind},
                trace_id=trace_id,
                parent_id=getattr(job, "root_span_id", None) if trace_id else None,
            )
        return wrapper

    JobJournal.record_submit = journal(JobJournal.record_submit, "submit")
    JobJournal.record_finish = journal(JobJournal.record_finish, "finish")

    get_payload = ResultStore.get_payload
    put = ResultStore.put

    @functools.wraps(get_payload)
    def store_get(self, key):
        return _timed("bench.store.get", lambda: get_payload(self, key), {"key": key})

    @functools.wraps(put)
    def store_put(self, config, result):
        return _timed(
            "bench.store.put", lambda: put(self, config, result),
            {"key": ResultStore.key_for(config)},
        )

    ResultStore.get_payload = store_get
    ResultStore.put = store_put

    run_many = engine_module.SimEngine.run_many

    @functools.wraps(run_many)
    def engine_run_many(self, configs, *args, **kwargs):
        configs = list(configs)
        outer = obs_trace.get_current()
        trace_id = outer[0] if outer else obs_trace.new_trace_id()
        span_id = obs_trace.new_span_id()
        # Rebind the thread's context so the engine's own chunk spans
        # (and the store spans above) nest under this one.
        obs_trace.set_current(trace_id, span_id)
        start = time.time()
        began = time.perf_counter()
        try:
            return run_many(self, configs, *args, **kwargs)
        finally:
            if outer is None:
                obs_trace.clear_current()
            else:
                obs_trace.set_current(*outer)
            obs_trace.record_span(
                "bench.engine.run_many", start, time.perf_counter() - began,
                trace_id=trace_id, span_id=span_id,
                parent_id=outer[1] if outer else None,
                attrs={"configs": len(configs)},
            )

    engine_module.SimEngine.run_many = engine_run_many

    record_chunk_span = engine_module._record_chunk_span

    @functools.wraps(record_chunk_span)
    def record_chunk(meta):
        record_chunk_span(meta)
        if not meta or obs_trace.recorder() is None:
            return
        attrs: Dict[str, Any] = {"configs": meta.get("configs", 0), "runs": 0}
        profile = meta.get("profile")
        if profile:
            attrs["runs"] = profile.get("runs", 0)
            for phase, entry in profile.get("phases", {}).items():
                attrs[f"{phase}_s"] = entry.get("seconds", 0.0)
                attrs[f"{phase}_events"] = entry.get("events", 0)
        trace_id, parent_id = _context()
        obs_trace.record_span(
            "bench.kernel", meta.get("start_s", time.time()), meta.get("dur_s", 0.0),
            trace_id=trace_id, parent_id=parent_id, attrs=attrs,
        )

    engine_module._record_chunk_span = record_chunk
