"""``repro.obs`` — observability: tracing, profiling, exporters, logs.

Four small modules, all fast no-ops until armed:

* :mod:`repro.obs.trace` — span model, trace-context propagation
  (``X-Repro-Trace``), and the bounded in-process span ring;
* :mod:`repro.obs.export` — Chrome-trace-event (Perfetto) JSON and
  Prometheus text exposition;
* :mod:`repro.obs.profile` — the opt-in kernel phase profiler
  (compile / quiet-skip / fetch / issue-scan / cache attribution);
* :mod:`repro.obs.log` — structured JSON log lines carrying trace ids.

Layer boundaries (journal, store, engine, scheduler) record their spans
through :func:`repro.faults.site`, the one hook that is both a failpoint
and a span.  See ``docs/observability.md`` for the end-to-end
walkthrough.
"""

from . import export, log, profile, trace

__all__ = ["export", "log", "profile", "trace"]
