"""Kernel phase profiler: wall-time attribution inside the fast path.

Answers "where did the chunk's time go?" by attributing
:func:`repro.sim.fastpath.execute_run_fast` wall time to five phases:

* ``compile`` — workload compilation into columnar arrays (upfront
  :func:`compiled_trace_for` plus mid-fetch ``trace.ensure`` growth);
* ``quiet_skip`` — the quiet-region wake computation and jump;
* ``fetch`` — the windowed fetch stage (minus compile growth);
* ``issue_scan`` — the incremental scheduler scan + execute stage;
* ``cache`` — time inside :meth:`_FastCache.access`, *outermost* calls
  only (an L1 miss recursing into the L2 is one cache interval, not
  two), measured inclusively — cache time is a subset of the fetch and
  issue phases that trigger the accesses.

The discipline mirrors :mod:`repro.faults`: a module-global
``_ACTIVE`` profile, ``None`` in production, so every hook in the
kernel is a local/attribute load plus an ``is None`` branch when
disarmed — the bit-identity and `repro bench` gates run with it off and
see no measurable overhead.  Arming is explicit (:func:`install`, the
``repro profile`` command) or by environment — ``REPRO_PROFILE=1`` —
read at import so forked pool workers and subprocess servers arm too.

Accumulation is plain attribute addition without a lock: each process
profiles its own kernel executions, and the kernel is single-threaded
within a process.  Workers snapshot-and-reset per chunk and ship the
result back alongside chunk results, so phase times surface as
``engine.chunk`` span attributes.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

__all__ = [
    "ENV_VAR",
    "PHASES",
    "PhaseProfile",
    "active",
    "clear",
    "install",
    "snapshot",
]

#: Environment variable arming the profiler in subprocesses.
ENV_VAR = "REPRO_PROFILE"

#: Phase names, in presentation order.
PHASES = ("compile", "quiet_skip", "fetch", "issue_scan", "cache")


class PhaseProfile:
    """Per-process accumulated phase times (seconds) and event counts."""

    __slots__ = (
        "compile_s", "quiet_skip_s", "fetch_s", "issue_scan_s", "cache_s",
        "compiles", "quiet_skips", "fetch_rounds", "issue_scans",
        "cache_accesses", "cache_depth", "runs",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.compile_s = 0.0
        self.quiet_skip_s = 0.0
        self.fetch_s = 0.0
        self.issue_scan_s = 0.0
        self.cache_s = 0.0
        self.compiles = 0
        self.quiet_skips = 0
        self.fetch_rounds = 0
        self.issue_scans = 0
        self.cache_accesses = 0
        #: Reentrancy depth inside _FastCache.access (L1 -> L2 nesting);
        #: only the outermost interval accumulates.
        self.cache_depth = 0
        self.runs = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "phases": {
                "compile": {"seconds": self.compile_s,
                            "events": self.compiles},
                "quiet_skip": {"seconds": self.quiet_skip_s,
                               "events": self.quiet_skips},
                "fetch": {"seconds": self.fetch_s,
                          "events": self.fetch_rounds},
                "issue_scan": {"seconds": self.issue_scan_s,
                               "events": self.issue_scans},
                "cache": {"seconds": self.cache_s,
                          "events": self.cache_accesses},
            },
        }


_ACTIVE: Optional[PhaseProfile] = None


def install() -> PhaseProfile:
    """Arm the profiler in this process (fresh counters); returns it."""
    global _ACTIVE
    profile = PhaseProfile()
    _ACTIVE = profile
    return profile


def clear() -> None:
    """Disarm the profiler in this process (idempotent)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[PhaseProfile]:
    """The armed profile, or ``None`` — the kernel's single global read."""
    return _ACTIVE


def snapshot(reset: bool = True) -> Optional[Dict[str, Any]]:
    """The armed profile's ``as_dict()`` (optionally resetting), or None."""
    profile = _ACTIVE
    if profile is None:
        return None
    payload = profile.as_dict()
    if reset:
        profile.reset()
    return payload


# Subprocess activation: forked pool workers and `repro serve` children
# arm from the environment at import, like repro.faults.
if os.environ.get(ENV_VAR):
    install()
