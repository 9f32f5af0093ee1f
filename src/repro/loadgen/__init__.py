"""Load generation: service traffic as a first-class workload.

The :mod:`repro.loadgen` package drives a live ``repro serve`` endpoint
over real HTTP with controlled arrival processes, the way a production
traffic generator would — because "can the service absorb a diurnal
burst at 4x steady-state?" must be a measurable, regression-gated
question, not a hope.

The pieces (mirroring the classic request/engine/workload driver
split):

* :mod:`~repro.loadgen.base` — :class:`~repro.loadgen.base.Request`,
  the :class:`~repro.loadgen.base.RequestEngine` abstraction, rate
  schedules (constant, ``phases:``, ``diurnal:``) and the open-loop
  arrival processes (Poisson and deterministic pacing);
* :mod:`~repro.loadgen.synthetic` — seeded **static mixes** (weighted
  draws over run/sweep payloads across benchmarks x policies) and
  **dynamic** rate-scheduled streams;
* :mod:`~repro.loadgen.replay` — JSON-lines **session files**:
  recording generated streams, deriving sessions from a server's
  write-ahead journal, and replaying them with preserved inter-arrival
  gaps at a ``--speed`` multiplier;
* :mod:`~repro.loadgen.runner` — the open-loop and closed-loop
  drivers, per-request outcomes, saturation sweeps, and the sampled
  byte-identity check against a local engine;
* :mod:`~repro.loadgen.report` — human-readable runs and curves;
* :mod:`~repro.loadgen.cli` — the ``repro loadgen`` subcommand.
"""

from .base import (
    DeterministicArrivals,
    PoissonArrivals,
    Request,
    RequestEngine,
    parse_rate_schedule,
    take_requests,
)
from .replay import ReplayEngine, read_session, record_from_journal, write_session
from .runner import LoadReport, LoadRunner, saturation_sweep
from .synthetic import MixEngine, StaticMix, parse_mix

__all__ = [
    "DeterministicArrivals",
    "LoadReport",
    "LoadRunner",
    "MixEngine",
    "PoissonArrivals",
    "ReplayEngine",
    "Request",
    "RequestEngine",
    "StaticMix",
    "parse_mix",
    "parse_rate_schedule",
    "read_session",
    "record_from_journal",
    "saturation_sweep",
    "take_requests",
    "write_session",
]
