"""Job model for the simulation service.

A *job* is the service's unit of admission: one simulated configuration
(``kind="run"``), a benchmark sweep of a base configuration
(``kind="sweep"``), or an explicit list of configurations
(``kind="batch"``, the transport behind
:meth:`repro.service.client.RemoteEngine.run_many`).  Jobs are parsed
from the JSON payload of ``POST /v1/jobs`` and validated in two stages:

* **structural** problems (not a JSON object, missing/mis-typed keys,
  an unknown ``kind``) raise :class:`MalformedJob`, which the server
  maps to HTTP 400;
* **semantic** problems (unknown policy or benchmark name, bad policy
  parameters, an unknown technology node) raise :class:`InvalidJob`,
  mapped to HTTP 422 with the registry's validation message.

The distinction matters to clients: a 400 means the request itself is
broken, a 422 means the request was understood but names something the
server does not have.

Execution happens at *unit* granularity: every configuration in a job
is keyed by its run key
(:meth:`~repro.sim.config.SimulationConfig.cache_key`), the key the
engine's result cache and store use too, which is how identical
in-flight requests coalesce onto one execution — see
:mod:`repro.service.queue`.

Jobs serialise to JSON (:meth:`Job.to_dict` / :meth:`Job.from_dict`)
for the write-ahead journal, so a restarted server re-admits exactly
the jobs that had not finished.
"""

from __future__ import annotations

import functools
import re
import threading
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.circuits.technology import get_technology
from repro.sim.config import SimulationConfig
from repro.workloads.scenarios import validate_workload_name

__all__ = [
    "Job",
    "JobError",
    "MalformedJob",
    "InvalidJob",
    "JOB_KINDS",
    "TERMINAL_STATES",
    "parse_job_payload",
    "validate_config",
]

#: Admissible values of a job payload's ``kind`` field.
JOB_KINDS = ("run", "sweep", "batch")

#: Job states that will never change again.  ``poisoned`` is the
#: quarantine terminal: a job whose unit kept failing execution after
#: the scheduler's retry budget.  The service no longer finishes a job
#: ``failed``; the state stays terminal so that old journals and
#: clients keep reading it.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "poisoned"})

#: Priorities outside this band are rejected (a runaway client must not
#: be able to wedge itself permanently ahead of everyone).
PRIORITY_BAND = (-100, 100)

#: Client-supplied job ids must be addressable by the job routes
#: (``/v1/jobs/<id>``), so they are restricted to the same characters
#: the router matches; an id outside this set would be admitted,
#: executed and journaled, yet impossible to poll or cancel over HTTP.
_JOB_ID_PATTERN = re.compile(r"^[A-Za-z0-9_.-]{1,128}$")


class JobError(ValueError):
    """Base class for job admission failures; carries an HTTP status."""

    status = 400


class MalformedJob(JobError):
    """The payload is structurally broken (HTTP 400)."""

    status = 400


class InvalidJob(JobError):
    """The payload names something the server does not have (HTTP 422)."""

    status = 422


def validate_config(config: SimulationConfig) -> None:
    """Semantic validation of one configuration.

    Raises:
        InvalidJob: for an unknown benchmark/scenario/trace name, an
            unknown policy name, parameters a policy factory does not
            accept, or an unregistered technology node — with the
            underlying registry's message, so the client sees exactly
            what a local run would have printed.
    """
    try:
        validate_workload_name(config.benchmark)
        get_technology(config.feature_size_nm)
        for spec in (config.dcache, config.icache, config.l2):
            spec.validated_params()
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise InvalidJob(str(message)) from None
    if config.n_instructions < 1:
        raise InvalidJob("n_instructions must be at least 1")


def _parse_config(data: Any, where: str) -> SimulationConfig:
    """Structural parse of one serialised configuration."""
    if not isinstance(data, Mapping):
        raise MalformedJob(f"{where} must be a JSON object")
    try:
        return SimulationConfig.from_dict(data)
    except (KeyError, TypeError, AttributeError) as error:
        raise MalformedJob(f"{where} is not a valid configuration: {error}") from None
    except ValueError as error:
        # PolicySpec.from_dict raises ValueError for malformed spec
        # payloads; that is structural, not semantic.
        raise MalformedJob(f"{where} is not a valid configuration: {error}") from None


def _new_job_id() -> str:
    return f"job-{uuid.uuid4().hex[:16]}"


#: A runtime field of :class:`Job`: never journaled, ignored by ``==``
#: and ``repr``.
_runtime = functools.partial(field, compare=False, repr=False)


@dataclass
class Job:
    """One job: its durable request, its lifecycle and its runtime state.

    The first six fields are durable: :meth:`to_dict` journals exactly
    these, so a restart rebuilds the same request.  ``status`` and
    ``error`` are the lifecycle; the journal records their terminal
    values as events.  The remaining fields are runtime state, set at
    admission and lost on restart (a replayed job is re-admitted and
    gets fresh ones); they take no part in equality.

    Attributes:
        id: Stable identifier (survives a journal replay).
        kind: ``"run"``, ``"sweep"`` or ``"batch"``.
        configs: The expanded configurations, in request order.
        labels: Per-config display labels (benchmark names for sweeps).
        priority: Larger runs sooner; ties run in submission order.
        timeout_s: Wall-clock budget from admission; ``None`` = none.
        status: ``"queued"``, ``"running"`` or one of
            :data:`TERMINAL_STATES`.
        error: Why a job finished other than ``done``.
        unit_keys: Run key per configuration (parallel to
            ``configs``), set by :meth:`JobBoard.submit`.
        pending: Unit keys the job still waits on; it finishes
            ``done`` when this empties.
        cancel: Set on cancellation or timeout; the engine checks it
            between configurations and chunks.
        submitted_at / started_at / finished_at: Wall-clock stamps of
            admission, first scheduling and the terminal transition.
        trace_id / root_span_id: The job's trace, minted by the server
            (or taken from the client's ``X-Repro-Trace`` header).
    """

    id: str = field(default_factory=_new_job_id)
    kind: str = "run"
    configs: List[SimulationConfig] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    priority: int = 0
    timeout_s: Optional[float] = None
    status: str = "queued"
    error: Optional[str] = None
    unit_keys: List[str] = _runtime(default_factory=list)
    pending: Set[str] = _runtime(default_factory=set)
    cancel: threading.Event = _runtime(default_factory=threading.Event)
    submitted_at: Optional[float] = _runtime(default=None)
    started_at: Optional[float] = _runtime(default=None)
    finished_at: Optional[float] = _runtime(default=None)
    trace_id: Optional[str] = _runtime(default=None)
    root_span_id: Optional[str] = _runtime(default=None)

    def to_dict(self) -> Dict[str, Any]:
        """Journal representation (round-trips via :meth:`from_dict`)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "configs": [config.to_dict() for config in self.configs],
            "labels": list(self.labels),
            "priority": self.priority,
            "timeout_s": self.timeout_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Job":
        """Rebuild a job from :meth:`to_dict` output (journal replay)."""
        return cls(
            id=str(data["id"]),
            kind=str(data["kind"]),
            configs=[SimulationConfig.from_dict(c) for c in data["configs"]],
            labels=[str(label) for label in data.get("labels", [])],
            priority=int(data.get("priority", 0)),
            timeout_s=data.get("timeout_s"),
        )

    def summary(self) -> Dict[str, Any]:
        """The fields every listing endpoint shows."""
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "priority": self.priority,
            "units": len(self.configs),
            "error": self.error,
            "trace_id": self.trace_id,
        }


def _parse_priority(payload: Mapping[str, Any]) -> int:
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise MalformedJob("priority must be an integer")
    low, high = PRIORITY_BAND
    if not low <= priority <= high:
        raise InvalidJob(f"priority must be within [{low}, {high}]")
    return priority


def _parse_timeout(payload: Mapping[str, Any]) -> Optional[float]:
    timeout = payload.get("timeout_s")
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise MalformedJob("timeout_s must be a number")
    if timeout <= 0:
        raise InvalidJob("timeout_s must be positive")
    return float(timeout)


def parse_job_payload(payload: Any) -> Job:
    """Parse and fully validate one ``POST /v1/jobs`` body.

    Returns a queued :class:`Job` with its configurations expanded
    (sweeps become one configuration per benchmark) and semantically
    validated.

    Raises:
        MalformedJob: structural problems (HTTP 400).
        InvalidJob: semantic problems (HTTP 422).
    """
    if not isinstance(payload, Mapping):
        raise MalformedJob("job payload must be a JSON object")
    kind = payload.get("kind", "run")
    if kind not in JOB_KINDS:
        raise MalformedJob(
            f"unknown job kind {kind!r}; expected one of {', '.join(JOB_KINDS)}"
        )

    configs: List[SimulationConfig]
    labels: List[str]
    if kind == "run":
        config = _parse_config(payload.get("config"), "config")
        configs, labels = [config], [config.benchmark]
    elif kind == "sweep":
        base = _parse_config(payload.get("config"), "config")
        benchmarks = payload.get("benchmarks")
        if (
            not isinstance(benchmarks, (list, tuple))
            or not benchmarks
            or not all(isinstance(name, str) for name in benchmarks)
        ):
            raise MalformedJob("sweep jobs require a non-empty benchmarks list")
        configs = [replace(base, benchmark=name) for name in benchmarks]
        labels = list(benchmarks)
    else:  # batch
        raw = payload.get("configs")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise MalformedJob("batch jobs require a non-empty configs list")
        configs = [
            _parse_config(entry, f"configs[{index}]")
            for index, entry in enumerate(raw)
        ]
        labels = [config.benchmark for config in configs]

    for config in configs:
        validate_config(config)

    job = Job(
        kind=kind,
        configs=configs,
        labels=labels,
        priority=_parse_priority(payload),
        timeout_s=_parse_timeout(payload),
    )
    job_id = payload.get("id")
    if job_id is not None:
        if not isinstance(job_id, str) or not _JOB_ID_PATTERN.match(job_id):
            raise MalformedJob(
                "id must be 1-128 characters from [A-Za-z0-9_.-]"
            )
        job.id = job_id
    return job
