"""Chaos campaigns: recovery invariants under sampled fault schedules.

``repro fuzz`` pins the *kernels'* correctness; this module pins the
*service's* recovery contract.  Each trial computes a fault-free
baseline locally, then drives a real server (in-process over HTTP for
fault trials, a ``repro serve`` subprocess for kill -9 trials) through
a seeded workload while a :class:`~repro.faults.FaultPlan` sampled from
the trial seed injects worker crashes, torn writes, journal failures,
dropped connections and scheduler faults.  After recovery the trial
asserts the invariants the stack promises:

* every submitted job reaches a **terminal** state;
* **no unit is double-executed** — coalescing and the unit table hold
  under retries (``units_executed`` never exceeds the unique units);
* surviving results are **byte-identical** to the fault-free baseline
  (``RunResult.to_dict()`` equality over the wire);
* a job may finish other-than-``done`` only when the plan injected
  scheduler faults (everything else must self-heal);
* **journal replay is exact**: after a clean drain with every job
  terminal the journal replays empty, and after kill -9 the restarted
  server resumes exactly the unfinished jobs (checked unless the plan
  tore the journal itself, whose at-least-once replay is by design).

Drive it from the shell (CI runs exactly this)::

    python -m repro chaos --budget 25 --seed-base 0 --report chaos.json

Exit status is 1 on any invariant violation, 0 on a clean campaign.
Every trial is deterministic in its seed: workload, fault plan and
injection schedule all derive from string-seeded RNGs.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from . import faults
from .sim.config import SimulationConfig
from .sim.engine import SimEngine, execute_run_fast

__all__ = [
    "DEFAULT_CHAOS_INSTRUCTIONS",
    "ChaosTrial",
    "chaos_config",
    "run_campaign",
    "sample_plan",
]

#: Instructions per chaos unit.  Recovery is binary, not asymptotic;
#: this crosses enough simulation to make results non-trivial while a
#: 25-trial campaign stays in CI-friendly time.
DEFAULT_CHAOS_INSTRUCTIONS = 1500

#: Workloads trials sample from: plain benchmarks, scenarios, fuzz names
#: — every workload family the store digests handle.
_WORKLOADS = [
    "gcc",
    "art",
    "mcf",
    "equake",
    "vpr",
    "bzip2",
    "mix:gcc+art@300",
    "phases:gcc+mcf@400",
    "fuzz:3/2",
]

#: Per-site action/parameter palettes for :func:`sample_plan`.  Every
#: probabilistic rule is capped (``max``) so a sampled plan can slow a
#: trial down but never wedge it.
_PLAN_PALETTE: Dict[str, List[str]] = {
    "engine.chunk": ["crash", "raise", "hang"],
    "store.put": ["torn", "corrupt", "error", "slow"],
    "store.get": ["error", "slow"],
    "journal.append": ["torn", "error"],
    "scheduler.unit": ["raise", "timeout"],
    "server.response": ["error", "drop"],
    "client.request": ["drop", "stall"],
}


def chaos_config(
    benchmark: str,
    n_instructions: int = DEFAULT_CHAOS_INSTRUCTIONS,
    seed: int = 1,
) -> SimulationConfig:
    """One chaos unit: precharge-gated D-cache, deterministic seed."""
    return SimulationConfig(
        benchmark=benchmark,
        dcache="gated",
        n_instructions=n_instructions,
        seed=seed,
    )


def sample_plan(seed: int) -> faults.FaultPlan:
    """A deterministic fault plan for one trial seed.

    One to three sites, each with an action and bounded schedule drawn
    from the palette.  The same seed always yields the same plan (and,
    through the plan's own seed, the same injection schedule).
    """
    rng = random.Random(f"chaos-plan:{seed}")
    sites = rng.sample(sorted(_PLAN_PALETTE), rng.randint(1, 3))
    rules = []
    for site in sites:
        action = rng.choice(_PLAN_PALETTE[site])
        kwargs: Dict[str, object] = {}
        if action in ("hang", "slow", "stall"):
            kwargs["delay"] = rng.choice([0.02, 0.05, 0.1])
        if site in ("server.response", "client.request"):
            # Request-path faults repeat per request; keep the rate low
            # and capped so retry budgets always clear them.
            kwargs["p"] = rng.choice([0.2, 0.4])
            kwargs["max_fires"] = rng.randint(1, 3)
        elif action in ("crash", "raise", "error", "torn", "corrupt", "timeout"):
            kwargs["p"] = rng.choice([0.25, 0.5, 1.0])
            kwargs["max_fires"] = rng.randint(1, 3)
        else:  # hang / slow: harmless, may fire every time
            kwargs["p"] = rng.choice([0.25, 0.5])
            kwargs["max_fires"] = rng.randint(2, 5)
        rules.append(faults.FaultRule(site=site, action=action, **kwargs))
    return faults.FaultPlan(seed=seed, rules=tuple(rules))


@dataclass
class ChaosTrial:
    """Outcome of one chaos trial."""

    seed: int
    kind: str  # "faults" | "kill9"
    plan: Optional[str]
    workloads: List[str]
    statuses: Dict[str, str] = field(default_factory=dict)
    verified_results: int = 0
    violations: List[str] = field(default_factory=list)
    duration_s: float = 0.0
    #: Job id -> trace id for the jobs of a violating trial, so the
    #: violated invariant can be chased through span timelines and
    #: structured logs of a rerun.
    trace_ids: Dict[str, str] = field(default_factory=dict)
    #: Condensed span timeline of the killed-and-restarted window
    #: (kill9 trials): the restarted server's ring, name/trace/ts/dur.
    span_timeline: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "kind": self.kind,
            "plan": self.plan,
            "workloads": list(self.workloads),
            "statuses": dict(self.statuses),
            "verified_results": self.verified_results,
            "violations": list(self.violations),
            "duration_s": round(self.duration_s, 3),
            "trace_ids": dict(self.trace_ids),
            "span_timeline": list(self.span_timeline),
        }


#: Spans kept in a kill9 trial's condensed timeline.
_TIMELINE_CAP = 200


def _condense_timeline(
    payload: Dict[str, object], cap: int = _TIMELINE_CAP
) -> List[Dict[str, object]]:
    """A ``/v1/trace`` payload reduced to report-sized span rows."""
    timeline: List[Dict[str, object]] = []
    for event in payload.get("traceEvents", [])[:cap]:
        span_args = event.get("args") or {}
        timeline.append(
            {
                "name": event.get("name"),
                "trace_id": span_args.get("trace_id"),
                "ts_s": round(event.get("ts", 0) / 1e6, 6),
                "dur_s": round(event.get("dur", 0) / 1e6, 6),
            }
        )
    return timeline


def _baseline(configs: List[SimulationConfig]) -> Dict[str, dict]:
    """Fault-free expected results, keyed like the service keys units."""
    payloads: Dict[str, dict] = {}
    for config in configs:
        key = config.cache_key()
        if key not in payloads:
            payloads[key] = execute_run_fast(config).to_dict()
    return payloads


# ----------------------------------------------------------------------
# Fault trials: an in-process server over real HTTP, plan installed.


def _fault_trial(seed: int, n_instructions: int, timeout_s: float) -> ChaosTrial:
    from .service.client import ServiceClient, ServiceError, ServiceUnavailable
    from .service.journal import JobJournal
    from .service.server import ServiceServer

    rng = random.Random(f"chaos:{seed}")
    workloads = rng.sample(_WORKLOADS, rng.randint(1, 3))
    configs = [chaos_config(name, n_instructions) for name in workloads]
    plan = sample_plan(seed)
    trial = ChaosTrial(
        seed=seed, kind="faults", plan=plan.to_spec(), workloads=workloads
    )
    started = time.monotonic()
    baseline = _baseline(configs)

    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    journal_path = tmp / "jobs.wal"
    server = None
    try:
        engine = SimEngine(workers=2, fast=True, store=tmp / "store")
        server = ServiceServer(engine=engine, journal=journal_path)
        server.start()
        client = ServiceClient(
            server.url,
            timeout=15.0,
            retries=8,
            backoff=0.05,
            retry_budget_s=timeout_s,
        )
        faults.install(plan)
        receipts = []
        jobs = []
        try:
            # Two submissions of the same batch: the duplicate both
            # stresses coalescing under faults and arms the
            # double-execution check below.
            for _ in range(2):
                try:
                    receipts.append(client.submit_batch(configs))
                except (ServiceError, ServiceUnavailable) as error:
                    trial.violations.append(f"submit failed: {error}")
                    return trial
            for receipt in receipts:
                try:
                    jobs.append(
                        client.wait(
                            receipt["id"],
                            poll_s=0.05,
                            timeout=timeout_s,
                            raise_on_failure=False,
                        )
                    )
                except TimeoutError:
                    trial.violations.append(
                        f"job {receipt['id']} not terminal after {timeout_s}s"
                    )
                    jobs.append(None)
                except (ServiceError, ServiceUnavailable) as error:
                    trial.violations.append(
                        f"polling job {receipt['id']} failed: {error}"
                    )
                    jobs.append(None)
        finally:
            faults.clear()

        # Anything but "done" is legitimate only when the plan injected
        # scheduler faults (quarantine → poisoned, timeout → cancelled);
        # every other fault class must self-heal.
        scheduler_faulted = plan.rule_for("scheduler.unit") is not None
        for receipt, job in zip(receipts, jobs):
            if job is None:
                continue
            trial.statuses[job["id"]] = job["status"]
            if job["status"] == "done":
                try:
                    payloads = client.collect(receipt, job)
                except (ServiceError, ServiceUnavailable) as error:
                    trial.violations.append(
                        f"job {job['id']} done but results missing: {error}"
                    )
                    continue
                for key, payload in zip(receipt["units"], payloads):
                    if payload != baseline[key]:
                        trial.violations.append(
                            f"job {job['id']}: result {key} diverges from baseline"
                        )
                    else:
                        trial.verified_results += 1
            elif job["status"] in ("poisoned", "cancelled") and scheduler_faulted:
                # Surviving results must still be byte-identical.
                for key in receipt["units"]:
                    try:
                        payload = client.result(key)
                    except ServiceError as error:
                        if error.status == 404:
                            continue
                        trial.violations.append(
                            f"job {job['id']}: result {key} unreadable: {error}"
                        )
                        continue
                    except ServiceUnavailable as error:
                        trial.violations.append(
                            f"job {job['id']}: result {key} unreachable: {error}"
                        )
                        continue
                    if payload != baseline[key]:
                        trial.violations.append(
                            f"job {job['id']}: surviving result {key} diverges"
                        )
                    else:
                        trial.verified_results += 1
            else:
                trial.violations.append(
                    f"job {job['id']} finished {job['status']} "
                    f"({job.get('error')}) under plan {plan.to_spec()!r}"
                )

        # No unit double-executed: successful executions never exceed
        # the unique units (coalescing holds even with a duplicate job
        # and injected retries).
        try:
            executed = client.metrics()["counters"]["units_executed"]
        except (ServiceError, ServiceUnavailable, KeyError):
            executed = None
        if executed is not None and executed > len(baseline):
            trial.violations.append(
                f"double execution: {executed} unit executions "
                f"for {len(baseline)} unique units"
            )

        if trial.violations:
            # Cite the trial's trace ids so the violating jobs' spans
            # and structured log lines of a seeded rerun can be pulled
            # by id.
            for receipt in receipts:
                trace_id = client.trace_id_for(receipt["id"])
                if trace_id:
                    trial.trace_ids[receipt["id"]] = trace_id

        server.stop()
        server = None
        # After a clean drain with every job terminal, replay must be
        # empty — unless the plan tore the journal itself, in which case
        # a lost terminal event legitimately resurrects a finished job
        # (replay is at-least-once; re-admission is idempotent).
        journal_faulted = plan.rule_for("journal.append") is not None
        if not journal_faulted and all(
            job is not None for job in jobs
        ):
            journal = JobJournal(journal_path)
            leftover = journal.replay()
            journal.close()
            if leftover:
                trial.violations.append(
                    f"journal replays {len(leftover)} job(s) after a clean "
                    "drain with all jobs terminal"
                )
    finally:
        faults.clear()
        if server is not None:
            server.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    trial.duration_s = time.monotonic() - started
    return trial


# ----------------------------------------------------------------------
# kill -9 trials: a real `repro serve` subprocess, killed mid-unit.


def _spawn_server(tmp: Path, ready_file: Path) -> subprocess.Popen:
    src_dir = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    log_handle = open(tmp / "serve.log", "a")
    # Each server gets its own session so cleanup can killpg() the whole
    # tree: SIGKILLing only the server pid orphans its forked pool
    # workers, which otherwise idle forever (that is the scenario under
    # test — the trial must pass *before* the orphans are reaped).
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--fast",
            "--workers", "2",
            "--store", str(tmp / "store"),
            "--journal", str(tmp / "jobs.wal"),
            "--ready-file", str(ready_file),
        ],
        stdout=log_handle,
        stderr=log_handle,
        env=env,
        start_new_session=True,
    )


def _await_ready(proc: subprocess.Popen, ready_file: Path, timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if ready_file.exists():
            url = ready_file.read_text(encoding="utf-8").strip()
            if url:
                return url
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited before becoming ready (code {proc.returncode})"
            )
        time.sleep(0.05)
    raise RuntimeError(f"server not ready within {timeout}s")


def _kill9_trial(seed: int, n_instructions: int, timeout_s: float) -> ChaosTrial:
    from .service.client import ServiceClient, ServiceError, ServiceUnavailable
    from .service.journal import JobJournal

    rng = random.Random(f"chaos-kill:{seed}")
    # Plain benchmarks only (subprocess startup already dominates), with
    # a bigger budget so the kill has an execution window to land in.
    workloads = rng.sample(_WORKLOADS[:6], 2)
    configs = [chaos_config(name, n_instructions * 4) for name in workloads]
    trial = ChaosTrial(seed=seed, kind="kill9", plan=None, workloads=workloads)
    started = time.monotonic()
    baseline = _baseline(configs)

    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    proc: Optional[subprocess.Popen] = None
    pgids: list = []
    job_id: Optional[str] = None
    submit_trace: Optional[str] = None
    try:
        proc = _spawn_server(tmp, tmp / "ready-1")
        pgids.append(proc.pid)
        url = _await_ready(proc, tmp / "ready-1")
        client = ServiceClient(url, timeout=10.0, retries=6, backoff=0.1)
        receipt = client.submit_batch(configs)
        job_id = receipt["id"]
        submit_trace = client.trace_id_for(job_id)

        # Give execution a moment to start, then kill -9 mid-unit.
        poll_deadline = time.monotonic() + 10.0
        while time.monotonic() < poll_deadline:
            job = client.job(job_id)
            if job["status"] != "queued" or job["pending_units"] < len(
                set(receipt["units"])
            ):
                break
            time.sleep(0.02)
        time.sleep(rng.uniform(0.05, 0.3))
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10.0)

        # Restart over the same store + journal: the job must resume
        # under its original id (or, if it finished before the kill,
        # its results must be served from the store).
        proc = _spawn_server(tmp, tmp / "ready-2")
        pgids.append(proc.pid)
        url = _await_ready(proc, tmp / "ready-2")
        client = ServiceClient(url, timeout=10.0, retries=6, backoff=0.1)
        resumed = True
        try:
            client.job(job_id)
        except ServiceError as error:
            if error.status != 404:
                raise
            # Finished pre-kill: terminal jobs are not replayed. The
            # store must still serve every result (checked below).
            resumed = False
        if resumed:
            try:
                job = client.wait(
                    job_id, poll_s=0.05, timeout=timeout_s, raise_on_failure=False
                )
                trial.statuses[job_id] = job["status"]
                if job["status"] != "done":
                    trial.violations.append(
                        f"resumed job {job_id} finished {job['status']} "
                        f"({job.get('error')})"
                    )
            except TimeoutError:
                trial.violations.append(
                    f"resumed job {job_id} not terminal after {timeout_s}s"
                )
        else:
            trial.statuses[job_id] = "pruned (finished before kill)"

        # Recovered results byte-identical to the fault-free baseline.
        for key, expected in baseline.items():
            try:
                payload = client.result(key)
            except (ServiceError, ServiceUnavailable) as error:
                trial.violations.append(f"result {key} lost across kill -9: {error}")
                continue
            if payload != expected:
                trial.violations.append(
                    f"result {key} diverges from baseline across kill -9"
                )
            else:
                trial.verified_results += 1

        # The killed-and-restarted window's span timeline: what the
        # restarted server did between journal replay and drain
        # (re-admission, queue wait, unit execution, chunks).
        try:
            trial.span_timeline = _condense_timeline(client.trace())
        except (ServiceError, ServiceUnavailable):
            pass

        # Graceful drain, then the journal must replay exactly nothing.
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30.0)
        proc = None
        journal = JobJournal(tmp / "jobs.wal")
        leftover = journal.replay()
        journal.close()
        if leftover and not trial.violations:
            trial.violations.append(
                f"journal replays {len(leftover)} job(s) after the restarted "
                "server drained cleanly"
            )
    except (RuntimeError, ServiceError, ServiceUnavailable, subprocess.TimeoutExpired) as error:
        trial.violations.append(f"kill9 harness failure: {error}")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
        # Reap the pool workers orphaned by the SIGKILL (and any
        # stragglers of the restarted server): every spawn led its own
        # process group, so one killpg per server covers the whole tree.
        for pgid in pgids:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        shutil.rmtree(tmp, ignore_errors=True)
    if trial.violations and job_id and submit_trace:
        trial.trace_ids[job_id] = submit_trace
    trial.duration_s = time.monotonic() - started
    return trial


# ----------------------------------------------------------------------
# Campaign


def run_campaign(
    budget: int,
    seed_base: int = 0,
    n_instructions: int = DEFAULT_CHAOS_INSTRUCTIONS,
    kill9_every: int = 5,
    timeout_s: float = 120.0,
    progress: Optional[Callable[[ChaosTrial], None]] = None,
) -> Dict[str, object]:
    """Run ``budget`` seeded chaos trials; returns a JSON-ready report.

    Seeds are ``seed_base .. seed_base + budget - 1``.  Every
    ``kill9_every``-th trial (0 disables) runs the kill -9 matrix
    against a ``repro serve`` subprocess; the rest sample a fault plan
    against an in-process server.  A fixed ``seed_base`` makes the
    campaign a regression gate; a rotating one makes it an explorer.
    """
    if budget < 1:
        raise ValueError("chaos budget must be positive")
    trials: List[ChaosTrial] = []
    for index in range(budget):
        seed = seed_base + index
        if kill9_every and (index + 1) % kill9_every == 0:
            trial = _kill9_trial(seed, n_instructions, timeout_s)
        else:
            trial = _fault_trial(seed, n_instructions, timeout_s)
        trials.append(trial)
        if progress is not None:
            progress(trial)
    violations = sum(len(trial.violations) for trial in trials)
    return {
        "budget": budget,
        "seed_base": seed_base,
        "n_instructions": n_instructions,
        "kill9_every": kill9_every,
        "violations": violations,
        "verified_results": sum(trial.verified_results for trial in trials),
        "trials": [trial.to_dict() for trial in trials],
    }
