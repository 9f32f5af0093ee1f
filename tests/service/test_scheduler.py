"""Scheduler behaviour: execution, timeouts, cancellation salvage, drain."""

from __future__ import annotations

import threading
import time

from repro.service.jobs import Job
from repro.service.queue import JobBoard
from repro.service.scheduler import Scheduler
from repro.sim.config import SimulationConfig
from repro.sim.engine import RunCancelled, SimEngine


def _job(benchmarks, instructions=400, priority=0, timeout_s=None, seed=1):
    configs = [
        SimulationConfig(benchmark=name, n_instructions=instructions, seed=seed)
        for name in benchmarks
    ]
    return Job(
        kind="batch",
        configs=configs,
        labels=list(benchmarks),
        priority=priority,
        timeout_s=timeout_s,
    )


def _wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestExecution:
    def test_jobs_execute_and_complete(self, tmp_path):
        engine = SimEngine(fast=True, store=tmp_path / "store")
        board = JobBoard(engine=engine)
        scheduler = Scheduler(board, engine)
        scheduler.start()
        try:
            job = _job(["gcc", "art"])
            board.submit(job)
            assert _wait_for(lambda: job.status == "done")
            for key in job.unit_keys:
                assert board.result_payload(key) is not None
        finally:
            scheduler.stop()
            engine.close()

    def test_coalesced_jobs_complete_through_one_execution(self, tmp_path):
        engine = SimEngine(fast=True, store=tmp_path / "store")
        board = JobBoard(engine=engine)
        scheduler = Scheduler(board, engine)
        # Submit before starting the scheduler so both attach to the
        # same pending unit.
        first = _job(["gcc"])
        second = _job(["gcc"])
        board.submit(first)
        board.submit(second)
        scheduler.start()
        try:
            assert _wait_for(lambda: first.status == "done")
            assert _wait_for(lambda: second.status == "done")
            assert engine.stats["computed"] == 1  # one execution, two jobs
        finally:
            scheduler.stop()
            engine.close()

    def test_persistent_execution_failure_poisons_job_with_message(self, tmp_path):
        engine = SimEngine(fast=True)
        board = JobBoard(engine=engine)
        scheduler = Scheduler(board, engine)

        def boom(*args, **kwargs):
            raise RuntimeError("worker exploded")

        engine.run_many = boom
        scheduler.start()
        try:
            job = _job(["gcc"])
            board.submit(job)
            # The unit is retried up to the failure limit, then
            # quarantined; its job lands in the distinct terminal state.
            assert _wait_for(lambda: job.status == "poisoned")
            assert "worker exploded" in job.error
            assert "quarantined" in job.error
        finally:
            scheduler.stop()

    def test_transient_execution_failure_retries_to_done(self, tmp_path):
        engine = SimEngine(fast=True, store=tmp_path / "store")
        board = JobBoard(engine=engine)
        scheduler = Scheduler(board, engine)
        real_run_many = engine.run_many
        calls = []

        def flaky(configs, **kwargs):
            calls.append(len(configs))
            if len(calls) < 3:
                raise RuntimeError("transient pool hiccup")
            return real_run_many(configs, **kwargs)

        engine.run_many = flaky
        scheduler.start()
        try:
            job = _job(["gcc"])
            board.submit(job)
            assert _wait_for(lambda: job.status == "done")
            assert len(calls) == 3  # two failures absorbed, third ran
        finally:
            scheduler.stop()
            engine.close()


class TestTimeouts:
    def test_job_timeout_cancels_execution(self, tmp_path):
        engine = SimEngine(fast=True)
        board = JobBoard(engine=engine)
        scheduler = Scheduler(board, engine)
        scheduler.start()
        try:
            job = _job(
                ["gcc", "art", "mcf", "equake"],
                instructions=500_000,
                timeout_s=0.4,
            )
            board.submit(job)
            assert _wait_for(lambda: job.status == "cancelled", timeout=120)
        finally:
            scheduler.stop()
            engine.close()

    def test_already_expired_job_cancels_without_executing(self, tmp_path):
        engine = SimEngine(fast=True)
        board = JobBoard(engine=engine)
        scheduler = Scheduler(board, engine)
        job = _job(["gcc"], timeout_s=0.05)
        board.submit(job)
        time.sleep(0.2)  # expire while no scheduler is running
        scheduler.start()
        try:
            assert _wait_for(lambda: job.status == "cancelled")
            assert engine.stats["computed"] == 0
        finally:
            scheduler.stop()


class TestCancellationSalvage:
    def test_cancelled_execution_requeues_units_other_jobs_need(self, tmp_path):
        engine = SimEngine(fast=True, store=tmp_path / "store")
        board = JobBoard(engine=engine)
        scheduler = Scheduler(board, engine)
        # Heavy job and a duplicate rider on the same units.
        heavy = _job(["gcc", "art"], instructions=400_000, seed=5)
        rider = _job(["gcc", "art"], instructions=400_000, seed=5)
        board.submit(heavy)
        board.submit(rider)
        scheduler.start()
        try:
            # Let the execution start, then cancel the owner.
            assert _wait_for(lambda: heavy.status == "running")
            time.sleep(0.1)
            board.cancel(heavy.id)
            assert _wait_for(lambda: heavy.status == "cancelled", timeout=120)
            # The rider must still finish (salvaged or re-executed).
            assert _wait_for(lambda: rider.status == "done", timeout=300)
        finally:
            scheduler.stop()
            engine.close()

    def test_storeless_salvage_reruns_only_unfinished_units(self):
        # The cancelled batch finished its first unit before the cancel:
        # that unit completes from the engine's cache, with no store, so
        # the rider's re-run batch holds only the unfinished unit.
        engine = SimEngine(fast=True)
        board = JobBoard(engine=engine)
        scheduler = Scheduler(board, engine)
        real_run_many = engine.run_many
        batches = []

        def cancel_after_first_unit(configs, **kwargs):
            batches.append([config.cache_key() for config in configs])
            if len(batches) == 1:
                real_run_many(configs[:1])
                raise RunCancelled("cancelled after the first unit")
            return real_run_many(configs, **kwargs)

        engine.run_many = cancel_after_first_unit
        owner = _job(["gcc", "art"])
        rider = _job(["gcc", "art"])
        board.submit(owner)
        board.submit(rider)
        scheduler.start()
        try:
            assert _wait_for(lambda: rider.status == "done")
            assert owner.status == "cancelled"
            assert len(batches) == 2
            assert batches[1] == batches[0][1:]
            assert set(board.job_payload(rider.id)["results"]) == set(rider.unit_keys)
        finally:
            scheduler.stop()
            engine.close()


class TestDrain:
    def test_stop_is_idempotent_and_board_closes(self):
        engine = SimEngine(fast=True)
        board = JobBoard(engine=engine)
        scheduler = Scheduler(board, engine)
        scheduler.start()
        scheduler.stop()
        scheduler.stop()
        assert board.pop(timeout=0.05) is None
