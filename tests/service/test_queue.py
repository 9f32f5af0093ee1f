"""JobBoard semantics: priority order, coalescing, cancellation, limits, retention."""

from __future__ import annotations

import pytest

from repro.service import queue
from repro.service.jobs import Job
from repro.service.queue import JobBoard, QueueFull
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine, execute_run_fast
from repro.sim.store import ResultStore


def _job(benchmark="gcc", priority=0, instructions=400, seed=1, job_id=None):
    config = SimulationConfig(
        benchmark=benchmark, n_instructions=instructions, seed=seed
    )
    job = Job(kind="run", configs=[config], labels=[benchmark], priority=priority)
    if job_id:
        job.id = job_id
    return job


class TestPriorityOrder:
    def test_fifo_within_one_priority(self):
        board = JobBoard()
        first = _job("gcc", instructions=400)
        second = _job("gcc", instructions=401)
        board.submit(first)
        board.submit(second)
        assert board.pop(timeout=0.1).id == first.id
        assert board.pop(timeout=0.1).id == second.id

    def test_higher_priority_pops_first(self):
        board = JobBoard()
        low = _job("gcc", priority=0, instructions=400)
        high = _job("art", priority=5, instructions=400)
        board.submit(low)
        board.submit(high)
        assert board.pop(timeout=0.1).id == high.id
        assert board.pop(timeout=0.1).id == low.id

    def test_pop_times_out_empty(self):
        board = JobBoard()
        assert board.pop(timeout=0.05) is None


class TestCoalescing:
    def test_identical_in_flight_jobs_share_one_unit(self):
        board = JobBoard()
        first = _job("gcc")
        duplicate = _job("gcc")
        r1 = board.submit(first)
        r2 = board.submit(duplicate)
        assert r1.unit_keys == r2.unit_keys
        assert r2.coalesced == 1
        assert board.pending_units() == 1

        popped = board.pop(timeout=0.1)
        units = board.claim(popped)
        assert len(units) == 1
        # The other job claims nothing — it waits on the same unit.
        other = board.pop(timeout=0.1)
        assert board.claim(other) == []

        board.complete_unit(units[0].key)
        assert first.status == "done"
        assert duplicate.status == "done"

    def test_completed_units_serve_from_store_without_pool(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(benchmark="gcc", n_instructions=400)
        store.put(config, execute_run_fast(config))
        board = JobBoard(engine=SimEngine(store=store))
        receipt = board.submit(_job("gcc"))
        assert receipt.cached == 1
        assert receipt.status == "done"
        assert board.pending_units() == 0

    def test_result_payload_round_trips(self):
        engine = SimEngine(fast=True)
        board = JobBoard(engine=engine)
        job = _job("gcc")
        board.submit(job)
        popped = board.pop(timeout=0.1)
        (unit,) = board.claim(popped)
        result = engine.run(unit.config)
        board.complete_unit(unit.key)
        assert board.result_payload(unit.key) == result.to_dict()
        assert board.result_payload("../not-a-key") is None
        payload = board.job_payload(job.id)
        assert payload["status"] == "done"
        assert payload["results"][unit.key] == result.to_dict()


class TestQueueLimit:
    def test_queue_full_raises_with_retry_hint(self):
        board = JobBoard(queue_limit=2)
        board.submit(_job("gcc", instructions=400))
        board.submit(_job("gcc", instructions=401))
        with pytest.raises(QueueFull) as excinfo:
            board.submit(_job("gcc", instructions=402))
        assert excinfo.value.retry_after >= 1.0

    def test_terminal_jobs_free_capacity(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(benchmark="gcc", n_instructions=400)
        store.put(config, execute_run_fast(config))
        board = JobBoard(engine=SimEngine(store=store), queue_limit=1)
        receipt = board.submit(_job("gcc"))  # done instantly from the store
        assert receipt.status == "done"
        board.submit(_job("gcc", instructions=401))  # capacity is free again


class TestCancellation:
    def test_cancel_queued_job(self):
        board = JobBoard()
        job = _job("gcc")
        board.submit(job)
        cancelled = board.cancel(job.id)
        assert cancelled.status == "cancelled"
        assert board.pending_units() == 0
        assert board.pop(timeout=0.05) is None

    def test_cancel_unknown_job(self):
        assert JobBoard().cancel("job-nope") is None

    def test_cancel_keeps_units_other_jobs_need(self):
        board = JobBoard()
        first = _job("gcc")
        second = _job("gcc")
        board.submit(first)
        board.submit(second)
        board.cancel(first.id)
        assert first.status == "cancelled"
        assert second.status == "queued"
        # The shared unit must survive for the second job.
        assert board.pending_units() == 1

    def test_release_units_requeues_waiting_jobs(self):
        board = JobBoard()
        job = _job("gcc")
        board.submit(job)
        popped = board.pop(timeout=0.1)
        (unit,) = board.claim(popped)
        board.release_units([unit.key])
        again = board.pop(timeout=0.1)
        assert again.id == job.id
        assert len(board.claim(again)) == 1


class TestRetention:
    def test_the_job_that_finished_last_is_pruned_last(self, monkeypatch):
        monkeypatch.setattr(queue, "RETENTION_JOBS", 2)
        board = JobBoard()
        waited = _job("gcc", instructions=400)
        board.submit(waited)
        early = _job("gcc", instructions=401)
        board.submit(early)
        board.cancel(early.id)  # finishes first, while `waited` queues
        (unit,) = board.claim(board.pop(timeout=0.1))
        board.complete_unit(unit.key)
        assert waited.finished_at >= early.finished_at

        board.submit(_job("gcc", instructions=402))  # one over retention
        # A client still polling the job that just finished must find it.
        assert board.get(waited.id) is waited
        assert board.get(early.id) is None
        assert board.job_payload(waited.id)["status"] == "done"


class TestFailure:
    def test_finished_hook_fires_for_every_terminal_job(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(benchmark="gcc", n_instructions=400)
        store.put(config, execute_run_fast(config))
        board = JobBoard(engine=SimEngine(store=store))
        seen = []
        board.on_job_finished = lambda job: seen.append((job.id, job.status))
        done = _job("gcc")
        board.submit(done)  # instant store hit
        cancelled = _job("gcc", instructions=999)
        board.submit(cancelled)
        board.cancel(cancelled.id)
        assert (done.id, "done") in seen
        assert (cancelled.id, "cancelled") in seen
