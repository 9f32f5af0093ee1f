"""Engine recovery under injected faults: crashes, raises, store errors."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import faults
from repro.sim import engine as engine_module
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine, execute_run_fast


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def _configs(benchmarks=("gcc", "art", "mcf", "equake"), instructions=400):
    return [
        SimulationConfig(benchmark=name, n_instructions=instructions, seed=1)
        for name in benchmarks
    ]


def _baseline(configs):
    return [execute_run_fast(config).to_dict() for config in configs]


class TestWorkerCrashRecovery:
    def test_worker_crash_rebuilds_pool_and_finishes_identically(self, tmp_path):
        configs = _configs()
        expected = _baseline(configs)
        engine = SimEngine(workers=2, fast=True, store=tmp_path / "store")
        try:
            faults.install("seed=3;engine.chunk=crash:p=1.0,max=2")
            results = engine.run_many(configs)
        finally:
            faults.clear()
            engine.close()
        assert [r.to_dict() for r in results] == expected
        assert engine.stats["pool_rebuilds"] >= 1
        assert engine.stats["computed"] == len(configs)

    def test_task_exception_retries_chunk_and_finishes_identically(self, tmp_path):
        configs = _configs()
        expected = _baseline(configs)
        engine = SimEngine(workers=2, fast=True, store=tmp_path / "store")
        try:
            faults.install("seed=3;engine.chunk=raise:p=0.5,max=3")
            results = engine.run_many(configs)
        finally:
            faults.clear()
            engine.close()
        assert [r.to_dict() for r in results] == expected
        assert engine.stats["chunk_retries"] >= 1

    def test_certain_crash_falls_back_to_serial_execution(self, tmp_path, monkeypatch):
        # With the failpoint firing on every worker-side chunk, the pool
        # can never make progress; the engine must exhaust its bounded
        # retries and still complete via the in-process serial fallback.
        monkeypatch.setattr(engine_module, "CHUNK_RETRIES", 1)
        configs = _configs(("gcc", "art"))
        expected = _baseline(configs)
        engine = SimEngine(workers=2, fast=True, store=tmp_path / "store")
        try:
            faults.install("engine.chunk=crash")  # p=1, uncapped
            results = engine.run_many(configs)
        finally:
            faults.clear()
            engine.close()
        assert [r.to_dict() for r in results] == expected

    def test_pool_broken_while_submitting_is_recovered(self, monkeypatch):
        # A worker that dies while chunks are still being submitted makes
        # the next submit raise BrokenProcessPool; that must take the
        # rebuild-and-requeue path, not escape run_many.
        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            submits = 0

            def submit(self, *args, **kwargs):
                type(self).submits += 1
                if type(self).submits == 2:
                    raise BrokenProcessPool("a worker died mid-submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        configs = _configs()
        expected = _baseline(configs)
        engine = SimEngine(workers=2, fast=True)
        try:
            results = engine.run_many(configs)
        finally:
            engine.close()
        assert [r.to_dict() for r in results] == expected
        assert engine.stats["pool_rebuilds"] >= 1
        assert BreaksOnSecondSubmit.submits > len(configs)  # requeued


class TestStoreFaultTolerance:
    def test_store_put_errors_do_not_fail_the_run(self, tmp_path):
        configs = _configs(("gcc", "art"))
        expected = _baseline(configs)
        engine = SimEngine(workers=1, fast=True, store=tmp_path / "store")
        try:
            faults.install("store.put=error")  # every write-back fails
            results = engine.run_many(configs)
        finally:
            faults.clear()
            engine.close()
        # Results still come back correct; only persistence was lost.
        assert [r.to_dict() for r in results] == expected
        assert engine.stats["store_put_errors"] >= 1
