"""ResultStore under concurrent writers (two processes, one directory).

The store's contract is per-key atomic publication: a reader may see a
missing entry but never partial JSON, even while several processes
write overlapping keys as fast as they can.
"""

from __future__ import annotations

import json
import multiprocessing
import sys

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_run_fast
from repro.sim.store import ResultStore

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="fork start method required"
)


def _configs():
    return [
        SimulationConfig(benchmark=name, n_instructions=250, seed=seed)
        for name in ("gcc", "art")
        for seed in (1, 2)
    ]


def _hammer(directory, rounds, barrier, failures):
    """Worker: interleave puts and gets of the same keys as fast as possible."""
    store = ResultStore(directory)
    configs = _configs()
    results = [execute_run_fast(config) for config in configs]
    barrier.wait()
    for round_number in range(rounds):
        for config, result in zip(configs, results):
            store.put(config, result)
            read = store.get(config.cache_key())
            # None (not yet published) is legal; a *different* payload —
            # which would mean interleaved/partial JSON parsed "fine" —
            # is not: both processes write identical deterministic results.
            if read is not None and read.to_dict() != result.to_dict():
                failures.put(
                    f"round {round_number}: corrupt read for {config.benchmark}"
                )
                return
    failures.put(None)


class TestConcurrentWriters:
    def test_two_processes_hammering_one_store(self, tmp_path):
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        failures = context.Queue()
        workers = [
            context.Process(
                target=_hammer, args=(tmp_path / "store", 60, barrier, failures)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        outcomes = [failures.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
        assert outcomes == [None, None]

        # Every surviving file parses as complete payload JSON.
        store = ResultStore(tmp_path / "store")
        keys = sorted(path.stem for path in store.directory.glob("*.json"))
        assert keys == sorted(config.cache_key() for config in _configs())
        for key in keys:
            payload = store.get_payload(key)
            assert payload is not None
            assert set(payload) == {"config", "result", "sha256"}
            assert store.get(key) is not None

    def test_no_leftover_temp_files(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(benchmark="gcc", n_instructions=250)
        result = execute_run_fast(config)
        for _ in range(5):
            store.put(config, result)
        leftovers = list((tmp_path / "store").glob("*.tmp"))
        assert leftovers == []


class TestKeyAddressedAccess:
    def test_get_by_key_and_payload(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(benchmark="gcc", n_instructions=250)
        result = execute_run_fast(config)
        store.put(config, result)
        key = config.cache_key()
        assert [path.stem for path in store.directory.glob("*.json")] == [key]
        assert store.get(key).to_dict() == result.to_dict()
        payload = store.get_payload(key)
        assert payload["result"] == result.to_dict()
        assert SimulationConfig.from_dict(payload["config"]).cache_key() == (
            config.cache_key()
        )

    def test_malformed_key_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.get_payload("../../etc/passwd")
        with pytest.raises(ValueError):
            store.get_payload("")

    def test_truncated_entry_reads_as_missing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(benchmark="gcc", n_instructions=250)
        store.put(config, execute_run_fast(config))
        key = config.cache_key()
        path = tmp_path / "store" / f"{key}.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None
