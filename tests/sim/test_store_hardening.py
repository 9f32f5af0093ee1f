"""Store integrity: verify-on-read, quarantine, legacy entries, torn writes."""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_run_fast
from repro.sim.store import ResultStore, _payload_digest


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def _config(benchmark="gcc", instructions=400):
    return SimulationConfig(benchmark=benchmark, n_instructions=instructions, seed=1)


def _populate(tmp_path):
    store = ResultStore(tmp_path / "store")
    config = _config()
    result = execute_run_fast(config)
    store.put(config, result)
    return store, config, result


class TestVerifyOnRead:
    def test_truncated_json_is_a_miss_not_a_traceback(self, tmp_path):
        store, config, _ = _populate(tmp_path)
        path = store._key_path(config.cache_key())
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        # A torn entry reads as a cache miss...
        assert store.get(config.cache_key()) is None
        assert store.stats["corrupt_entries"] == 1
        # ...and is quarantined out of the store's namespace, with the
        # bytes kept beside it for the post-mortem.
        assert not path.exists()
        sidecar = path.with_name(path.name + ".corrupt")
        assert sidecar.exists()
        assert sidecar.read_text(encoding="utf-8") == text[: len(text) // 2]

    def test_digest_mismatch_is_quarantined(self, tmp_path):
        store, config, _ = _populate(tmp_path)
        path = store._key_path(config.cache_key())
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["config"]["seed"] = 999  # bit-rot: content no longer matches digest
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(config.cache_key()) is None
        assert store.stats["corrupt_entries"] == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_quarantined_entry_is_invisible_to_iteration(self, tmp_path):
        store, config, _ = _populate(tmp_path)
        path = store._key_path(config.cache_key())
        path.write_text("{not json", encoding="utf-8")
        assert store.get(config.cache_key()) is None
        # The .corrupt sidecar escapes the *.json namespace entirely.
        assert list(store.directory.glob("*.json")) == []

    def test_recompute_after_quarantine_round_trips(self, tmp_path):
        store, config, result = _populate(tmp_path)
        path = store._key_path(config.cache_key())
        path.write_text("garbage", encoding="utf-8")
        assert store.get(config.cache_key()) is None
        store.put(config, result)  # the engine would recompute and re-put
        fetched = store.get(config.cache_key())
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()

    def test_legacy_entry_without_digest_still_reads(self, tmp_path):
        # Entries written before digests existed must stay readable.
        store, config, result = _populate(tmp_path)
        path = store._key_path(config.cache_key())
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["sha256"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        fetched = store.get(config.cache_key())
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        assert store.stats["corrupt_entries"] == 0

    def test_digest_covers_the_whole_payload(self, tmp_path):
        store, config, _ = _populate(tmp_path)
        payload = store.get_payload(config.cache_key())
        digest = payload.pop("sha256")
        assert digest == _payload_digest(payload)


class TestInjectedWriteFaults:
    def test_torn_put_quarantines_on_next_read(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = _config()
        result = execute_run_fast(config)
        faults.install("store.put=torn:n=1")
        store.put(config, result)
        faults.clear()
        assert store.get(config.cache_key()) is None
        assert store.stats["corrupt_entries"] == 1
        # The slot is clean again: a retried put fully recovers.
        store.put(config, result)
        assert store.get(config.cache_key()).to_dict() == result.to_dict()

    def test_corrupt_put_fails_digest_verification(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = _config()
        result = execute_run_fast(config)
        faults.install("store.put=corrupt:n=1")
        store.put(config, result)
        faults.clear()
        assert store.get(config.cache_key()) is None
        assert store.stats["corrupt_entries"] == 1

    def test_error_put_raises_oserror(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = _config()
        result = execute_run_fast(config)
        faults.install("store.put=error:n=1")
        with pytest.raises(OSError):
            store.put(config, result)
        faults.clear()
        assert store.get(config.cache_key()) is None  # nothing half-written

    def test_injected_get_error_is_a_miss(self, tmp_path):
        store, config, result = _populate(tmp_path)
        faults.install("store.get=error:n=1")
        assert store.get(config.cache_key()) is None  # fault: read fails → miss
        assert store.get(config.cache_key()) is not None  # next read is clean
        assert store.stats["corrupt_entries"] == 0  # no quarantine: I/O, not rot
