"""Tests for SimEngine: caching, persistence and parallel fan-out."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.core.registry import PolicySpec
from repro.sim import ResultStore, SimEngine, SimulationConfig
from repro.sim import engine as engine_module


def _tiny(benchmark="gcc", n=1_000, **kwargs):
    return SimulationConfig(benchmark=benchmark, n_instructions=n, **kwargs)


class TestEngineCache:
    def test_run_memoises(self):
        engine = SimEngine()
        first = engine.run(_tiny())
        assert engine.run(_tiny()) is first
        assert engine.stats["computed"] == 1
        assert engine.stats["memory_hits"] == 1

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_CACHED_RUNS", 3)
        engine = SimEngine()
        benchmarks = ["gcc", "mesa", "art", "equake", "vpr"]
        for name in benchmarks:
            engine.run(_tiny(name, n=600))
        assert len(engine) == 3
        assert engine.stats["computed"] == 5
        # The most recent runs survived; the oldest were evicted.
        cached = {r.benchmark for r in engine.cached_results()}
        assert cached == {"art", "equake", "vpr"}

    def test_clear_empties_cache(self):
        engine = SimEngine()
        engine.run(_tiny(n=600))
        assert len(engine) == 1
        engine.clear()
        assert len(engine) == 0

    def test_alias_specs_share_cache_and_canonical_label(self):
        engine = SimEngine()
        via_alias = engine.run(_tiny(dcache=PolicySpec("ondemand"), n=700))
        via_name = engine.run(_tiny(dcache=PolicySpec("on-demand"), n=700))
        assert via_name is via_alias
        assert via_alias.dcache_policy == "on-demand"

    def test_use_cache_false_bypasses(self):
        engine = SimEngine()
        first = engine.run(_tiny(n=600))
        (again,) = engine.run_many([_tiny(n=600)], use_cache=False)
        assert again is not first
        assert again == first

    def test_engine_is_always_truthy(self):
        assert SimEngine()
        assert len(SimEngine()) == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SimEngine(workers=0)


class TestParallelExecution:
    def test_parallel_sweep_matches_serial(self):
        """>= 8 configurations, workers > 1, bit-identical results."""
        base = _tiny(n=1_200, dcache=PolicySpec("gated", {"threshold": 50}))
        names = [
            "gcc", "mesa", "art", "equake", "mcf", "vpr", "treeadd", "health",
        ]
        serial = SimEngine(workers=1).sweep(base, benchmarks=names)
        parallel = SimEngine(workers=4).sweep(base, benchmarks=names)
        assert list(serial) == names == list(parallel)
        assert serial == parallel

    def test_run_many_preserves_order_and_dedupes(self):
        engine = SimEngine(workers=2)
        configs = [_tiny("gcc", n=700), _tiny("mesa", n=700), _tiny("gcc", n=700)]
        results = engine.run_many(configs)
        assert [r.benchmark for r in results] == ["gcc", "mesa", "gcc"]
        assert results[0] is results[2]
        assert engine.stats["computed"] == 2

    def test_run_many_uses_cache(self):
        engine = SimEngine()
        warm = engine.run(_tiny("gcc", n=700))
        results = engine.run_many([_tiny("gcc", n=700), _tiny("mesa", n=700)])
        assert results[0] is warm
        assert engine.stats["computed"] == 2

    def test_runs_are_deterministic_across_processes(self):
        """A fresh interpreter reproduces a run bit-for-bit.

        This is the property the on-disk store and parallel fan-out rely
        on; it once broke because workload seeding used the per-process
        randomised ``hash(str)``.
        """
        config = _tiny(n=800)
        local = SimEngine().run(config)
        script = (
            "import json;"
            "from repro.sim import SimEngine, SimulationConfig;"
            "cfg = SimulationConfig.from_dict(json.loads(%r));"
            "print(SimEngine().run(cfg).to_json())"
        ) % json.dumps(config.to_dict())
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ),
        ).stdout
        from repro.sim import RunResult

        assert RunResult.from_json(output) == local

    def test_sweep_carries_every_config_field(self):
        """sweep substitutes only the benchmark (dataclasses.replace)."""
        base = SimulationConfig(
            benchmark="gcc",
            dcache=PolicySpec("gated-predecode", {"threshold": 40}),
            icache=PolicySpec("gated", {"threshold": 60}),
            feature_size_nm=100,
            subarray_bytes=2048,
            n_instructions=900,
            seed=3,
        )
        results = SimEngine().sweep(base, benchmarks=["mesa", "art"])
        for name, run in results.items():
            assert run.benchmark == name
            assert run.dcache_policy == "gated-predecode"
            assert run.icache_policy == "gated"
            assert run.feature_size_nm == 100
            assert run.subarray_bytes == 2048


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        config = _tiny(n=800)
        assert store.get(config.cache_key()) is None
        engine = SimEngine(store=store)
        result = engine.run(config)
        assert store.get(config.cache_key()) == result
        assert [path.name for path in store.directory.glob("*.json")] == [
            f"{config.cache_key()}.json"
        ]

    def test_sweeps_resume_across_engines(self, tmp_path):
        store_dir = tmp_path / "results"
        first = SimEngine(store=ResultStore(store_dir))
        config = _tiny(n=800)
        result = first.run(config)

        # A fresh engine (fresh process in real use) resumes from disk.
        second = SimEngine(store=str(store_dir))
        resumed = second.run(config)
        assert resumed == result
        assert second.stats["memory_hits"] == 0
        assert second.stats["store_hits"] == 1
        assert second.stats["computed"] == 0

    def test_different_configs_have_different_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        a = _tiny(n=800)
        b = dataclasses.replace(a, seed=2)
        assert ResultStore.key_for(a) != ResultStore.key_for(b)

    def test_equivalent_specs_share_a_key(self, tmp_path):
        explicit = _tiny(dcache=PolicySpec("gated", {"threshold": 100}))
        implicit = _tiny(dcache=PolicySpec("gated"))
        assert ResultStore.key_for(explicit) == ResultStore.key_for(implicit)

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        config = _tiny(n=800)
        engine = SimEngine(store=store)
        engine.run(config)
        for path in store.directory.glob("*.json"):
            path.write_text("{truncated")
        fresh = SimEngine(store=store)
        assert fresh.run(config).cycles > 0
        assert fresh.stats["computed"] == 1

    def test_one_file_per_run(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = SimEngine(store=store)
        engine.run(_tiny("gcc", n=700))
        engine.run(_tiny("mesa", n=700))
        stored = [json.loads(path.read_text()) for path in tmp_path.glob("*.json")]
        assert {payload["result"]["benchmark"] for payload in stored} == {"gcc", "mesa"}


class TestL2AxisThroughEngine:
    """The L2 policy is a first-class sweep axis for the engine."""

    def test_l2_policies_memoise_separately(self):
        engine = SimEngine()
        static = engine.run(_tiny())
        gated = engine.run(_tiny(l2=PolicySpec("gated", {"threshold": 500})))
        assert engine.stats["computed"] == 2
        assert gated.l2_policy == "gated"
        assert static.l2_policy == "static"
        # An equivalent spec spelling reuses the gated entry.
        again = engine.run(_tiny(l2=PolicySpec("gated", (("threshold", 500),))))
        assert engine.stats["computed"] == 2
        assert again is gated

    def test_sweep_carries_the_l2_spec(self):
        engine = SimEngine(fast=True)
        base = _tiny(l2=PolicySpec("gated", {"threshold": 500}))
        results = engine.sweep(base, benchmarks=["gcc", "treeadd"])
        assert all(run.l2_policy == "gated" for run in results.values())
        assert all(run.energy.l2 is not None for run in results.values())

    def test_store_resumes_l2_runs(self, tmp_path):
        config = _tiny(l2=PolicySpec("gated", {"threshold": 500}))
        first = SimEngine(store=str(tmp_path)).run(config)
        resumed_engine = SimEngine(store=str(tmp_path))
        resumed = resumed_engine.run(config)
        assert resumed_engine.stats["computed"] == 0
        assert resumed.to_dict() == first.to_dict()
