"""JSON round-trip tests for configs, stats, energy reports and results."""

import json

from repro.core.registry import PolicySpec
from repro.cpu.pipeline import PipelineConfig
from repro.cpu.stats import PipelineStats
from repro.energy.cache_energy import CacheEnergyReport
from repro.sim import RunResult, SimulationConfig


class TestRunResultRoundTrip:
    def test_json_round_trip_is_exact(self, small_baseline_run):
        text = small_baseline_run.to_json()
        rebuilt = RunResult.from_json(text)
        assert rebuilt == small_baseline_run
        # And the dict form is stable across a second cycle.
        assert rebuilt.to_dict() == small_baseline_run.to_dict()

    def test_gated_run_round_trip(self, small_gated_run):
        rebuilt = RunResult.from_dict(
            json.loads(json.dumps(small_gated_run.to_dict()))
        )
        assert rebuilt == small_gated_run
        assert rebuilt.energy.dcache_relative_discharge == (
            small_gated_run.energy.dcache_relative_discharge
        )

    def test_derived_metrics_survive(self, small_baseline_run):
        rebuilt = RunResult.from_json(small_baseline_run.to_json())
        assert rebuilt.ipc == small_baseline_run.ipc
        assert rebuilt.summary() == small_baseline_run.summary()


class TestComponentRoundTrips:
    def test_pipeline_stats(self):
        stats = PipelineStats(cycles=10, committed_instructions=7, branches=2)
        assert PipelineStats.from_dict(json.loads(json.dumps(stats.to_dict()))) == stats

    def test_energy_report(self, small_gated_run):
        report = small_gated_run.energy
        rebuilt = CacheEnergyReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert rebuilt == report
        assert rebuilt.processor is not None

    def test_energy_report_without_processor(self, small_gated_run):
        report = CacheEnergyReport(
            dcache=small_gated_run.energy.dcache,
            icache=small_gated_run.energy.icache,
        )
        rebuilt = CacheEnergyReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert rebuilt == report
        assert rebuilt.processor is None


class TestConfigRoundTrip:
    def test_default_config(self):
        config = SimulationConfig()
        rebuilt = SimulationConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_full_config(self):
        config = SimulationConfig(
            benchmark="art",
            dcache=PolicySpec("gated-predecode", {"threshold": 30}),
            icache=PolicySpec("gated", {"threshold": 70}),
            feature_size_nm=100,
            subarray_bytes=4096,
            n_instructions=12_345,
            seed=9,
            pipeline=PipelineConfig(width=4, rob_entries=64),
            l2=PolicySpec("gated", {"threshold": 500}),
            l2_subarray_bytes=8192,
        )
        rebuilt = SimulationConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.cache_key() == config.cache_key()


class TestL2BackwardCompatibility:
    """Pre-L2 payloads and keys stay valid after the L2 became policy-capable."""

    def test_default_l2_is_omitted_from_serialised_config(self):
        data = SimulationConfig().to_dict()
        assert "l2" not in data and "l2_subarray_bytes" not in data

    def test_non_default_l2_is_serialised(self):
        data = SimulationConfig(l2="gated").to_dict()
        assert data["l2"] == {"name": "gated", "params": {}}

    def test_legacy_config_payload_loads_with_static_l2(self):
        data = SimulationConfig().to_dict()
        data.pop("l2", None)
        config = SimulationConfig.from_dict(data)
        assert config.l2.name == "static"
        assert config.l2_subarray_bytes is None

    def test_explicit_static_l2_shares_the_legacy_cache_key(self):
        assert (
            SimulationConfig(l2="static").cache_key()
            == SimulationConfig().cache_key()
        )
        assert (
            SimulationConfig(l2="gated").cache_key()
            != SimulationConfig().cache_key()
        )

    def test_store_digest_unchanged_for_default_l2(self):
        # The digest every store has used for the default configuration.
        assert SimulationConfig(l2="static").cache_key() == "f20c5fba27c352e0186dc467a7dbb08f"

    def test_legacy_run_result_payload_loads_with_defaults(self, small_baseline_run):
        data = small_baseline_run.to_dict()
        for key in list(data):
            if key.startswith("l2_"):
                del data[key]
        data["energy"] = dict(data["energy"])
        data["energy"].pop("l2", None)
        rebuilt = RunResult.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.l2_policy == "static"
        assert rebuilt.l2_accesses == 0
        assert rebuilt.l2_gaps == []
        assert rebuilt.energy.l2 is None
        assert rebuilt.energy.l2_relative_discharge == 1.0

    def test_l2_fields_round_trip_exactly(self, engine):
        config = SimulationConfig(
            benchmark="gcc",
            l2=PolicySpec("gated", {"threshold": 500}),
            n_instructions=3_000,
        )
        result = engine.run(config)
        rebuilt = RunResult.from_json(result.to_json())
        assert rebuilt == result
        assert rebuilt.l2_policy == "gated"
        assert rebuilt.energy.l2 is not None
        assert rebuilt.l2_accesses > 0
