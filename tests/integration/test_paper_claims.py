"""Integration tests checking the paper's qualitative claims end to end.

These use short runs on a subset of benchmarks, so they verify the *shape*
of the published results (who wins, in which direction, roughly by how
much), not the exact percentages — those are pinned by the golden
snapshots in tests/experiments/goldens/, which ``python -m repro
regen-goldens`` writes and CI diffs.
"""

import pytest

from repro.sim import SimulationConfig, slowdown

N_INSTRUCTIONS = 6_000
BENCH = "gcc"


@pytest.fixture()
def run(engine):
    """Run one configuration, named by its L1 policies, on the session engine."""

    def run_policies(dcache, icache, **kwargs):
        config = SimulationConfig(
            benchmark=kwargs.pop("benchmark", BENCH),
            dcache=dcache,
            icache=icache,
            feature_size_nm=kwargs.pop("feature_size_nm", 70),
            n_instructions=kwargs.pop("n_instructions", N_INSTRUCTIONS),
            **kwargs,
        )
        return engine.run(config)

    return run_policies


class TestClaimOraclePotential:
    """Section 4: bitline isolation can remove the vast majority of discharge."""

    def test_oracle_removes_most_discharge_at_70nm(self, run, small_baseline_run):
        oracle = run("oracle", "oracle")
        assert oracle.energy.dcache_discharge_savings > 0.7
        assert oracle.energy.icache_discharge_savings > 0.8

    def test_oracle_has_no_performance_cost(self, run, small_baseline_run):
        oracle = run("oracle", "oracle")
        assert abs(slowdown(oracle, small_baseline_run)) < 0.01


class TestClaimOnDemandNotViable:
    """Section 5: on-demand precharging delays accesses and costs performance."""

    def test_on_demand_slower_than_baseline(self, run, small_baseline_run):
        ondemand = run("on-demand", "on-demand")
        assert slowdown(ondemand, small_baseline_run) > 0.005

    def test_on_demand_delays_every_cache_access(self, run):
        ondemand = run("on-demand", "static")
        assert ondemand.dcache_delayed_accesses == ondemand.dcache_accesses


class TestClaimGatedNearOptimal:
    """Section 6: gated precharging captures most of the potential at ~1% cost."""

    def test_gated_close_to_oracle_savings(self, run, small_gated_run):
        oracle = run("oracle", "oracle")
        gated_savings = small_gated_run.energy.icache_discharge_savings
        oracle_savings = oracle.energy.icache_discharge_savings
        assert gated_savings > 0.75 * oracle_savings

    def test_gated_slowdown_stays_small(self, small_baseline_run, small_gated_run):
        assert slowdown(small_gated_run, small_baseline_run) < 0.03

    def test_gated_delays_far_fewer_accesses_than_on_demand(self, run, small_gated_run):
        ondemand = run("on-demand", "static")
        assert small_gated_run.dcache_delayed_accesses < 0.2 * ondemand.dcache_delayed_accesses

    def test_gated_keeps_only_a_few_subarrays_precharged(self, small_gated_run):
        assert small_gated_run.energy.dcache.precharged_fraction < 0.35
        assert small_gated_run.energy.icache.precharged_fraction < 0.15

    def test_instruction_cache_saves_more_than_data_cache(self, small_gated_run):
        """Instruction streams have more stable footprints (Section 6.4)."""
        assert (
            small_gated_run.energy.icache_relative_discharge
            < small_gated_run.energy.dcache_relative_discharge
        )


class TestClaimTechnologyScaling:
    """Figures 2 and 9: isolation only becomes worthwhile in nanoscale nodes."""

    def test_gated_savings_improve_from_180nm_to_70nm(self, run):
        old = run("gated-predecode", "gated", feature_size_nm=180)
        new = run("gated-predecode", "gated", feature_size_nm=70)
        assert new.energy.dcache_relative_discharge < old.energy.dcache_relative_discharge

    def test_gated_beats_resizable_at_70nm(self, run):
        gated = run("gated-predecode", "gated")
        resizable = run("resizable", "resizable")
        assert (
            gated.energy.dcache_relative_discharge
            < resizable.energy.dcache_relative_discharge
        )
        assert (
            gated.energy.icache_relative_discharge
            < resizable.energy.icache_relative_discharge
        )


class TestClaimHighMissOutliers:
    """ammp/art/health thrash the L1, so aggressive isolation costs them little."""

    def test_art_has_much_higher_miss_ratio_than_mesa(self, run):
        # Short runs are dominated by compulsory misses for both programs, so
        # the gap here is smaller than in steady state; art must still miss
        # clearly more often and at an outright high rate.
        art = run("static", "static", benchmark="art", n_instructions=4_000)
        mesa = run("static", "static", benchmark="mesa", n_instructions=4_000)
        assert art.dcache_miss_ratio > 1.3 * mesa.dcache_miss_ratio
        assert art.dcache_miss_ratio > 0.4

    def test_gated_still_safe_on_a_thrashing_benchmark(self, run):
        baseline = run("static", "static", benchmark="art", n_instructions=4_000)
        gated = run("gated-predecode", "gated", benchmark="art", n_instructions=4_000)
        assert slowdown(gated, baseline) < 0.03
        assert gated.energy.dcache_discharge_savings > 0.5
