"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.cache.energy_accounting import EnergyLedger
from repro.cache.subarray import SubarrayTracker
from repro.circuits.bitline import Bitline
from repro.circuits.cacti import cache_organization
from repro.circuits.technology import get_technology
from repro.core import GatedPrechargePolicy, OraclePrechargePolicy
from repro.core.threshold import ThresholdProfile, select_threshold
from repro.cpu.branch_predictor import CombinationPredictor
from repro.experiments.report import format_table

from tests.conftest import make_attached

NODES = st.sampled_from([180, 130, 100, 70])


class TestCircuitProperties:
    @given(nm=NODES, rows=st.integers(min_value=1, max_value=512),
           idle_ns=st.floats(min_value=0.0, max_value=10_000.0))
    @settings(max_examples=60, deadline=None)
    def test_isolated_discharge_never_exceeds_static(self, nm, rows, idle_ns):
        bitline = Bitline(tech=get_technology(nm), rows=rows)
        idle_s = idle_ns * 1e-9
        assert (
            bitline.isolated_discharge_energy_j(idle_s)
            <= bitline.static_discharge_energy_j(idle_s) * (1 + 1e-9)
        )

    @given(nm=NODES, rows=st.integers(min_value=1, max_value=512))
    @settings(max_examples=40, deadline=None)
    def test_isolated_discharge_bounded_by_stored_energy(self, nm, rows):
        bitline = Bitline(tech=get_technology(nm), rows=rows)
        long_idle = 50 * bitline.decay_time_constant_s
        assert bitline.isolated_discharge_energy_j(long_idle) <= (
            bitline.stored_energy_j * 1.001
        )

    @given(nm=NODES, t_ns=st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=60, deadline=None)
    def test_isolated_bitline_voltage_within_rails(self, nm, t_ns):
        bitline = Bitline(tech=get_technology(nm), rows=64)
        voltage = bitline.voltage_after_isolation(t_ns * 1e-9)
        assert 0.0 <= voltage <= bitline.tech.supply_voltage + 1e-12


class TestLedgerProperties:
    @given(
        intervals=st.lists(
            st.tuples(st.integers(min_value=0, max_value=31),
                      st.integers(min_value=0, max_value=5_000),
                      st.booleans()),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_relative_discharge_never_exceeds_static_baseline(self, intervals):
        org = cache_organization(70, 32 * 1024, 32, 2, 1024, ports=2)
        ledger = EnergyLedger(org.subarray, org.n_subarrays)
        per_subarray_total = {}
        for subarray, cycles, precharged in intervals:
            if precharged:
                ledger.note_precharged_interval(subarray, cycles)
            else:
                ledger.note_isolated_interval(subarray, cycles)
            per_subarray_total[subarray] = per_subarray_total.get(subarray, 0) + cycles
        total_cycles = max(1, max(per_subarray_total.values()))
        breakdown = ledger.breakdown(total_cycles)
        # No residency assignment can dissipate more than blind static pull-up
        # over the same subarray-cycles (toggle overhead excluded here).
        assert breakdown.precharged_discharge_j + breakdown.isolated_discharge_j <= (
            org.subarray.static_discharge_energy_per_cycle_j
            * sum(per_subarray_total.values())
            * (1 + 1e-9)
        )
        assert 0.0 <= breakdown.precharged_fraction <= 1.0


class TestPolicyProperties:
    @given(
        accesses=st.lists(
            st.tuples(st.integers(min_value=0, max_value=31),
                      st.integers(min_value=0, max_value=200)),
            min_size=1, max_size=80,
        ),
        threshold=st.sampled_from([10, 100, 1000]),
    )
    @settings(max_examples=40, deadline=None)
    def test_gated_residency_covers_the_whole_run(self, accesses, threshold):
        """Precharged + isolated subarray-cycles always equals subarrays x run length."""
        policy, ledger = make_attached(GatedPrechargePolicy(threshold=threshold))
        cycle = 0
        for subarray, advance in accesses:
            cycle += advance
            policy.access(subarray, cycle)
        end_cycle = cycle + 10
        policy.finalize(end_cycle)
        breakdown = ledger.breakdown(end_cycle)
        covered = breakdown.precharged_subarray_cycles + ledger._isolated_cycles
        assert covered == pytest.approx(32 * end_cycle, rel=1e-9)

    @given(
        accesses=st.lists(
            st.tuples(st.integers(min_value=0, max_value=31),
                      st.integers(min_value=1, max_value=500)),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_oracle_never_delays_and_never_precharges_more_than_gated(self, accesses):
        oracle, oracle_ledger = make_attached(OraclePrechargePolicy())
        gated, gated_ledger = make_attached(GatedPrechargePolicy(threshold=100))
        cycle = 0
        for subarray, advance in accesses:
            cycle += advance
            assert oracle.access(subarray, cycle) == 0
            gated.access(subarray, cycle)
        end = cycle + 1
        oracle.finalize(end)
        gated.finalize(end)
        assert (
            oracle_ledger.breakdown(end).precharged_subarray_cycles
            <= gated_ledger.breakdown(end).precharged_subarray_cycles + 1e-9
        )


class TestThresholdProperties:
    @given(
        gaps=st.lists(st.integers(min_value=0, max_value=20_000), min_size=1,
                      max_size=300),
        budget=st.floats(min_value=0.001, max_value=0.2),
    )
    @settings(max_examples=50, deadline=None)
    def test_selected_threshold_is_admissible_or_most_conservative(self, gaps, budget):
        profile = ThresholdProfile(gaps=gaps, total_cycles=1_000_000)
        choice = select_threshold(profile, budget=budget)
        from repro.core.threshold import CANDIDATE_THRESHOLDS

        assert choice in CANDIDATE_THRESHOLDS
        if profile.estimated_slowdown(max(CANDIDATE_THRESHOLDS)) <= budget:
            assert profile.estimated_slowdown(choice) <= budget or (
                choice == max(CANDIDATE_THRESHOLDS)
            )

    @given(gaps=st.lists(st.integers(min_value=0, max_value=5000), min_size=1,
                         max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_slowdown_estimate_decreases_with_threshold(self, gaps):
        profile = ThresholdProfile(gaps=gaps, total_cycles=100_000)
        estimates = [profile.estimated_slowdown(t) for t in (10, 100, 1000)]
        assert estimates[0] >= estimates[1] >= estimates[2]


class TestMiscProperties:
    @given(
        outcomes=st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                                    st.booleans()), min_size=1, max_size=500)
    )
    @settings(max_examples=30, deadline=None)
    def test_branch_predictor_accuracy_is_well_defined(self, outcomes):
        predictor = CombinationPredictor()
        for pc_index, taken in outcomes:
            predictor.update(0x1000 + 4 * pc_index, taken)
        assert 0.0 <= predictor.stats.accuracy <= 1.0
        assert predictor.stats.predictions == len(outcomes)

    @given(
        cycles=st.lists(st.integers(min_value=0, max_value=100_000), min_size=2,
                        max_size=200)
    )
    @settings(max_examples=40, deadline=None)
    def test_tracker_cumulative_fraction_reaches_one(self, cycles):
        # A single subarray guarantees that every access after the first
        # records a gap, so the cumulative fraction must reach 1.0 for an
        # unboundedly large interval threshold.
        tracker = SubarrayTracker(1)
        for cycle in sorted(cycles):
            tracker.record_access(0, cycle)
        fractions = tracker.cumulative_access_fraction([10 ** 9])
        assert fractions[10 ** 9] == pytest.approx(1.0)

    @given(
        rows=st.lists(st.lists(st.integers(min_value=0, max_value=999), min_size=2,
                               max_size=2), min_size=1, max_size=10)
    )
    @settings(max_examples=30, deadline=None)
    def test_format_table_contains_every_cell(self, rows):
        text = format_table(["x", "y"], rows)
        for row in rows:
            for cell in row:
                assert str(cell) in text
