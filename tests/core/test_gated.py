"""Tests for gated precharging, its decay-counter model and predecoding."""

import pytest

from repro.circuits.cacti import cache_organization
from repro.core import CANDIDATE_THRESHOLDS, GatedPrechargePolicy, Predecoder

from tests.conftest import make_attached


class TestGatedCounterBank:
    """The Figure 7 counter bank, counted directly from last accesses."""

    def test_bank_matches_lazy_evaluation(self):
        policy, _ = make_attached(GatedPrechargePolicy(threshold=100))
        for subarray, cycle in [(0, 10), (1, 40), (0, 90), (2, 120)]:
            policy.access(subarray, cycle)
        n_subarrays = policy.organization.n_subarrays
        probes = (0, 50, 120, 189, 190, 250, 5_000)
        for probe in probes:
            expected = [
                policy._is_precharged(index, probe)
                for index in range(n_subarrays)
            ]
            assert policy.precharged_subarrays(probe) == sum(expected)
        # Hot sets by hand: all until cycle 100, then {0, 1, 2}, {0, 2},
        # {2}, and none once subarray 2 has idled 100 cycles.
        assert [policy.precharged_subarrays(probe) for probe in probes] == [
            n_subarrays, n_subarrays, 3, 2, 1, 0, 0
        ]

    def test_bank_widens_for_large_thresholds(self):
        policy, _ = make_attached(GatedPrechargePolicy(threshold=5_000))
        policy.access(0, 0)
        n_subarrays = policy.organization.n_subarrays
        assert policy.precharged_subarrays(4_999) == n_subarrays
        assert policy.precharged_subarrays(5_000) == 0

    def test_ten_bits_are_enough_for_paper_thresholds(self):
        # The paper's thresholds are on the order of 10-1000, so a
        # 10-bit decay counter represents every candidate.
        assert max(CANDIDATE_THRESHOLDS) < 1 << 10


class TestGatedPolicy:
    def test_hot_subarray_not_delayed(self):
        policy, _ = make_attached(GatedPrechargePolicy(threshold=100))
        policy.access(0, 0)
        assert policy.access(0, 50) == 0
        assert policy.stats.delayed_accesses == 0

    def test_cold_subarray_pays_pull_up(self):
        policy, _ = make_attached(GatedPrechargePolicy(threshold=100))
        policy.access(0, 0)
        assert policy.access(0, 500) >= 1
        assert policy.misprediction_rate == pytest.approx(0.5)

    def test_gap_equal_to_threshold_stays_hot(self):
        policy, _ = make_attached(GatedPrechargePolicy(threshold=100))
        policy.access(0, 0)
        assert policy.access(0, 100) == 0

    def test_smaller_threshold_isolates_more(self):
        aggressive, ledger_a = make_attached(GatedPrechargePolicy(threshold=10))
        conservative, ledger_c = make_attached(GatedPrechargePolicy(threshold=1000))
        for cycle in range(0, 50_000, 200):
            subarray = (cycle // 200) % 4
            aggressive.access(subarray, cycle)
            conservative.access(subarray, cycle)
        aggressive.finalize(50_000)
        conservative.finalize(50_000)
        a = ledger_a.breakdown(50_000)
        c = ledger_c.breakdown(50_000)
        assert a.precharged_fraction < c.precharged_fraction
        assert a.relative_discharge < c.relative_discharge

    def test_hot_subarrays_stay_precharged_between_accesses(self):
        """The key difference to the oracle: no toggle within the threshold."""
        policy, ledger = make_attached(GatedPrechargePolicy(threshold=100))
        for cycle in range(0, 1000, 50):
            policy.access(0, cycle)
        assert policy.stats.toggles == 0  # never idle long enough to isolate
        policy.finalize(1001)
        breakdown = ledger.breakdown(1001)
        # Subarray 0 stayed precharged essentially the whole run.
        assert breakdown.precharged_subarray_cycles >= 900

    def test_precharged_subarrays_snapshot(self):
        policy, _ = make_attached(GatedPrechargePolicy(threshold=100))
        policy.access(0, 1000)
        policy.access(5, 1000)
        assert policy.precharged_subarrays(1050) == 2
        assert policy.precharged_subarrays(5000) == 0

    def test_never_accessed_subarrays_isolated_after_threshold(self):
        policy, ledger = make_attached(GatedPrechargePolicy(threshold=100))
        policy.finalize(10_000)
        breakdown = ledger.breakdown(10_000)
        assert breakdown.precharged_fraction == pytest.approx(0.01, abs=0.01)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GatedPrechargePolicy(threshold=0)
        with pytest.raises(ValueError):
            GatedPrechargePolicy(threshold=100, predecode_lead_cycles=0)


class TestPredecode:
    def test_correct_prediction_when_base_in_same_subarray(self, l1_org):
        predecoder = Predecoder(l1_org)
        address = 0x1000_0100
        base = address - 16
        actual = l1_org.subarray_for_address(address)
        assert predecoder.predicts_correctly(base, actual)
        assert predecoder.stats.accuracy == 1.0

    def test_wrong_prediction_when_displacement_crosses_subarray(self, l1_org):
        predecoder = Predecoder(l1_org)
        address = 0x1000_0000
        base = address - 1000  # crosses into a different subarray
        actual = l1_org.subarray_for_address(address)
        assert not predecoder.predicts_correctly(base, actual)
        assert predecoder.stats.accuracy == 0.0

    def test_no_prediction_without_base_register(self, l1_org):
        predecoder = Predecoder(l1_org)
        assert not predecoder.predicts_correctly(None, 0)
        assert predecoder.stats.attempts == 0

    def test_gated_with_predecode_hides_some_penalties(self, l1_org):
        with_predecode, _ = make_attached(
            GatedPrechargePolicy(threshold=50, use_predecode=True), l1_org
        )
        without, _ = make_attached(GatedPrechargePolicy(threshold=50), l1_org)
        # Access a cold subarray with a base address in the same subarray:
        # predecoding identifies it early and hides the penalty.
        address = 0x0
        subarray = l1_org.subarray_for_address(address)
        with_predecode.access(subarray, 10_000, base_address=address, address=address)
        without.access(subarray, 10_000, base_address=address, address=address)
        assert with_predecode.stats.delayed_accesses == 0
        assert without.stats.delayed_accesses == 1
        assert with_predecode.stats.predecode_hits == 1

    def test_gated_predecode_miss_still_pays_penalty(self, l1_org):
        policy, _ = make_attached(
            GatedPrechargePolicy(threshold=50, use_predecode=True), l1_org
        )
        address = 0x0
        subarray = l1_org.subarray_for_address(address)
        far_base = address + 1000  # maps to a different subarray
        assert l1_org.subarray_for_address(far_base) != subarray
        penalty = policy.access(subarray, 10_000, base_address=far_base, address=address)
        assert penalty >= 1
