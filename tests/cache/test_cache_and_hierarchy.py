"""Tests for the set-associative cache and the memory hierarchy."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import HierarchyConfig, MainMemory, MemoryHierarchy
from repro.circuits.cacti import cache_organization
from repro.core import GatedPrechargePolicy, OnDemandPrechargePolicy, StaticPullUpPolicy


def make_cache(**kwargs):
    org = cache_organization(70, 32 * 1024, 32, 2, 1024, ports=2)
    defaults = dict(organization=org, name="L1D", miss_latency=12, base_latency=3)
    defaults.update(kwargs)
    return SetAssociativeCache(**defaults)


class TestBasicCaching:
    def test_miss_then_hit_on_same_line(self):
        cache = make_cache()
        first = cache.access(0x1000, cycle=0)
        second = cache.access(0x1004, cycle=10)
        assert not first.hit and second.hit
        assert cache.accesses == 2 and cache.hits == 1 and cache.misses == 1

    def test_miss_latency_added(self):
        cache = make_cache()
        miss = cache.access(0x2000, cycle=0)
        hit = cache.access(0x2000, cycle=5)
        assert miss.latency == cache.base_latency + cache.miss_latency
        assert hit.latency == cache.base_latency

    def test_associativity_keeps_two_conflicting_lines(self):
        cache = make_cache()
        n_sets = cache.organization.n_sets
        line = cache.organization.line_bytes
        a, b = 0x10000, 0x10000 + n_sets * line
        cache.access(a, cycle=0)
        cache.access(b, cycle=1)
        assert cache.access(a, cycle=2).hit
        assert cache.access(b, cycle=3).hit

    def test_third_conflicting_line_evicts_lru(self):
        cache = make_cache()
        n_sets = cache.organization.n_sets
        line = cache.organization.line_bytes
        addresses = [0x10000 + i * n_sets * line for i in range(3)]
        for cycle, address in enumerate(addresses):
            cache.access(address, cycle=cycle)
        # The oldest (first) line was evicted by the third.
        assert not cache.access(addresses[0], cycle=10).hit

    def test_dirty_eviction_counts_writeback(self):
        cache = make_cache()
        n_sets = cache.organization.n_sets
        line = cache.organization.line_bytes
        base = 0x40000
        cache.access(base, cycle=0, write=True)
        cache.access(base + n_sets * line, cycle=1)
        result = cache.access(base + 2 * n_sets * line, cycle=2)
        assert result.writeback
        assert cache.writebacks == 1

    def test_miss_ratio(self):
        cache = make_cache()
        for i in range(8):
            cache.access(0x5000 + i * 4, cycle=i)
        assert cache.miss_ratio == pytest.approx(1 / 8)

    def test_secondary_miss_inside_the_fill_window_merges(self):
        # Two conflicting lines evict the first while its fill is still
        # outstanding (12 cycles); missing on it again merges into that
        # MSHR entry instead of allocating a second one.
        cache = make_cache()
        n_sets = cache.organization.n_sets
        line = cache.organization.line_bytes
        first, second, third = (0x10000 + i * n_sets * line for i in range(3))
        cache.access(first, cycle=0)
        cache.access(second, cycle=1)
        cache.access(third, cycle=2)
        again = cache.access(first, cycle=3)
        assert not again.hit
        assert again.latency == cache.base_latency + 12 - 3
        assert cache.mshrs.merged_misses == 1
        assert cache.mshrs.outstanding(cache.line_address(first)).merged_requests == 2

    def test_accesses_map_to_expected_subarray(self):
        cache = make_cache()
        result = cache.access(0x0, cycle=0)
        assert result.subarray == cache.organization.subarray_for_address(0x0)


class TestPrechargeIntegration:
    def test_static_controller_never_delays(self):
        cache = make_cache(controller=StaticPullUpPolicy())
        for i in range(50):
            result = cache.access(0x1000 + 64 * i, cycle=i * 3)
            assert result.precharge_penalty == 0
        assert cache.precharge_penalties == 0

    def test_on_demand_delays_every_access(self):
        cache = make_cache(controller=OnDemandPrechargePolicy())
        for i in range(10):
            result = cache.access(0x1000, cycle=i * 5)
            assert result.precharge_penalty >= 1
        assert cache.precharge_penalties == 10

    def test_gated_delays_only_after_long_idle(self):
        cache = make_cache(controller=GatedPrechargePolicy(threshold=100))
        warm = cache.access(0x1000, cycle=0)
        soon = cache.access(0x1000, cycle=50)
        late = cache.access(0x1000, cycle=500)
        assert soon.precharge_penalty == 0
        assert late.precharge_penalty >= 1

    def test_finalize_produces_energy_breakdown(self):
        cache = make_cache(controller=GatedPrechargePolicy(threshold=100))
        for i in range(100):
            cache.access(0x1000 + 32 * (i % 16), cycle=i * 7)
        breakdown = cache.finalize(end_cycle=1000)
        assert 0.0 < breakdown.relative_discharge <= 1.0
        assert 0.0 < breakdown.precharged_fraction <= 1.0

    def test_default_controller_is_static_pull_up(self):
        cache = make_cache()
        breakdown = cache.finalize(end_cycle=100)
        assert breakdown.relative_discharge == pytest.approx(1.0)


class TestMainMemoryAndHierarchy:
    def test_memory_line_fill_latency_matches_table2(self):
        memory = MainMemory(base_latency=100, cycles_per_8_bytes=4, line_bytes=32)
        assert memory.line_fill_latency == 100 + 4 * 4

    def test_hierarchy_uses_table2_latencies(self):
        hierarchy = MemoryHierarchy()
        assert hierarchy.l1i.base_latency == 2
        assert hierarchy.l1d.base_latency == 3
        assert hierarchy.l2.base_latency == 12

    def test_l1_miss_goes_to_l2_then_memory(self):
        hierarchy = MemoryHierarchy()
        cold = hierarchy.load(0x8000_0000, cycle=0)
        assert not cold.hit
        # A cold L1 miss also misses in L2 and pays the memory latency.
        assert cold.latency >= hierarchy.memory.line_fill_latency
        warm = hierarchy.load(0x8000_0000, cycle=500)
        assert warm.hit and warm.latency == hierarchy.l1d.base_latency

    def test_l2_hit_is_cheaper_than_memory(self):
        hierarchy = MemoryHierarchy()
        address = 0x9000_0000
        hierarchy.load(address, cycle=0)
        # Evict from L1 by filling its set with conflicting lines.
        n_sets = hierarchy.l1d.organization.n_sets
        line = hierarchy.l1d.organization.line_bytes
        for i in range(1, 3):
            hierarchy.load(address + i * n_sets * line, cycle=i * 10)
        again = hierarchy.load(address, cycle=1000)
        assert not again.hit
        assert again.latency < hierarchy.memory.line_fill_latency

    def test_instruction_and_data_paths_are_separate_caches(self):
        hierarchy = MemoryHierarchy()
        hierarchy.fetch_instruction(0x400000, cycle=0)
        hierarchy.load(0x400000, cycle=1)
        assert hierarchy.l1i.accesses == 1
        assert hierarchy.l1d.accesses == 1

    def test_finalize_returns_every_level_breakdown(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load(0x1000, cycle=0)
        hierarchy.fetch_instruction(0x400000, cycle=0)
        breakdowns = hierarchy.finalize(end_cycle=100)
        assert set(breakdowns) == {"L1I", "L1D", "L2"}

    def test_config_organizations_match_sizes(self):
        config = HierarchyConfig(subarray_bytes=1024)
        assert config.l1d_organization().n_subarrays == 32
        assert config.l1i_organization().n_subarrays == 32
        assert config.l2_organization().capacity_bytes == 512 * 1024
