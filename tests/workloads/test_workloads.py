"""Tests for the synthetic workload generators."""

from collections import Counter

import pytest

from repro.workloads import (
    BENCHMARKS,
    CodeWalker,
    HotColdRegion,
    PointerChase,
    StridedStream,
    OLDEN_BENCHMARKS,
    SPEC2000_BENCHMARKS,
    benchmark_names,
    get_benchmark,
    make_workload,
)
from repro.workloads.trace import EXECUTION_LATENCY, MicroOp, OP_LOAD, OP_TYPES
import random


class TestCharacteristics:
    def test_sixteen_benchmarks_defined(self):
        assert len(benchmark_names()) == 16
        assert len(SPEC2000_BENCHMARKS) == 10
        assert len(OLDEN_BENCHMARKS) == 6

    def test_paper_benchmark_names_present(self):
        expected = {
            "ammp", "art", "bzip2", "equake", "gcc", "mcf", "mesa", "vortex",
            "vpr", "wupwise", "bh", "bisort", "em3d", "health", "treeadd", "tsp",
        }
        assert set(benchmark_names()) == expected

    def test_instruction_mix_fractions_are_sane(self):
        for bench in BENCHMARKS.values():
            assert 0 < bench.alu_fraction < 1
            assert 0 < bench.load_fraction < 0.5

    def test_high_miss_outliers_have_large_footprints(self):
        # ammp, art and health are the paper's three high-miss-rate outliers.
        for name in ("ammp", "art", "health"):
            assert get_benchmark(name).data_footprint_bytes >= 1024 * 1024

    def test_lookup_is_case_insensitive_and_validates(self):
        assert get_benchmark("GCC").name == "gcc"
        with pytest.raises(KeyError):
            get_benchmark("perlbench")


class TestGenerators:
    def test_strided_stream_wraps_within_region(self):
        stream = StridedStream(base=1000, size=64, stride=16)
        addresses = [stream.next_address() for _ in range(8)]
        assert addresses[:4] == [1000, 1016, 1032, 1048]
        assert addresses[4] == 1000
        assert all(1000 <= a < 1064 for a in addresses)

    def test_pointer_chase_stays_in_region(self):
        chase = PointerChase(base=0x1000, size=1024, rng=random.Random(0), granule=16)
        for _ in range(200):
            address = chase.next_address()
            assert 0x1000 <= address < 0x1000 + 1024
            assert address % 16 == 0

    def test_hot_cold_region_moves_with_phase(self):
        region = HotColdRegion(base=0, size=1024 * 1024, hot_fraction=0.1)
        start_before = region.hot_base
        region.move_phase(3, 4)
        assert region.hot_base != start_before
        assert region.hot_size == pytest.approx(0.1 * 1024 * 1024, rel=0.01)

    def test_code_walker_mostly_stays_in_hot_region(self):
        walker = CodeWalker(base=0x400000, size=64 * 1024, hot_fraction=0.2,
                            rng=random.Random(1))
        hot_start, hot_size = walker.region.hot_bounds()
        in_hot = 0
        total = 3000
        for _ in range(total):
            pc, _, _ = walker.next_pc()
            if hot_start <= pc < hot_start + hot_size + 64:
                in_hot += 1
        # Occasional excursions into cold code (rare functions) are expected,
        # but the walker must spend the clear majority of its time in the
        # hot loops.
        assert in_hot / total > 0.6

    def test_invalid_generator_parameters_rejected(self):
        with pytest.raises(ValueError):
            StridedStream(base=0, size=0, stride=4)
        with pytest.raises(ValueError):
            PointerChase(base=0, size=8, rng=random.Random(0), granule=16)
        with pytest.raises(ValueError):
            HotColdRegion(base=0, size=100, hot_fraction=0.0)


class TestSyntheticWorkload:
    def test_generation_is_deterministic_per_seed(self):
        a = make_workload("gcc", seed=3).generate(500)
        b = make_workload("gcc", seed=3).generate(500)
        c = make_workload("gcc", seed=4).generate(500)
        assert [(op.op_type, op.pc, op.address) for op in a] == [
            (op.op_type, op.pc, op.address) for op in b
        ]
        assert [(op.op_type, op.pc, op.address) for op in a] != [
            (op.op_type, op.pc, op.address) for op in c
        ]

    def test_op_types_are_valid_and_mix_roughly_matches(self):
        ops = make_workload("mesa").generate(8000)
        counts = Counter(op.op_type for op in ops)
        assert set(counts) <= set(OP_TYPES)
        load_fraction = counts["load"] / len(ops)
        target = get_benchmark("mesa").load_fraction
        assert abs(load_fraction - target) < 0.12

    def test_memory_ops_have_addresses_and_bases(self):
        ops = make_workload("health").generate(3000)
        for op in ops:
            if op.is_memory:
                assert op.address is not None and op.address >= 0
                assert op.base_address is not None
                assert op.base_address <= op.address
            else:
                assert op.address is None

    def test_same_pc_always_has_same_op_type(self):
        ops = make_workload("vortex").generate(10_000)
        types_by_pc = {}
        for op in ops:
            types_by_pc.setdefault(op.pc, set()).add(op.op_type)
        # Block-ending PCs are always branches; every other PC keeps one type.
        assert all(len(types) == 1 for types in types_by_pc.values())

    def test_branches_carry_targets(self):
        ops = make_workload("bzip2").generate(5000)
        for op in ops:
            if op.is_branch:
                assert op.target is not None

    def test_addresses_stay_within_footprint_or_stack(self):
        bench = get_benchmark("treeadd")
        ops = make_workload("treeadd").generate(5000)
        data_lo, data_hi = 0x1000_0000, 0x1000_0000 + bench.data_footprint_bytes
        for op in ops:
            if op.is_memory:
                in_heap = data_lo <= op.address < data_hi
                in_stack = op.address >= 0x7FFF_0000
                assert in_heap or in_stack

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError):
            make_workload("gcc").generate(-1)

    def test_execution_latencies_defined_for_all_types(self):
        assert set(EXECUTION_LATENCY) == set(OP_TYPES)

    def test_microop_properties(self):
        load = MicroOp(op_type=OP_LOAD, pc=0, address=0x10)
        assert load.is_memory and not load.is_branch
        assert load.execution_latency == EXECUTION_LATENCY[OP_LOAD]
