"""Semantics of nested scenario expressions.

The flat ``mix:``/``phases:`` behaviours are pinned by
``test_scenarios.py``; these tests pin what nesting adds — seed
decorrelation by DFS leaf index, program-wise address slabs and register
slices, pressure-shaping modifiers — and that flat and nested
expressions resolve to the same :class:`ScenarioWorkload` class.
"""

from __future__ import annotations

from itertools import islice

import pytest

from repro.workloads.scenarios import (
    ScenarioWorkload,
    resolve_workload,
    workload_identity,
)
from repro.workloads.synthetic import N_REGISTERS

_SLAB_BYTES = 1 << 40


def _prefix(workload, count=600):
    return list(islice(workload.instructions(), count))


class TestSeedDecorrelation:
    def test_nested_duplicate_benchmarks_get_three_distinct_streams(self):
        # The satellite regression: every gcc leaf of
        # mix:(mix:gcc+gcc)+gcc must be a *different* dynamic instance,
        # exactly as the flat mix decorrelates via seed + 101 * index.
        workload = resolve_workload("mix:(mix:gcc+gcc@200)+gcc@200", seed=1)
        ops = _prefix(workload, 1200)
        # Quantum 200 at both levels: the inner mix contributes ops
        # 0-199 (inner child 0) and 200-399 (inner child 1) of its
        # stream per outer turn; the outer gcc contributes 200-op turns.
        inner_first = [op.pc % _SLAB_BYTES for op in ops[:200]]
        inner_second = [op.pc % _SLAB_BYTES for op in ops[200:400]]
        outer = [op.pc % _SLAB_BYTES for op in ops[400:600]]
        assert inner_first != inner_second
        assert inner_first != outer
        assert inner_second != outer

    def test_nested_seed_indices_match_flat_equivalents(self):
        # A leaf's stream depends only on its DFS index, not on the
        # shape above it: leaf k of any expression equals child k of a
        # flat mix with the same seed (modulo address translation).
        nested = resolve_workload("mix:(mix:gcc+mcf@300)+art@300", seed=5)
        flat = resolve_workload("mix:gcc+mcf+art@300", seed=5)
        # Program count is 3 in both, so translation is identical too;
        # only the interleaving order differs.  Compare the first quantum
        # (pure leaf-0 output in both).
        assert _prefix(nested, 300) == _prefix(flat, 300)


class TestProgramAssignment:
    def test_phases_under_mix_share_one_slab(self):
        workload = resolve_workload("mix:(phases:gcc+mcf@100)+vortex@100")
        ops = _prefix(workload, 200)
        first_slabs = {op.pc // _SLAB_BYTES for op in ops[:100]}
        second_slabs = {op.pc // _SLAB_BYTES for op in ops[100:200]}
        assert first_slabs == {0}
        assert second_slabs == {1}

    def test_nested_mix_spreads_three_slabs(self):
        workload = resolve_workload("mix:(mix:gcc+gcc@100)+gcc@100")
        slabs = {op.pc // _SLAB_BYTES for op in _prefix(workload, 600)}
        assert slabs == {0, 1, 2}

    def test_register_file_is_partitioned_per_program(self):
        workload = resolve_workload("mix:(mix:gcc+gcc@100)+gcc@100")
        slice_width = N_REGISTERS // 3
        for op in _prefix(workload, 600):
            program = op.pc // _SLAB_BYTES
            base = program * slice_width
            for reg in (op.dest, op.src1, op.src2):
                if reg is not None:
                    assert base <= reg < base + slice_width


class TestModifiers:
    def test_weight_grants_consecutive_quanta(self):
        workload = resolve_workload("mix:gcc*2+mcf@100")
        ops = _prefix(workload, 400)
        slabs = [op.pc // _SLAB_BYTES for op in ops]
        assert slabs[:200] == [0] * 200
        assert slabs[200:300] == [1] * 100
        assert slabs[300:400] == [0] * 100

    def test_narrow_slab_folds_addresses(self):
        narrow = resolve_workload("mix:gcc~slab=24+mcf@100")
        for op in _prefix(narrow, 100):
            assert op.pc < (1 << 24)
            if op.address is not None:
                assert op.address < (1 << 24)

    def test_scale_shrinks_the_footprint(self):
        # Region bases are fixed, so the right signal is how many
        # distinct cache lines the packed working set touches.
        def lines(name):
            workload = resolve_workload(name)
            return {
                op.address >> 5
                for op in _prefix(workload, 5000)
                if op.address is not None
            }

        assert len(lines("mix:gcc~scale=0.125+mcf@5000")) < len(
            lines("mix:gcc+mcf@5000")
        )

    def test_modifiers_change_the_stream_deterministically(self):
        a = resolve_workload("mix:gcc~scale=0.5+mcf@200", seed=3)
        b = resolve_workload("mix:gcc~scale=0.5+mcf@200", seed=3)
        assert _prefix(a) == _prefix(b)


class TestFlatEquivalence:
    def test_nested_workload_class(self):
        for name in ("mix:gcc+mcf", "mix:(phases:gcc+mcf@500)+vortex"):
            assert type(resolve_workload(name)) is ScenarioWorkload


class TestIdentity:
    def test_equivalent_spellings_share_identity(self):
        assert workload_identity("mix:gcc+mcf") == workload_identity(
            "MIX: GCC + MCF @ 2000"
        )

    def test_different_expressions_differ(self):
        assert workload_identity("mix:gcc+mcf") != workload_identity(
            "mix:gcc+mcf@100"
        )

    def test_fuzz_identity_matches_its_expansion(self):
        from repro.workloads.grammar import unparse

        expansion = unparse(resolve_workload("fuzz:7").root)
        assert workload_identity("fuzz:7") == ("scenario", expansion)
        assert workload_identity("fuzz:7") == workload_identity(expansion)

    def test_plain_and_malformed_names_have_no_identity(self):
        assert workload_identity("gcc") is None
        assert workload_identity("mix:gcc") is None

    def test_equivalent_spellings_share_cache_and_store_keys(self):
        # The documented promise: the run key (which keys the engine
        # cache and the on-disk store) keys scenarios by canonical form,
        # so reordered modifiers / implicit quanta / a fuzz: seed vs its
        # expansion all resolve to one entry.
        from repro.sim import SimulationConfig
        from repro.workloads.grammar import unparse

        def config(name):
            return SimulationConfig(benchmark=name, n_instructions=2000)

        a, b = config("mix:gcc+mcf@2000"), config("MIX: GCC *1 + McF")
        assert a.cache_key() == b.cache_key()

        expansion = unparse(resolve_workload("fuzz:4").root)
        f, g = config("fuzz:4"), config(expansion)
        assert f.cache_key() == g.cache_key()

        assert a.cache_key() != config("mix:gcc+mcf@100").cache_key()
