"""The PR-4 sweep runtime: persistent pool, chunking, work stealing."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine, _estimated_cost, _execute_chunk
from repro.sim.fastpath import _trace_cache_key


def _tiny(benchmark="gcc", n=700, **kwargs):
    return SimulationConfig(
        benchmark=benchmark, dcache="gated", icache="static",
        n_instructions=n, **kwargs
    )


class TestPersistentPool:
    def test_pool_is_reused_across_calls(self):
        with SimEngine(workers=2) as engine:
            engine.run_many([_tiny("gcc"), _tiny("mesa")])
            first_pool = engine._pool
            assert first_pool is not None
            engine.clear()
            engine.run_many([_tiny("art"), _tiny("vpr")])
            assert engine._pool is first_pool
        assert engine._pool is None

    def test_close_is_idempotent_and_reopens(self):
        engine = SimEngine(workers=2)
        engine.run_many([_tiny("gcc"), _tiny("mesa")])
        engine.close()
        engine.close()
        assert engine._pool is None
        engine.clear()
        results = engine.run_many([_tiny("gcc"), _tiny("mesa")])
        assert len(results) == 2
        engine.close()

    def test_serial_calls_never_spawn_a_pool(self):
        engine = SimEngine(workers=1)
        engine.run(_tiny("gcc"))
        assert engine._pool is None

    def test_parallel_results_match_serial(self):
        grid = [
            replace(_tiny(benchmark), l2=PolicySpec("gated", {"threshold": t}))
            for benchmark in ("gcc", "mesa", "art")
            for t in (100, 500)
        ]
        serial = SimEngine().run_many(grid)
        with SimEngine(workers=3) as engine:
            parallel = engine.run_many(grid)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_parallel_interleaved_input_keeps_result_order(self):
        """Policy-major grids interleave benchmarks across trace groups.

        Chunking groups configs by compiled trace; the reassembly must
        write each result back to its *input* position, not the group
        position (this once returned mcf's results under gcc's configs).
        """
        grid = [
            replace(_tiny(benchmark), l2=PolicySpec("gated", {"threshold": t}))
            for t in (100, 500, 2000)
            for benchmark in ("gcc", "mesa", "art")
        ]
        with SimEngine(workers=3) as engine:
            parallel = engine.run_many(grid)
        serial = SimEngine().run_many(grid)
        assert [r.benchmark for r in parallel] == [c.benchmark for c in grid]
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]


class TestChunking:
    def test_chunks_are_trace_affine(self):
        configs = [
            _tiny(benchmark, n=n)
            for benchmark in ("gcc", "mcf", "art")
            for n in (500, 600, 700)
        ]
        chunks = SimEngine._make_chunks(configs, workers=2)
        for _, chunk in chunks:
            keys = {_trace_cache_key(c.benchmark, c.seed) for c in chunk}
            assert len(keys) == 1, "a chunk must share one compiled trace"
        flattened = sorted(
            (position, offset, config)
            for position, chunk in chunks
            for offset, config in enumerate(chunk)
        )
        assert [c for _, _, c in flattened] == configs, "positions reassemble input order"

    def test_chunks_are_sorted_longest_first(self):
        configs = [_tiny("gcc", n=200), _tiny("mcf", n=9_000), _tiny("mesa", n=400)]
        chunks = SimEngine._make_chunks(configs, workers=2)
        estimates = [sum(_estimated_cost(c) for c in chunk) for _, chunk in chunks]
        assert estimates == sorted(estimates, reverse=True)
        assert chunks[0][1][0].benchmark == "mcf"

    def test_estimated_cost_scales_with_instructions(self):
        assert _estimated_cost(_tiny(n=2_000)) > _estimated_cost(_tiny(n=1_000))

    def test_estimated_cost_handles_scenarios(self):
        # Scenario names are not in the characteristics table; the
        # estimator must fall back instead of raising.
        assert _estimated_cost(_tiny(benchmark="mix:gcc+mcf@500")) > 0

    def test_execute_chunk_runs_in_order(self):
        chunk = [_tiny("gcc"), _tiny("mesa")]
        results, meta = _execute_chunk((False, chunk))
        assert [r.benchmark for r in results] == ["gcc", "mesa"]
        assert meta["configs"] == 2
        assert meta["dur_s"] >= 0.0
        assert meta["profile"] is None, "profiler is disarmed by default"
