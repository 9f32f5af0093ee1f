"""Bench: regenerate Figure 9 (gated precharging vs resizable caches).

Paper shape targets: resizable caches deliver a roughly flat, modest
discharge reduction across technology nodes, while gated precharging
improves sharply towards 70nm and ends clearly ahead.
"""

from repro.experiments.figure9 import figure9, format_figure9

from _harness import FULL, run_once

#: The two end-point nodes capture the scaling trend; the full sweep adds
#: the intermediate generations.
NODES = [180, 130, 100, 70] if FULL else [180, 70]


def test_bench_figure9(benchmark, bench_engine, bench_benchmarks, bench_instructions):
    result = run_once(
        benchmark, figure9, bench_engine, benchmarks=bench_benchmarks, nodes=NODES,
        n_instructions=min(bench_instructions, 12_000),
    )
    print()
    print(format_figure9(result))

    assert result.gated_beats_resizable_at(70)
    assert result.gated_dcache[70] < result.gated_dcache[180]
    # Resizable caches change little across nodes (coarse-grained savings).
    resizable_spread = abs(result.resizable_dcache[70] - result.resizable_dcache[180])
    gated_spread = abs(result.gated_dcache[70] - result.gated_dcache[180])
    assert resizable_spread < gated_spread + 0.2

    benchmark.extra_info["gated_dcache_by_node"] = {
        nm: round(v, 3) for nm, v in result.gated_dcache.items()
    }
    benchmark.extra_info["resizable_dcache_by_node"] = {
        nm: round(v, 3) for nm, v in result.resizable_dcache.items()
    }
    benchmark.extra_info["gated_icache_by_node"] = {
        nm: round(v, 3) for nm, v in result.gated_icache.items()
    }
    benchmark.extra_info["resizable_icache_by_node"] = {
        nm: round(v, 3) for nm, v in result.resizable_icache.items()
    }
