"""Bench: regenerate Figure 5 (cumulative accesses vs subarray access frequency).

Paper shape target: for most benchmarks the large majority of cache
accesses land on subarrays accessed within the last ~100 cycles; the
high-miss-rate outliers (ammp, art, health) sit noticeably lower.
"""

from repro.experiments.figure5 import figure5, format_figure5
from repro.sim.metrics import arithmetic_mean

from _harness import run_once


def test_bench_figure5(benchmark, bench_engine, bench_benchmarks, bench_instructions):
    result = run_once(
        benchmark, figure5, bench_engine, benchmarks=bench_benchmarks,
        n_instructions=bench_instructions,
    )
    print()
    print(format_figure5(result))

    hot100 = [series[100] for series in result.dcache.values()]
    assert arithmetic_mean(hot100) > 0.5
    # The thrashing outliers show lower subarray access frequency.
    regular = [
        series[100] for name, series in result.dcache.items()
        if name not in ("ammp", "art", "health")
    ]
    if regular:
        assert arithmetic_mean(regular) >= arithmetic_mean(hot100)

    benchmark.extra_info["dcache_fraction_within_100_cycles"] = {
        name: round(series[100], 3) for name, series in result.dcache.items()
    }
    benchmark.extra_info["icache_fraction_within_100_cycles"] = {
        name: round(series[100], 3) for name, series in result.icache.items()
    }
