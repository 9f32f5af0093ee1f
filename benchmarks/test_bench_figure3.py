"""Bench: regenerate Figure 3 (oracle potential bitline-discharge savings).

Paper shape target at 70nm: the oracle removes roughly 89% (data cache)
and 90% (instruction cache) of the bitline discharge on average.
"""

from repro.experiments.figure3 import figure3, format_figure3

from _harness import run_once


def test_bench_figure3(benchmark, bench_engine, bench_benchmarks, bench_instructions):
    result = run_once(
        benchmark, figure3, bench_engine, benchmarks=bench_benchmarks,
        n_instructions=bench_instructions,
    )
    print()
    print(format_figure3(result))

    assert result.average_discharge_savings_dcache > 0.75
    assert result.average_discharge_savings_icache > 0.80

    benchmark.extra_info["avg_dcache_discharge_savings"] = round(
        result.average_discharge_savings_dcache, 3
    )
    benchmark.extra_info["avg_icache_discharge_savings"] = round(
        result.average_discharge_savings_icache, 3
    )
    benchmark.extra_info["avg_dcache_overall_opportunity"] = round(
        result.average_overall_savings_dcache, 3
    )
    benchmark.extra_info["avg_icache_overall_opportunity"] = round(
        result.average_overall_savings_icache, 3
    )
