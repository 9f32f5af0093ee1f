"""Bench: regenerate Figure 8 (gated precharging results).

Paper shape targets at 70nm with per-benchmark optimum thresholds: about
10% (data) / 6% (instruction) of subarrays stay precharged, removing
roughly 83% / 87% of the bitline discharge (78% / 81% with the constant
100-cycle threshold), all at ~1% performance degradation.
"""

from repro.experiments.figure8 import figure8, format_figure8

from _harness import run_once


def test_bench_figure8(benchmark, bench_engine, bench_benchmarks, bench_instructions):
    result = run_once(
        benchmark, figure8, bench_engine, benchmarks=bench_benchmarks,
        n_instructions=bench_instructions,
    )
    print()
    print(format_figure8(result))

    assert result.average_dcache_discharge_reduction > 0.6
    assert result.average_icache_discharge_reduction > 0.8
    assert result.average_dcache_precharged < 0.3
    assert result.average_icache_precharged < 0.15
    assert result.average_slowdown < 0.02
    # The constant threshold lands in the same range as the per-benchmark
    # optimum (the paper reports 78/81% vs 83/87%); the profiling-based
    # optimum errs on the conservative side for some benchmarks, so allow a
    # modest margin in either direction.
    assert (
        result.average_dcache_discharge_reduction_constant
        <= result.average_dcache_discharge_reduction + 0.25
    )

    benchmark.extra_info["avg_dcache_discharge_reduction"] = round(
        result.average_dcache_discharge_reduction, 3
    )
    benchmark.extra_info["avg_icache_discharge_reduction"] = round(
        result.average_icache_discharge_reduction, 3
    )
    benchmark.extra_info["avg_dcache_precharged_fraction"] = round(
        result.average_dcache_precharged, 3
    )
    benchmark.extra_info["avg_icache_precharged_fraction"] = round(
        result.average_icache_precharged, 3
    )
    benchmark.extra_info["avg_slowdown"] = round(result.average_slowdown, 4)
    benchmark.extra_info["avg_dcache_overall_savings"] = round(
        result.average_dcache_overall_savings, 3
    )
    benchmark.extra_info["avg_icache_overall_savings"] = round(
        result.average_icache_overall_savings, 3
    )
    benchmark.extra_info["constant_threshold_dcache_reduction"] = round(
        result.average_dcache_discharge_reduction_constant, 3
    )
    benchmark.extra_info["constant_threshold_icache_reduction"] = round(
        result.average_icache_discharge_reduction_constant, 3
    )
