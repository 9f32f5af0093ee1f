"""Bench: regenerate the Section 5 on-demand precharging slowdowns.

Paper shape target: delaying every access by the pull-up cycle costs a
noticeable slowdown (the paper reports ~9% for data caches and ~7% for
instruction caches on its 16-stage Wattch baseline) — far more than the
~1% budget gated precharging respects.
"""

from repro.experiments.ondemand import format_ondemand, ondemand_slowdown

from _harness import run_once


def test_bench_ondemand_slowdown(benchmark, bench_engine, bench_benchmarks, bench_instructions):
    result = run_once(
        benchmark, ondemand_slowdown, bench_engine, benchmarks=bench_benchmarks,
        n_instructions=bench_instructions,
    )
    print()
    print(format_ondemand(result))

    assert result.average_dcache_slowdown > 0.005
    assert result.average_icache_slowdown > 0.005

    benchmark.extra_info["avg_dcache_slowdown"] = round(
        result.average_dcache_slowdown, 4
    )
    benchmark.extra_info["avg_icache_slowdown"] = round(
        result.average_icache_slowdown, 4
    )
