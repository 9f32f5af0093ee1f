"""Bench: regenerate Figure 10 (effect of subarray size on gated precharging).

Paper shape targets: the precharged-subarray fraction falls as subarrays
shrink from 4KB to 64B (28/10/8/7% for data caches, 18/8/6/5% for
instruction caches), with diminishing returns below 256B.
"""

from repro.experiments.figure10 import SUBARRAY_SIZES, figure10, format_figure10

from _harness import FULL, run_once

SIZES = SUBARRAY_SIZES if FULL else (4096, 1024, 256)


def test_bench_figure10(benchmark, bench_engine, bench_benchmarks, bench_instructions):
    result = run_once(
        benchmark, figure10, bench_engine, benchmarks=bench_benchmarks, subarray_sizes=SIZES,
        n_instructions=min(bench_instructions, 12_000),
    )
    print()
    print(format_figure10(result))

    assert result.monotonic_improvement("dcache")
    assert result.monotonic_improvement("icache")
    assert result.dcache_precharged[4096] > result.dcache_precharged[1024]

    benchmark.extra_info["dcache_precharged_by_size"] = {
        size: round(v, 3) for size, v in result.dcache_precharged.items()
    }
    benchmark.extra_info["icache_precharged_by_size"] = {
        size: round(v, 3) for size, v in result.icache_precharged.items()
    }
