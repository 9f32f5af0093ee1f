"""Figure 10: effect of subarray size on gated precharging.

Gated precharging runs with subarray sizes of 4KB, 1KB, 256B and 64B at
70nm; the benchmark-averaged fraction of precharged subarrays is reported
for each size.  The paper's findings: smaller subarrays give finer control
and a smaller precharged fraction (28%/10%/8%/7% for data caches and
18%/8%/6%/5% for instruction caches from 4KB down to 64B), with clearly
diminishing returns below 256B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.sim.metrics import arithmetic_mean

from .report import format_percent, format_table

__all__ = ["Figure10Result", "figure10", "format_figure10", "SUBARRAY_SIZES"]

#: The subarray sizes on Figure 10's x-axis.
SUBARRAY_SIZES: Tuple[int, ...] = (4096, 1024, 256, 64)


@dataclass(frozen=True)
class Figure10Result:
    """Benchmark-averaged precharged fractions per subarray size.

    Attributes:
        dcache_precharged: subarray size (bytes) -> average precharged
            fraction of the data cache.
        icache_precharged: subarray size (bytes) -> average precharged
            fraction of the instruction cache.
        per_benchmark_dcache: benchmark -> {size -> precharged fraction}.
        per_benchmark_icache: benchmark -> {size -> precharged fraction}.
    """

    dcache_precharged: Dict[int, float]
    icache_precharged: Dict[int, float]
    per_benchmark_dcache: Dict[str, Dict[int, float]]
    per_benchmark_icache: Dict[str, Dict[int, float]]

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Subarray sizes evaluated, largest first."""
        return tuple(sorted(self.dcache_precharged, reverse=True))

    def monotonic_improvement(self, cache: str = "dcache") -> bool:
        """Whether the precharged fraction shrinks as subarrays shrink."""
        table = self.dcache_precharged if cache == "dcache" else self.icache_precharged
        ordered = [table[size] for size in sorted(table, reverse=True)]
        return all(later <= earlier + 1e-9 for earlier, later in zip(ordered, ordered[1:]))


def figure10(
    engine: SimEngine,
    benchmarks: Optional[Sequence[str]] = None,
    subarray_sizes: Sequence[int] = SUBARRAY_SIZES,
    feature_size_nm: int = 70,
    n_instructions: int = 15_000,
    threshold: int = 100,
    l2: Union[PolicySpec, str] = "static",
) -> Figure10Result:
    """Regenerate Figure 10 (gated precharging vs subarray size).

    Args:
        engine: Engine to run on.
        benchmarks: Benchmark subset (default: all sixteen).
        subarray_sizes: L1 subarray sizes to sweep.
        feature_size_nm: Technology node.
        n_instructions: Micro-ops per run.
        threshold: Gated-precharging decay threshold.
        l2: L2 precharge policy applied to every run.
    """
    dcache_avg: Dict[int, float] = {}
    icache_avg: Dict[int, float] = {}
    per_bench_d: Dict[str, Dict[int, float]] = {}
    per_bench_i: Dict[str, Dict[int, float]] = {}
    for size in subarray_sizes:
        config = SimulationConfig(
            dcache=PolicySpec("gated-predecode", {"threshold": threshold}),
            icache=PolicySpec("gated", {"threshold": threshold}),
            feature_size_nm=feature_size_nm,
            subarray_bytes=size,
            n_instructions=n_instructions,
            l2=l2,
        )
        runs = engine.sweep(config, benchmarks)
        dcache_avg[size] = arithmetic_mean(
            r.energy.dcache.precharged_fraction for r in runs.values()
        )
        icache_avg[size] = arithmetic_mean(
            r.energy.icache.precharged_fraction for r in runs.values()
        )
        for name, run in runs.items():
            per_bench_d.setdefault(name, {})[size] = run.energy.dcache.precharged_fraction
            per_bench_i.setdefault(name, {})[size] = run.energy.icache.precharged_fraction
    return Figure10Result(
        dcache_precharged=dcache_avg,
        icache_precharged=icache_avg,
        per_benchmark_dcache=per_bench_d,
        per_benchmark_icache=per_bench_i,
    )


def format_figure10(result: Figure10Result) -> str:
    """Render the Figure 10 series as a text table."""

    def label(size: int) -> str:
        return f"{size // 1024}KB" if size >= 1024 else f"{size}B"

    rows = [
        [
            label(size),
            format_percent(result.dcache_precharged[size]),
            format_percent(result.icache_precharged[size]),
        ]
        for size in result.sizes
    ]
    return format_table(
        headers=["Subarray size", "Data cache precharged", "Instr cache precharged"],
        rows=rows,
        title="Figure 10: Relative number of precharged subarrays vs subarray size",
    )


from .registry import ExperimentOptions, register_experiment  # noqa: E402


@register_experiment(
    "figure10",
    title="Figure 10 - effect of subarray size",
    formatter=format_figure10,
    consumes=("benchmarks", "n_instructions", "feature_size_nm", "l2_policy"),
)
def _figure10_experiment(engine, options: ExperimentOptions):
    """Precharged-subarray fraction as the L1 subarray size varies."""
    return figure10(
        engine,
        benchmarks=options.benchmarks,
        feature_size_nm=options.resolved_feature_size(),
        n_instructions=options.resolved_instructions(15_000),
        l2=options.resolved_l2(),
    )
