"""Figure 6: fraction of hot subarrays vs access-frequency threshold.

For each benchmark, the time-averaged fraction of cache subarrays that are
"hot" — accessed within the last T cycles — as a function of T.  The
paper's observation: with a 100-cycle threshold only ~22% of subarrays are
hot on average, and even with a 1000-cycle threshold at most ~40% are,
which is what lets gated precharging isolate most of the cache most of the
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.metrics import arithmetic_mean
from repro.workloads.characteristics import benchmark_names
from repro.workloads.synthetic import make_workload

from .figure5 import ACCESS_FREQUENCY_THRESHOLDS
from .report import format_series

__all__ = ["Figure6Result", "figure6", "format_figure6"]


@dataclass(frozen=True)
class Figure6Result:
    """Hot-subarray fractions per benchmark.

    Attributes:
        dcache: benchmark -> {interval threshold -> hot fraction}.
        icache: benchmark -> {interval threshold -> hot fraction}.
        thresholds: The interval thresholds (cycles).
    """

    dcache: Dict[str, Dict[int, float]]
    icache: Dict[str, Dict[int, float]]
    thresholds: Tuple[int, ...]

    def average_hot_fraction(self, cache: str = "dcache", threshold: int = 100) -> float:
        """Mean hot-subarray fraction across benchmarks at one threshold."""
        table = self.dcache if cache == "dcache" else self.icache
        return arithmetic_mean(series[threshold] for series in table.values())


def figure6(
    benchmarks: Optional[Sequence[str]] = None,
    feature_size_nm: int = 70,
    n_instructions: int = 20_000,
    thresholds: Sequence[int] = ACCESS_FREQUENCY_THRESHOLDS,
) -> Figure6Result:
    """Regenerate Figure 6 from baseline (static pull-up) runs.

    The hot-subarray fraction needs the subarray trackers themselves (not
    just the gap lists), so this experiment drives the simulator directly
    rather than going through the memoised runner.
    """
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    dcache: Dict[str, Dict[int, float]] = {}
    icache: Dict[str, Dict[int, float]] = {}
    for name in names:
        config = SimulationConfig(
            benchmark=name,
            dcache=PolicySpec("static"),
            icache=PolicySpec("static"),
            feature_size_nm=feature_size_nm,
            n_instructions=n_instructions,
        )
        workload = make_workload(name, seed=config.seed)
        hierarchy = MemoryHierarchy(
            config=config.hierarchy_config(),
            icache_controller=config.icache.build(),
            dcache_controller=config.dcache.build(),
        )
        pipeline = OutOfOrderPipeline(
            hierarchy=hierarchy,
            instruction_stream=workload.instructions(),
            config=config.pipeline_config(),
        )
        pipeline.run(config.n_instructions)
        total_cycles = max(1, pipeline.cycle)
        dcache[name] = hierarchy.l1d.tracker.hot_subarray_fraction(
            thresholds, total_cycles
        )
        icache[name] = hierarchy.l1i.tracker.hot_subarray_fraction(
            thresholds, total_cycles
        )
    return Figure6Result(dcache=dcache, icache=icache, thresholds=tuple(thresholds))


def format_figure6(result: Figure6Result) -> str:
    """Render the Figure 6 series, one line per benchmark and cache."""
    lines = ["Figure 6: Fraction of hot subarrays vs access-frequency threshold"]
    lines.append("(a) Data cache")
    for name, series in result.dcache.items():
        lines.append(format_series(f"  {name}", sorted(series.items())))
    lines.append("(b) Instruction cache")
    for name, series in result.icache.items():
        lines.append(format_series(f"  {name}", sorted(series.items())))
    lines.append(
        "Average hot fraction at a 100-cycle threshold: "
        f"data {result.average_hot_fraction('dcache', 100):.2f}, "
        f"instruction {result.average_hot_fraction('icache', 100):.2f}"
    )
    return "\n".join(lines)


from .registry import ExperimentOptions, register_experiment  # noqa: E402


@register_experiment(
    "figure6",
    title="Figure 6 - fraction of hot subarrays",
    formatter=format_figure6,
    uses_engine=False,
)
def _figure6_experiment(engine, options: ExperimentOptions):
    # figure6 needs the subarray trackers themselves, so it drives the
    # simulator directly rather than going through the engine cache.
    return figure6(
        benchmarks=options.benchmarks,
        feature_size_nm=options.resolved_feature_size(),
        n_instructions=options.resolved_instructions(20_000),
    )
