"""Figure 5: cumulative distribution of cache accesses vs access frequency.

For each benchmark, the fraction of L1 data- and instruction-cache
accesses that fall on a subarray whose previous access was at most T
cycles earlier (access frequency at least 1/T), for T spanning 1 to 10000
cycles.  The paper's observation: outside the three high-miss-rate
applications (ammp, art, health), ~95% of data-cache accesses hit
subarrays with an access frequency of at least one per 100 cycles — i.e.
accesses concentrate on hot subarrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine

from .report import format_series

__all__ = [
    "Figure5Result",
    "figure5",
    "format_figure5",
    "ACCESS_FREQUENCY_THRESHOLDS",
]

#: The access-interval thresholds (cycles) on Figure 5/6's x-axis:
#: frequencies 1, 1/10, 1/100, 1/1000, 1/10000 accesses per cycle.
ACCESS_FREQUENCY_THRESHOLDS: Tuple[int, ...] = (1, 10, 100, 1000, 10000)


def _cumulative_from_gaps(gaps: Sequence[int], thresholds: Sequence[int]) -> Dict[int, float]:
    ordered = sorted(gaps)
    total = len(ordered)
    result: Dict[int, float] = {}
    for threshold in thresholds:
        if total == 0:
            result[threshold] = 0.0
            continue
        count = 0
        for gap in ordered:
            if gap <= threshold:
                count += 1
            else:
                break
        result[threshold] = count / total
    return result


@dataclass(frozen=True)
class Figure5Result:
    """Cumulative access distributions per benchmark.

    Attributes:
        dcache: benchmark -> {interval threshold -> cumulative fraction}.
        icache: benchmark -> {interval threshold -> cumulative fraction}.
        thresholds: The interval thresholds (cycles).
    """

    dcache: Dict[str, Dict[int, float]]
    icache: Dict[str, Dict[int, float]]
    thresholds: Tuple[int, ...]


def figure5(
    engine: SimEngine,
    benchmarks: Optional[Sequence[str]] = None,
    feature_size_nm: int = 70,
    n_instructions: int = 20_000,
    thresholds: Sequence[int] = ACCESS_FREQUENCY_THRESHOLDS,
) -> Figure5Result:
    """Regenerate Figure 5 from baseline (static pull-up) runs."""
    base = SimulationConfig(
        dcache=PolicySpec("static"),
        icache=PolicySpec("static"),
        feature_size_nm=feature_size_nm,
        n_instructions=n_instructions,
    )
    runs = engine.sweep(base, benchmarks)
    dcache = {
        name: _cumulative_from_gaps(run.dcache_gaps, thresholds)
        for name, run in runs.items()
    }
    icache = {
        name: _cumulative_from_gaps(run.icache_gaps, thresholds)
        for name, run in runs.items()
    }
    return Figure5Result(dcache=dcache, icache=icache, thresholds=tuple(thresholds))


def format_figure5(result: Figure5Result) -> str:
    """Render the Figure 5 series, one line per benchmark and cache."""
    lines = ["Figure 5: Cumulative distribution of cache accesses vs access frequency",
             "(values are the fraction of accesses to subarrays accessed within T cycles)"]
    lines.append("(a) Data cache")
    for name, series in result.dcache.items():
        lines.append(format_series(f"  {name}", sorted(series.items())))
    lines.append("(b) Instruction cache")
    for name, series in result.icache.items():
        lines.append(format_series(f"  {name}", sorted(series.items())))
    return "\n".join(lines)


from .registry import ExperimentOptions, register_experiment  # noqa: E402


@register_experiment(
    "figure5",
    title="Figure 5 - cumulative accesses vs access frequency",
    formatter=format_figure5,
)
def _figure5_experiment(engine, options: ExperimentOptions):
    return figure5(
        engine,
        benchmarks=options.benchmarks,
        feature_size_nm=options.resolved_feature_size(),
        n_instructions=options.resolved_instructions(20_000),
    )
