"""Figure 3: potential bitline-discharge savings under oracle precharging.

Every benchmark runs with the oracle policy on both L1 caches at 70nm; the
remaining (relative) bitline discharge per benchmark and the average are
reported, plus the corresponding overall cache-energy saving opportunity.
The paper finds the oracle removes ~89% (data) and ~90% (instruction) of
the bitline discharge, corresponding to ~46%/41% of the cache energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.sim.metrics import arithmetic_mean
from repro.workloads.characteristics import benchmark_names

from .report import format_percent, format_table

__all__ = ["Figure3Result", "figure3", "format_figure3"]


@dataclass(frozen=True)
class Figure3Result:
    """Per-benchmark oracle results.

    Attributes:
        relative_discharge_dcache: Remaining L1D discharge per benchmark.
        relative_discharge_icache: Remaining L1I discharge per benchmark.
        overall_savings_dcache: Whole-cache energy savings per benchmark.
        overall_savings_icache: Whole-cache energy savings per benchmark.
        feature_size_nm: Technology node.
    """

    relative_discharge_dcache: Dict[str, float]
    relative_discharge_icache: Dict[str, float]
    overall_savings_dcache: Dict[str, float]
    overall_savings_icache: Dict[str, float]
    feature_size_nm: int

    @property
    def average_discharge_savings_dcache(self) -> float:
        """Average fraction of L1D bitline discharge eliminated."""
        return 1.0 - arithmetic_mean(self.relative_discharge_dcache.values())

    @property
    def average_discharge_savings_icache(self) -> float:
        """Average fraction of L1I bitline discharge eliminated."""
        return 1.0 - arithmetic_mean(self.relative_discharge_icache.values())

    @property
    def average_overall_savings_dcache(self) -> float:
        """Average whole-cache energy saving opportunity (data cache)."""
        return arithmetic_mean(self.overall_savings_dcache.values())

    @property
    def average_overall_savings_icache(self) -> float:
        """Average whole-cache energy saving opportunity (instruction cache)."""
        return arithmetic_mean(self.overall_savings_icache.values())


def figure3(
    engine: SimEngine,
    benchmarks: Optional[Sequence[str]] = None,
    feature_size_nm: int = 70,
    n_instructions: int = 20_000,
    l2: Union[PolicySpec, str] = "static",
) -> Figure3Result:
    """Regenerate Figure 3 (oracle potential savings).

    Args:
        engine: Engine to run on.
        benchmarks: Benchmark subset (default: all sixteen).
        feature_size_nm: Technology node.
        n_instructions: Micro-ops per run.
        l2: L2 precharge policy applied to every run (the paper's
            configuration keeps the L2 statically pulled up).
    """
    base = SimulationConfig(
        dcache=PolicySpec("oracle"),
        icache=PolicySpec("oracle"),
        feature_size_nm=feature_size_nm,
        n_instructions=n_instructions,
        l2=l2,
    )
    results = engine.sweep(base, benchmarks)
    return Figure3Result(
        relative_discharge_dcache={
            name: r.energy.dcache_relative_discharge for name, r in results.items()
        },
        relative_discharge_icache={
            name: r.energy.icache_relative_discharge for name, r in results.items()
        },
        overall_savings_dcache={
            name: r.energy.dcache_overall_savings for name, r in results.items()
        },
        overall_savings_icache={
            name: r.energy.icache_overall_savings for name, r in results.items()
        },
        feature_size_nm=feature_size_nm,
    )


def format_figure3(result: Figure3Result) -> str:
    """Render the Figure 3 bars as a text table."""
    rows = []
    for name in result.relative_discharge_dcache:
        rows.append(
            [
                name,
                f"{result.relative_discharge_dcache[name]:.3f}",
                f"{result.relative_discharge_icache[name]:.3f}",
            ]
        )
    rows.append(
        [
            "AVG",
            f"{arithmetic_mean(result.relative_discharge_dcache.values()):.3f}",
            f"{arithmetic_mean(result.relative_discharge_icache.values()):.3f}",
        ]
    )
    table = format_table(
        headers=["Benchmark", "Data cache rel. discharge", "Instr cache rel. discharge"],
        rows=rows,
        title=f"Figure 3: Potential bitline discharge savings (oracle, {result.feature_size_nm}nm)",
    )
    summary = (
        f"Average discharge eliminated: data {format_percent(result.average_discharge_savings_dcache)}, "
        f"instruction {format_percent(result.average_discharge_savings_icache)}; "
        f"overall cache energy opportunity: data {format_percent(result.average_overall_savings_dcache)}, "
        f"instruction {format_percent(result.average_overall_savings_icache)}"
    )
    return table + "\n" + summary


from .registry import ExperimentOptions, register_experiment  # noqa: E402


@register_experiment(
    "figure3",
    title="Figure 3 - oracle potential discharge savings",
    formatter=format_figure3,
    consumes=("benchmarks", "n_instructions", "feature_size_nm", "l2_policy"),
)
def _figure3_experiment(engine, options: ExperimentOptions):
    """Oracle-policy potential: remaining L1 bitline discharge per benchmark."""
    return figure3(
        engine,
        benchmarks=options.benchmarks,
        feature_size_nm=options.resolved_feature_size(),
        n_instructions=options.resolved_instructions(20_000),
        l2=options.resolved_l2(),
    )
