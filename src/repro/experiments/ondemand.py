"""Section 5: the performance cost of on-demand precharging.

On-demand precharging identifies the accessed subarray by partial address
decode, but Table 3 shows the bitline pull-up cannot be hidden in the
remaining decode time, so every access is delayed by a cycle.  This
experiment measures the resulting slowdown separately for the data cache
and the instruction cache (the paper reports ~9% and ~7% respectively) by
comparing against the static pull-up baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Union

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.sim.metrics import arithmetic_mean, slowdown

from .report import format_percent, format_table

__all__ = ["OnDemandResult", "ondemand_slowdown", "format_ondemand"]


@dataclass(frozen=True)
class OnDemandResult:
    """Per-benchmark slowdowns of on-demand precharging.

    Attributes:
        dcache_slowdown: Slowdown with on-demand precharging on the L1D
            only (L1I stays statically pulled up).
        icache_slowdown: Slowdown with on-demand precharging on the L1I
            only.
    """

    dcache_slowdown: Dict[str, float]
    icache_slowdown: Dict[str, float]

    @property
    def average_dcache_slowdown(self) -> float:
        """Mean slowdown caused by on-demand precharging in the data cache."""
        return arithmetic_mean(self.dcache_slowdown.values())

    @property
    def average_icache_slowdown(self) -> float:
        """Mean slowdown caused by on-demand precharging in the instruction cache."""
        return arithmetic_mean(self.icache_slowdown.values())


def ondemand_slowdown(
    engine: SimEngine,
    benchmarks: Optional[Sequence[str]] = None,
    feature_size_nm: int = 70,
    n_instructions: int = 20_000,
    l2: Union[PolicySpec, str] = "static",
) -> OnDemandResult:
    """Measure the Section 5 on-demand precharging slowdowns.

    Args:
        engine: Engine to run on.
        benchmarks: Benchmark subset (default: all sixteen).
        feature_size_nm: Technology node.
        n_instructions: Micro-ops per run.
        l2: L2 precharge policy applied to every run (baseline included).
    """
    baseline_cfg = SimulationConfig(
        dcache=PolicySpec("static"),
        icache=PolicySpec("static"),
        feature_size_nm=feature_size_nm,
        n_instructions=n_instructions,
        l2=l2,
    )
    dcache_cfg = replace(baseline_cfg, dcache=PolicySpec("on-demand"))
    icache_cfg = replace(baseline_cfg, icache=PolicySpec("on-demand"))

    baselines = engine.sweep(baseline_cfg, benchmarks)
    dcache_runs = engine.sweep(dcache_cfg, benchmarks)
    icache_runs = engine.sweep(icache_cfg, benchmarks)

    return OnDemandResult(
        dcache_slowdown={
            name: slowdown(dcache_runs[name], baselines[name]) for name in baselines
        },
        icache_slowdown={
            name: slowdown(icache_runs[name], baselines[name]) for name in baselines
        },
    )


def format_ondemand(result: OnDemandResult) -> str:
    """Render the Section 5 slowdowns as a text table."""
    rows = [
        [
            name,
            format_percent(result.dcache_slowdown[name]),
            format_percent(result.icache_slowdown[name]),
        ]
        for name in result.dcache_slowdown
    ]
    rows.append(
        [
            "AVG",
            format_percent(result.average_dcache_slowdown),
            format_percent(result.average_icache_slowdown),
        ]
    )
    return format_table(
        headers=["Benchmark", "Data-cache slowdown", "Instr-cache slowdown"],
        rows=rows,
        title="Section 5: Performance impact of on-demand precharging",
    )


from .registry import ExperimentOptions, register_experiment  # noqa: E402


@register_experiment(
    "ondemand",
    title="Section 5 - on-demand precharging slowdown",
    formatter=format_ondemand,
    consumes=("benchmarks", "n_instructions", "feature_size_nm", "l2_policy"),
)
def _ondemand_experiment(engine, options: ExperimentOptions):
    """Per-benchmark slowdown of on-demand (partial-decode) precharging."""
    return ondemand_slowdown(
        engine,
        benchmarks=options.benchmarks,
        feature_size_nm=options.resolved_feature_size(),
        n_instructions=options.resolved_instructions(20_000),
        l2=options.resolved_l2(),
    )
