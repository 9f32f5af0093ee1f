"""Figure 9: gated precharging versus resizable caches across technologies.

For each technology node the benchmark-averaged relative bitline discharge
is computed for gated precharging and for the resizable-cache baseline.
The paper's finding: resizable caches achieve a roughly constant, modest
discharge reduction across CMOS generations (their savings are limited by
coarse granularity, not by the isolation overhead), while gated
precharging improves dramatically towards 70nm as the precharge-device
switching overhead vanishes — ending far ahead of resizable caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.circuits.technology import available_nodes
from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.sim.metrics import arithmetic_mean

from .report import format_table

__all__ = ["Figure9Result", "figure9", "format_figure9"]


@dataclass(frozen=True)
class Figure9Result:
    """Benchmark-averaged relative discharge per technology and policy.

    Attributes:
        gated_dcache: node (nm) -> average relative L1D discharge (gated).
        gated_icache: node (nm) -> average relative L1I discharge (gated).
        resizable_dcache: node (nm) -> average relative L1D discharge
            (resizable cache).
        resizable_icache: node (nm) -> average relative L1I discharge
            (resizable cache).
    """

    gated_dcache: Dict[int, float]
    gated_icache: Dict[int, float]
    resizable_dcache: Dict[int, float]
    resizable_icache: Dict[int, float]

    @property
    def nodes(self) -> Tuple[int, ...]:
        """The technology nodes evaluated, oldest first."""
        return tuple(sorted(self.gated_dcache, reverse=True))

    def gated_beats_resizable_at(self, feature_size_nm: int) -> bool:
        """Whether gated precharging removes more discharge at a node."""
        return (
            self.gated_dcache[feature_size_nm] < self.resizable_dcache[feature_size_nm]
        )


def figure9(
    engine: SimEngine,
    benchmarks: Optional[Sequence[str]] = None,
    nodes: Optional[Sequence[int]] = None,
    n_instructions: int = 15_000,
    threshold: int = 100,
    l2: Union[PolicySpec, str] = "static",
) -> Figure9Result:
    """Regenerate Figure 9 (gated precharging vs resizable caches).

    Args:
        engine: Engine to run on.
        benchmarks: Benchmark subset (default: all sixteen).
        nodes: Technology nodes to sweep (default: every modelled node).
        n_instructions: Micro-ops per run.
        threshold: Gated-precharging decay threshold.
        l2: L2 precharge policy applied to every run.
    """
    nodes = list(nodes) if nodes is not None else available_nodes()
    gated_d: Dict[int, float] = {}
    gated_i: Dict[int, float] = {}
    resize_d: Dict[int, float] = {}
    resize_i: Dict[int, float] = {}
    for nm in nodes:
        gated_cfg = SimulationConfig(
            dcache=PolicySpec("gated-predecode", {"threshold": threshold}),
            icache=PolicySpec("gated", {"threshold": threshold}),
            feature_size_nm=nm,
            n_instructions=n_instructions,
            l2=l2,
        )
        resizable_cfg = SimulationConfig(
            dcache=PolicySpec("resizable"),
            icache=PolicySpec("resizable"),
            feature_size_nm=nm,
            n_instructions=n_instructions,
            l2=l2,
        )
        gated_runs = engine.sweep(gated_cfg, benchmarks)
        resizable_runs = engine.sweep(resizable_cfg, benchmarks)
        gated_d[nm] = arithmetic_mean(
            r.energy.dcache_relative_discharge for r in gated_runs.values()
        )
        gated_i[nm] = arithmetic_mean(
            r.energy.icache_relative_discharge for r in gated_runs.values()
        )
        resize_d[nm] = arithmetic_mean(
            r.energy.dcache_relative_discharge for r in resizable_runs.values()
        )
        resize_i[nm] = arithmetic_mean(
            r.energy.icache_relative_discharge for r in resizable_runs.values()
        )
    return Figure9Result(
        gated_dcache=gated_d,
        gated_icache=gated_i,
        resizable_dcache=resize_d,
        resizable_icache=resize_i,
    )


def format_figure9(result: Figure9Result) -> str:
    """Render the Figure 9 series as a text table."""
    rows = []
    for nm in result.nodes:
        rows.append(
            [
                nm,
                f"{result.gated_dcache[nm]:.3f}",
                f"{result.resizable_dcache[nm]:.3f}",
                f"{result.gated_icache[nm]:.3f}",
                f"{result.resizable_icache[nm]:.3f}",
            ]
        )
    return format_table(
        headers=[
            "Feature (nm)",
            "Gated D rel. discharge",
            "Resizable D rel. discharge",
            "Gated I rel. discharge",
            "Resizable I rel. discharge",
        ],
        rows=rows,
        title="Figure 9: Bitline discharge — gated precharging vs resizable caches",
    )


from .registry import ExperimentOptions, register_experiment  # noqa: E402


@register_experiment(
    "figure9",
    title="Figure 9 - gated precharging vs resizable caches",
    formatter=format_figure9,
    consumes=("benchmarks", "n_instructions", "feature_size_nm", "l2_policy"),
)
def _figure9_experiment(engine, options: ExperimentOptions):
    """Gated precharging vs the resizable-cache baseline across nodes."""
    nodes = None if options.feature_size_nm is None else [options.feature_size_nm]
    return figure9(
        engine,
        benchmarks=options.benchmarks,
        nodes=nodes,
        n_instructions=options.resolved_instructions(15_000),
        l2=options.resolved_l2(),
    )
