"""L1/L2 energy-delay frontier: which level should gate its bitlines?

With both cache levels policy-controlled, the design space is a grid:
every L1 precharge configuration crossed with every L2 policy.  Each
grid point is summarised by two benchmark-averaged ratios against the
all-static hierarchy — total hierarchy cache energy (L1I + L1D + L2)
and execution time — and by their product (the energy-delay product).
The Pareto-optimal subset is the energy-delay frontier: the
configurations for which no other point is at least as good on both
axes and strictly better on one.

The expected shape: gating the L2 is nearly free (its traffic is sparse
L1-miss traffic, so decay thresholds barely delay anything) while
gating the L1s buys the larger dynamic-energy share at a small slowdown
— the frontier therefore runs from the all-static corner through
L2-only gating to whole-hierarchy gating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.sim.metrics import RunResult, arithmetic_mean
from repro.workloads.characteristics import benchmark_names

from .report import format_table

__all__ = [
    "L1_MENU",
    "L2_MENU",
    "FrontierPoint",
    "FrontierResult",
    "energy_delay_frontier",
    "format_frontier",
]

#: L1 policy pairs (label, dcache spec, icache spec) spanning the paper's
#: range: conventional, the near-optimal gated configuration, the oracle.
L1_MENU: Tuple[Tuple[str, PolicySpec, PolicySpec], ...] = (
    ("static", PolicySpec("static"), PolicySpec("static")),
    (
        "gated",
        PolicySpec("gated-predecode", {"threshold": 100}),
        PolicySpec("gated", {"threshold": 100}),
    ),
    ("oracle", PolicySpec("oracle"), PolicySpec("oracle")),
)

#: L2 policy axis (label, spec) — thresholds scaled to L2 traffic.
L2_MENU: Tuple[Tuple[str, PolicySpec], ...] = (
    ("static", PolicySpec("static")),
    ("gated@500", PolicySpec("gated", {"threshold": 500})),
    ("on-demand", PolicySpec("on-demand")),
)


@dataclass(frozen=True)
class FrontierPoint:
    """One L1 x L2 grid point, normalised to the all-static hierarchy.

    Attributes:
        l1: L1 menu label.
        l2: L2 menu label.
        relative_energy: Benchmark-averaged total hierarchy cache energy
            (L1I + L1D + L2) relative to the all-static configuration.
        relative_delay: Benchmark-averaged execution time relative to
            the all-static configuration.
        energy_delay_product: ``relative_energy * relative_delay``.
        pareto: Whether the point lies on the energy-delay frontier.
    """

    l1: str
    l2: str
    relative_energy: float
    relative_delay: float
    energy_delay_product: float
    pareto: bool


@dataclass(frozen=True)
class FrontierResult:
    """The full grid plus the frontier subset.

    Attributes:
        points: Every grid point, L1-major in menu order.
        feature_size_nm: Technology node.
    """

    points: List[FrontierPoint]
    feature_size_nm: int

    @property
    def frontier(self) -> List[FrontierPoint]:
        """The Pareto-optimal points, sorted by relative delay."""
        return sorted(
            (p for p in self.points if p.pareto), key=lambda p: p.relative_delay
        )

    @property
    def best_energy_delay(self) -> FrontierPoint:
        """The point with the lowest energy-delay product."""
        return min(self.points, key=lambda p: p.energy_delay_product)


def _mark_pareto(points: List[Tuple[str, str, float, float]]) -> List[FrontierPoint]:
    """Attach Pareto-optimality to (l1, l2, energy, delay) tuples."""
    marked: List[FrontierPoint] = []
    for l1, l2, energy, delay in points:
        dominated = any(
            (other_e <= energy and other_d <= delay)
            and (other_e < energy or other_d < delay)
            for _, _, other_e, other_d in points
        )
        marked.append(
            FrontierPoint(
                l1=l1,
                l2=l2,
                relative_energy=energy,
                relative_delay=delay,
                energy_delay_product=energy * delay,
                pareto=not dominated,
            )
        )
    return marked


def energy_delay_frontier(
    engine: SimEngine,
    benchmarks: Optional[Sequence[str]] = None,
    l1_menu: Sequence[Tuple[str, PolicySpec, PolicySpec]] = L1_MENU,
    l2_menu: Sequence[Tuple[str, PolicySpec]] = L2_MENU,
    feature_size_nm: int = 70,
    n_instructions: int = 15_000,
) -> FrontierResult:
    """Compute the L1 x L2 energy-delay grid and its Pareto frontier.

    Args:
        engine: Engine to run on.
        benchmarks: Benchmark subset (default: all sixteen).
        l1_menu: L1 policy pairs (label, dcache spec, icache spec).
        l2_menu: L2 policies (label, spec).
        feature_size_nm: Technology node.
        n_instructions: Micro-ops per run.

    Returns:
        A :class:`FrontierResult` over the full grid.

    Raises:
        ValueError: when either menu is empty (the all-static baseline
            is required and is inserted when missing).
    """
    if not l1_menu or not l2_menu:
        raise ValueError("both policy menus must be non-empty")
    names = list(benchmarks) if benchmarks is not None else benchmark_names()

    grid = [
        (l1_label, l2_label, dspec, ispec, l2_spec)
        for l1_label, dspec, ispec in l1_menu
        for l2_label, l2_spec in l2_menu
    ]
    static_cell = ("static", "static")
    if not any((l1, l2) == static_cell for l1, l2, *_ in grid):
        grid.insert(
            0,
            (
                "static",
                "static",
                PolicySpec("static"),
                PolicySpec("static"),
                PolicySpec("static"),
            ),
        )

    base = SimulationConfig(
        feature_size_nm=feature_size_nm, n_instructions=n_instructions
    )
    configs = [
        replace(base, benchmark=name, dcache=dspec, icache=ispec, l2=l2_spec)
        for _, _, dspec, ispec, l2_spec in grid
        for name in names
    ]
    results = engine.run_many(configs)
    by_cell: Dict[Tuple[str, str], List[RunResult]] = {}
    index = 0
    for l1_label, l2_label, *_ in grid:
        by_cell[(l1_label, l2_label)] = results[index : index + len(names)]
        index += len(names)

    baseline_runs = by_cell[static_cell]
    raw: List[Tuple[str, str, float, float]] = []
    for l1_label, l2_label, *_ in grid:
        runs = by_cell[(l1_label, l2_label)]
        energy = arithmetic_mean(
            run.energy.total_hierarchy_energy_j
            / baseline.energy.total_hierarchy_energy_j
            for run, baseline in zip(runs, baseline_runs)
        )
        delay = arithmetic_mean(
            run.cycles / baseline.cycles
            for run, baseline in zip(runs, baseline_runs)
        )
        raw.append((l1_label, l2_label, energy, delay))
    return FrontierResult(
        points=_mark_pareto(raw), feature_size_nm=feature_size_nm
    )


def format_frontier(result: FrontierResult) -> str:
    """Render the energy-delay grid with the frontier marked."""
    rows = [
        [
            point.l1,
            point.l2,
            f"{point.relative_energy:.3f}",
            f"{point.relative_delay:.4f}",
            f"{point.energy_delay_product:.3f}",
            "*" if point.pareto else "",
        ]
        for point in result.points
    ]
    table = format_table(
        headers=["L1", "L2", "Rel. energy", "Rel. delay", "EDP", "Frontier"],
        rows=rows,
        title=(
            "L1/L2 energy-delay frontier "
            f"({result.feature_size_nm}nm; ratios vs the all-static hierarchy)"
        ),
    )
    best = result.best_energy_delay
    summary = (
        f"Best energy-delay product: L1={best.l1}, L2={best.l2} "
        f"(energy {best.relative_energy:.3f}, delay {best.relative_delay:.4f}, "
        f"EDP {best.energy_delay_product:.3f}); "
        f"frontier holds {len(result.frontier)} of {len(result.points)} points"
    )
    return table + "\n" + summary


from .registry import ExperimentOptions, register_experiment  # noqa: E402


@register_experiment(
    "frontier",
    title="L1/L2 energy-delay frontier",
    formatter=format_frontier,
    consumes=("benchmarks", "n_instructions", "feature_size_nm", "l2_policy"),
)
def _frontier_experiment(engine, options: ExperimentOptions):
    """Pareto frontier of hierarchy energy vs delay over the L1 x L2 grid."""
    l2_menu = L2_MENU
    if options.l2_policy is not None:
        spec = options.resolved_l2()
        # The static baseline is mandatory; only add the forced policy
        # when it is not static itself (else the grid would hold
        # duplicate cells).
        l2_menu = (("static", PolicySpec("static")),)
        if spec.cache_key() != PolicySpec("static").cache_key():
            l2_menu += ((options.l2_policy, spec),)
    return energy_delay_frontier(
        engine,
        benchmarks=options.benchmarks,
        l2_menu=l2_menu,
        feature_size_nm=options.resolved_feature_size(),
        n_instructions=options.resolved_instructions(15_000),
    )
