"""L2 precharge-policy sweep: the half of the leakage the paper left on.

The paper's Table 2 hierarchy carries a 512KB unified L2 — sixteen times
the capacity of one L1 and therefore the larger share of the cache
leakage budget — yet only the L1s are precharge-controlled.  This
experiment applies each precharge scheme to the L2 (with the L1s fixed
at the paper's near-optimal gated configuration) and reports, per
benchmark and policy: the L2 bitline discharge relative to static
pull-up, the time-averaged fraction of L2 subarrays kept precharged, the
L2 whole-cache energy savings and the slowdown against the same system
with a conventional (static) L2.

L2 traffic is L1-miss traffic, so inter-access gaps are orders of
magnitude longer than in the L1s: decay thresholds that would thrash an
L1 are conservative at the L2, and even on-demand precharging — ruinous
on the L1 critical path — only taxes miss latencies here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.sim.metrics import RunResult, arithmetic_mean, slowdown
from repro.workloads.characteristics import benchmark_names

from .report import format_percent, format_table

__all__ = [
    "L2_POLICY_MENU",
    "L2PolicyRow",
    "L2SweepResult",
    "l2_policy_sweep",
    "format_l2_sweep",
]

#: The L2 policy axis: every studied scheme, with decay thresholds scaled
#: to L2 inter-access gaps (L1-miss traffic arrives orders of magnitude
#: more sparsely than L1 accesses, so useful thresholds are larger).
L2_POLICY_MENU: Tuple[PolicySpec, ...] = (
    PolicySpec("static"),
    PolicySpec("on-demand"),
    PolicySpec("oracle"),
    PolicySpec("gated", {"threshold": 500}),
    PolicySpec("gated", {"threshold": 2000}),
)


def _policy_label(spec: PolicySpec) -> str:
    """Compact display label for one L2 policy spec."""
    threshold = spec.get("threshold")
    if threshold is not None:
        return f"{spec.name}@{threshold}"
    return spec.name


@dataclass(frozen=True)
class L2PolicyRow:
    """One (L2 policy, benchmark) cell of the sweep.

    Attributes:
        policy: Display label of the L2 policy (e.g. ``"gated@500"``).
        benchmark: Benchmark name.
        l2_relative_discharge: L2 bitline discharge relative to the
            static pull-up baseline.
        l2_precharged_fraction: Time-averaged fraction of L2 subarrays
            kept precharged.
        l2_overall_savings: L2 whole-cache energy savings.
        l2_miss_ratio: L2 misses per access.
        slowdown: Execution-time increase against the static-L2 system.
    """

    policy: str
    benchmark: str
    l2_relative_discharge: float
    l2_precharged_fraction: float
    l2_overall_savings: float
    l2_miss_ratio: float
    slowdown: float


@dataclass(frozen=True)
class L2SweepResult:
    """Sweep outcome: per-policy per-benchmark rows plus averages.

    Attributes:
        rows: Every (policy, benchmark) cell, grouped by policy label in
            menu order.
        policies: Policy labels in menu order.
        feature_size_nm: Technology node.
    """

    rows: List[L2PolicyRow]
    policies: List[str]
    feature_size_nm: int

    def for_policy(self, policy: str) -> List[L2PolicyRow]:
        """The rows of one policy label."""
        return [row for row in self.rows if row.policy == policy]

    def average(self, policy: str, field: str) -> float:
        """Arithmetic mean of one field over a policy's benchmarks."""
        return arithmetic_mean(
            getattr(row, field) for row in self.for_policy(policy)
        )


def l2_policy_sweep(
    engine: SimEngine,
    benchmarks: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[PolicySpec]] = None,
    feature_size_nm: int = 70,
    n_instructions: int = 15_000,
    l1_threshold: int = 100,
) -> L2SweepResult:
    """Sweep precharge policies over the unified L2.

    Args:
        engine: Engine to run on.
        benchmarks: Benchmark subset (default: all sixteen).
        policies: L2 policy axis (default: :data:`L2_POLICY_MENU`); a
            static entry is prepended when missing, because it is the
            slowdown baseline.
        feature_size_nm: Technology node.
        n_instructions: Micro-ops per run.
        l1_threshold: Decay threshold of the fixed L1 gated policies.

    Returns:
        An :class:`L2SweepResult` with one row per (policy, benchmark).
    """
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    axis = list(policies) if policies is not None else list(L2_POLICY_MENU)
    static = PolicySpec("static")
    if not any(spec.cache_key() == static.cache_key() for spec in axis):
        axis.insert(0, static)

    base = SimulationConfig(
        dcache=PolicySpec("gated-predecode", {"threshold": l1_threshold}),
        icache=PolicySpec("gated", {"threshold": l1_threshold}),
        feature_size_nm=feature_size_nm,
        n_instructions=n_instructions,
    )
    # One batched fan-out over the full policy x benchmark cross-product.
    configs = [
        replace(base, benchmark=name, l2=spec) for spec in axis for name in names
    ]
    results = engine.run_many(configs)
    by_cell: Dict[Tuple[str, str], RunResult] = {
        (_policy_label(spec), name): result
        for (spec, name), result in zip(
            ((spec, name) for spec in axis for name in names), results
        )
    }

    rows: List[L2PolicyRow] = []
    labels = [_policy_label(spec) for spec in axis]
    for label in labels:
        for name in names:
            run = by_cell[(label, name)]
            baseline = by_cell[(_policy_label(static), name)]
            rows.append(
                L2PolicyRow(
                    policy=label,
                    benchmark=name,
                    l2_relative_discharge=run.energy.l2_relative_discharge,
                    l2_precharged_fraction=(
                        run.energy.l2.precharged_fraction
                        if run.energy.l2 is not None
                        else 1.0
                    ),
                    l2_overall_savings=run.energy.l2_overall_savings,
                    l2_miss_ratio=run.l2_miss_ratio,
                    slowdown=slowdown(run, baseline),
                )
            )
    return L2SweepResult(
        rows=rows, policies=labels, feature_size_nm=feature_size_nm
    )


def format_l2_sweep(result: L2SweepResult) -> str:
    """Render the L2 policy sweep as a per-policy average table."""
    rows = []
    for policy in result.policies:
        rows.append(
            [
                policy,
                f"{result.average(policy, 'l2_relative_discharge'):.3f}",
                format_percent(result.average(policy, "l2_precharged_fraction")),
                format_percent(result.average(policy, "l2_overall_savings")),
                format_percent(result.average(policy, "slowdown")),
            ]
        )
    table = format_table(
        headers=[
            "L2 policy",
            "L2 rel. discharge",
            "L2 precharged",
            "L2 energy savings",
            "Slowdown",
        ],
        rows=rows,
        title=(
            "L2 precharge-policy sweep "
            f"({result.feature_size_nm}nm, L1s gated at the paper's configuration)"
        ),
    )
    best = min(
        (p for p in result.policies),
        key=lambda p: result.average(p, "l2_relative_discharge"),
    )
    summary = (
        f"Lowest average L2 discharge: {best} "
        f"({result.average(best, 'l2_relative_discharge'):.3f} of static pull-up, "
        f"{format_percent(result.average(best, 'slowdown'))} slowdown)"
    )
    return table + "\n" + summary


from .registry import ExperimentOptions, register_experiment  # noqa: E402


@register_experiment(
    "l2sweep",
    title="L2 precharge-policy sweep",
    formatter=format_l2_sweep,
    consumes=("benchmarks", "n_instructions", "feature_size_nm", "l2_policy"),
)
def _l2sweep_experiment(engine, options: ExperimentOptions):
    """Apply every precharge scheme to the unified L2, L1s held at gated."""
    policies = None
    if options.l2_policy is not None:
        # A forced spec narrows the axis to itself (static is re-added as
        # the slowdown baseline by l2_policy_sweep).
        policies = [options.resolved_l2()]
    return l2_policy_sweep(
        engine,
        benchmarks=options.benchmarks,
        policies=policies,
        feature_size_nm=options.resolved_feature_size(),
        n_instructions=options.resolved_instructions(15_000),
    )
