"""Figure 8: gated precharging — precharged subarrays and bitline discharge.

Every benchmark runs with gated precharging on both L1 caches (with
predecoding on the data cache), using the statically-found per-benchmark
optimum threshold (the most aggressive threshold whose estimated slowdown
stays within 1%, Section 6.4), and again with the constant threshold of
100 cycles.  Reported per benchmark and on average: the time-averaged
fraction of subarrays kept precharged, the bitline discharge relative to
conventional static pull-up, and the measured slowdown against the static
baseline.

Paper targets: ~10% (data) / ~6% (instruction) of subarrays precharged,
~83%/87% discharge reduction at the per-benchmark optimum, ~78%/81% with
the constant threshold, all within ~1% slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.sim.metrics import RunResult, arithmetic_mean, slowdown
from repro.sim.sweep import select_benchmark_thresholds
from repro.workloads.characteristics import benchmark_names

from .report import format_percent, format_table

__all__ = ["Figure8Benchmark", "Figure8Result", "figure8", "format_figure8"]


@dataclass(frozen=True)
class Figure8Benchmark:
    """Gated-precharging results for one benchmark.

    All discharge/precharged values are relative to conventional caches.
    """

    benchmark: str
    dcache_threshold: int
    icache_threshold: int
    dcache_precharged_fraction: float
    icache_precharged_fraction: float
    dcache_relative_discharge: float
    icache_relative_discharge: float
    dcache_overall_savings: float
    icache_overall_savings: float
    slowdown: float


@dataclass(frozen=True)
class Figure8Result:
    """Per-benchmark and average gated-precharging results.

    Attributes:
        optimum: Results with the per-benchmark optimum thresholds.
        constant: Results with the constant threshold (100 cycles).
        feature_size_nm: Technology node.
    """

    optimum: Dict[str, Figure8Benchmark]
    constant: Dict[str, Figure8Benchmark]
    feature_size_nm: int

    # ------------------------------------------------------------------
    def _average(self, table: Dict[str, Figure8Benchmark], field: str) -> float:
        return arithmetic_mean(getattr(row, field) for row in table.values())

    @property
    def average_dcache_precharged(self) -> float:
        """Mean fraction of data-cache subarrays kept precharged (optimum)."""
        return self._average(self.optimum, "dcache_precharged_fraction")

    @property
    def average_icache_precharged(self) -> float:
        """Mean fraction of instruction-cache subarrays kept precharged (optimum)."""
        return self._average(self.optimum, "icache_precharged_fraction")

    @property
    def average_dcache_discharge_reduction(self) -> float:
        """Mean data-cache bitline-discharge reduction (optimum thresholds)."""
        return 1.0 - self._average(self.optimum, "dcache_relative_discharge")

    @property
    def average_icache_discharge_reduction(self) -> float:
        """Mean instruction-cache bitline-discharge reduction (optimum thresholds)."""
        return 1.0 - self._average(self.optimum, "icache_relative_discharge")

    @property
    def average_dcache_discharge_reduction_constant(self) -> float:
        """Mean data-cache discharge reduction with the constant threshold."""
        return 1.0 - self._average(self.constant, "dcache_relative_discharge")

    @property
    def average_icache_discharge_reduction_constant(self) -> float:
        """Mean instruction-cache discharge reduction with the constant threshold."""
        return 1.0 - self._average(self.constant, "icache_relative_discharge")

    @property
    def average_slowdown(self) -> float:
        """Mean slowdown at the per-benchmark optimum thresholds."""
        return self._average(self.optimum, "slowdown")

    @property
    def average_dcache_overall_savings(self) -> float:
        """Mean whole-cache (L1D) energy reduction at the optimum thresholds."""
        return self._average(self.optimum, "dcache_overall_savings")

    @property
    def average_icache_overall_savings(self) -> float:
        """Mean whole-cache (L1I) energy reduction at the optimum thresholds."""
        return self._average(self.optimum, "icache_overall_savings")


def _gated_config(
    benchmark: str,
    dcache_threshold: int,
    icache_threshold: int,
    feature_size_nm: int,
    n_instructions: int,
    l2: Union[PolicySpec, str] = "static",
) -> SimulationConfig:
    return SimulationConfig(
        benchmark=benchmark,
        dcache=PolicySpec("gated-predecode", {"threshold": dcache_threshold}),
        icache=PolicySpec("gated", {"threshold": icache_threshold}),
        feature_size_nm=feature_size_nm,
        n_instructions=n_instructions,
        l2=l2,
    )


def _gated_row(
    benchmark: str,
    dcache_threshold: int,
    icache_threshold: int,
    gated: "RunResult",
    baseline: "RunResult",
) -> Figure8Benchmark:
    return Figure8Benchmark(
        benchmark=benchmark,
        dcache_threshold=dcache_threshold,
        icache_threshold=icache_threshold,
        dcache_precharged_fraction=gated.energy.dcache.precharged_fraction,
        icache_precharged_fraction=gated.energy.icache.precharged_fraction,
        dcache_relative_discharge=gated.energy.dcache_relative_discharge,
        icache_relative_discharge=gated.energy.icache_relative_discharge,
        dcache_overall_savings=gated.energy.dcache_overall_savings,
        icache_overall_savings=gated.energy.icache_overall_savings,
        slowdown=slowdown(gated, baseline),
    )


def figure8(
    engine: SimEngine,
    benchmarks: Optional[Sequence[str]] = None,
    feature_size_nm: int = 70,
    n_instructions: int = 20_000,
    constant_threshold: int = 100,
    l2: Union[PolicySpec, str] = "static",
) -> Figure8Result:
    """Regenerate Figure 8 (gated precharging, optimum and constant thresholds).

    Runs in three batched phases so the engine can fan each out over its
    workers: the static profiling/baseline runs, then every gated run
    (optimum and constant thresholds), then row assembly from the cached
    results.  ``l2`` forces an L2 precharge policy onto every run
    (baselines included), so the reported slowdowns stay relative to the
    same hierarchy.
    """
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    base = SimulationConfig(
        feature_size_nm=feature_size_nm, n_instructions=n_instructions, l2=l2
    )

    # Phase 1: one static run per benchmark — the threshold-selection
    # profile and the slowdown baseline are the same configuration.
    baselines = engine.sweep(base, benchmarks=names)
    thresholds = {
        name: select_benchmark_thresholds(engine, name, base)
        for name in names
    }

    # Phase 2: every gated run (per-benchmark optimum + constant), batched.
    optimum_cfgs = [
        _gated_config(
            name,
            thresholds[name].dcache_threshold,
            thresholds[name].icache_threshold,
            feature_size_nm,
            n_instructions,
            l2=l2,
        )
        for name in names
    ]
    constant_cfgs = [
        _gated_config(
            name, constant_threshold, constant_threshold, feature_size_nm,
            n_instructions, l2=l2,
        )
        for name in names
    ]
    gated_runs = engine.run_many(optimum_cfgs + constant_cfgs)
    optimum_runs = gated_runs[: len(names)]
    constant_runs = gated_runs[len(names):]

    optimum: Dict[str, Figure8Benchmark] = {}
    constant: Dict[str, Figure8Benchmark] = {}
    for index, name in enumerate(names):
        optimum[name] = _gated_row(
            name,
            thresholds[name].dcache_threshold,
            thresholds[name].icache_threshold,
            optimum_runs[index],
            baselines[name],
        )
        constant[name] = _gated_row(
            name,
            constant_threshold,
            constant_threshold,
            constant_runs[index],
            baselines[name],
        )
    return Figure8Result(
        optimum=optimum, constant=constant, feature_size_nm=feature_size_nm
    )


def format_figure8(result: Figure8Result) -> str:
    """Render the Figure 8 bars as a text table."""
    rows = []
    for name, row in result.optimum.items():
        rows.append(
            [
                name,
                row.dcache_threshold,
                format_percent(row.dcache_precharged_fraction),
                f"{row.dcache_relative_discharge:.3f}",
                row.icache_threshold,
                format_percent(row.icache_precharged_fraction),
                f"{row.icache_relative_discharge:.3f}",
                format_percent(row.slowdown),
            ]
        )
    rows.append(
        [
            "AVG",
            "-",
            format_percent(result.average_dcache_precharged),
            f"{1.0 - result.average_dcache_discharge_reduction:.3f}",
            "-",
            format_percent(result.average_icache_precharged),
            f"{1.0 - result.average_icache_discharge_reduction:.3f}",
            format_percent(result.average_slowdown),
        ]
    )
    table = format_table(
        headers=[
            "Benchmark",
            "D thr",
            "D precharged",
            "D rel. discharge",
            "I thr",
            "I precharged",
            "I rel. discharge",
            "Slowdown",
        ],
        rows=rows,
        title=(
            "Figure 8: Gated precharging — precharged subarrays and bitline "
            f"discharge ({result.feature_size_nm}nm, per-benchmark optimum thresholds)"
        ),
    )
    summary = (
        "Average discharge reduction (optimum): "
        f"data {format_percent(result.average_dcache_discharge_reduction)}, "
        f"instruction {format_percent(result.average_icache_discharge_reduction)}; "
        "(constant threshold 100): "
        f"data {format_percent(result.average_dcache_discharge_reduction_constant)}, "
        f"instruction {format_percent(result.average_icache_discharge_reduction_constant)}; "
        f"overall cache energy reduction: data {format_percent(result.average_dcache_overall_savings)}, "
        f"instruction {format_percent(result.average_icache_overall_savings)}"
    )
    return table + "\n" + summary


from .registry import ExperimentOptions, register_experiment  # noqa: E402


@register_experiment(
    "figure8",
    title="Figure 8 - gated precharging results",
    formatter=format_figure8,
    consumes=("benchmarks", "n_instructions", "feature_size_nm", "l2_policy"),
)
def _figure8_experiment(engine, options: ExperimentOptions):
    """Gated precharging: precharged subarrays, discharge and slowdown."""
    return figure8(
        engine,
        benchmarks=options.benchmarks,
        feature_size_nm=options.resolved_feature_size(),
        n_instructions=options.resolved_instructions(20_000),
        l2=options.resolved_l2(),
    )
