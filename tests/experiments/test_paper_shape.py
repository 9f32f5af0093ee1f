"""The paper's headline results, checked at experiment scale.

Each experiment runs once over six benchmarks that span the paper's
behaviour classes, at 10,000 micro-ops per run (12,000 for Figures 9
and 10), and its averages are held to the shape the paper reports.  The
golden snapshots in ``tests/experiments/goldens/`` pin exact numbers at
a smaller size; ``test_experiments.py`` covers the circuit tables,
Figure 2 and report formatting.
"""

import pytest

from repro.experiments import (
    figure3,
    figure5,
    figure6,
    figure10,
    ondemand_slowdown,
    predecode_accuracy,
)
from repro.experiments.figure8 import figure8
from repro.experiments.figure9 import figure9
from repro.sim import SimEngine
from repro.sim.metrics import arithmetic_mean

#: Two of the three high-miss-rate outliers (art, health), a large-code
#: integer program (gcc), regular FP programs (mesa, wupwise) and a
#: pointer-chasing Olden kernel (treeadd).
BENCHMARKS = ["art", "gcc", "health", "mesa", "treeadd", "wupwise"]

#: Micro-ops per run.
INSTRUCTIONS = 10_000

#: Micro-ops per run for Figures 9 and 10, which sweep a second axis.
LONG_INSTRUCTIONS = 12_000

#: The high-miss-rate outliers the paper sets apart in Figure 5.
OUTLIERS = ("ammp", "art", "health")


@pytest.fixture(scope="module")
def fast_engine():
    """One engine for the module; the fast path is bit-identical to the reference."""
    with SimEngine(fast=True) as engine:
        yield engine


@pytest.fixture(scope="module")
def ondemand_result(fast_engine):
    """Section 5's on-demand slowdown, shared by the checks below."""
    return ondemand_slowdown(
        fast_engine, benchmarks=BENCHMARKS, n_instructions=INSTRUCTIONS
    )


@pytest.fixture(scope="module")
def figure8_result(fast_engine):
    """Figure 8's gated precharging, shared by the checks below."""
    return figure8(fast_engine, benchmarks=BENCHMARKS, n_instructions=INSTRUCTIONS)


@pytest.fixture(scope="module")
def figure9_result(fast_engine):
    """Figure 9 at its two end-point nodes, shared by the checks below."""
    return figure9(
        fast_engine, benchmarks=BENCHMARKS, nodes=[180, 70],
        n_instructions=LONG_INSTRUCTIONS,
    )


def test_figure3_oracle_removes_most_discharge(fast_engine):
    """Section 4: the oracle removes ~89% (L1D) and ~90% (L1I) at 70nm."""
    result = figure3(fast_engine, benchmarks=BENCHMARKS, n_instructions=INSTRUCTIONS)
    assert result.average_discharge_savings_dcache > 0.75
    assert result.average_discharge_savings_icache > 0.80


def test_figure5_accesses_concentrate_on_hot_subarrays(fast_engine):
    """Most accesses hit subarrays touched in the last ~100 cycles."""
    result = figure5(fast_engine, benchmarks=BENCHMARKS, n_instructions=INSTRUCTIONS)
    hot100 = [series[100] for series in result.dcache.values()]
    assert arithmetic_mean(hot100) > 0.5
    # The thrashing outliers show lower subarray access frequency.
    regular = [
        series[100] for name, series in result.dcache.items() if name not in OUTLIERS
    ]
    assert arithmetic_mean(regular) >= arithmetic_mean(hot100)


def test_figure6_few_subarrays_are_hot():
    """About 22% of subarrays are hot at 100 cycles, at most ~40% at 1000."""
    result = figure6(benchmarks=BENCHMARKS, n_instructions=INSTRUCTIONS)
    hot_100 = result.average_hot_fraction("dcache", 100)
    hot_1000 = result.average_hot_fraction("dcache", 1000)
    assert hot_100 < 0.5
    assert hot_100 <= hot_1000 <= 0.8
    assert result.average_hot_fraction("icache", 100) < hot_1000


def test_ondemand_costs_a_noticeable_slowdown(ondemand_result):
    """Section 5: the extra pull-up cycle on every access costs ~9% / ~7%."""
    assert ondemand_result.average_dcache_slowdown > 0.005
    assert ondemand_result.average_icache_slowdown > 0.005


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND (src/repro/experiments/ondemand.py): at this scale "
    "on-demand slows the data cache by 1.5% and the instruction cache by 1.7%, "
    "against the paper's ~9% and ~7%",
)
def test_ondemand_slowdown_reaches_half_the_paper(ondemand_result):
    """At least half of the paper's ~9% (L1D) and ~7% (L1I) slowdown."""
    assert ondemand_result.average_dcache_slowdown >= 0.045
    assert ondemand_result.average_icache_slowdown >= 0.035


def test_predecode_accuracy_degrades_for_line_sized_subarrays():
    """Section 6.3: ~80% correct at 1KB subarrays, clearly worse at 64B."""
    result = predecode_accuracy(benchmarks=BENCHMARKS, n_instructions=INSTRUCTIONS)
    assert result.average_accuracy(1024) > 0.6
    assert result.average_accuracy(64) < result.average_accuracy(1024)


def test_figure8_gated_is_near_optimal(figure8_result):
    """Section 6: ~83% / 87% of discharge removed at ~1% slowdown."""
    result = figure8_result
    assert result.average_dcache_discharge_reduction > 0.6
    assert result.average_icache_discharge_reduction > 0.8
    assert result.average_dcache_precharged < 0.3
    assert result.average_icache_precharged < 0.15
    assert result.average_slowdown < 0.02
    # The constant threshold lands in the same range as the per-benchmark
    # optimum (the paper reports 78/81% vs 83/87%); the profiling-based
    # optimum errs on the conservative side for some benchmarks, so allow a
    # modest margin in either direction.
    assert (
        result.average_dcache_discharge_reduction_constant
        <= result.average_dcache_discharge_reduction + 0.25
    )


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND (instruction-cache results): gated precharging "
    "keeps 0.5% of L1I subarrays precharged at this scale, against the "
    "paper's ~6%",
)
def test_figure8_icache_precharged_fraction_reaches_half_the_paper(figure8_result):
    """At least half of the paper's ~6% of L1I subarrays stay precharged."""
    assert figure8_result.average_icache_precharged >= 0.03


def test_figure9_gated_pulls_ahead_of_resizable(figure9_result):
    """Gated improves sharply toward 70nm and ends ahead of resizable caches."""
    result = figure9_result
    assert result.gated_beats_resizable_at(70)
    assert result.gated_dcache[70] < result.gated_dcache[180]
    # Resizable caches change little across nodes (coarse-grained savings).
    resizable_spread = abs(result.resizable_dcache[70] - result.resizable_dcache[180])
    gated_spread = abs(result.gated_dcache[70] - result.gated_dcache[180])
    assert resizable_spread < gated_spread + 0.2


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 1: the resizable baseline resizes once per 50,000 "
    "accesses, more than a 12,000-micro-op run makes, so it never resizes and "
    "its relative discharge reads 1.000; the check above passes against a "
    "baseline that does nothing",
)
def test_figure9_resizable_baseline_saves_discharge(figure9_result):
    """Resizable caches give a modest discharge reduction at every node."""
    assert figure9_result.resizable_dcache[70] < 1.0
    assert figure9_result.resizable_icache[70] < 1.0


def test_figure10_smaller_subarrays_precharge_fewer(fast_engine):
    """The precharged fraction falls as subarrays shrink from 4KB."""
    result = figure10(
        fast_engine, benchmarks=BENCHMARKS, subarray_sizes=(4096, 1024, 256),
        n_instructions=LONG_INSTRUCTIONS,
    )
    assert result.monotonic_improvement("dcache")
    assert result.monotonic_improvement("icache")
    assert result.dcache_precharged[4096] > result.dcache_precharged[1024]
