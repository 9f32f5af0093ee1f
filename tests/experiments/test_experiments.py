"""Tests for the experiment modules (tables, figures, report formatting)."""

import pytest

from repro.experiments import (
    figure2,
    figure3,
    figure5,
    figure6,
    figure10,
    format_figure2,
    format_figure3,
    format_figure8,
    format_figure9,
    format_figure10,
    format_ondemand,
    format_percent,
    format_predecode_accuracy,
    format_series,
    format_table,
    format_table1,
    format_table2,
    format_table3,
    ondemand_slowdown,
    predecode_accuracy,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.experiments.figure8 import figure8
from repro.experiments.figure9 import figure9

#: A small, fast benchmark subset used to keep these tests quick; the full
#: sixteen-benchmark sweeps run in the benchmark harness.
FAST_BENCHMARKS = ["gcc", "treeadd"]
FAST_INSTRUCTIONS = 4_000


class TestReportFormatting:
    def test_format_percent(self):
        assert format_percent(0.834) == "83.4%"
        assert format_percent(0.834, digits=0) == "83%"

    def test_format_table_aligns_columns(self):
        text = format_table(["a", "long header"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long header" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series(self):
        assert format_series("x", [(1, 0.5)], "{:.1f}") == "x: 1: 0.5"


class TestStaticTables:
    def test_table1_matches_paper(self):
        rows = table1_rows()
        assert [r.feature_size_nm for r in rows] == [180, 130, 100, 70]
        assert rows[-1].supply_voltage == pytest.approx(1.0)
        assert "1.8" in format_table1()

    def test_table2_lists_all_parameters(self):
        rows = dict(table2_rows())
        assert rows["Issue & decode"] == "8 instructions per cycle"
        assert "32K" in rows["L1 d-cache"]
        assert "512K" in rows["L2 unified cache"]
        assert "Table 2" in format_table2()

    def test_table3_pull_up_always_exceeds_final_decode(self):
        for row in table3_rows():
            assert row.pull_up_exceeds_final_decode
        assert "Worst-case pull-up" in format_table3()

    def test_table3_covers_both_subarray_sizes_and_all_nodes(self):
        rows = table3_rows()
        assert len(rows) == 8
        assert {row.subarray_bytes for row in rows} == {1024, 4096}


class TestCircuitFigures:
    def test_figure2_trend(self):
        result = figure2(samples=31)
        assert result.peak_overhead_percent(180) == pytest.approx(195, rel=0.03)
        assert result.peak_overhead_percent(70) < 105
        assert result.settling_time_ns(70) < result.settling_time_ns(180)
        assert "Figure 2" in format_figure2(result)

    def test_figure2_series_is_time_ordered(self):
        result = figure2(samples=31)
        series = result.series(70)
        times = [t for t, _ in series]
        assert times == sorted(times)


class TestArchitecturalExperiments:
    def test_figure3_oracle_saves_most_discharge(self, engine):
        result = figure3(engine, benchmarks=FAST_BENCHMARKS, n_instructions=FAST_INSTRUCTIONS)
        assert result.average_discharge_savings_dcache > 0.6
        assert result.average_discharge_savings_icache > 0.6
        assert "AVG" in format_figure3(result)

    def test_ondemand_slowdown_positive_for_both_caches(self, engine):
        result = ondemand_slowdown(
            engine, benchmarks=FAST_BENCHMARKS, n_instructions=FAST_INSTRUCTIONS
        )
        assert result.average_dcache_slowdown > 0
        assert result.average_icache_slowdown > 0
        assert "Section 5" in format_ondemand(result)

    def test_figure5_cumulative_distributions_monotone(self, engine):
        result = figure5(engine, benchmarks=FAST_BENCHMARKS, n_instructions=FAST_INSTRUCTIONS)
        for table in (result.dcache, result.icache):
            for series in table.values():
                values = [series[t] for t in sorted(series)]
                assert values == sorted(values)
                assert values[-1] <= 1.0

    def test_figure6_hot_fraction_small_at_100_cycles(self):
        result = figure6(benchmarks=FAST_BENCHMARKS, n_instructions=FAST_INSTRUCTIONS)
        assert result.average_hot_fraction("dcache", 100) < 0.6
        for series in result.dcache.values():
            values = [series[t] for t in sorted(series)]
            assert values == sorted(values)

    def test_predecode_accuracy_higher_for_larger_subarrays(self):
        result = predecode_accuracy(
            benchmarks=FAST_BENCHMARKS, n_instructions=FAST_INSTRUCTIONS
        )
        assert result.average_accuracy(1024) > result.average_accuracy(64)
        assert 0.4 < result.average_accuracy(1024) <= 1.0
        assert "Predecoding" in format_predecode_accuracy(result)

    def test_figure8_gated_results(self, engine):
        result = figure8(engine, benchmarks=FAST_BENCHMARKS, n_instructions=FAST_INSTRUCTIONS)
        assert result.average_dcache_discharge_reduction > 0.5
        assert result.average_icache_discharge_reduction > 0.7
        assert result.average_dcache_precharged < 0.4
        assert abs(result.average_slowdown) < 0.05
        assert "Figure 8" in format_figure8(result)

    def test_figure9_gated_beats_resizable_at_70nm(self, engine):
        result = figure9(
            engine, benchmarks=FAST_BENCHMARKS, nodes=[180, 70],
            n_instructions=FAST_INSTRUCTIONS,
        )
        assert result.gated_beats_resizable_at(70)
        # Gated precharging improves toward 70nm; resizable stays flat-ish.
        assert result.gated_dcache[70] < result.gated_dcache[180]
        assert "Figure 9" in format_figure9(result)

    def test_figure10_smaller_subarrays_precharge_fewer(self, engine):
        result = figure10(
            engine,
            benchmarks=FAST_BENCHMARKS,
            subarray_sizes=(4096, 1024, 256),
            n_instructions=FAST_INSTRUCTIONS,
        )
        assert result.monotonic_improvement("dcache")
        assert result.monotonic_improvement("icache")
        assert "Figure 10" in format_figure10(result)
