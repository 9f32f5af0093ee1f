"""Tests for the benchmark's own arithmetic and inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import stats  # noqa: E402
from common import Result  # noqa: E402
from stats import Tally, exclusive_times, latency_summary, percentile, reportable, samples_beyond  # noqa: E402


class TestPercentileRule:
    def test_interpolates_between_ranks(self):
        assert percentile([1, 2, 3, 4], 0.5) == 2.5
        assert percentile([10], 0.99) == 10
        assert percentile(list(range(101)), 0.9) == 90

    def test_samples_beyond(self):
        assert samples_beyond(100, 0.9) == 10
        assert samples_beyond(99, 0.9) == 9
        assert samples_beyond(1000, 0.99) == 10
        assert samples_beyond(20, 0.5) == 10

    def test_percentile_needs_ten_samples_beyond(self):
        assert reportable(100, 0.9)
        assert not reportable(99, 0.9)
        assert not reportable(999, 0.99)
        assert reportable(1000, 0.99)
        assert stats.min_samples(0.9) == 100
        assert stats.min_samples(0.5) == 20

    def test_summary_reports_only_supported_percentiles(self):
        summary = latency_summary([float(v) for v in range(150)])
        assert summary["count"] == 150
        assert summary["p50"] == pytest.approx(74.5)
        assert summary["p90"] is not None
        assert summary["p99"] is None

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestExclusiveTimes:
    def test_nested_spans_give_self_time(self):
        # parent [0, 10] with children [1, 3] and [2, 6] (overlapping) and
        # a grandchild [4, 5] inside the second child.
        spans = [
            ("parent", 0.0, 10.0, 0),
            ("a", 1.0, 3.0, 1),
            ("b", 2.0, 6.0, 1),
            ("grandchild", 4.0, 5.0, 2),
        ]
        times = exclusive_times(spans)
        assert times["parent"] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
        assert times["grandchild"] == pytest.approx(1.0)
        assert times["a"] + times["b"] == pytest.approx(5.0 - 1.0)
        assert sum(times.values()) == pytest.approx(10.0)

    def test_deeper_span_wins_an_overlap(self):
        # A client poll in flight while the server executes: the server's
        # deeper span takes the shared instants, nothing is counted twice.
        times = exclusive_times([
            ("root", 0.0, 4.0, 0),
            ("poll", 1.0, 3.0, 1),
            ("exec", 2.0, 4.0, 2),
        ])
        assert times == pytest.approx({"root": 1.0, "poll": 1.0, "exec": 2.0})

    def test_repeated_labels_add_and_empty_spans_vanish(self):
        times = exclusive_times([
            ("root", 0.0, 3.0, 0),
            ("poll", 0.5, 1.0, 1),
            ("poll", 2.0, 2.5, 1),
            ("empty", 1.0, 1.0, 1),
        ])
        assert times["poll"] == pytest.approx(1.0)
        assert times["root"] == pytest.approx(2.0)
        assert "empty" not in times


class TestErrorRate:
    def test_every_non_ok_outcome_counts_as_failed(self):
        tally = Tally()
        tally.add("ok", 90)
        for outcome in ("failed", "rejected", "timeout", "poisoned"):
            tally.add(outcome)
        assert tally.attempted == 94
        assert tally.failed == 4
        assert tally.error_rate == pytest.approx(4 / 94)

    def test_mismatch_relabels_completed_operations(self):
        tally = Tally()
        tally.add("ok", 10)
        tally.mismatch(3)
        assert (tally.attempted, tally.failed) == (10, 3)
        assert tally.counts["mismatch"] == 3

    def test_unknown_outcome_and_empty_tally(self):
        tally = Tally()
        assert tally.error_rate == 0.0
        with pytest.raises(ValueError):
            tally.add("lost")


class TestVerdict:
    def test_all_ok_is_correct(self):
        result = Result()
        result.tally.add("ok", 5)
        assert result.correct

    @pytest.mark.parametrize("outcome", ["failed", "rejected", "timeout", "poisoned"])
    def test_any_failed_operation_makes_the_run_incorrect(self, outcome):
        result = Result()
        result.tally.add("ok", 99)
        result.tally.add(outcome)
        assert not result.correct

    def test_a_mismatch_or_failed_check_makes_the_run_incorrect(self):
        mismatched = Result()
        mismatched.tally.add("ok", 3)
        mismatched.tally.mismatch(1)
        assert not mismatched.correct
        checked = Result()
        checked.tally.add("ok", 3)
        checked.fail("cache hit")
        assert not checked.correct
        assert checked.lines == ["INCORRECT: cache hit"]


def test_miss_stream_stays_in_the_compiled_prefix_and_never_repeats_a_unit():
    import inputs
    from repro.sim.store import ResultStore

    stream = inputs.MissStream(7)
    drawn = [stream.next() for _ in range(3 * inputs.MISS_OFFSETS)]
    assert len({ResultStore.key_for(config) for config in drawn}) == len(drawn)
    assert all(
        inputs.JOB_OPS <= config.n_instructions < inputs.JOB_OPS + inputs.MISS_OFFSETS
        for config in drawn
    )
    assert all(config.n_instructions < inputs.MISS_WARM_OPS for config in drawn)
    again = inputs.MissStream(7)
    assert [again.next() for _ in range(50)] == drawn[:50]


def test_median_band_brackets_the_median():
    values = [float(v) for v in range(100)]
    band = stats.median_band(values, width=0.1)
    assert min(values[i] for i in band) >= 39
    assert max(values[i] for i in band) <= 60
    assert 49 in band and 50 in band


def test_benchmark_json_names_every_ledger_metric():
    # ledger imports the simulator's packages only through common/stats,
    # so it is importable without the simulator on the path.
    import ledger

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in ledger.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in ledger.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "sim_mops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb",
    }
