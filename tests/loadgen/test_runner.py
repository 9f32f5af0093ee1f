"""The drivers against a live server: open loop, closed loop, replay, sweep."""

from __future__ import annotations

import pytest

from repro.loadgen.base import (
    DeterministicArrivals,
    PoissonArrivals,
    parse_rate_schedule,
    take_requests,
)
from repro.loadgen.replay import ReplayEngine, write_session
from repro.loadgen.report import format_curve, format_report
from repro.loadgen.runner import LoadRunner, saturation_sweep
from repro.loadgen.synthetic import MixEngine, parse_mix

#: Mirrors conftest.INSTRUCTIONS (kept literal: no package-relative
#: imports under pytest's importlib mode).
INSTRUCTIONS = 1500

MIX = "gcc/gated,art/gated:threshold=200"


def _engine(seed=3, rate="12"):
    return MixEngine(
        parse_mix(MIX, instructions=INSTRUCTIONS),
        PoissonArrivals(parse_rate_schedule(rate), seed=seed),
        seed=seed,
    )


class TestOpenLoop:
    def test_drives_the_stream_and_verifies_identity(self, live_server, local_engine):
        runner = LoadRunner(live_server.url)
        report = runner.open_loop(_engine(), 1.2)
        runner.verify(report, sample=2, engine=local_engine)
        assert report.offered > 0
        assert report.completed == report.offered
        assert report.failed == 0
        assert report.identity_checked == 2
        assert report.identity_ok is True
        row = report.to_dict()
        assert row["achieved_ratio"] == 1.0
        assert row["latency_s"]["p50"] is not None
        assert row["metrics_delta"]["jobs_submitted"] == report.offered

    def test_lateness_is_tracked_per_request(self, live_server):
        runner = LoadRunner(live_server.url)
        report = runner.open_loop(_engine(seed=9), 1.0)
        assert len(report.lateness_s) == report.offered
        assert all(lateness >= 0.0 for lateness in report.lateness_s)

    def test_deterministic_arrivals_offer_the_exact_count(self, live_server):
        # Rate 8 gives a binary-exact 0.125s gap, so the count is exact.
        engine = MixEngine(
            parse_mix(MIX, instructions=INSTRUCTIONS),
            DeterministicArrivals(parse_rate_schedule("8")),
            seed=1,
        )
        report = LoadRunner(live_server.url).open_loop(engine, 1.0)
        assert report.offered == 7  # 0.125s grid over (0, 1.0)


class TestClosedLoop:
    def test_n_clients_self_throttle_for_the_whole_duration(self, live_server):
        runner = LoadRunner(live_server.url)
        report = runner.closed_loop(_engine(seed=5), clients=3, duration=0.8)
        assert report.mode == "closed"
        assert report.offered > 3
        assert report.completed == report.offered
        # The loop offers for the full window even on a cache-hot server.
        assert report.wall_s >= 0.8

    def test_think_time_reduces_offered_load(self, live_server):
        runner = LoadRunner(live_server.url)
        eager = runner.closed_loop(_engine(seed=6), clients=2, duration=0.6)
        thinking = runner.closed_loop(
            _engine(seed=6), clients=2, duration=0.6, think_s=0.2
        )
        assert thinking.offered < eager.offered


class TestReplayDriving:
    def test_replayed_session_drives_and_verifies(self, live_server, local_engine,
                                                  tmp_path):
        path = tmp_path / "session.jsonl"
        write_session(path, take_requests(_engine(seed=7), 1.0))
        runner = LoadRunner(live_server.url)
        report = runner.open_loop(ReplayEngine(path, speed=4.0), duration=10.0)
        runner.verify(report, sample=1, engine=local_engine)
        assert report.offered == len(ReplayEngine(path))
        assert report.completed == report.offered
        assert report.identity_ok is True
        assert "replay" in report.generator


class TestSaturationSweep:
    def test_curve_has_a_point_per_rate_with_identity(self, live_server,
                                                      local_engine):
        runner = LoadRunner(live_server.url)
        reports = saturation_sweep(
            runner,
            lambda rate: _engine(seed=2, rate=str(rate)),
            rates=(4.0, 8.0, 16.0, 24.0),
            duration=0.8,
            verify_sample=1,
            engine=local_engine,
        )
        assert len(reports) == 4
        assert [r.mode for r in reports] == ["open"] * 4
        assert all(r.identity_ok is True for r in reports)
        offered = [r.offered_rate for r in reports]
        assert offered == sorted(offered)
        # The sweep drops raw outcomes; the curve keeps reduced rows.
        assert all(r.outcomes == [] for r in reports)
        table = format_curve(reports)
        assert table.count("\n") == 4  # header + one row per point


class TestReportFormatting:
    def test_format_report_mentions_identity_verdict(self, live_server,
                                                     local_engine):
        runner = LoadRunner(live_server.url)
        report = runner.open_loop(_engine(seed=8), 0.6)
        runner.verify(report, sample=1, engine=local_engine)
        text = format_report(report)
        assert "offered" in text and "byte-identical" in text
