"""The failpoint registry: spec grammar, determinism, scheduling, no-op cost."""

from __future__ import annotations

import pytest

from repro import faults
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


class TestSpecGrammar:
    def test_parse_roundtrips(self):
        spec = "seed=7;engine.chunk=crash:p=0.5,max=1;store.put=torn:n=2"
        plan = faults.FaultPlan.parse(spec)
        assert plan.seed == 7
        assert plan.rule_for("engine.chunk").action == "crash"
        assert plan.rule_for("engine.chunk").p == 0.5
        assert plan.rule_for("engine.chunk").max_fires == 1
        assert plan.rule_for("store.put").n == 2
        assert faults.FaultPlan.parse(plan.to_spec()).to_spec() == plan.to_spec()

    def test_seed_defaults_to_zero(self):
        plan = faults.FaultPlan.parse("journal.append=error")
        assert plan.seed == 0
        assert plan.rule_for("journal.append").p == 1.0

    @pytest.mark.parametrize(
        "spec",
        [
            "nosuch.site=crash",           # unknown site
            "engine.chunk=explode",        # unknown action for the site
            "engine.chunk=crash:p=2.0",    # probability out of range
            "engine.chunk=crash:n=0",      # n is 1-based
            "engine.chunk=hang:delay=60",  # delay above the hard cap
            "engine.chunk",                # missing action
            "seed=x;engine.chunk=crash",   # bad seed
            "engine.run_many=raise",       # span-only site: no actions
            "unit.exec=crash",             # span-only site: no actions
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            faults.FaultPlan.parse(spec)


class TestScheduling:
    def test_inactive_registry_never_fires(self):
        for _ in range(50):
            assert faults.check("engine.chunk") is None

    def test_unlisted_site_never_fires(self):
        faults.install("engine.chunk=crash")
        assert faults.check("store.put") is None
        assert faults.check("engine.chunk") is not None

    def test_unknown_site_checked_is_an_error(self):
        # With a plan armed, a typo at a call site must fail loudly,
        # not silently never fire.
        faults.install("engine.chunk=crash")
        with pytest.raises(ValueError):
            faults.check("engine.chnk")

    def test_n_fires_exactly_on_the_nth_check(self):
        faults.install("store.put=torn:n=3")
        hits = [faults.check("store.put") is not None for _ in range(6)]
        assert hits == [False, False, True, False, False, False]

    def test_max_fires_caps_a_certain_rule(self):
        faults.install("journal.append=error:max=2")
        hits = [faults.check("journal.append") is not None for _ in range(10)]
        assert sum(hits) == 2
        assert hits[:2] == [True, True]  # p=1.0 fires immediately

    def test_probabilistic_schedule_is_seed_deterministic(self):
        spec = "seed=11;engine.chunk=crash:p=0.5"
        faults.install(spec)
        first = [faults.check("engine.chunk") is not None for _ in range(40)]
        faults.install(spec)  # reinstall resets counters and RNG
        second = [faults.check("engine.chunk") is not None for _ in range(40)]
        assert first == second
        assert 0 < sum(first) < 40  # actually probabilistic

    def test_different_seeds_give_different_schedules(self):
        faults.install("seed=1;engine.chunk=crash:p=0.5")
        one = [faults.check("engine.chunk") is not None for _ in range(40)]
        faults.install("seed=2;engine.chunk=crash:p=0.5")
        two = [faults.check("engine.chunk") is not None for _ in range(40)]
        assert one != two

    def test_sites_draw_independent_streams(self):
        # Interleaving checks of another site must not perturb a site's
        # own schedule — each site owns its RNG stream.
        spec = "seed=5;engine.chunk=crash:p=0.5;store.put=torn:p=0.5"
        faults.install(spec)
        alone = [faults.check("engine.chunk") is not None for _ in range(20)]
        faults.install(spec)
        interleaved = []
        for _ in range(20):
            faults.check("store.put")
            interleaved.append(faults.check("engine.chunk") is not None)
        assert alone == interleaved

    def test_clear_deactivates(self):
        faults.install("engine.chunk=crash")
        assert faults.active_spec() is not None
        faults.clear()
        assert faults.active_spec() is None
        assert faults.check("engine.chunk") is None


class TestTrip:
    def test_trip_raise_action_raises_fault_injected(self):
        faults.install("scheduler.unit=raise:max=1")
        with pytest.raises(faults.FaultInjected) as excinfo:
            faults.trip("scheduler.unit")
        assert excinfo.value.site == "scheduler.unit"
        faults.trip("scheduler.unit")  # max exhausted: no-op

    def test_trip_without_plan_is_a_no_op(self):
        faults.trip("engine.chunk")

    def test_env_spec_installs_on_import(self, tmp_path):
        # Subprocess activation: REPRO_FAULTS at import time arms the
        # registry — how forked/spawned workers pick up a plan.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src_dir = str(Path(faults.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        env["REPRO_FAULTS"] = "seed=3;engine.chunk=crash:max=1"
        code = "from repro import faults; print(faults.active_spec())"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert out == "seed=3;engine.chunk=crash:max=1"


class TestSite:
    """faults.site(): one hook that is both the failpoint and the span."""

    @pytest.fixture(autouse=True)
    def _clean_tracing(self):
        obs_trace.clear_recorder()
        obs_trace.clear_current()
        yield
        obs_trace.clear_recorder()
        obs_trace.clear_current()

    def test_disarmed_site_is_the_shared_idle_object(self):
        idle = faults.site("store.get", key="k")
        assert idle is faults.site("journal.append") is faults._IDLE
        with idle as hit:
            assert hit is None
            assert obs_trace.get_current() is None  # nothing bound
        recorder = obs_trace.install_recorder()
        assert recorder.spans() == []  # nothing was recorded either

    def test_nested_sites_parent_and_restore_the_context(self):
        recorder = obs_trace.install_recorder()
        obs_trace.set_current("t" * 16, "outer")
        with faults.site("engine.run_many", configs=2) as hit:
            assert hit is None
            run_many = obs_trace.get_current()
            assert run_many[0] == "t" * 16 and run_many[1] != "outer"
            with faults.site("store.get", key="k"):
                inner = obs_trace.get_current()
            assert obs_trace.get_current() == run_many
        assert obs_trace.get_current() == ("t" * 16, "outer")
        spans = {span.name: span for span in recorder.spans()}
        assert spans["store.get"].span_id == inner[1]
        assert spans["store.get"].parent_id == run_many[1]
        assert spans["engine.run_many"].span_id == run_many[1]
        assert spans["engine.run_many"].parent_id == "outer"
        assert spans["engine.run_many"].attrs == {"configs": 2}
        assert spans["store.get"].attrs == {"key": "k"}

    def test_explicit_ids_win_over_the_current_span(self):
        recorder = obs_trace.install_recorder()
        obs_trace.set_current("a" * 16, "current")
        with faults.site("journal.append", "b" * 16, "root", job_id="j"):
            assert obs_trace.get_current()[0] == "b" * 16
        (span,) = recorder.spans()
        assert (span.trace_id, span.parent_id) == ("b" * 16, "root")
        assert obs_trace.get_current() == ("a" * 16, "current")

    def test_exception_records_error_and_restores_the_context(self):
        recorder = obs_trace.install_recorder()
        with pytest.raises(KeyError):
            with faults.site("unit.exec", job_id="j"):
                raise KeyError("boom")
        assert obs_trace.get_current() is None
        (span,) = recorder.spans()
        assert span.name == "unit.exec"
        assert span.attrs == {"job_id": "j", "error": "KeyError"}
        assert span.parent_id is None and len(span.trace_id) == 16

    def test_plan_only_yields_the_hit_and_records_no_span(self):
        faults.install("store.put=torn:n=2")
        with faults.site("store.put", key="k") as hit:
            assert hit is None
        with faults.site("store.put", key="k") as hit:
            assert hit.action == "torn"
            assert obs_trace.get_current() is None  # no span bound
        assert obs_trace.recorder() is None

    def test_site_checks_exactly_once_like_check(self):
        # Routing a failpoint through site() must not perturb any seeded
        # fault schedule: each entry is one check() of the same stream.
        spec = "seed=9;store.get=error:p=0.5"
        faults.install(spec)
        via_check = [faults.check("store.get") is not None for _ in range(30)]
        faults.install(spec)
        obs_trace.install_recorder()
        via_site = []
        for _ in range(30):
            with faults.site("store.get") as hit:
                via_site.append(hit is not None)
        assert via_site == via_check

    def test_armed_misspelt_site_raises(self):
        faults.install("engine.chunk=crash")
        with pytest.raises(ValueError):
            with faults.site("store.gte"):
                pass
