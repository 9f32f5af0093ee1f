"""The kernel phase profiler: attribution, arming discipline, identity."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.obs import profile as obs_profile
from repro.sim.config import SimulationConfig
from repro.sim.fastpath import execute_run_fast


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with the profiler off."""
    obs_profile.clear()
    yield
    obs_profile.clear()


def _config(n=2000):
    return SimulationConfig(
        benchmark="gcc", dcache="gated", icache="static", n_instructions=n
    )


class TestArming:
    def test_disarmed_by_default(self):
        assert obs_profile.active() is None
        assert obs_profile.snapshot() is None

    def test_install_returns_the_active_profile(self):
        profile = obs_profile.install()
        assert obs_profile.active() is profile
        obs_profile.clear()
        assert obs_profile.active() is None

    def test_env_var_arms_subprocesses(self):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        code = (
            "from repro.obs import profile; "
            "import sys; sys.exit(0 if profile.active() is not None else 1)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        env[obs_profile.ENV_VAR] = "1"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
        env.pop(obs_profile.ENV_VAR)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 1


class TestAttribution:
    def test_all_phases_accumulate_during_a_run(self):
        obs_profile.install()
        execute_run_fast(_config())
        snap = obs_profile.snapshot(reset=True)
        assert snap["runs"] == 1
        for name in obs_profile.PHASES:
            entry = snap["phases"][name]
            assert entry["events"] > 0, f"phase {name} never fired"
            assert entry["seconds"] > 0.0, f"phase {name} accumulated no time"

    def test_snapshot_reset_zeroes_the_counters(self):
        obs_profile.install()
        execute_run_fast(_config())
        obs_profile.snapshot(reset=True)
        empty = obs_profile.snapshot(reset=False)
        assert empty["runs"] == 0
        assert all(
            entry["events"] == 0 for entry in empty["phases"].values()
        )

    def test_cache_depth_returns_to_zero(self):
        # L1 misses recurse into the L2 inside access(); the
        # outermost-only discipline must leave the depth balanced.
        profile = obs_profile.install()
        execute_run_fast(_config())
        assert profile.cache_depth == 0


class TestZeroOverheadGuard:
    def test_armed_results_are_bit_identical_to_disarmed(self):
        disarmed = execute_run_fast(_config()).to_dict()
        obs_profile.install()
        armed = execute_run_fast(_config()).to_dict()
        assert armed == disarmed

    def test_disarmed_run_records_nothing(self):
        execute_run_fast(_config())
        assert obs_profile.snapshot() is None
