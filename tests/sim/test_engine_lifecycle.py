"""SimEngine lifecycle edges the service leans on.

* ``close()`` / ``terminate()`` are idempotent and safe under
  concurrent callers;
* ``run_many(cancel=...)`` stops at the next boundary and keeps
  completed work in the cache/store;
* SIGINT / SIGTERM during a pooled sweep cancel the outstanding futures
  and leave **no orphaned fork workers** (exercised via a real
  subprocess, the only honest way to test signal delivery).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.engine import RunCancelled, SimEngine

SRC = Path(__file__).resolve().parents[2] / "src"


class TestCloseIdempotence:
    def test_close_without_pool_is_a_no_op(self):
        engine = SimEngine()
        engine.close()
        engine.close()

    def test_close_concurrent_callers(self):
        engine = SimEngine(workers=2, fast=True)
        engine.run_many(
            [
                SimulationConfig(benchmark=name, n_instructions=300)
                for name in ("gcc", "art")
            ]
        )
        errors = []

        def closer():
            try:
                for _ in range(5):
                    engine.close()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert engine._pool is None

    def test_terminate_idempotent_and_engine_reusable(self):
        engine = SimEngine(workers=2, fast=True)
        configs = [
            SimulationConfig(benchmark=name, n_instructions=300)
            for name in ("gcc", "art")
        ]
        engine.run_many(configs)
        engine.terminate()
        engine.terminate()
        # The engine forks a fresh pool on the next parallel call.
        results = engine.run_many(configs, use_cache=False)
        assert len(results) == 2


class TestCancellation:
    def test_cancel_before_start_raises_without_computing(self):
        engine = SimEngine(fast=True)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(RunCancelled):
            engine.run_many(
                [SimulationConfig(benchmark="gcc", n_instructions=400)],
                cancel=cancel,
            )
        assert engine.stats["computed"] == 0

    def test_serial_cancellation_keeps_completed_work(self, tmp_path):
        engine = SimEngine(fast=True, store=tmp_path / "store")
        cancel = threading.Event()
        configs = [
            SimulationConfig(benchmark=name, n_instructions=400)
            for name in ("gcc", "art", "mcf")
        ]
        calls = []
        original = engine._cache_put

        def tracking_put(key, result):
            calls.append(key)
            original(key, result)
            if len(calls) == 2:
                cancel.set()

        engine._cache_put = tracking_put
        with pytest.raises(RunCancelled):
            engine.run_many(configs, cancel=cancel)
        # Two results were computed and written back before the cancel.
        assert engine.stats["computed"] == 2
        assert engine.store.get(configs[0].cache_key()) is not None
        assert engine.store.get(configs[1].cache_key()) is not None
        assert engine.store.get(configs[2].cache_key()) is None

    def test_parallel_cancellation_salvages_finished_chunks(self, tmp_path):
        # Chunks are consumed in submission (longest-first) order, so a
        # short chunk finishing on another worker while the long one is
        # still running must be written back when the batch cancels.
        engine = SimEngine(workers=2, fast=True, store=tmp_path / "store")
        cancel = threading.Event()
        long_config = SimulationConfig(
            benchmark="mcf", n_instructions=600_000, seed=7
        )
        short_config = SimulationConfig(benchmark="gcc", n_instructions=300, seed=7)
        try:
            timer = threading.Timer(1.5, cancel.set)
            timer.start()
            try:
                with pytest.raises(RunCancelled):
                    engine.run_many([long_config, short_config], cancel=cancel)
            finally:
                timer.cancel()
            assert engine.store.get(short_config.cache_key()) is not None
        finally:
            engine.terminate()

    def test_parallel_cancellation_raises(self):
        engine = SimEngine(workers=2, fast=True)
        cancel = threading.Event()
        configs = [
            SimulationConfig(benchmark=name, n_instructions=150_000, seed=3)
            for name in ("gcc", "art", "mcf", "equake")
        ]
        timer = threading.Timer(0.3, cancel.set)
        timer.start()
        try:
            with pytest.raises(RunCancelled):
                engine.run_many(configs, cancel=cancel)
        finally:
            timer.cancel()
            engine.terminate()


def _interrupt_script(tmp_path: Path, handler: str) -> Path:
    script = tmp_path / "sweep_victim.py"
    script.write_text(
        f"""
import signal, sys
sys.path.insert(0, {str(SRC)!r})
{handler}
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine

engine = SimEngine(workers=2, fast=True)
# Pool workers spawn lazily; a small parallel call forces them up so
# their pids are known before the long sweep starts.
engine.run_many(
    [SimulationConfig(benchmark=b, n_instructions=200) for b in ("gcc", "art")]
)
pids = [p.pid for p in engine._pool._processes.values()]
print("PIDS " + ",".join(str(p) for p in pids), flush=True)
configs = [
    SimulationConfig(benchmark=b, n_instructions=2_000_000)
    for b in ("gcc", "mcf", "art", "equake", "mesa", "vpr")
]
try:
    engine.run_many(configs)
except KeyboardInterrupt:
    sys.exit(130)
print("FINISHED", flush=True)
"""
    )
    return script


def _assert_no_orphans(pids, deadline_s=10.0):
    deadline = time.time() + deadline_s
    remaining = list(pids)
    while remaining and time.time() < deadline:
        remaining = [pid for pid in remaining if _alive(pid)]
        if remaining:
            time.sleep(0.1)
    assert not remaining, f"orphaned fork workers survived: {remaining}"


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@pytest.mark.parametrize(
    "signum,handler",
    [
        (signal.SIGINT, ""),  # default: KeyboardInterrupt
        (
            signal.SIGTERM,
            "signal.signal(signal.SIGTERM, lambda *a: sys.exit(143))",
        ),
    ],
    ids=["sigint", "sigterm"],
)
def test_interrupt_mid_sweep_leaves_no_orphan_workers(tmp_path, signum, handler):
    script = _interrupt_script(tmp_path, handler)
    process = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stdout.readline().strip()
        assert line.startswith("PIDS "), line
        worker_pids = [int(p) for p in line.split(" ", 1)[1].split(",")]
        time.sleep(0.8)  # let the sweep get onto the workers
        process.send_signal(signum)
        process.wait(timeout=20)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode != 0  # interrupted, not finished
    _assert_no_orphans(worker_pids)
