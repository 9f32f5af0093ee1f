"""Property-based tests (hypothesis) on the job board's bookkeeping.

One :class:`JobBoard` is driven through random steps: admission,
``pop`` + ``claim``, unit completion, unit failure, unit release and
cancellation.  After every step the live-job count the board keeps
(``depth()`` and the per-priority breakdown) must equal a brute-force
count, no live job may have been evicted, and no pending unit may still
list a job that is terminal or evicted.
"""

from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.service import queue
from repro.service.jobs import TERMINAL_STATES, Job
from repro.service.queue import JobBoard, QueueFull
from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_run_fast

#: Few distinct configurations, so jobs coalesce and hit the result cache.
CONFIGS = [
    SimulationConfig(benchmark="gcc", n_instructions=200, seed=seed)
    for seed in range(4)
]

#: One step: (operation, configs of a submitted job, its priority,
#: which running unit or admitted job the step acts on).
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["submit", "pop", "complete", "fail", "release", "cancel"]),
        st.lists(st.integers(0, len(CONFIGS) - 1), min_size=1, max_size=3),
        st.sampled_from([0, 1, 5]),
        st.integers(0, 63),
    ),
    max_size=60,
)


@lru_cache(maxsize=1)
def _result():
    """The one precomputed result every unit completes with."""
    return execute_run_fast(CONFIGS[0])


def _check(board: JobBoard, admitted) -> None:
    retained = board.jobs()
    live = sum(1 for job in retained if job.status not in TERMINAL_STATES)
    assert board.depth() == live
    assert sum(board.priority_depths().values()) == live
    assert live == sum(1 for job in admitted if job.status not in TERMINAL_STATES)
    for unit in board._units.values():
        if unit.status == "pending":
            for job_id in unit.jobs:
                job = board.get(job_id)
                assert job is not None and job.status not in TERMINAL_STATES


@given(steps=STEPS)
@settings(max_examples=150, deadline=None)
def test_live_count_and_pending_units_stay_consistent(steps):
    with mock.patch.object(queue, "RETENTION_JOBS", 2):
        # A stand-in for the engine: the board only reads its results.
        results = {}
        board = JobBoard(engine=SimpleNamespace(lookup=results.get), queue_limit=4)
        admitted = []
        running = []  # keys of claimed units not yet resolved
        for op, picks, priority, index in steps:
            if op == "submit":
                configs = [CONFIGS[pick] for pick in picks]
                job = Job(
                    kind="batch",
                    configs=configs,
                    labels=[config.benchmark for config in configs],
                    priority=priority,
                )
                try:
                    board.submit(job)
                except QueueFull:
                    pass
                else:
                    admitted.append(job)
            elif op == "pop":
                job = board.pop(timeout=0)
                if job is not None:
                    running.extend(unit.key for unit in board.claim(job))
            elif op == "cancel":
                if admitted:
                    board.cancel(admitted[index % len(admitted)].id)
            elif running:
                key = running.pop(index % len(running))
                if op == "complete":
                    results[key] = _result()
                    board.complete_unit(key)
                elif op == "fail":
                    board.note_unit_failure(key, "injected failure")
                else:
                    board.release_units([key])
            _check(board, admitted)
