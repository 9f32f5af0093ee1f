"""Pytest wiring for the benchmark harness.

Each ``test_bench_*.py`` module regenerates one table or figure of the
paper and reports the headline numbers through pytest-benchmark's
``extra_info`` as well as stdout (run with ``-s`` to see the full tables).

The shared constants and helpers live in :mod:`_harness`; this file makes
that module importable under any pytest import mode and exposes the
session fixtures.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.sim import SimEngine

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

from _harness import BENCHMARKS, N_INSTRUCTIONS  # noqa: E402


@pytest.fixture(scope="session")
def bench_engine():
    """One memoising engine shared by every bench, as the experiments share runs."""
    with SimEngine() as engine:
        yield engine


@pytest.fixture(scope="session")
def bench_benchmarks():
    """The benchmark names swept by the harness."""
    return list(BENCHMARKS)


@pytest.fixture(scope="session")
def bench_instructions():
    """The per-run instruction budget used by the harness."""
    return N_INSTRUCTIONS
