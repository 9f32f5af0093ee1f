"""Shared helpers for the benchmark harness.

Importable as a regular module (``from _harness import run_once``) so the
``test_bench_*`` files work under pytest's importlib import mode, where
``conftest.py`` itself is not an importable module name.  The benchmarks
directory is put on ``sys.path`` by ``conftest.py``.

By default the architectural experiments run a representative subset of
the sixteen benchmarks with shortened instruction counts so the whole
harness finishes in a few minutes; set ``REPRO_BENCH_FULL=1`` to sweep all
sixteen benchmarks at the full default run length.  The exact numbers
every experiment produces are pinned, at a small fixed size, by the golden
snapshots in ``tests/experiments/goldens/`` (``python -m repro
regen-goldens`` writes them; CI diffs them).
"""

from __future__ import annotations

import os

from repro.workloads.characteristics import benchmark_names

#: Representative subset covering the paper's behaviour classes: two of the
#: three high-miss-rate outliers (art, health), a large-code integer program
#: (gcc), a regular FP program (mesa, wupwise) and a pointer-chasing Olden
#: kernel (treeadd).
FAST_BENCHMARKS = ["art", "gcc", "health", "mesa", "treeadd", "wupwise"]

FULL = os.environ.get("REPRO_BENCH_FULL", "0") not in ("", "0", "false")

#: Benchmarks each experiment sweeps.
BENCHMARKS = benchmark_names() if FULL else FAST_BENCHMARKS

#: Micro-ops simulated per run.
N_INSTRUCTIONS = 20_000 if FULL else 10_000


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
