"""The ``repro bench`` fast-path regression gate.

Times the fast-path kernel against the reference cycle loop, checks
that the two agree bit for bit, and writes a JSON artifact:

* ``sweep_benchmarks`` — the sixteen-benchmark sweep with gated L1s and
  a gated L2, timed end-to-end on the reference loop and on the fast
  path, serially, with a result-equality check.  The fast path is timed
  twice: *cold* (in-memory and on-disk trace caches cleared — every
  trace compiled from its generator) and *warm* (on-disk trace
  cache populated — the steady state any second invocation enjoys).
* ``l2_grid`` — a benchmark x L2-policy grid timed one run at a time.
  The in-memory trace cache is cleared per benchmark; the on-disk cache
  stays warm, mirroring how the runtime actually serves a policy grid.
* ``summary`` — geometric-mean speedups and the identity verdict.

``--baseline PATH`` compares this run's summary speedups
(machine-relative ratios, so they transfer across hosts) against a
committed artifact's and fails (exit status 3) when either falls below
``baseline * TOLERANCE``.  CI gates on
``benchmarks/perf_smoke_baseline.json``, measured at this module's run
size.  The benchmark itself — absolute end-to-end metrics and a
per-layer ledger — is ``perfbench/`` (see its README).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.registry import PolicySpec
from repro.experiments.l2sweep import L2_POLICY_MENU, _policy_label as _label
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine, execute_run, execute_run_fast
from repro.sim.fastpath import clear_trace_cache, trace_cache_dir
from repro.sim.metrics import RunResult, geometric_mean
from repro.workloads.characteristics import benchmark_names

__all__ = ["add_bench_arguments", "run_bench", "run_from_args"]

#: Schema tag of the emitted artifact.
SCHEMA = "repro-bench/pr6"

#: Micro-ops per run; the committed baseline was measured at this size.
INSTRUCTIONS = 6_000

#: Benchmarks of the per-run grid (the sweep covers all sixteen; the
#: grid shows per-L2-policy behaviour).  Its L2 policies are the
#: l2sweep experiment's axis, so the gate and the experiment never
#: drift apart.
GRID_BENCHMARKS = ("gcc", "art")

#: A summary speedup below ``baseline * TOLERANCE`` fails the gate;
#: generous, so only a real fast-path regression on a noisy CI host
#: trips it.
TOLERANCE = 0.5


def _base_config(instructions: int, benchmark: str = "gcc",
                 l2: Optional[PolicySpec] = None) -> SimulationConfig:
    return SimulationConfig(
        benchmark=benchmark,
        dcache="gated",
        icache="gated",
        l2=l2 or PolicySpec("gated", {"threshold": 500}),
        n_instructions=instructions,
    )


def _time_sweep(instructions: int, echo) -> dict:
    base = _base_config(instructions)

    clear_trace_cache()
    start = time.perf_counter()
    reference = SimEngine().sweep(base)
    reference_s = time.perf_counter() - start

    clear_trace_cache()  # cold: every trace compiled from its generator
    start = time.perf_counter()
    fast_cold = SimEngine(fast=True).sweep(base)
    fast_cold_s = time.perf_counter() - start

    clear_trace_cache(disk=False)  # warm: traces load from the disk cache
    start = time.perf_counter()
    fast_warm = SimEngine(fast=True).sweep(base)
    fast_warm_s = time.perf_counter() - start

    identical = all(
        fast_cold[name].to_dict() == reference[name].to_dict() == fast_warm[name].to_dict()
        for name in reference
    )
    entry = {
        "benchmarks": len(reference),
        "l2_policy": _label(base.l2),
        "reference_s": round(reference_s, 4),
        "fast_s": round(fast_warm_s, 4),
        "fast_cold_s": round(fast_cold_s, 4),
        "speedup": round(reference_s / fast_warm_s, 3),
        "speedup_cold": round(reference_s / fast_cold_s, 3),
        "identical": identical,
    }
    echo(
        f"  reference {reference_s:.2f}s  fast {fast_warm_s:.2f}s "
        f"({entry['speedup']:.2f}x warm, {entry['speedup_cold']:.2f}x cold)  "
        f"identical={identical}"
    )
    return entry


def _time_grid(instructions: int, echo) -> List[dict]:
    rows = []
    for benchmark in GRID_BENCHMARKS:
        reference_results: Dict[str, RunResult] = {}
        reference_times: Dict[str, float] = {}
        for l2_spec in L2_POLICY_MENU:
            config = _base_config(instructions, benchmark=benchmark, l2=l2_spec)
            start = time.perf_counter()
            reference_results[_label(l2_spec)] = execute_run(config)
            reference_times[_label(l2_spec)] = time.perf_counter() - start
        # Per-benchmark cold in-memory cache; the on-disk cache stays
        # warm, as in any real second invocation of a grid.
        clear_trace_cache(disk=False)
        for l2_spec in L2_POLICY_MENU:
            label = _label(l2_spec)
            config = _base_config(instructions, benchmark=benchmark, l2=l2_spec)
            start = time.perf_counter()
            result = execute_run_fast(config)
            fast_s = time.perf_counter() - start
            reference_s = reference_times[label]
            row = {
                "benchmark": benchmark,
                "l2_policy": label,
                "reference_s": round(reference_s, 4),
                "fast_s": round(fast_s, 4),
                "speedup": round(reference_s / fast_s, 3),
                "identical": result.to_dict() == reference_results[label].to_dict(),
            }
            rows.append(row)
            echo(
                f"  {benchmark:8s} L2={label:16s} {reference_s:7.3f}s -> "
                f"{fast_s:7.3f}s  {row['speedup']:5.2f}x"
            )
    return rows


def _check_baseline(summary: dict, baseline_path: Path, echo) -> List[str]:
    """Compare summary speedups against a baseline artifact's."""
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))["summary"]
    except (OSError, ValueError, KeyError) as error:
        return [f"cannot read baseline {baseline_path}: {error}"]
    failures = []
    for field in ("grid_geomean_speedup", "sweep_speedup"):
        reference = baseline.get(field)
        if reference is None:
            # A baseline that lost a ratio must not stop gating it.
            failures.append(f"baseline {baseline_path} has no summary.{field}")
            continue
        measured = summary[field]
        floor = reference * TOLERANCE
        verdict = "ok" if measured >= floor else "REGRESSION"
        echo(f"  {field}: {measured:.2f} vs baseline {reference:.2f} "
             f"(floor {floor:.2f}) {verdict}")
        if measured < floor:
            failures.append(
                f"{field} regressed: {measured:.2f} < {floor:.2f} "
                f"(baseline {reference:.2f} x tolerance {TOLERANCE})"
            )
    return failures


def run_bench(output: str, baseline: Optional[str] = None, echo=print) -> int:
    """Run the gate and write its artifact; returns the exit status.

    Exit status: ``0`` on success, ``1`` when the fast path diverged
    from the reference loop, ``3`` on a baseline regression.
    """
    echo(f"timing sweep_benchmarks with gated L2 ({len(benchmark_names())} "
         f"benchmarks, {INSTRUCTIONS} ops each)...")
    sweep = _time_sweep(INSTRUCTIONS, echo)

    echo("timing benchmark x L2-policy grid (disk cache warm)...")
    rows = _time_grid(INSTRUCTIONS, echo)

    speedups = [row["speedup"] for row in rows]
    summary = {
        "grid_geomean_speedup": round(geometric_mean(speedups), 3),
        "grid_min_speedup": min(speedups),
        "grid_max_speedup": max(speedups),
        "sweep_speedup": sweep["speedup"],
        "sweep_speedup_cold": sweep["speedup_cold"],
        "all_identical": sweep["identical"] and all(r["identical"] for r in rows),
    }
    payload = {
        "schema": SCHEMA,
        "instructions": INSTRUCTIONS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "trace_cache": {
            "dir": str(trace_cache_dir()) if trace_cache_dir() else None,
        },
        "sweep_benchmarks": sweep,
        "l2_grid": rows,
        "summary": summary,
    }
    Path(output).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    echo(f"wrote {output}")

    status = 0
    if baseline:
        echo(f"checking against baseline {baseline} (tolerance {TOLERANCE})...")
        failures = _check_baseline(summary, Path(baseline), echo)
        if failures:
            for failure in failures:
                echo(f"ERROR: {failure}")
            status = 3
    if not summary["all_identical"]:
        echo("ERROR: fast path diverged from the reference path")
        status = 1
    return status


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the gate's options (shared with the ``repro`` CLI)."""
    parser.add_argument(
        "--output", default="bench-gate.json", metavar="PATH",
        help="destination JSON (default: bench-gate.json)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline artifact; exit 3 when a summary speedup falls "
             f"below baseline x {TOLERANCE}",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the gate from parsed arguments (CLI integration point)."""
    return run_bench(args.output, args.baseline)
