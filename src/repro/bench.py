"""The ``repro bench`` performance harness.

Measures the fast-path kernel and the sweep runtime against the
reference cycle loop and writes a ``BENCH_*.json`` artifact (the
committed ``BENCH_pr6.json`` at the repository root is this harness's
output at the default size).

Three sections:

* ``sweep_benchmarks`` — the sixteen-benchmark sweep with gated L1s and
  a gated L2, timed end-to-end on the reference loop and on the fast
  path, serially, with a result-equality check.  The fast path is timed
  twice: *cold* (in-memory and on-disk trace caches cleared — every
  trace compiled from its generator) and *warm* (on-disk trace
  cache populated — the steady state any second invocation enjoys).
* ``l2_grid`` — a benchmark x L2-policy grid timed one run at a time.
  The in-memory trace cache is cleared per benchmark; the on-disk cache
  stays warm, mirroring how the runtime actually serves a policy grid.
  Fast rows take the best of ``--repeats`` passes (wall-clock noise on
  shared machines otherwise dominates the single-run numbers).  When a
  previous ``BENCH_pr3.json`` is available its fast times are embedded
  per row (``pr3_fast_s`` / ``vs_pr3``).
* ``l2_grid`` rows embed the previous artifact's fast times per row
  (``compare_fast_s`` / ``vs_compare``) when ``--compare`` points at a
  readable artifact measured at the same instruction count.
* ``service`` (``--service``) — the job-queue service measured end to
  end: a live in-process :class:`~repro.service.server.ServiceServer`
  takes a duplicate-heavy grid of run jobs from ``--clients`` concurrent
  clients over real HTTP, against the same configurations executed
  directly on the engine.  Reports jobs/sec, p50/p95 job latency, the
  coalesce rate, and the service overhead per unique unit.
* ``loadgen`` (with ``--service``) — a small open-loop saturation curve
  measured by :mod:`repro.loadgen` against a live in-process server:
  offered vs achieved jobs/sec, latency percentiles and 429 counts per
  offered rate, with sampled results byte-checked against a local
  engine.  This is what makes service traffic a regression-gated
  workload.
* ``summary`` — geometric-mean speedups, the identity verdict, and the
  ``vs_compare`` geomean.

Regression gating: ``--baseline PATH --tolerance F`` compares this
run's summary speedups against a committed baseline's and fails (exit
status 3) when they fall below ``baseline * F`` — CI runs a reduced
``--smoke`` bench against ``benchmarks/perf_smoke_baseline.json`` with a
generous tolerance, so only real regressions trip it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.registry import PolicySpec
from repro.experiments.l2sweep import L2_POLICY_MENU, _policy_label as _label
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine, execute_run, execute_run_fast
from repro.sim.fastpath import clear_trace_cache, trace_cache_dir
from repro.sim.metrics import RunResult, geometric_mean
from repro.workloads.characteristics import benchmark_names

__all__ = [
    "add_bench_arguments",
    "run_bench",
    "run_from_args",
    "GRID_BENCHMARKS",
    "SMOKE_GRID_BENCHMARKS",
]

#: Schema tag of the emitted artifact.
SCHEMA = "repro-bench/pr6"

#: Benchmark subset for the per-run grid (the full sixteen are covered
#: by the sweep entry; the grid shows per-L2-policy behaviour).  Same
#: grid as BENCH_pr3, so the two artifacts compare row for row.
GRID_BENCHMARKS = ("gcc", "mcf", "art", "equake")

#: Reduced grid for the CI perf-smoke job.
SMOKE_GRID_BENCHMARKS = ("gcc", "art")

#: L2 policies timed in the grid: the l2sweep experiment's axis,
#: imported so the bench and the experiment can never drift apart.
L2_GRID_POLICIES = L2_POLICY_MENU


def _base_config(instructions: int, benchmark: str = "gcc",
                 l2: Optional[PolicySpec] = None) -> SimulationConfig:
    return SimulationConfig(
        benchmark=benchmark,
        dcache="gated",
        icache="gated",
        l2=l2 or PolicySpec("gated", {"threshold": 500}),
        n_instructions=instructions,
    )


def _time_sweep(instructions: int, repeats: int, echo) -> dict:
    base = _base_config(instructions)

    clear_trace_cache()
    start = time.perf_counter()
    reference = SimEngine().sweep(base)
    reference_s = time.perf_counter() - start

    fast_cold_s = float("inf")
    fast_warm_s = float("inf")
    fast_cold = fast_warm = None
    for _ in range(max(1, repeats)):
        clear_trace_cache()  # cold: every trace compiled from its generator
        start = time.perf_counter()
        fast_cold = SimEngine(fast=True).sweep(base)
        fast_cold_s = min(fast_cold_s, time.perf_counter() - start)

        clear_trace_cache(disk=False)  # warm: traces load from the disk cache
        start = time.perf_counter()
        fast_warm = SimEngine(fast=True).sweep(base)
        fast_warm_s = min(fast_warm_s, time.perf_counter() - start)

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


def _load_compare_grid(
    path: Optional[Path], instructions: int
) -> Dict[Tuple[str, str], float]:
    """Per-(benchmark, policy-label) fast times from a previous artifact.

    Rows are only comparable at matching instruction counts, so a
    compare artifact measured at a different size is ignored.
    """
    if path is None or not path.is_file():
        return {}
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if int(payload.get("instructions", -1)) != instructions:
            return {}
        return {
            (row["benchmark"], row["l2_policy"]): float(row["fast_s"])
            for row in payload.get("l2_grid", [])
        }
    except (OSError, ValueError, KeyError, TypeError):
        # The compare artifact is optional; an unreadable one must not
        # take the harness down.
        return {}


def _time_grid(
    instructions: int,
    grid_benchmarks: Sequence[str],
    repeats: int,
    compare_times: Dict[Tuple[str, str], float],
    echo,
) -> List[dict]:
    rows = []
    for benchmark in grid_benchmarks:
        reference_results: Dict[str, RunResult] = {}
        reference_times: Dict[str, float] = {}
        for l2_spec in L2_GRID_POLICIES:
            config = _base_config(instructions, benchmark=benchmark, l2=l2_spec)
            start = time.perf_counter()
            reference_results[_label(l2_spec)] = execute_run(config)
            reference_times[_label(l2_spec)] = time.perf_counter() - start
        fast_times: Dict[str, float] = {}
        fast_results: Dict[str, RunResult] = {}
        for _ in range(max(1, repeats)):
            # Per-benchmark cold in-memory cache; the on-disk cache stays
            # warm, as in any real second invocation of a grid.
            clear_trace_cache(disk=False)
            for l2_spec in L2_GRID_POLICIES:
                label = _label(l2_spec)
                config = _base_config(instructions, benchmark=benchmark, l2=l2_spec)
                start = time.perf_counter()
                result = execute_run_fast(config)
                elapsed = time.perf_counter() - start
                fast_results[label] = result
                if label not in fast_times or elapsed < fast_times[label]:
                    fast_times[label] = elapsed
        for l2_spec in L2_GRID_POLICIES:
            label = _label(l2_spec)
            reference_s = reference_times[label]
            fast_s = fast_times[label]
            row = {
                "benchmark": benchmark,
                "l2_policy": label,
                "reference_s": round(reference_s, 4),
                "fast_s": round(fast_s, 4),
                "speedup": round(reference_s / fast_s, 3),
                "identical": fast_results[label].to_dict()
                == reference_results[label].to_dict(),
            }
            compare_fast = compare_times.get((benchmark, label))
            if compare_fast is not None:
                row["compare_fast_s"] = compare_fast
                row["vs_compare"] = round(compare_fast / fast_s, 3)
            rows.append(row)
            echo(
                f"  {benchmark:8s} L2={label:16s} {reference_s:7.3f}s -> "
                f"{fast_s:7.3f}s  {row['speedup']:5.2f}x"
                + (f"  (prev fast {compare_fast:.3f}s, {row['vs_compare']:.2f}x)"
                   if compare_fast is not None else "")
            )
    return rows


#: Per-client job list for the service bench: benchmarks x thresholds.
SERVICE_BENCHMARKS = ("gcc", "art")
SERVICE_THRESHOLDS = (100, 150, 200, 250)


def _service_configs(instructions: int) -> List[SimulationConfig]:
    return [
        SimulationConfig(
            benchmark=benchmark,
            dcache=PolicySpec("gated", {"threshold": threshold}),
            icache="gated",
            n_instructions=instructions,
        )
        for benchmark in SERVICE_BENCHMARKS
        for threshold in SERVICE_THRESHOLDS
    ]


def _time_service(instructions: int, clients: int, echo) -> dict:
    """Measure the job service end to end against the in-process engine.

    Every client submits the same duplicate-heavy grid of run jobs over
    real HTTP (so with ``clients`` concurrent clients, all but the first
    arrival of each configuration coalesces or hits the result LRU) and
    blocks on each job.  The baseline runs the unique configurations
    directly on a fresh engine.
    """
    import threading

    from repro.service.client import ServiceClient
    from repro.service.server import ServiceServer
    from repro.service.telemetry import percentile

    unique = _service_configs(instructions)

    clear_trace_cache(disk=False)
    engine = SimEngine(fast=True)
    start = time.perf_counter()
    baseline_results = engine.run_many(unique)
    baseline_s = time.perf_counter() - start
    engine.close()

    server = ServiceServer(engine=SimEngine(fast=True)).start()
    try:
        latencies: List[float] = []
        errors: List[str] = []
        lock = threading.Lock()

        def storm() -> None:
            client = ServiceClient(server.url)
            try:
                for config in unique:
                    begin = time.perf_counter()
                    receipt = client.submit_run(config)
                    client.wait(receipt["id"], poll_s=0.01)
                    elapsed = time.perf_counter() - begin
                    with lock:
                        latencies.append(elapsed)
            except Exception as error:  # noqa: BLE001 - report, don't hang
                with lock:
                    errors.append(f"{type(error).__name__}: {error}")

        threads = [threading.Thread(target=storm) for _ in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
        if errors:
            raise RuntimeError(f"service bench clients failed: {errors[:3]}")

        checker = ServiceClient(server.url)
        receipt = checker.submit_batch(unique)
        job = checker.wait(receipt["id"])
        remote = checker.collect(receipt, job)
        identical = all(
            payload == result.to_dict()
            for payload, result in zip(remote, baseline_results)
        )
        metrics = checker.metrics()
    finally:
        server.stop()

    total_jobs = clients * len(unique)
    entry = {
        "clients": clients,
        "jobs": total_jobs,
        "unique_units": len(unique),
        "wall_s": round(wall_s, 4),
        "jobs_per_s": round(total_jobs / wall_s, 3),
        "job_latency_p50_s": round(percentile(latencies, 0.50), 5),
        "job_latency_p95_s": round(percentile(latencies, 0.95), 5),
        "baseline_s": round(baseline_s, 4),
        "baseline_unit_s": round(baseline_s / len(unique), 5),
        "coalesce_rate": metrics.get("coalesce_rate"),
        "identical": identical,
    }
    echo(
        f"  {clients} clients x {len(unique)} jobs: {entry['jobs_per_s']:.1f} jobs/s, "
        f"p50 {entry['job_latency_p50_s'] * 1000:.1f}ms, "
        f"p95 {entry['job_latency_p95_s'] * 1000:.1f}ms "
        f"(in-process unit {entry['baseline_unit_s'] * 1000:.1f}ms, "
        f"coalesce rate {entry['coalesce_rate']})  identical={identical}"
    )
    return entry


def _check_baseline(summary: dict, baseline_path: Path, tolerance: float, echo) -> List[str]:
    """Compare summary speedups against a baseline artifact's."""
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))["summary"]
    except (OSError, ValueError, KeyError) as error:
        return [f"cannot read baseline {baseline_path}: {error}"]
    failures = []
    for field in ("grid_geomean_speedup", "sweep_speedup"):
        reference = baseline.get(field)
        measured = summary.get(field)
        if reference is None or measured is None:
            continue
        floor = reference * tolerance
        verdict = "ok" if measured >= floor else "REGRESSION"
        echo(f"  {field}: {measured:.2f} vs baseline {reference:.2f} "
             f"(floor {floor:.2f}) {verdict}")
        if measured < floor:
            failures.append(
                f"{field} regressed: {measured:.2f} < {floor:.2f} "
                f"(baseline {reference:.2f} x tolerance {tolerance})"
            )
    return failures


def run_bench(
    instructions: int = 30_000,
    output: str = "BENCH_pr6.json",
    grid_benchmarks: Sequence[str] = GRID_BENCHMARKS,
    repeats: int = 2,
    compare: Optional[str] = "BENCH_pr5.json",
    baseline: Optional[str] = None,
    tolerance: float = 0.5,
    service_clients: Optional[int] = None,
    echo=print,
) -> Tuple[dict, int]:
    """Run the harness; returns ``(payload, exit_status)``.

    Exit status: ``0`` on success, ``1`` when the fast path (or the
    service) diverged from the reference loop, ``3`` on a baseline
    regression.  ``service_clients`` enables the service section with
    that many concurrent clients.
    """
    echo(f"timing sweep_benchmarks with gated L2 ({len(benchmark_names())} "
         f"benchmarks, {instructions} ops each, fast best of {max(1, repeats)})...")
    sweep = _time_sweep(instructions, repeats, echo)

    echo("timing benchmark x L2-policy grid "
         f"(best of {max(1, repeats)} fast passes, disk cache warm)...")
    compare_times = _load_compare_grid(Path(compare) if compare else None, instructions)
    rows = _time_grid(instructions, grid_benchmarks, repeats, compare_times, echo)

    service = None
    loadgen = None
    if service_clients:
        echo(f"timing the job service at {service_clients} concurrent clients...")
        service = _time_service(instructions, service_clients, echo)

        from repro.loadgen.report import bench_loadgen_section

        echo("measuring the loadgen saturation curve (open loop, Poisson)...")
        loadgen = bench_loadgen_section(instructions, echo=echo)

    speedups = [row["speedup"] for row in rows]
    vs_compare = [row["vs_compare"] for row in rows if "vs_compare" in row]
    summary = {
        "grid_geomean_speedup": round(geometric_mean(speedups), 3),
        "grid_min_speedup": min(speedups),
        "grid_max_speedup": max(speedups),
        "sweep_speedup": sweep["speedup"],
        "sweep_speedup_cold": sweep["speedup_cold"],
        "all_identical": sweep["identical"] and all(r["identical"] for r in rows),
    }
    if vs_compare:
        summary["vs_compare_grid_geomean"] = round(geometric_mean(vs_compare), 3)
    if service is not None:
        summary["all_identical"] = summary["all_identical"] and service["identical"]
        summary["service_jobs_per_s"] = service["jobs_per_s"]
        summary["service_p95_s"] = service["job_latency_p95_s"]
    if loadgen is not None:
        summary["all_identical"] = summary["all_identical"] and loadgen["identical"]
        summary["loadgen_peak_achieved_per_s"] = loadgen["peak_achieved_per_s"]
    payload = {
        "schema": SCHEMA,
        "instructions": instructions,
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
    if service is not None:
        payload["service"] = service
    if loadgen is not None:
        payload["loadgen"] = loadgen
    Path(output).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    echo(f"wrote {output}")

    status = 0
    if baseline:
        echo(f"checking against baseline {baseline} (tolerance {tolerance})...")
        failures = _check_baseline(summary, Path(baseline), tolerance, echo)
        if failures:
            for failure in failures:
                echo(f"ERROR: {failure}")
            status = 3
    if not summary["all_identical"]:
        echo("ERROR: fast path (or service) diverged from the reference path")
        status = 1
    return payload, status


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the harness's options (shared with the ``repro`` CLI)."""
    parser.add_argument(
        "--instructions", type=int, default=None,
        help="micro-ops per run (default: 30000, the experiments' "
             "default; 6000 under --smoke)",
    )
    parser.add_argument(
        "--output", default="BENCH_pr6.json", metavar="PATH",
        help="destination JSON (default: BENCH_pr6.json)",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="also measure the job-queue service (jobs/sec, p50/p95 "
             "latency at --clients concurrent clients) end to end",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent clients for --service (default: 4)",
    )
    parser.add_argument(
        "--grid-benchmarks", default=None, metavar="A,B,...",
        help=f"grid benchmark subset (default: {','.join(GRID_BENCHMARKS)})",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="fast-path passes per section, best taken (default: 2; "
             "1 under --smoke)",
    )
    parser.add_argument(
        "--compare", default="BENCH_pr5.json", metavar="PATH",
        help="previous bench artifact for per-row vs_compare ratios "
             "(default: BENCH_pr5.json; missing file is fine)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline BENCH json; exit 3 when summary speedups fall "
             "below baseline x tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="baseline tolerance factor (default: 0.5 — generous, for "
             "noisy CI machines)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced settings for CI (fewer instructions, smaller grid, "
             "one fast pass)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the harness from parsed arguments (CLI integration point)."""
    if args.service and args.clients < 1:
        raise ValueError("--clients must be at least 1")
    # --smoke only fills in values the user did not give explicitly.
    if args.smoke:
        if args.instructions is None:
            args.instructions = 6_000
        if args.grid_benchmarks is None:
            args.grid_benchmarks = ",".join(SMOKE_GRID_BENCHMARKS)
        if args.repeats is None:
            args.repeats = 1
    if args.instructions is None:
        args.instructions = 30_000
    if args.repeats is None:
        args.repeats = 2
    grid = (
        tuple(name.strip() for name in args.grid_benchmarks.split(",") if name.strip())
        if args.grid_benchmarks
        else GRID_BENCHMARKS
    )
    _, status = run_bench(
        instructions=args.instructions,
        output=args.output,
        grid_benchmarks=grid,
        repeats=args.repeats,
        compare=args.compare,
        baseline=args.baseline,
        tolerance=args.tolerance,
        service_clients=args.clients if args.service else None,
    )
    return status
