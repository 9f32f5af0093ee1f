"""The ``grid`` workload: an offline policy x benchmark sweep on the fork pool.

Each round is one fresh start, as a new ``repro sweep`` process would
see it: its own seeded grid (see :func:`inputs.grid_configs`), a fresh
on-disk trace cache compiled during set-up, an empty in-memory trace
cache, a fresh :class:`SimEngine` whose pool is forked during set-up,
then one timed ``run_many`` over every configuration.  Rounds repeat
until the run has measured ``--seconds`` and collected enough
per-configuration latencies.

A configuration's latency is the time from the start of its sweep until
the worker finished the chunk that computed it.  The engine ships each
chunk's start and duration back from the worker and records them as an
``engine.chunk`` span once a span recorder is installed, as ``repro
serve`` always does; every round installs one to read them.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.sim import fastpath
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine, execute_run

import host
import inputs
import layers
import ledger
from common import MAX_WINDOW_S, MIN_LATENCY_SAMPLES, Result, RunContext, mean, median, ratio
from ledger import ENGINE_STATS, Observed, SpanRec

#: Micro-ops of the tiny runs that persist traces and fork the pool.
WARM_OPS = 200

#: Benchmark whose trace forks the pool; not in the grid, so no worker
#: starts with a grid trace in memory.
POOL_WARM_BENCHMARK = "mesa"

#: Grid configurations re-executed on the reference loop per run.
REFERENCE_SAMPLE = 2


@dataclass
class Round:
    configs: List[SimulationConfig]
    setup_s: float
    compile_s: float
    load_ms: float
    wall_s: float
    latencies_s: List[float]
    rss_mb: float
    stats: Dict[str, int]
    #: Result digest per configuration (full results would grow this
    #: process, and with it every later round's forked workers).
    digests: Dict[tuple, str]
    spans: list = field(default_factory=list)
    dropped: int = 0


def _digest(result) -> str:
    """SHA-256 of a RunResult's ``to_dict()``: equal digests, equal results."""
    return hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest()


def _traces(configs: List[SimulationConfig]) -> List[Tuple[str, int]]:
    return sorted({(config.benchmark, config.seed) for config in configs})


def _compile_traces(configs: List[SimulationConfig]) -> None:
    for name, seed in _traces(configs):
        fastpath.compiled_trace_for(name, seed).ensure(inputs.GRID_OPS)
        # A short run persists the whole compiled prefix to disk.
        fastpath.execute_run_fast(
            SimulationConfig(benchmark=name, seed=seed, n_instructions=WARM_OPS)
        )


def _setup(trace_dir: Path, workers: int, configs: List[SimulationConfig],
           traced: bool) -> Tuple[SimEngine, float, float, float]:
    """Warm a fresh disk trace cache and fork a fresh engine's pool."""
    began = time.perf_counter()
    fastpath.set_trace_cache_dir(trace_dir)
    # Compile in a child that exits, so this process's heap (the image
    # every pool worker is forked from) is the same in every round.
    # Fork is safe: no other thread is running between rounds.
    compiler = multiprocessing.get_context("fork").Process(
        target=_compile_traces, args=(configs,)
    )
    compiler.start()
    try:
        compiler.join()
    finally:
        if compiler.is_alive():
            compiler.kill()
            compiler.join()
    if compiler.exitcode != 0:
        raise RuntimeError(f"trace compilation exited with {compiler.exitcode}")
    compile_s = time.perf_counter() - began
    load_ms = 0.0
    if traced:
        loads = []
        for name, seed in _traces(configs):
            start = time.perf_counter()
            fastpath.compiled_trace_for(name, seed)
            loads.append((time.perf_counter() - start) * 1e3)
        fastpath.clear_trace_cache(disk=False)
        load_ms = mean(loads)
        # Forked workers inherit the armed profiler.
        obs_profile.install()
    engine = SimEngine(fast=True, workers=workers)
    try:
        engine.run_many(
            [
                SimulationConfig(benchmark=POOL_WARM_BENCHMARK, seed=seed, n_instructions=WARM_OPS)
                for seed in range(1, workers + 1)
            ],
            use_cache=False,
        )
    except BaseException:
        engine.terminate()
        raise
    return engine, time.perf_counter() - began, compile_s, load_ms


def _latencies(spans: list, started: float) -> List[float]:
    """Per configuration: seconds from ``started`` until its chunk finished."""
    return [
        span.start_s + span.duration_s - started
        for span in spans if span.name == "engine.chunk"
        for _ in range(int(span.attrs.get("configs", 0)))
    ]


def _round(ctx: RunContext, number: int, traced: bool) -> Round:
    configs = inputs.grid_configs(ctx.seed, number)
    trace_dir = Path(tempfile.mkdtemp(prefix="grid-traces-", dir=ctx.run_dir))
    engine, setup_s, compile_s, load_ms = _setup(trace_dir, ctx.workers, configs, traced)
    recorder = obs_trace.install_recorder()
    try:
        before = {name: engine.stats[name] for name in ENGINE_STATS}
        started_wall = time.time()
        started = time.perf_counter()
        results = engine.run_many(configs)
        wall_s = time.perf_counter() - started
        # The pool workers, which do all the simulating.
        rss_mb = host.peak_rss_mb(host.descendants(os.getpid()))
        stats = {name: engine.stats[name] - before[name] for name in ENGINE_STATS}
    except BaseException:
        engine.terminate()
        raise
    finally:
        engine.close()
        shutil.rmtree(trace_dir, ignore_errors=True)
        obs_trace.clear_recorder()
        if traced:
            obs_profile.clear()
    spans = recorder.spans()
    return Round(
        configs=configs, setup_s=setup_s, compile_s=compile_s, load_ms=load_ms, wall_s=wall_s,
        latencies_s=_latencies(spans, started_wall), rss_mb=rss_mb, stats=stats,
        digests={config.cache_key(): _digest(result) for config, result in zip(configs, results)},
        spans=spans if traced else [],
        dropped=recorder.dropped,
    )


def _rounds(ctx: RunContext, traced: bool) -> List[Round]:
    rounds: List[Round] = []
    measured = 0.0
    samples = 0
    while (
        measured < ctx.seconds or samples < MIN_LATENCY_SAMPLES
    ) and measured < MAX_WINDOW_S:
        rounds.append(_round(ctx, len(rounds), traced))
        measured += rounds[-1].wall_s
        samples += len(rounds[-1].configs)
    return rounds


def _rate(entry: Round) -> float:
    """Configurations per second of one round's ``run_many``."""
    return len(entry.configs) / entry.wall_s


def _check(ctx: RunContext, rounds: List[Round], result: Result) -> None:
    """Every config computed and timed; a seeded sample matches the reference loop."""
    result.tally.add("ok", sum(len(entry.configs) for entry in rounds))
    for number, entry in enumerate(rounds, start=1):
        size = len(entry.configs)
        if entry.stats["computed"] != size:
            result.fail(
                f"round {number} computed {entry.stats['computed']} of {size} "
                "configs (a cache hit broke the workload's intent)"
            )
        if len(entry.latencies_s) != size:
            result.fail(f"round {number}'s chunk spans cover {len(entry.latencies_s)} of {size} configs")
    every = [(entry, config) for entry in rounds for config in entry.configs]
    sample = random.Random(f"grid-check:{ctx.seed}").sample(every, REFERENCE_SAMPLE)
    for entry, config in sample:
        if entry.digests[config.cache_key()] != _digest(execute_run(config)):
            result.tally.mismatch()
            result.fail(f"{config.benchmark}/{config.dcache.name} differs from the reference loop")
    result.lines.append(f"checked: {len(sample)} configs against the reference loop")


def run(ctx: RunContext, traced: bool) -> Result:
    result = Result()
    if traced:
        untraced = _rounds(ctx, traced=False)
        layers.install()
        rounds = _rounds(ctx, traced=True)
        _check(ctx, rounds, result)
        _per_layer(result, rounds, untraced, ctx.workers)
    else:
        rounds = _rounds(ctx, traced=False)
        result.put("setup_s", median([r.setup_s for r in rounds]), "s")
        result.put("ops_per_s", median([_rate(r) for r in rounds]), "1/s")
        result.put("sim_mops_per_s", median([_rate(r) * inputs.GRID_OPS / 1e6 for r in rounds]), "Mop/s")
        result.latency([s * 1e3 for r in rounds for s in r.latencies_s])
        # A mean, not a median: the pool's peak memory takes one of a few
        # values per round (how many traces each worker loaded), and the
        # median would snap between them.
        result.put("peak_rss_mb", mean([r.rss_mb for r in rounds]), "MiB")
        _check(ctx, rounds, result)
    result.lines.insert(0, (
        f"{len(rounds)} rounds of {len(rounds[0].configs)} configs x {inputs.GRID_OPS} "
        f"micro-ops on {ctx.workers} workers"
    ))
    return result


def _per_layer(result: Result, rounds: List[Round], untraced: List[Round], workers: int) -> None:
    spans = [SpanRec.from_span(span) for entry in rounds for span in entry.spans]
    counters = {name: sum(entry.stats[name] for entry in rounds) for name in ENGINE_STATS}
    rate = median([_rate(entry) for entry in rounds])
    untraced_rate = median([_rate(entry) for entry in untraced])
    ledger.fill(result, Observed(
        spans=spans,
        window_s=sum(entry.wall_s for entry in rounds),
        workers=workers,
        per=len(rounds),
        counters=counters,
        computed_ops=counters["computed"] * inputs.GRID_OPS,
        trace_compile_s=median([entry.compile_s for entry in rounds]),
        trace_load_ms=median([entry.load_ms for entry in rounds]),
        spans_dropped=sum(entry.dropped for entry in rounds),
        trace_overhead=1.0 - ratio(rate, untraced_rate),
    ))
