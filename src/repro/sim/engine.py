"""The simulation engine: bounded caching, persistence and parallel fan-out.

:class:`SimEngine` owns everything the old module-global driver did, as
an object:

* a bounded, thread-safe, LRU result cache (the old process-global
  ``_RUN_CACHE`` grew without limit and could not be scoped per test or
  per experiment);
* an optional on-disk :class:`~repro.sim.store.ResultStore`, consulted
  before computing and updated after, so sweeps resume across processes;
* :meth:`run_many` / :meth:`sweep` fan-out over a **persistent,
  reusable process pool**: worker processes are forked once and reused
  across calls, pending work is grouped into trace-affine chunks whose
  estimated cost drives a longest-first submission order (idle workers
  steal the next chunk, so one slow benchmark cannot serialise a
  sweep), and compiled traces reach workers through the on-disk trace
  cache (bytes, not generators — see :mod:`repro.sim.fastpath`).  The
  runs are independent and seeded, so parallel results are bit-identical
  to serial ones.

Callers (the CLI, the service, tests) construct the engine they run on
and pass it down; experiment functions that simulate take it first.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.cache.hierarchy import MemoryHierarchy
from repro.circuits.technology import get_technology
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.energy.cache_energy import combine_run_energy
from repro.workloads.characteristics import benchmark_names, get_benchmark
from repro.workloads.synthetic import make_workload

from .config import SimulationConfig
from .fastpath import _trace_cache_key, execute_run_fast
from .metrics import RunResult
from .store import ResultStore

__all__ = [
    "RunCancelled",
    "SimEngine",
    "execute_run",
    "execute_run_fast",
]


class RunCancelled(Exception):
    """A :meth:`SimEngine.run_many` call was cancelled via its event.

    Raised out of the engine when the caller-supplied ``cancel`` event is
    set while work is still outstanding.  Completed configurations keep
    their cache/store entries (cancellation is checked between
    configurations serially and between chunks in parallel), so a
    cancelled batch resumes cheaply when resubmitted.
    """


def execute_run(config: SimulationConfig) -> RunResult:
    """Simulate one configuration, uncached.

    This is the pure "architectural simulation" step: wire the synthetic
    workload, the memory hierarchy with its precharge policies and the
    out-of-order pipeline together, run the configured number of
    micro-ops, and collect timing, cache and energy results.  It is a
    module-level function so worker processes can execute it directly.
    """
    workload = make_workload(config.benchmark, seed=config.seed)
    hierarchy = MemoryHierarchy(
        config=config.hierarchy_config(),
        icache_controller=config.icache.build(),
        dcache_controller=config.dcache.build(),
        l2_controller=config.l2.build(),
    )
    pipeline = OutOfOrderPipeline(
        hierarchy=hierarchy,
        instruction_stream=workload.instructions(),
        config=config.pipeline_config(),
    )
    stats = pipeline.run(config.n_instructions)
    breakdowns = hierarchy.finalize(pipeline.cycle)
    energy = combine_run_energy(
        breakdowns,
        tech=get_technology(config.feature_size_nm),
        pipeline_stats=stats,
    )
    return RunResult(
        benchmark=config.benchmark,
        # Canonical registry names, not the spec's spelling: a run
        # requested under an alias must be labeled identically to the
        # same run requested under the canonical name (they share a key).
        dcache_policy=config.dcache.info().name,
        icache_policy=config.icache.info().name,
        feature_size_nm=config.feature_size_nm,
        subarray_bytes=config.subarray_bytes,
        cycles=pipeline.cycle,
        pipeline=stats,
        energy=energy,
        dcache_miss_ratio=hierarchy.l1d.miss_ratio,
        icache_miss_ratio=hierarchy.l1i.miss_ratio,
        dcache_gaps=hierarchy.l1d.tracker.access_gaps(),
        icache_gaps=hierarchy.l1i.tracker.access_gaps(),
        dcache_accesses=hierarchy.l1d.accesses,
        icache_accesses=hierarchy.l1i.accesses,
        dcache_delayed_accesses=hierarchy.l1d.precharge_penalties,
        icache_delayed_accesses=hierarchy.l1i.precharge_penalties,
        l2_policy=config.l2.info().name,
        l2_miss_ratio=hierarchy.l2.miss_ratio,
        l2_accesses=hierarchy.l2.accesses,
        l2_writebacks=hierarchy.l2.writebacks,
        l2_delayed_accesses=hierarchy.l2.precharge_penalties,
        l2_gaps=hierarchy.l2.tracker.access_gaps(),
    )


def _worker_context():
    """The multiprocessing context used for parallel fan-out.

    Prefer ``fork`` where available: worker processes then inherit the
    parent's policy registry, so policies registered at runtime (tests,
    plugins) work in parallel sweeps.  On spawn-only platforms workers
    re-import :mod:`repro`, which registers the built-ins; runtime
    registrations must live in an importable module to participate
    (the standard multiprocessing caveat).  Because the engine's pool is
    persistent, registrations made *after* the pool first spins up reach
    workers only after :meth:`SimEngine.close` recycles it.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _execute_chunk(
    payload: Tuple[bool, List[SimulationConfig]]
) -> Tuple[List[RunResult], Dict[str, Any]]:
    """Worker-side entry: run one trace-affine chunk of configurations.

    Chunks group configurations that share a compiled trace, so a worker
    pays the trace load (from the on-disk cache, usually) once per chunk
    rather than once per configuration.  The ``engine.chunk`` failpoint
    fires here, inside the worker: ``crash`` kills the worker process
    (breaking the pool exactly like the OOM killer would), ``raise``
    fails the task, ``hang`` stalls it.

    Returns ``(results, meta)``: the results plus a small span record —
    wall-clock start, duration, worker pid, and the kernel phase
    profile when ``repro.obs.profile`` is armed in the worker (``None``
    otherwise).  The parent turns ``meta`` into an ``engine.chunk``
    span; fork workers cannot reach the parent's span ring directly, so
    the measurement rides back alongside the results.
    """
    fast, chunk = payload
    faults.trip("engine.chunk")
    runner = execute_run_fast if fast else execute_run
    start_wall = time.time()
    start = time.perf_counter()
    results = [runner(config) for config in chunk]
    meta = {
        "start_s": start_wall,
        "dur_s": time.perf_counter() - start,
        "pid": os.getpid(),
        "configs": len(chunk),
        "profile": obs_profile.snapshot(reset=True),
    }
    return results, meta


def _record_chunk_span(meta: Optional[Dict[str, Any]]) -> None:
    """Record one ``engine.chunk`` span from a worker's meta record.

    Parents the span to the scheduler's thread-local unit-execution
    context when one is bound (the service path); standalone sweeps
    get free-floating chunk spans under a fresh trace id.  A no-op
    while no span recorder is installed.
    """
    if meta is None or obs_trace.recorder() is None:
        return
    ctx = obs_trace.get_current()
    trace_id = parent_id = None
    if ctx is not None:
        trace_id, parent_id = ctx
    attrs: Dict[str, Any] = {
        "configs": meta.get("configs", 0),
        "worker_pid": meta.get("pid", 0),
    }
    profile = meta.get("profile")
    if profile:
        attrs["kernel_runs"] = profile.get("runs", 0)
        for name, entry in profile.get("phases", {}).items():
            attrs[f"phase_{name}_s"] = round(entry.get("seconds", 0.0), 6)
    obs_trace.record_span(
        "engine.chunk",
        meta.get("start_s", time.time()),
        meta.get("dur_s", 0.0),
        trace_id=trace_id,
        parent_id=parent_id,
        attrs=attrs,
    )


def _estimated_cost(config: SimulationConfig) -> float:
    """Relative wall-clock estimate for one run (for longest-first order).

    Memory-bound benchmarks with large footprints simulate several times
    slower than cache-friendly ones; weighting by memory-operation
    fraction and data footprint orders chunks well enough that the
    longest work starts first and the pool drains evenly.  Scenario and
    trace workloads fall back to a mid-heavy constant.
    """
    try:
        traits = get_benchmark(config.benchmark)
    except KeyError:
        weight = 2.0
    else:
        weight = 1.0 + 2.0 * (traits.load_fraction + traits.store_fraction)
        weight += min(2.0, traits.data_footprint_bytes / (512 * 1024))
    return config.n_instructions * weight


def _shutdown_executor(pool: ProcessPoolExecutor) -> None:
    pool.shutdown(wait=False)


class SimEngine:
    """Run simulations with caching, persistence and parallelism.

    Args:
        max_cached_runs: Capacity of the in-memory LRU result cache.
        workers: Default process count for :meth:`run_many` /
            :meth:`sweep`; ``1`` means serial in-process execution.
        store: Optional on-disk result store (or a directory path for
            one), consulted before computing and updated after.
        fast: Execute runs on the batched fast-path kernel
            (:func:`repro.sim.fastpath.execute_run_fast`) instead of the
            reference cycle loop.  Results are bit-identical (the
            differential suite enforces this), so fast and reference
            runs share cache entries and store records.
        chunk_retries: How many times a failed parallel chunk is
            resubmitted to a (rebuilt, if broken) pool before it
            degrades to serial in-process execution.  ``0`` keeps the
            old behaviour: any worker failure falls straight to serial.
    """

    def __init__(
        self,
        max_cached_runs: int = 1024,
        workers: int = 1,
        store: Optional[Union[ResultStore, str, Path]] = None,
        fast: bool = False,
        chunk_retries: int = 2,
    ) -> None:
        if max_cached_runs < 1:
            raise ValueError("max_cached_runs must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if chunk_retries < 0:
            raise ValueError("chunk_retries must be non-negative")
        self.max_cached_runs = max_cached_runs
        self.workers = workers
        self.fast = fast
        self.chunk_retries = chunk_retries
        self.store = ResultStore(store) if isinstance(store, (str, Path)) else store
        self._cache: "OrderedDict[Tuple, RunResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._pool_lock = threading.Lock()
        self._pool_finalizer: Optional[weakref.finalize] = None
        self.stats: Dict[str, int] = {
            "memory_hits": 0,
            "store_hits": 0,
            "computed": 0,
            "pool_rebuilds": 0,
            "chunk_retries": 0,
            "store_put_errors": 0,
        }

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def _executor(self, workers: int) -> ProcessPoolExecutor:
        """The persistent worker pool, (re)created on first use.

        Workers are forked once and reused across :meth:`run_many` /
        :meth:`sweep` calls — repeated sweeps stop paying process
        start-up, and forked workers inherit already-compiled traces.
        Asking for a different worker count recycles the pool.
        """
        with self._pool_lock:
            if self._pool is not None and self._pool_workers != workers:
                self._close_pool_locked(wait=False)
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=_worker_context()
                )
                self._pool_workers = workers
                self._pool_finalizer = weakref.finalize(
                    self, _shutdown_executor, self._pool
                )
            return self._pool

    def _close_pool_locked(self, wait: bool) -> None:
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None
            self._pool_workers = 0

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        Safe to call from several threads at once (the service layer's
        drain path and a context-manager exit may race): the pool lock
        serialises the shutdown and later callers see the already-closed
        state.  The engine stays usable — the next parallel call simply
        forks a fresh pool (picking up e.g. newly registered policies).
        """
        with self._pool_lock:
            self._close_pool_locked(wait=True)

    def terminate(self) -> None:
        """Hard-stop the worker pool: cancel queued chunks, kill workers.

        Unlike :meth:`close`, which waits for in-flight chunks, this
        SIGKILLs the fork workers so a long chunk cannot delay process
        exit — the interrupt path (SIGINT/SIGTERM during a pooled
        sweep) and the service's drain timeout use it to guarantee no
        orphaned workers outlive the parent.  SIGKILL rather than
        SIGTERM because forked workers inherit the parent's signal
        handlers: a parent whose SIGTERM handler raises (the usual
        graceful-shutdown idiom) would have that exception *swallowed*
        inside the worker's task loop, leaving the worker alive.
        Idempotent and safe under concurrent callers, like :meth:`close`.
        """
        with self._pool_lock:
            pool = self._pool
            if pool is None:
                return
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            # Kill the workers *before* asking the executor to shut
            # down: the manager thread then observes a broken pool and
            # exits by itself.  The reverse order can leave the manager
            # blocked waiting for results that will never arrive, which
            # would hang interpreter exit (it joins manager threads).
            processes = list((getattr(pool, "_processes", None) or {}).values())
            for process in processes:
                if process.is_alive():
                    process.kill()
            pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_workers = 0

    def __enter__(self) -> "SimEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def __bool__(self) -> bool:
        # An engine with an empty cache is still an engine: never let
        # truthiness defaulting (``engine or SimEngine()``) swap in
        # the wrong instance.
        return True

    def clear(self) -> None:
        """Drop every memoised run (tests use this for isolation)."""
        with self._lock:
            self._cache.clear()

    def cached_results(self) -> List[RunResult]:
        """The in-memory cached results, least recently used first."""
        with self._lock:
            return list(self._cache.values())

    def _cache_get(self, key: Tuple) -> Optional[RunResult]:
        with self._lock:
            result = self._cache.get(key)
            if result is not None:
                self._cache.move_to_end(key)
                self.stats["memory_hits"] += 1
            return result

    def _bump(self, stat: str) -> None:
        with self._lock:
            self.stats[stat] += 1

    def _cache_put(self, key: Tuple, result: RunResult) -> None:
        with self._lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self.max_cached_runs:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        config: SimulationConfig,
        use_cache: bool = True,
        fast: Optional[bool] = None,
    ) -> RunResult:
        """Simulate one configuration, reusing cached results when allowed."""
        return self.run_many([config], workers=1, use_cache=use_cache, fast=fast)[0]

    def run_many(
        self,
        configs: Sequence[SimulationConfig],
        workers: Optional[int] = None,
        use_cache: bool = True,
        fast: Optional[bool] = None,
        cancel: Optional[threading.Event] = None,
    ) -> List[RunResult]:
        """Simulate many configurations, in parallel when ``workers > 1``.

        Results come back in input order and are identical to running
        each configuration serially (runs are independent and fully
        seeded).  Configurations already in the cache or store are not
        re-simulated, and duplicates are simulated once.  ``fast``
        overrides the engine's default execution path for this call.

        ``cancel`` is the service layer's cancellation hook: when the
        event is set mid-batch the call raises :class:`RunCancelled` at
        the next configuration boundary (serial) or chunk boundary
        (parallel).  Results computed before the cancellation are
        already in the cache/store — fresh results are written back as
        they complete, not at the end of the batch — so a resubmitted
        batch resumes instead of restarting.
        """
        workers = self.workers if workers is None else workers
        if workers < 1:
            raise ValueError("workers must be at least 1")
        runner = execute_run_fast if (self.fast if fast is None else fast) else execute_run
        configs = list(configs)
        results: List[Optional[RunResult]] = [None] * len(configs)

        pending: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        pending_configs: Dict[Tuple, SimulationConfig] = {}
        for index, config in enumerate(configs):
            key = config.cache_key()
            hit: Optional[RunResult] = None
            if use_cache:
                hit = self._cache_get(key)
                if hit is None and self.store is not None:
                    hit = self.store.get(config)
                    if hit is not None:
                        self._bump("store_hits")
                        self._cache_put(key, hit)
            if hit is not None:
                results[index] = hit
            else:
                pending.setdefault(key, []).append(index)
                pending_configs.setdefault(key, config)

        todo = list(pending_configs.items())
        if todo:

            def record(position: int, result: RunResult) -> None:
                key, config = todo[position]
                self._bump("computed")
                if use_cache:
                    self._cache_put(key, result)
                    if self.store is not None:
                        try:
                            self.store.put(config, result)
                        except OSError:
                            # A full or failing disk must not lose the
                            # computed result: it is already in the LRU
                            # and in the caller's list.  Count it so
                            # operators can see persistence degrading.
                            self._bump("store_put_errors")
                for index in pending[key]:
                    results[index] = result

            if workers > 1 and len(todo) > 1:
                self._run_parallel(
                    [config for _, config in todo],
                    workers,
                    fast=runner is execute_run_fast,
                    record=record,
                    cancel=cancel,
                )
            else:
                for position, (_, config) in enumerate(todo):
                    if cancel is not None and cancel.is_set():
                        raise RunCancelled(
                            f"cancelled with {len(todo) - position} of "
                            f"{len(todo)} configurations outstanding"
                        )
                    if obs_trace.recorder() is None:
                        record(position, runner(config))
                        continue
                    start_wall = time.time()
                    start = time.perf_counter()
                    result = runner(config)
                    _record_chunk_span({
                        "start_s": start_wall,
                        "dur_s": time.perf_counter() - start,
                        "pid": os.getpid(),
                        "configs": 1,
                        "profile": obs_profile.snapshot(reset=True),
                    })
                    record(position, result)
        return results  # type: ignore[return-value]

    def _run_parallel(
        self,
        configs: List[SimulationConfig],
        workers: int,
        fast: bool,
        record,
        cancel: Optional[threading.Event] = None,
    ) -> None:
        """Execute ``configs`` on the persistent pool, recording as it goes.

        The work is grouped into *trace-affine* chunks (configurations
        sharing a compiled trace land in the same chunk, so each chunk
        pays at most one trace load), the chunks are submitted
        longest-estimated-first, and idle workers pick up the next
        pending chunk — work stealing at chunk granularity.  Each chunk
        carries its configs' original input indices, so ``record`` is
        called with every config's original position even when the input
        interleaves benchmarks (a policy-major grid).  A broken pool
        (e.g. a worker killed by the OOM killer) degrades to serial
        in-process execution instead of failing the sweep.

        Chunk results are recorded as their futures complete, so a
        cancellation (or a failure in a later chunk) keeps everything
        finished so far.  When ``cancel`` is set, pending chunks are
        cancelled and :class:`RunCancelled` is raised; chunks already
        running on workers finish in the background but their results
        are simply discarded.

        Worker failures degrade gracefully, per chunk: a chunk whose
        task raised — or that was in flight when the pool broke (a
        worker SIGKILLed, OOM-killed, or crashed mid-chunk) — is
        resubmitted to a fresh pool up to ``chunk_retries`` times
        (``stats["chunk_retries"]`` / ``stats["pool_rebuilds"]`` count
        the recoveries), and only a chunk that keeps failing runs
        serially in-process as the last resort.  One bad chunk
        therefore no longer demotes a whole sweep to serial, and a
        persistently crashing worker cannot fail a batch.
        """
        recorded: set = set()

        def record_chunk(indices, payload) -> None:
            chunk_results, meta = payload
            fresh = False
            for index, result in zip(indices, chunk_results):
                if index not in recorded:
                    recorded.add(index)
                    record(index, result)
                    fresh = True
            if fresh:
                # Only the attempt that actually contributed results
                # gets a span — a salvage of an already-recorded chunk
                # (retry races) would otherwise double-count it in the
                # chunk-latency histogram.
                _record_chunk_span(meta)

        # (indices, chunk, attempt): attempt counts pool submissions.
        max_attempts = self.chunk_retries + 1
        queue = [
            (indices, chunk, 1) for indices, chunk in self._make_chunks(configs, workers)
        ]
        serial: List[Tuple[List[int], List[SimulationConfig]]] = []

        def requeue(indices, chunk, attempt) -> None:
            if attempt < max_attempts:
                queue.append((indices, chunk, attempt + 1))
            else:
                serial.append((indices, chunk))

        while queue:
            executor = self._executor(workers)
            futures = [
                (indices, chunk, attempt, executor.submit(_execute_chunk, (fast, chunk)))
                for indices, chunk, attempt in queue
            ]
            queue = []
            pool_broken = False
            try:
                for indices, chunk, attempt, future in futures:
                    if pool_broken:
                        # The break cancelled or poisoned the remaining
                        # futures; salvage any that completed first and
                        # requeue the rest against the next pool.
                        chunk_results = None
                        if future.done() and not future.cancelled():
                            try:
                                chunk_results = future.result()
                            except BaseException:
                                chunk_results = None
                        if chunk_results is not None:
                            record_chunk(indices, chunk_results)
                        else:
                            future.cancel()
                            requeue(indices, chunk, attempt)
                        continue
                    chunk_results = None
                    while True:
                        if cancel is not None and cancel.is_set():
                            raise RunCancelled("cancelled between chunks")
                        try:
                            chunk_results = future.result(
                                timeout=0.05 if cancel is not None else None
                            )
                            break
                        except FuturesTimeout:
                            continue
                        except BrokenProcessPool:
                            # A dead worker poisons every in-flight
                            # future at once; recycle the pool once and
                            # drain the rest in salvage mode.
                            pool_broken = True
                            self.close()
                            self._bump("pool_rebuilds")
                            requeue(indices, chunk, attempt)
                            break
                        except (KeyboardInterrupt, SystemExit):
                            raise
                        except Exception:
                            # The task itself failed (a worker-side
                            # exception with the pool still healthy).
                            self._bump("chunk_retries")
                            requeue(indices, chunk, attempt)
                            break
                    if chunk_results is not None:
                        record_chunk(indices, chunk_results)
            except BaseException as error:
                # Cancellation or a kill signal must not leave the other
                # submitted chunks running unattended on the persistent
                # pool, where they would steal CPU from — and queue
                # ahead of — the caller's next run_many.
                for _, _, _, future in futures:
                    future.cancel()
                if isinstance(error, (KeyboardInterrupt, SystemExit)):
                    # An interrupt means the process is on its way out;
                    # a graceful close would block on the long chunks
                    # the interrupt is trying to abandon, and an
                    # abandoned fork pool would orphan its workers.
                    self.terminate()
                else:
                    # Futures complete out of submission order but are
                    # consumed in it, so chunks that finished on other
                    # workers may not have been recorded yet.  Write
                    # them back before propagating — the documented
                    # contract (results land in the cache/store as they
                    # complete) is what lets a cancelled batch resume.
                    for indices, _, _, future in futures:
                        if future.done() and not future.cancelled():
                            try:
                                record_chunk(indices, future.result())
                            except BaseException:
                                pass
                raise

        # Last resort: chunks that exhausted their pool attempts run
        # serially in the caller's process.  The direct runner call
        # bypasses the worker-side failpoint, mirroring production —
        # whatever kills workers (OOM, a bad cgroup) does not apply to
        # the parent — so a chaos plan with p=1 still makes progress.
        runner = execute_run_fast if fast else execute_run
        for indices, chunk in serial:
            for index, config in zip(indices, chunk):
                if index in recorded:
                    continue
                if cancel is not None and cancel.is_set():
                    raise RunCancelled("cancelled during serial fallback")
                recorded.add(index)
                if obs_trace.recorder() is None:
                    record(index, runner(config))
                    continue
                start_wall = time.time()
                start = time.perf_counter()
                result = runner(config)
                _record_chunk_span({
                    "start_s": start_wall,
                    "dur_s": time.perf_counter() - start,
                    "pid": os.getpid(),
                    "configs": 1,
                    "profile": obs_profile.snapshot(reset=True),
                })
                record(index, result)

    @staticmethod
    def _make_chunks(
        configs: List[SimulationConfig], workers: int
    ) -> List[Tuple[List[int], List[SimulationConfig]]]:
        """Split work into cost-sorted, trace-affine chunks.

        Returns ``(input_indices, chunk)`` pairs — parallel lists, so
        every chunk result can be written back to its config's original
        position; the returned list is ordered longest-estimated-first
        for submission.
        """
        # Group by compiled-trace identity, preserving input order.
        groups: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        for index, config in enumerate(configs):
            groups.setdefault(
                _trace_cache_key(config.benchmark, config.seed), []
            ).append(index)
        # Aim for a few chunks per worker so stealing can level the load
        # without shattering trace affinity.
        target_chunks = max(workers * 3, 1)
        chunk_size = max(1, math.ceil(len(configs) / target_chunks))
        chunks: List[Tuple[List[int], List[SimulationConfig]]] = []
        for group in groups.values():
            for start in range(0, len(group), chunk_size):
                indices = group[start:start + chunk_size]
                chunks.append((indices, [configs[i] for i in indices]))
        chunks.sort(
            key=lambda entry: sum(_estimated_cost(c) for c in entry[1]),
            reverse=True,
        )
        return chunks

    def sweep(
        self,
        base_config: SimulationConfig,
        benchmarks: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
        fast: Optional[bool] = None,
    ) -> Dict[str, RunResult]:
        """Run ``base_config`` for every benchmark in ``benchmarks``.

        Args:
            base_config: Template configuration; only the benchmark name
                is substituted (via :func:`dataclasses.replace`, so every
                other field — including ones added later — carries over).
            benchmarks: Benchmark names; defaults to all sixteen.
            workers: Process count; defaults to the engine's.
            fast: Execution-path override for this call.

        Returns:
            Mapping from benchmark name to its :class:`RunResult`.
        """
        names = list(benchmarks) if benchmarks is not None else benchmark_names()
        configs = [replace(base_config, benchmark=name) for name in names]
        results = self.run_many(configs, workers=workers, fast=fast)
        return dict(zip(names, results))
