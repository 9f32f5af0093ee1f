"""Differential equivalence: the fast path is bit-identical to the reference.

The batched kernel (:mod:`repro.sim.fastpath`) is only allowed to exist
because it changes *nothing*: for every configuration,
``execute_run_fast(config).to_dict() == execute_run(config).to_dict()``
exactly — integer cycle counts, float energy sums, gap lists, all of it.
These tests pin that contract on a policy x benchmark x subarray-size
grid, a pipeline-shape grid, and the scenario and trace-replay
workloads.
"""

from __future__ import annotations

import pytest

from repro.core.registry import PolicySpec, policy_names
from repro.cpu.lsq import LoadStoreQueue
from repro.cpu.pipeline import PipelineConfig
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine, execute_run, execute_run_fast
from repro.sim.fastpath import clear_trace_cache, compile_workload
from repro.workloads.tracefile import record_benchmark

#: Kept small: equivalence is binary, not asymptotic, so short runs that
#: still exercise misses, replays and policy toggles are enough.
_INSTRUCTIONS = 2500


@pytest.fixture(autouse=True)
def _fresh_traces():
    clear_trace_cache()
    yield
    clear_trace_cache()


def assert_identical(config: SimulationConfig) -> None:
    reference = execute_run(config)
    fast = execute_run_fast(config)
    assert fast.to_dict() == reference.to_dict()


@pytest.mark.parametrize("policy", policy_names())
@pytest.mark.parametrize("benchmark_name", ["gcc", "art", "health"])
def test_policy_benchmark_grid(policy: str, benchmark_name: str) -> None:
    assert_identical(
        SimulationConfig(
            benchmark=benchmark_name,
            dcache=policy,
            icache=policy,
            n_instructions=_INSTRUCTIONS,
        )
    )


@pytest.mark.parametrize("subarray_bytes", [256, 1024, 4096])
@pytest.mark.parametrize("feature_size_nm", [180, 70])
def test_subarray_and_node_grid(subarray_bytes: int, feature_size_nm: int) -> None:
    assert_identical(
        SimulationConfig(
            benchmark="vortex",
            dcache=PolicySpec("gated", {"threshold": 150}),
            icache="gated",
            subarray_bytes=subarray_bytes,
            feature_size_nm=feature_size_nm,
            n_instructions=_INSTRUCTIONS,
        )
    )


def test_mixed_policies_and_seed() -> None:
    assert_identical(
        SimulationConfig(
            benchmark="mcf",
            dcache="gated-predecode",
            icache="on-demand",
            seed=7,
            n_instructions=_INSTRUCTIONS,
        )
    )


@pytest.mark.parametrize("l2_policy", policy_names())
@pytest.mark.parametrize("benchmark_name", ["gcc", "art"])
def test_l2_policy_grid(l2_policy: str, benchmark_name: str) -> None:
    # The flat L2 stage must stay bit-identical under every policy,
    # including the precharge penalties it folds into L1 miss latencies.
    assert_identical(
        SimulationConfig(
            benchmark=benchmark_name,
            dcache="gated",
            icache="gated",
            l2=l2_policy,
            n_instructions=_INSTRUCTIONS,
        )
    )


@pytest.mark.parametrize("l1_policy", ["static", "on-demand", "gated-predecode"])
@pytest.mark.parametrize(
    "l2_spec",
    [PolicySpec("gated", {"threshold": 500}), PolicySpec("oracle")],
    ids=lambda spec: spec.name,
)
def test_l1_l2_cross_grid(l1_policy: str, l2_spec: PolicySpec) -> None:
    assert_identical(
        SimulationConfig(
            benchmark="health",
            dcache=l1_policy,
            icache=l1_policy,
            l2=l2_spec,
            n_instructions=_INSTRUCTIONS,
        )
    )


@pytest.mark.parametrize("level", ["l1", "l2"])
@pytest.mark.parametrize("benchmark_name", ["gcc", "art"])
def test_resize_inside_the_grid(level: str, benchmark_name: str) -> None:
    # The default interval (50k accesses) never elapses in a 2,500
    # micro-op run, so the grid above never sees a resize.  A 100-access
    # interval resizes many times; the result differing from the
    # default-interval run proves it did.
    def config(resizable: PolicySpec) -> SimulationConfig:
        if level == "l1":
            return SimulationConfig(
                benchmark=benchmark_name, dcache=resizable, icache=resizable,
                n_instructions=_INSTRUCTIONS,
            )
        return SimulationConfig(
            benchmark=benchmark_name, dcache="gated", icache="gated",
            l2=resizable, n_instructions=_INSTRUCTIONS,
        )

    resizing = config(PolicySpec("resizable", {"interval_accesses": 100}))
    fast = execute_run_fast(resizing).to_dict()
    assert fast == execute_run(resizing).to_dict()
    assert fast != execute_run_fast(config(PolicySpec("resizable"))).to_dict()


#: Pipeline shapes that bind on gcc and art: each changes the result
#: against Table 2's default core (asserted below).
_PIPELINE_SHAPES = {
    "lsq4": PipelineConfig(lsq_entries=4),
    "regs8": PipelineConfig(max_registers=8),
    "rob16-iq8": PipelineConfig(rob_entries=16, issue_queue_entries=8),
    "width2-port1": PipelineConfig(width=2, memory_ports=1),
}


@pytest.mark.parametrize("shape", sorted(_PIPELINE_SHAPES))
@pytest.mark.parametrize("benchmark_name", ["gcc", "art"])
def test_pipeline_shape_grid(shape: str, benchmark_name: str, monkeypatch) -> None:
    # Register producers, store forwarding and LSQ occupancy are planned
    # per register count and line size, and the queues are cursors, so
    # the core's shape must be varied against the reference too.
    queues = []
    init = LoadStoreQueue.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        queues.append(self)

    monkeypatch.setattr(LoadStoreQueue, "__init__", recording_init)

    def config(pipeline: PipelineConfig) -> SimulationConfig:
        return SimulationConfig(
            benchmark=benchmark_name, dcache="gated", pipeline=pipeline,
            n_instructions=3000,
        )

    shaped = config(_PIPELINE_SHAPES[shape])
    reference = execute_run(shaped).to_dict()
    assert execute_run_fast(shaped).to_dict() == reference
    assert reference != execute_run_fast(config(PipelineConfig())).to_dict()
    [queue] = queues
    assert queue.forwarded_loads > 0


@pytest.mark.parametrize("l2_subarray_bytes", [4096, 16384])
def test_l2_subarray_granularity(l2_subarray_bytes: int) -> None:
    assert_identical(
        SimulationConfig(
            benchmark="vortex",
            dcache="gated",
            icache="gated",
            l2=PolicySpec("gated", {"threshold": 500}),
            l2_subarray_bytes=l2_subarray_bytes,
            n_instructions=_INSTRUCTIONS,
        )
    )


def test_writeback_traffic_is_identical() -> None:
    # art thrashes the L1D with stores, maximising dirty evictions; the
    # propagated writebacks must hit the L2 identically on both paths.
    config = SimulationConfig(
        benchmark="art",
        dcache="gated",
        icache="gated",
        l2=PolicySpec("gated", {"threshold": 500}),
        n_instructions=_INSTRUCTIONS,
    )
    reference = execute_run(config)
    fast = execute_run_fast(config)
    assert fast.to_dict() == reference.to_dict()
    assert reference.pipeline.dcache_access_count > 0
    assert reference.l2_accesses > 0


@pytest.mark.parametrize(
    "scenario", ["mix:gcc+mcf@400", "phases:gcc+art@300"]
)
def test_scenario_workloads(scenario: str) -> None:
    assert_identical(
        SimulationConfig(
            benchmark=scenario,
            dcache="gated",
            icache="gated",
            l2=PolicySpec("gated", {"threshold": 500}),
            n_instructions=_INSTRUCTIONS,
        )
    )


@pytest.mark.parametrize(
    "scenario",
    [
        "mix:(phases:gcc+mcf@300)*2+vortex@250",
        "mix:(mix:gcc+gcc@150)+gcc@200",
        "mix:gcc~scale=0.25~slab=24+art~scale=2@350",
        "phases:(mix:art+health@200)+gcc@400",
    ],
)
def test_nested_scenario_workloads(scenario: str) -> None:
    assert_identical(
        SimulationConfig(
            benchmark=scenario,
            dcache="gated",
            icache="gated",
            l2=PolicySpec("gated", {"threshold": 500}),
            n_instructions=_INSTRUCTIONS,
        )
    )


@pytest.mark.parametrize("fuzz_seed", range(25))
def test_fuzz_seed_block(fuzz_seed: int) -> None:
    # The fixed 25-seed regression block: generated scenarios nobody
    # hand-wrote, with every cache level precharge-gated so both L1 and
    # L2 policy machinery is exercised.  `repro fuzz` explores beyond
    # this block; any mismatch it ever finds lands in tests/fuzz_corpus
    # (replayed by test_fuzz_corpus.py) rather than here.
    assert_identical(
        SimulationConfig(
            benchmark=f"fuzz:{fuzz_seed}",
            dcache="gated",
            icache="gated",
            l2=PolicySpec("gated", {"threshold": 500}),
            n_instructions=_INSTRUCTIONS,
        )
    )


def test_trace_replay_workload(tmp_path) -> None:
    path = tmp_path / "gcc.trace.gz"
    record_benchmark(path, "gcc", 4000, seed=3)
    # More ops recorded than simulated: normal replay.
    assert_identical(
        SimulationConfig(
            benchmark=f"trace:{path}",
            dcache="gated",
            icache="oracle",
            seed=3,
            n_instructions=_INSTRUCTIONS,
        )
    )


@pytest.mark.parametrize("threshold", [10, 100])
def test_trace_without_base_registers(tmp_path, threshold: int) -> None:
    # A trace file may record memory ops with no base register.  The
    # predecoder then has nothing to predict from, so every access that
    # finds its subarray isolated pays the pull-up; the fast path must
    # not read the column's "no base" sentinel as an address.  At 8 KB
    # subarrays the sentinel names subarray 0 and matches many accesses.
    import dataclasses
    from itertools import islice

    from repro.workloads.synthetic import make_workload
    from repro.workloads.tracefile import write_trace

    path = tmp_path / "nobase.trace.gz"
    stream = islice(make_workload("gcc", seed=1).instructions(), 5000)
    write_trace(
        path, (dataclasses.replace(uop, base_address=None) for uop in stream)
    )
    config = SimulationConfig(
        benchmark=f"trace:{path}",
        dcache=PolicySpec("gated-predecode", {"threshold": threshold}),
        subarray_bytes=8192,
        n_instructions=5000,
    )
    reference = execute_run(config)
    assert reference.dcache_delayed_accesses > 0
    assert execute_run_fast(config).to_dict() == reference.to_dict()


def test_exhausted_trace_drains_identically(tmp_path) -> None:
    # Fewer ops recorded than requested: both paths must drain the
    # pipeline early the same way.
    path = tmp_path / "short.trace.gz"
    record_benchmark(path, "mesa", 800, seed=2)
    config = SimulationConfig(
        benchmark=f"trace:{path}",
        dcache="gated",
        icache="gated",
        n_instructions=5000,
    )
    reference = execute_run(config)
    fast = execute_run_fast(config)
    assert fast.to_dict() == reference.to_dict()
    assert reference.pipeline.committed_instructions < 5000


def test_engine_cache_and_store_not_stale_after_rerecord(tmp_path) -> None:
    # The engine memo and the on-disk store key trace: configs on file
    # identity too, so a re-recorded path is recomputed, not resumed.
    import os

    path = tmp_path / "w.trace.gz"
    record_benchmark(path, "gcc", 1500, seed=1)
    config = SimulationConfig(benchmark=f"trace:{path}", n_instructions=1000)
    engine = SimEngine(store=str(tmp_path / "store"))
    first = engine.run(config)
    record_benchmark(path, "art", 1500, seed=9)
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    second = engine.run(config)
    assert second.to_dict() != first.to_dict()
    # A fresh engine sharing only the store must also see the new file.
    resumed = SimEngine(store=str(tmp_path / "store")).run(config)
    assert resumed.to_dict() == second.to_dict()


def test_rerecorded_trace_file_is_not_served_stale(tmp_path) -> None:
    # The compiled-trace cache keys trace: names on file identity, so
    # re-recording the same path must invalidate the cached columns.
    import os

    path = tmp_path / "w.trace.gz"
    record_benchmark(path, "gcc", 1500, seed=1)
    config = SimulationConfig(
        benchmark=f"trace:{path}", n_instructions=1000
    )
    first = execute_run_fast(config)
    record_benchmark(path, "art", 1500, seed=9)
    # Defend against filesystems with coarse mtime granularity.
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    second = execute_run_fast(config)
    assert second.to_dict() == execute_run(config).to_dict()
    assert second.to_dict() != first.to_dict()


def test_compiled_trace_matches_generator_stream() -> None:
    import itertools

    from repro.workloads.synthetic import make_workload

    compiled = compile_workload("equake", seed=4)
    assert compiled.ensure(999)
    stream = make_workload("equake", seed=4).instructions()
    for index, uop in enumerate(itertools.islice(stream, 1000)):
        assert compiled.micro_op(index) == uop


def test_engine_fast_flag_shares_cache_with_reference(tmp_path) -> None:
    config = SimulationConfig(benchmark="gcc", n_instructions=1200)
    reference = SimEngine(store=tmp_path).run(config)
    fast_engine = SimEngine(fast=True, store=tmp_path)
    fast = fast_engine.run(config)
    # Identical results mean one run key for both kernels: no recompute.
    assert fast_engine.stats["computed"] == 0
    assert fast.to_dict() == reference.to_dict() == execute_run_fast(config).to_dict()
    assert reference.to_dict() == execute_run(config).to_dict()


def test_fast_engine_sweep_matches_reference_sweep() -> None:
    base = SimulationConfig(
        benchmark="gcc", dcache="gated", icache="gated", n_instructions=1200
    )
    names = ["gcc", "ammp", "treeadd"]
    reference = SimEngine().sweep(base, benchmarks=names)
    fast = SimEngine(fast=True).sweep(base, benchmarks=names)
    for name in names:
        assert fast[name].to_dict() == reference[name].to_dict()


def test_livelock_bound_raises_identically() -> None:
    config = SimulationConfig(
        benchmark="art",
        n_instructions=200,
        pipeline=PipelineConfig(max_cycles_per_instruction=1),
    )
    with pytest.raises(RuntimeError) as reference_error:
        execute_run(config)
    with pytest.raises(RuntimeError) as fast_error:
        execute_run_fast(config)
    assert str(reference_error.value) == str(fast_error.value)
