"""Synthetic workload generators standing in for SPEC2000 and Olden.

The original benchmark binaries and SimPoint traces are not
redistributable, so each of the paper's sixteen applications is modelled
by a deterministic synthetic micro-op stream whose architecturally
relevant characteristics (footprint, subarray locality, miss behaviour,
instruction mix, branch predictability, displacement addressing) are
encoded in :mod:`~repro.workloads.characteristics`.
"""

from .characteristics import (
    BENCHMARKS,
    BenchmarkCharacteristics,
    OLDEN_BENCHMARKS,
    SPEC2000_BENCHMARKS,
    benchmark_names,
    get_benchmark,
)
from .fuzzgen import (
    DEFAULT_FUZZ_DEPTH,
    MAX_FUZZ_DEPTH,
    generate_scenario,
    parse_fuzz_name,
)
from .generators import CodeWalker, HotColdRegion, PointerChase, StridedStream
from .grammar import (
    Bench,
    Group,
    ScenarioError,
    iter_leaves,
    parse_scenario,
    unparse,
)
from .scenarios import (
    ScenarioWorkload,
    resolve_workload,
    validate_workload_name,
    workload_identity,
)
from .synthetic import SyntheticWorkload, WorkloadBase, make_workload
from .tracefile import (
    TraceFileWorkload,
    read_trace,
    read_trace_meta,
    record_benchmark,
    write_trace,
)
from .trace import (
    EXECUTION_LATENCY,
    MicroOp,
    OP_ALU,
    OP_BRANCH,
    OP_FPU,
    OP_LOAD,
    OP_STORE,
    OP_TYPES,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkCharacteristics",
    "OLDEN_BENCHMARKS",
    "SPEC2000_BENCHMARKS",
    "benchmark_names",
    "get_benchmark",
    "CodeWalker",
    "HotColdRegion",
    "PointerChase",
    "StridedStream",
    "SyntheticWorkload",
    "WorkloadBase",
    "make_workload",
    "Bench",
    "Group",
    "ScenarioError",
    "ScenarioWorkload",
    "iter_leaves",
    "parse_scenario",
    "unparse",
    "DEFAULT_FUZZ_DEPTH",
    "MAX_FUZZ_DEPTH",
    "generate_scenario",
    "parse_fuzz_name",
    "resolve_workload",
    "validate_workload_name",
    "workload_identity",
    "TraceFileWorkload",
    "read_trace",
    "read_trace_meta",
    "record_benchmark",
    "write_trace",
    "EXECUTION_LATENCY",
    "MicroOp",
    "OP_ALU",
    "OP_BRANCH",
    "OP_FPU",
    "OP_LOAD",
    "OP_STORE",
    "OP_TYPES",
]
