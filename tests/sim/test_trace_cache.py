"""The compiled-trace caches: typed columns, disk persistence, eviction.

Pins the trace-cache contract:

* ``from_columns`` over the ``array("q")`` columns the disk loader
  passes and live-compiled traces yield identical ``micro_op()`` streams
  *and* identical precomputed predictor columns and run plans
  (property-based);
* a run plan extended in arbitrary chunks equals one built in a single
  pass, matches the rename table's and the LSQ's definitions, and grows
  only as far as fetch reaches;
* a trace persisted to the on-disk cache round-trips — a fresh
  in-memory cache loads it and produces bit-identical runs;
* garbage, truncated, length-, byte-order- or key-mismatched entries
  are evicted and recompiled instead of poisoning results;
* ``clear_trace_cache()`` clears the disk cache too (entries of older
  formats included), and re-recorded ``trace:`` files never serve stale
  entries (file identity is part of the key, hence of the disk filename);
* the CLI, the service and a fast run persist traces without importing
  numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from array import array
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.fastpath as fastpath
from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_run, execute_run_fast
from repro.sim.fastpath import (
    CompiledTrace,
    clear_trace_cache,
    compiled_trace_for,
    set_trace_cache_dir,
    trace_cache_dir,
)
from repro.workloads.trace import OP_ALU, OP_LOAD, OP_STORE, OP_TYPES, MicroOp
from repro.workloads.tracefile import record_benchmark

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def disk_cache(tmp_path):
    """Point the disk cache at a private directory for one test."""
    previous = fastpath._DISK_DIR_OVERRIDE
    set_trace_cache_dir(tmp_path)
    clear_trace_cache(disk=False)
    yield tmp_path
    clear_trace_cache(disk=False)
    fastpath._DISK_DIR_OVERRIDE = previous


def _config(benchmark="gcc", n=1_500):
    return SimulationConfig(
        benchmark=benchmark, dcache="gated", icache="gated", n_instructions=n
    )


# ----------------------------------------------------------------------
# Typed-array columns
# ----------------------------------------------------------------------
_micro_ops = st.builds(
    MicroOp,
    op_type=st.sampled_from(OP_TYPES),
    pc=st.integers(min_value=0, max_value=1 << 22).map(lambda v: v * 4),
    dest=st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
    src1=st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
    src2=st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
    address=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 24)),
    base_address=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 24)),
    taken=st.booleans(),
    target=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 24)),
)


#: (register count, L1I offset bits, L1D offset bits) plan geometries.
_GEOMETRIES = ((64, 5, 5), (8, 6, 3), (1, 2, 6))

_PLAN_COLUMNS = ("run_end", "terms", "prod1", "prod2", "fwd", "mem")


def _full_plan(trace, geometry):
    """The trace's plan for ``geometry``, extended over every row."""
    plan = trace.plan(*geometry)
    while plan.upto < trace.rows:
        trace.extend_plan(plan, plan.upto)
    return plan


def _plan_columns(plan):
    return {name: getattr(plan, name) for name in _PLAN_COLUMNS}


class TestTypedColumns:
    @given(ops=st.lists(_micro_ops, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_array_and_list_columns_equal(self, ops):
        """``array("q")``-backed and list-backed traces are indistinguishable."""
        compiled = CompiledTrace(iter(ops))
        compiled.ensure(len(ops))
        columns, predictor, _ = compiled.snapshot()
        arrays = {name: array("q", column) for name, column in columns.items()}
        tables = {name: array("q", predictor[name])
                  for name in fastpath._PREDICTOR_TABLES}
        tables["history"] = predictor["history"]
        # Restored (as the disk loader does) and replayed predictor state.
        for restored in (tables, None):
            rebuilt = CompiledTrace.from_columns(
                arrays, exhausted=True, predictor=restored
            )
            assert rebuilt.rows == compiled.rows == len(ops)
            for index in range(len(ops)):
                assert rebuilt.micro_op(index) == compiled.micro_op(index) == ops[index]
            # The predictor column and the run plans are pure functions
            # of the base columns, so they must match too.
            assert rebuilt.mispred == compiled.mispred
            for geometry in _GEOMETRIES:
                assert _plan_columns(_full_plan(rebuilt, geometry)) == (
                    _plan_columns(_full_plan(compiled, geometry))
                )
            assert rebuilt._bimodal == compiled._bimodal
            assert rebuilt._gshare == compiled._gshare
            assert rebuilt._chooser == compiled._chooser
            assert rebuilt._history == compiled._history

    def test_from_columns_rejects_mismatched_lengths(self):
        compiled = CompiledTrace(iter([MicroOp(OP_ALU, pc=0)]))
        compiled.ensure(1)
        columns = {name: list(getattr(compiled, name)) for name in fastpath.COLUMN_NAMES}
        columns["pc"] = columns["pc"] + [4]
        with pytest.raises(ValueError, match="mismatched"):
            CompiledTrace.from_columns(columns, exhausted=True)

    def test_from_columns_without_source_cannot_extend(self):
        compiled = CompiledTrace(iter([MicroOp(OP_ALU, pc=0)]))
        compiled.ensure(1)
        columns, _, _ = compiled.snapshot()
        rebuilt = CompiledTrace.from_columns(columns, exhausted=False)
        with pytest.raises(RuntimeError, match="continuation source"):
            rebuilt.ensure(5)


# ----------------------------------------------------------------------
# Run plans
# ----------------------------------------------------------------------
class TestTracePlan:
    @given(
        ops=st.lists(_micro_ops, max_size=120),
        geometry=st.sampled_from(_GEOMETRIES),
        chunks=st.lists(st.integers(min_value=1, max_value=40), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_plan_equals_single_pass(self, ops, geometry, chunks):
        """Extending a plan in arbitrary chunks builds the same columns,
        except that ``run_end`` may be capped earlier, at a chunk end."""
        trace = CompiledTrace(iter(ops))
        trace.ensure(len(ops))
        whole = fastpath._TracePlan(*geometry)
        whole.extend_to(trace, trace.rows)
        chunked = fastpath._TracePlan(*geometry)
        ends = set()
        for size in chunks + [len(ops)]:
            chunked.extend_to(trace, min(trace.rows, chunked.upto + size))
            ends.add(chunked.upto)
        assert chunked.upto == whole.upto == len(ops)
        for name in _PLAN_COLUMNS:
            if name != "run_end":
                assert getattr(chunked, name) == getattr(whole, name)
        for index, (capped, end) in enumerate(zip(chunked.run_end, whole.run_end)):
            assert capped == end or (index < capped < end and capped in ends)

    @given(ops=st.lists(_micro_ops, max_size=80), geometry=st.sampled_from(_GEOMETRIES))
    @settings(max_examples=60, deadline=None)
    def test_plan_matches_rename_and_lsq_semantics(self, ops, geometry):
        """Producers are the last writer of the source register modulo
        the register count, forwarding the latest older store to the
        load's data line, and ``mem`` a count of memory ops."""
        n_regs, _, d_bits = geometry
        trace = CompiledTrace(iter(ops))
        trace.ensure(len(ops))
        plan = _full_plan(trace, geometry)

        def distance(index, matches):
            for earlier in range(index - 1, -1, -1):
                if matches(ops[earlier]):
                    return index - earlier
            return 0

        def writes(register):
            return lambda op: (
                register is not None and op.dest is not None
                and op.dest % n_regs == register % n_regs
            )

        for index, op in enumerate(ops):
            assert plan.prod1[index] == distance(index, writes(op.src1))
            assert plan.prod2[index] == distance(index, writes(op.src2))
            line = -1 if op.address is None else op.address >> d_bits
            expected_fwd = distance(index, lambda older: (
                older.op_type == OP_STORE
                and (-1 if older.address is None else older.address >> d_bits) == line
            )) if op.op_type == OP_LOAD else 0
            assert plan.fwd[index] == expected_fwd
        assert plan.mem == [0] + list(accumulate(
            1 if op.op_type in (OP_LOAD, OP_STORE) else 0 for op in ops
        ))

    def test_a_short_run_plans_one_chunk(self, disk_cache):
        # Plans grow as fetch reaches their end, never over every
        # materialised row: a short run on a long trace pays for one
        # chunk.
        config = _config(n=200)
        trace = compiled_trace_for(config.benchmark, seed=config.seed)
        assert trace.ensure(3 * fastpath._COMPILE_CHUNK)
        execute_run_fast(config)
        [plan] = trace._plans.values()
        assert plan.upto == fastpath._COMPILE_CHUNK


# ----------------------------------------------------------------------
# Disk cache round-trip
# ----------------------------------------------------------------------
def _edit_header(data: bytes, field: str, edit) -> bytes:
    header, newline, body = data.partition(b"\n")
    meta = json.loads(header)
    meta[field] = edit(meta[field])
    return json.dumps(meta).encode("utf-8") + newline + body


#: One defect per way a disk entry can go bad; each must be evicted.
_DEFECTS = {
    "garbage": lambda data: b"this is not a trace-cache entry",
    "truncated-body": lambda data: data[:-4096],
    "rows-off-by-one": lambda data: _edit_header(data, "rows", lambda rows: rows + 1),
    "foreign-byteorder": lambda data: _edit_header(
        data, "byteorder", lambda order: "big" if order == "little" else "little"
    ),
}


class TestDiskCache:
    def test_run_persists_and_reloads(self, disk_cache):
        config = _config()
        reference = execute_run(config)
        first = execute_run_fast(config)
        entries = list(disk_cache.glob("trace-*.cols"))
        assert len(entries) == 1, "the run should persist its compiled trace"

        compiled = compiled_trace_for("gcc")
        clear_trace_cache(disk=False)  # drop memory, keep the disk entry
        reloaded_trace = compiled_trace_for("gcc")
        assert reloaded_trace is not compiled
        assert reloaded_trace.rows == compiled.rows
        for name in fastpath.COLUMN_NAMES:
            assert getattr(reloaded_trace, name) == getattr(compiled, name)

        reloaded = execute_run_fast(config)
        assert first.to_dict() == reloaded.to_dict() == reference.to_dict()

    def test_loaded_prefix_extends_through_source_factory(self, disk_cache):
        short = _config(n=600)
        execute_run_fast(short)
        clear_trace_cache(disk=False)
        # Columns materialise in 8192-row chunks, so a 12k-instruction
        # run needs rows beyond the persisted prefix; the continuation
        # (fast-forwarded generator + restored predictor state) must be
        # byte-identical to an uninterrupted compile.
        longer = _config(n=12_000)
        assert execute_run_fast(longer).to_dict() == execute_run(longer).to_dict()

    @pytest.mark.parametrize("defect", list(_DEFECTS))
    def test_corrupted_entry_is_evicted_and_recompiled(self, disk_cache, defect):
        config = _config()
        expected = execute_run_fast(config).to_dict()
        [entry] = disk_cache.glob("trace-*.cols")
        original = entry.read_bytes()
        entry.write_bytes(_DEFECTS[defect](original))
        clear_trace_cache(disk=False)
        assert execute_run_fast(config).to_dict() == expected
        assert entry.read_bytes() == original, (
            "the corrupted entry should have been evicted and rewritten"
        )

    def test_truncated_entry_is_evicted(self, disk_cache):
        config = _config()
        expected = execute_run_fast(config).to_dict()
        [entry] = disk_cache.glob("trace-*.cols")
        entry.write_bytes(entry.read_bytes()[:100])
        clear_trace_cache(disk=False)
        assert execute_run_fast(config).to_dict() == expected

    def test_key_mismatch_is_never_served(self, disk_cache):
        execute_run_fast(_config(benchmark="gcc"))
        [gcc_entry] = disk_cache.glob("trace-*.cols")
        clear_trace_cache(disk=False)
        # Masquerade gcc's entry under mcf's filename (a copied cache
        # dir / hash collision stand-in): the embedded key must reject it.
        mcf_path = fastpath._disk_path(fastpath._trace_cache_key("mcf", 1))
        mcf_path.write_bytes(gcc_entry.read_bytes())
        mcf_config = _config(benchmark="mcf")
        assert execute_run_fast(mcf_config).to_dict() == execute_run(mcf_config).to_dict()

    def test_clear_trace_cache_clears_disk_too(self, disk_cache):
        execute_run_fast(_config())
        assert list(disk_cache.glob("trace-*.cols"))
        # A format-1 entry left behind by an older release.
        stale = disk_cache / f"trace-{'0' * 40}.npz"
        stale.write_bytes(b"PK\x03\x04")
        clear_trace_cache()
        assert not list(disk_cache.glob("trace-*"))

    def test_rerecorded_trace_file_gets_fresh_disk_entry(self, disk_cache, tmp_path):
        path = tmp_path / "w.trace.gz"
        record_benchmark(path, "gcc", 900)
        name = f"trace:{path}"
        first = execute_run_fast(_config(benchmark=name, n=700))
        # Re-record with different content at the same path.
        record_benchmark(path, "mcf", 900)
        os.utime(path, (os.path.getmtime(path) + 5,) * 2)
        clear_trace_cache(disk=False)
        rerecorded = execute_run_fast(_config(benchmark=name, n=700))
        assert rerecorded.to_dict() != first.to_dict()
        assert rerecorded.to_dict() == execute_run(_config(benchmark=name, n=700)).to_dict()

    def test_disabled_disk_cache_writes_nothing(self, disk_cache):
        set_trace_cache_dir(None)
        assert trace_cache_dir() is None
        execute_run_fast(_config())
        assert not list(disk_cache.glob("trace-*"))


# ----------------------------------------------------------------------
# No numpy anywhere on the simulating path
# ----------------------------------------------------------------------
def test_cli_service_and_fast_run_never_import_numpy(tmp_path):
    """A fresh process persists a trace and leaves numpy unimported."""
    script = (
        "import sys, repro, repro.cli, repro.service.server\n"
        "from repro.sim.config import SimulationConfig\n"
        "from repro.sim.engine import execute_run_fast\n"
        "execute_run_fast(SimulationConfig(benchmark='gcc', dcache='gated',"
        " icache='gated', n_instructions=600))\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, REPRO_TRACE_CACHE_DIR=str(tmp_path))
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.glob("trace-*")), "the run should persist its trace"
    assert result.stdout.strip() == "False", "numpy was imported"
