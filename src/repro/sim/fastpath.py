"""Batched fast-path simulation kernel over columnar traces.

:func:`execute_run_fast` produces **bit-identical**
:class:`~repro.sim.metrics.RunResult` objects to the reference
:func:`repro.sim.engine.execute_run`, several times faster.  The speed
comes from restructuring, not from approximating:

* the workload's micro-op stream is **compiled once** into flat parallel
  columns (:class:`CompiledTrace`) — integer arrays for op class, PC,
  registers, addresses and branch outcomes — cached in-process per
  ``(benchmark, seed)`` *and* persisted to an on-disk ``.npz`` trace
  cache (:func:`trace_cache_dir`), so sweeps and worker processes load
  precompiled bytes instead of re-running the workload generators;
* branch-predictor outcomes are **precomputed at compile time**: the
  combination predictor's state depends only on the branch sequence,
  never on timing, so each op's mispredict flag is a pure column
  (``mispred``) shared by every configuration that replays the trace;
* the out-of-order core is driven by a single monolithic kernel
  (:func:`_simulate`) that keeps all in-flight state in parallel integer
  lists instead of per-op objects.  The scheduler is *incremental*: each
  waiting op carries a pending-producer count and a running ready-cycle
  that are updated when a producer issues, so the per-cycle wakeup scan
  degenerates to integer compares — and whole **quiet regions** (cycle
  windows between cache events where provably nothing can commit, issue,
  dispatch or fetch) are skipped in one arithmetic step instead of being
  walked cycle by cycle;
* the cache levels — both L1s *and* the unified L2 — are flat
  tag/LRU/MSHR arrays (:class:`_FastCache`) that delegate *policy
  decisions* to the very same
  :class:`~repro.core.policies.BasePrechargePolicy` objects and
  :class:`~repro.cache.energy_accounting.EnergyLedger` arithmetic the
  reference model uses, in the same call order — which is what makes the
  energy numbers (floating point, order-sensitive) match to the bit.
  Policy hooks that the base class defines as identity/no-op
  (``remap_set``, ``note_outcome``) are detected at wiring time and
  elided from the per-access path.

Every behavioural quirk of the reference model is reproduced on purpose
(monotonic cycle clamping, the i-cache line not being re-probed after a
fetch stall, store-to-load forwarding still probing the cache, MSHR
retry accounting, per-blocked-cycle dispatch stall counting inside
skipped quiet regions, ...); the differential test suite pins the
equality on a policy x benchmark x subarray-size grid.

The columns are plain Python lists in the interpreter's hot loop (list
indexing beats numpy scalar extraction there); numpy, when available,
backs the **typed-array persistence**: :meth:`CompiledTrace.column_arrays`
exports ``int64`` columns, :meth:`CompiledTrace.from_columns` rebuilds a
trace from arrays or lists, and the ``.npz`` disk cache round-trips them.
Without numpy everything still works — the disk cache is simply
disabled and compilation falls back to the pure-Python generators.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from bisect import insort
from collections import deque
from hashlib import sha256
from itertools import islice
from pathlib import Path
from time import perf_counter as _perf
from typing import Callable, Dict, Iterator, List, Optional, Tuple

try:  # numpy is optional: it backs typed-array export and the disk cache
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

from repro.cache.energy_accounting import EnergyBreakdown, EnergyLedger
from repro.cache.hierarchy import MainMemory
from repro.cache.mshr import MSHRFile
from repro.circuits.cacti import CacheOrganization
from repro.circuits.technology import get_technology
from repro.core.policies import BasePrechargePolicy
from repro.cpu.branch_predictor import DEFAULT_HISTORY_BITS, DEFAULT_TABLE_BITS
from repro.cpu.stats import PipelineStats
from repro.energy.cache_energy import combine_run_energy
from repro.obs import profile as _obs_profile
from repro.workloads.trace import (
    EXECUTION_LATENCY,
    MicroOp,
    OP_ALU,
    OP_BRANCH,
    OP_FPU,
    OP_LOAD,
    OP_STORE,
)
from repro.workloads.scenarios import workload_identity
from repro.workloads.synthetic import make_workload

from .config import SimulationConfig
from .metrics import RunResult

__all__ = [
    "CompiledTrace",
    "compile_workload",
    "compiled_trace_for",
    "clear_trace_cache",
    "execute_run_fast",
    "set_trace_cache_dir",
    "trace_cache_dir",
]

# Integer op-class codes used by the columnar trace (list indices into
# _EXEC_LATENCY; the string constants are the public trace vocabulary).
K_ALU, K_FPU, K_LOAD, K_STORE, K_BRANCH = range(5)

_KIND_OF = {OP_ALU: K_ALU, OP_FPU: K_FPU, OP_LOAD: K_LOAD,
            OP_STORE: K_STORE, OP_BRANCH: K_BRANCH}
_OP_OF = (OP_ALU, OP_FPU, OP_LOAD, OP_STORE, OP_BRANCH)

#: Functional-unit latency per op class, derived from the reference
#: table so the two can never drift apart.
_EXEC_LATENCY = tuple(EXECUTION_LATENCY[op] for op in _OP_OF)

#: Column growth quantum when the kernel fetches past the compiled end.
_COMPILE_CHUNK = 8192

#: Columns of a compiled trace, in persistence order.  ``mispred`` is the
#: precomputed branch-predictor outcome (timing-independent, see module
#: docstring); the rest mirror :class:`~repro.workloads.trace.MicroOp`.
COLUMN_NAMES = ("kind", "pc", "dest", "src1", "src2", "addr", "base",
                "taken", "target", "mispred")

#: Infinity sentinel for wake-cycle arithmetic.
_NEVER = 1 << 60

_TABLE_MASK = (1 << DEFAULT_TABLE_BITS) - 1
_HISTORY_MASK = (1 << DEFAULT_HISTORY_BITS) - 1


def _predictor_step(
    bimodal: List[int], gshare: List[int], chooser: List[int],
    history: int, pc: int, taken: int,
) -> Tuple[int, int]:
    """Advance the compile-time combination predictor by one branch.

    The reference automaton
    (:class:`repro.cpu.branch_predictor.CombinationPredictor`) with its
    state held in flat lists, mutated in place; returns
    ``(mispredicted, new_history)``.  Both the live compile
    (:meth:`CompiledTrace._extend`) and the cold replay
    (:meth:`CompiledTrace._replay_predictor`) step through this single
    implementation, so the two can never drift apart.
    """
    pc_bits = pc >> 2
    bimodal_index = pc_bits & _TABLE_MASK
    gshare_index = (pc_bits ^ (history & _HISTORY_MASK)) & _TABLE_MASK
    bimodal_value = bimodal[bimodal_index]
    gshare_value = gshare[gshare_index]
    bimodal_pred = bimodal_value >= 2
    gshare_pred = gshare_value >= 2
    if chooser[bimodal_index] >= 2:
        prediction = gshare_pred
    else:
        prediction = bimodal_pred
    if taken:
        if bimodal_value < 3:
            bimodal[bimodal_index] = bimodal_value + 1
        if gshare_value < 3:
            gshare[gshare_index] = gshare_value + 1
    else:
        if bimodal_value > 0:
            bimodal[bimodal_index] = bimodal_value - 1
        if gshare_value > 0:
            gshare[gshare_index] = gshare_value - 1
    if bimodal_pred != gshare_pred:
        chooser_value = chooser[bimodal_index]
        if gshare_pred == bool(taken):
            if chooser_value < 3:
                chooser[bimodal_index] = chooser_value + 1
        elif chooser_value > 0:
            chooser[bimodal_index] = chooser_value - 1
    history = ((history << 1) | taken) & 0xFFFFFFFF
    return (1 if prediction != bool(taken) else 0), history


class CompiledTrace:
    """A micro-op stream compiled to flat parallel columns.

    Columns are plain lists of small integers (``-1`` encodes ``None``
    for registers/addresses, branch outcomes and predictor outcomes are
    0/1).  The underlying stream is consumed lazily in
    :data:`_COMPILE_CHUNK`-sized batches, so an infinite synthetic
    stream can back a compiled trace: the kernel asks :meth:`ensure` for
    the indices it is about to fetch.

    A trace is created either from a live stream (``source`` /
    ``source_factory``) or from previously exported columns
    (:meth:`from_columns`, e.g. loaded from the on-disk ``.npz`` cache).
    A column-built trace that is not exhausted needs a
    ``source_factory`` to extend past its prefix: the factory's stream
    is fast-forwarded to the first unmaterialised row and the
    compile-time branch predictor resumes from its persisted state, so
    the continuation is byte-identical to an uninterrupted compile.
    """

    __slots__ = COLUMN_NAMES + (
        "rows", "exhausted", "_source", "_source_factory", "_lock",
        "_bimodal", "_gshare", "_chooser", "_history",
        "disk_key", "persisted_rows",
        # Derived fetch-batching structures (see _FetchPlan): the fetch
        # queue encoding per op, branch/misprediction prefix sums, the
        # positions of fetch-terminating branches, and per-line-size
        # fetch plans.  All are pure functions of the columns above and
        # are rebuilt (vectorised under numpy) when a trace is loaded.
        "br_pref", "mp_pref", "terms", "_fetch_plans",
        "_branch_count", "_mispred_count",
    )

    def __init__(
        self,
        source: Optional[Iterator[MicroOp]] = None,
        *,
        source_factory: Optional[Callable[[], Iterator[MicroOp]]] = None,
    ) -> None:
        self._source = iter(source) if source is not None else None
        self._source_factory = source_factory
        self._lock = threading.Lock()
        self.kind: List[int] = []
        self.pc: List[int] = []
        self.dest: List[int] = []
        self.src1: List[int] = []
        self.src2: List[int] = []
        self.addr: List[int] = []
        self.base: List[int] = []
        self.taken: List[int] = []
        self.target: List[int] = []
        self.mispred: List[int] = []
        #: Fully-populated row count.  Published only after *all* columns
        #: of a record are appended, so concurrent readers gated on it
        #: never observe a half-written record (``len(self.kind)`` can
        #: run ahead of the other columns mid-append).
        self.rows = 0
        #: True once the source iterator raised StopIteration.
        self.exhausted = False
        # Compile-time combination predictor (the reference model's
        # default sizes); advanced in lock-step with the columns.
        table_size = 1 << DEFAULT_TABLE_BITS
        self._bimodal = [1] * table_size
        self._gshare = [1] * table_size
        self._chooser = [1] * table_size
        self._history = 0
        #: Trace-cache key when this trace participates in the on-disk
        #: cache (set by :func:`compiled_trace_for`); ``None`` otherwise.
        self.disk_key: Optional[Tuple] = None
        #: Rows already persisted to disk for ``disk_key``.
        self.persisted_rows = 0
        #: Prefix sums over the branch / mispredict indicators:
        #: ``br_pref[i]`` counts branches among ops ``[0, i)``, so a
        #: fetched window ``[a, b)`` contributes ``br_pref[b] - br_pref[a]``.
        self.br_pref: List[int] = [0]
        self.mp_pref: List[int] = [0]
        #: Indices of fetch-terminating branches (taken or mispredicted),
        #: ascending — a fetch window never crosses one.
        self.terms: List[int] = []
        self._branch_count = 0
        self._mispred_count = 0
        self._fetch_plans: Dict[int, "_FetchPlan"] = {}

    def __len__(self) -> int:
        return self.rows

    def ensure(self, index: int) -> bool:
        """Grow the columns until ``index`` exists; False if the stream ended."""
        while index >= self.rows and not self.exhausted:
            with self._lock:
                if index < self.rows or self.exhausted:
                    continue
                self._extend(_COMPILE_CHUNK)
        return index < self.rows

    def _continuation_source(self) -> Iterator[MicroOp]:
        factory = self._source_factory
        if factory is None:
            raise RuntimeError(
                "compiled trace has no continuation source: it was built "
                "from a finite column prefix without a source_factory"
            )
        stream = iter(factory())
        if self.rows:
            # Fast-forward a fresh stream past the materialised prefix.
            stream = islice(stream, self.rows, None)
        return stream

    def _extend(self, count: int) -> None:
        source = self._source
        if source is None:
            source = self._source = self._continuation_source()
        kind = self.kind
        pc = self.pc
        dest = self.dest
        src1 = self.src1
        src2 = self.src2
        addr = self.addr
        base = self.base
        taken = self.taken
        target = self.target
        mispred = self.mispred
        br_pref = self.br_pref
        mp_pref = self.mp_pref
        terms = self.terms
        branch_count = self._branch_count
        mispred_count = self._mispred_count
        kind_of = _KIND_OF
        branch_kind = K_BRANCH
        # Predictor state, hoisted; written back after the batch.
        bimodal = self._bimodal
        gshare = self._gshare
        chooser = self._chooser
        history = self._history
        for _ in range(count):
            try:
                uop = next(source)
            except StopIteration:
                self.exhausted = True
                break
            op_kind = kind_of[uop.op_type]
            uop_pc = uop.pc
            uop_taken = 1 if uop.taken else 0
            kind.append(op_kind)
            pc.append(uop_pc)
            dest.append(-1 if uop.dest is None else uop.dest)
            src1.append(-1 if uop.src1 is None else uop.src1)
            src2.append(-1 if uop.src2 is None else uop.src2)
            addr.append(-1 if uop.address is None else uop.address)
            base.append(-1 if uop.base_address is None else uop.base_address)
            taken.append(uop_taken)
            target.append(-1 if uop.target is None else uop.target)
            if op_kind == branch_kind:
                # The predictor's state advances only with the branch
                # sequence, so the outcome is a property of the trace,
                # not of the run.
                flag, history = _predictor_step(
                    bimodal, gshare, chooser, history, uop_pc, uop_taken
                )
            else:
                flag = 0
            mispred.append(flag)
            index = self.rows
            if op_kind == branch_kind:
                branch_count += 1
                mispred_count += flag
                if flag or uop_taken:
                    terms.append(index)
            br_pref.append(branch_count)
            mp_pref.append(mispred_count)
            self.rows = index + 1
        self._history = history
        self._branch_count = branch_count
        self._mispred_count = mispred_count

    # ------------------------------------------------------------------
    def micro_op(self, index: int) -> MicroOp:
        """Reconstruct the :class:`MicroOp` at ``index`` (for round-trips)."""
        if not self.ensure(index):
            raise IndexError(index)

        def opt(column: List[int]) -> Optional[int]:
            value = column[index]
            return None if value < 0 else value

        return MicroOp(
            op_type=_OP_OF[self.kind[index]],
            pc=self.pc[index],
            dest=opt(self.dest),
            src1=opt(self.src1),
            src2=opt(self.src2),
            address=opt(self.addr),
            base_address=opt(self.base),
            taken=bool(self.taken[index]),
            target=opt(self.target),
        )

    # ------------------------------------------------------------------
    # Typed-array export / import (persistence layer)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Dict[str, List[int]], Dict[str, object], bool]:
        """A consistent copy of ``(columns, predictor_state, exhausted)``.

        Taken under the compile lock so the predictor state always
        corresponds exactly to the copied rows.
        """
        with self._lock:
            rows = self.rows
            columns = {name: list(getattr(self, name)[:rows]) for name in COLUMN_NAMES}
            predictor = {
                "bimodal": list(self._bimodal),
                "gshare": list(self._gshare),
                "chooser": list(self._chooser),
                "history": self._history,
            }
            return columns, predictor, self.exhausted

    def column_arrays(self) -> Dict[str, "object"]:
        """The columns as numpy ``int64`` arrays (requires numpy)."""
        if _np is None:
            raise RuntimeError("numpy is not available: typed-array export disabled")
        columns, _, _ = self.snapshot()
        return {name: _np.asarray(column, dtype=_np.int64)
                for name, column in columns.items()}

    @classmethod
    def from_columns(
        cls,
        columns: Dict[str, object],
        *,
        exhausted: bool,
        predictor: Optional[Dict[str, object]] = None,
        source_factory: Optional[Callable[[], Iterator[MicroOp]]] = None,
    ) -> "CompiledTrace":
        """Rebuild a trace from exported columns (lists or numpy arrays).

        ``predictor`` restores the compile-time predictor tables; when
        omitted they are rebuilt by replaying the stored branch sequence,
        which yields the identical state (the predictor is a pure
        function of the branch columns).
        """
        missing = [name for name in COLUMN_NAMES if name not in columns]
        if missing:
            raise ValueError(f"compiled-trace columns missing: {missing}")
        trace = cls(source_factory=source_factory) if source_factory else cls(source=iter(()))
        converted = {}
        rows = None
        for name in COLUMN_NAMES:
            column = columns[name]
            data = column.tolist() if hasattr(column, "tolist") else list(column)
            if rows is None:
                rows = len(data)
            elif len(data) != rows:
                raise ValueError("compiled-trace columns have mismatched lengths")
            converted[name] = data
        for name, data in converted.items():
            setattr(trace, name, data)
        trace.rows = rows or 0
        trace.exhausted = exhausted
        if source_factory is None and not exhausted:
            # ensure() past the prefix will raise through
            # _continuation_source; from_columns stays usable for
            # finite replays and tests.
            trace._source = None
            trace._source_factory = None
        if predictor is not None:
            trace._restore_predictor(predictor)
        else:
            trace._replay_predictor()
        trace._rebuild_derived()
        return trace

    def _restore_predictor(self, predictor: Dict[str, object]) -> None:
        table_size = 1 << DEFAULT_TABLE_BITS
        for field in ("bimodal", "gshare", "chooser"):
            table = predictor[field]
            data = table.tolist() if hasattr(table, "tolist") else list(table)
            if len(data) != table_size:
                raise ValueError(f"predictor table {field!r} has wrong size")
            setattr(self, f"_{field}", data)
        self._history = int(predictor["history"])  # type: ignore[arg-type]

    def _replay_predictor(self) -> None:
        """Recompute predictor state from the stored branch columns."""
        bimodal = self._bimodal
        gshare = self._gshare
        chooser = self._chooser
        history = 0
        kind = self.kind
        pc = self.pc
        taken = self.taken
        branch_kind = K_BRANCH
        for index in range(self.rows):
            if kind[index] != branch_kind:
                continue
            _, history = _predictor_step(
                bimodal, gshare, chooser, history, pc[index], taken[index]
            )
        self._history = history

    def _rebuild_derived(self) -> None:
        """Recompute the fetch-batching structures from the base columns.

        Used after :meth:`from_columns`; vectorised under numpy (this is
        where the typed arrays earn their keep on a disk-cache load).
        """
        rows = self.rows
        if _np is not None and rows > 512:
            kind_arr = _np.asarray(self.kind, dtype=_np.int64)
            taken_arr = _np.asarray(self.taken, dtype=_np.int64)
            mispred_arr = _np.asarray(self.mispred, dtype=_np.int64)
            is_branch = kind_arr == K_BRANCH
            br = _np.zeros(rows + 1, dtype=_np.int64)
            mp = _np.zeros(rows + 1, dtype=_np.int64)
            _np.cumsum(is_branch, out=br[1:])
            _np.cumsum(mispred_arr, out=mp[1:])
            self.br_pref = br.tolist()
            self.mp_pref = mp.tolist()
            self.terms = _np.nonzero(
                is_branch & ((taken_arr != 0) | (mispred_arr != 0))
            )[0].tolist()
            self._branch_count = int(br[-1])
            self._mispred_count = int(mp[-1])
        else:
            kind = self.kind
            taken = self.taken
            mispred = self.mispred
            br_pref = [0] * (rows + 1)
            mp_pref = [0] * (rows + 1)
            terms: List[int] = []
            branch_count = 0
            mispred_count = 0
            branch_kind = K_BRANCH
            for index in range(rows):
                flag = mispred[index]
                if kind[index] == branch_kind:
                    branch_count += 1
                    mispred_count += flag
                    if flag or taken[index]:
                        terms.append(index)
                br_pref[index + 1] = branch_count
                mp_pref[index + 1] = mispred_count
            self.br_pref = br_pref
            self.mp_pref = mp_pref
            self.terms = terms
            self._branch_count = branch_count
            self._mispred_count = mispred_count
        self._fetch_plans = {}

    # ------------------------------------------------------------------
    # Fetch plans (per i-cache line size)
    # ------------------------------------------------------------------
    def fetch_plan(self, offset_bits: int) -> "_FetchPlan":
        """The (cached) fetch-window geometry for one line size."""
        plan = self._fetch_plans.get(offset_bits)
        if plan is None:
            with self._lock:
                plan = self._fetch_plans.get(offset_bits)
                if plan is None:
                    plan = _FetchPlan(offset_bits)
                    self._fetch_plans[offset_bits] = plan
        self.extend_fetch_plan(plan)
        return plan

    def extend_fetch_plan(self, plan: "_FetchPlan") -> None:
        """Grow ``plan`` to cover every materialised row."""
        if plan.upto >= self.rows:
            return
        with self._lock:
            plan.extend_to(self.pc, self.rows)


class _FetchPlan:
    """Per-line-size fetch geometry of a compiled trace.

    ``lines[i]`` is op *i*'s instruction-cache line; ``run_end[i]`` is
    the first index after *i* on a different line, conservatively capped
    at the materialised end when computed (harmless: a fetch window that
    stops early continues in the next iteration without re-probing,
    because the line has not changed).
    """

    __slots__ = ("offset_bits", "lines", "run_end", "upto")

    def __init__(self, offset_bits: int) -> None:
        self.offset_bits = offset_bits
        self.lines: List[int] = []
        self.run_end: List[int] = []
        self.upto = 0

    def extend_to(self, pc: List[int], rows: int) -> None:
        start = self.upto
        if rows <= start:
            return
        bits = self.offset_bits
        if _np is not None and rows - start > 512:
            fresh = (_np.asarray(pc[start:rows], dtype=_np.int64) >> bits).tolist()
        else:
            fresh = [value >> bits for value in pc[start:rows]]
        lines = self.lines
        lines.extend(fresh)
        run_end = self.run_end
        run_end.extend([0] * (rows - start))
        run_end[rows - 1] = rows
        for index in range(rows - 2, start - 1, -1):
            run_end[index] = (
                index + 1 if lines[index + 1] != lines[index] else run_end[index + 1]
            )
        self.upto = rows


def _workload_source_factory(benchmark: str, seed: int) -> Callable[[], Iterator[MicroOp]]:
    return lambda: make_workload(benchmark, seed=seed).instructions()


def compile_workload(benchmark: str, seed: int = 1) -> CompiledTrace:
    """Compile a named workload's stream into a fresh columnar trace."""
    return CompiledTrace(source_factory=_workload_source_factory(benchmark, seed))


# ----------------------------------------------------------------------
# Trace caches.
#
# Two levels, keyed identically (benchmark name + seed, with ``trace:``
# names additionally keyed on file identity):
#
# * an in-process LRU of live CompiledTrace objects, so one sweep
#   compiles each (benchmark, seed) stream once and drives every
#   policy/technology configuration from the same columns;
# * an on-disk ``.npz`` store of the exported columns + predictor state,
#   so *other processes* (parallel sweep workers, later invocations)
#   load precompiled bytes instead of re-running the generators.
# ----------------------------------------------------------------------
_TRACE_CACHE: "Dict[Tuple, CompiledTrace]" = {}
_TRACE_CACHE_LOCK = threading.Lock()
#: Covers the full sixteen-benchmark suite plus scenario composites, so
#: a complete policy x benchmark cross-product compiles each trace once.
_TRACE_CACHE_MAX = 24

#: Bump when the stream semantics, column layout or predictor encoding
#: change: the version participates in the disk filename, so entries
#: written by other layouts are simply never found (and are removed by
#: :func:`clear_trace_cache`).
_DISK_FORMAT_VERSION = 1

#: Environment override for the disk cache directory.  An empty value,
#: ``0``, ``off`` or ``none`` disables on-disk trace caching.
_DISK_CACHE_ENV = "REPRO_TRACE_CACHE_DIR"

_UNSET = object()
_DISK_DIR_OVERRIDE: object = _UNSET


def trace_cache_dir() -> Optional[Path]:
    """The on-disk trace cache directory, or ``None`` when disabled.

    Resolution order: :func:`set_trace_cache_dir` override, the
    ``REPRO_TRACE_CACHE_DIR`` environment variable, then the user cache
    directory (``$XDG_CACHE_HOME``/``~/.cache`` ``/repro/traces``).  The
    cache is also disabled when numpy is unavailable (the format is
    ``.npz``).
    """
    if _np is None:
        return None
    if _DISK_DIR_OVERRIDE is not _UNSET:
        return _DISK_DIR_OVERRIDE  # type: ignore[return-value]
    env = os.environ.get(_DISK_CACHE_ENV)
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none"):
            return None
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "traces"


def set_trace_cache_dir(path: Optional[os.PathLike]) -> None:
    """Point the on-disk trace cache at ``path`` (``None`` disables it)."""
    global _DISK_DIR_OVERRIDE
    _DISK_DIR_OVERRIDE = None if path is None else Path(path)


def _trace_cache_key(benchmark: str, seed: int) -> Tuple:
    """Cache key for one seeded workload name.

    ``trace:`` names additionally key on the file's identity (resolved
    path, mtime, size), so re-recording a trace file is picked up
    instead of silently replaying stale compiled columns — in memory
    *and* on disk, since the disk filename hashes this same key.  (A
    missing file keys by name; compilation then raises the proper
    "trace file not found" error.)

    Scenario and ``fuzz:`` names key on their *canonical* expression
    (``("scenario", unparse(ast))``), so different spellings of one
    composition — reordered modifiers, implicit quanta, a ``fuzz:``
    seed versus its expansion — share compiled columns.  (A malformed
    expression keys by name; compilation then raises the parse error.)
    """
    identity = workload_identity(benchmark)
    if identity is not None:
        return identity + (seed,)
    return (benchmark, seed)


def _disk_path(key: Tuple) -> Optional[Path]:
    directory = trace_cache_dir()
    if directory is None:
        return None
    digest = sha256(f"v{_DISK_FORMAT_VERSION}|{key!r}".encode("utf-8")).hexdigest()
    return directory / f"trace-{digest[:40]}.npz"


def _load_trace_from_disk(
    key: Tuple, source_factory: Callable[[], Iterator[MicroOp]]
) -> Optional[CompiledTrace]:
    """Load a persisted trace; evict and return ``None`` on any defect."""
    path = _disk_path(key)
    if path is None:
        return None
    try:
        if not path.is_file():
            return None
        with _np.load(path, allow_pickle=False) as payload:
            meta = json.loads(str(payload["meta"][()]))
            if meta.get("format") != _DISK_FORMAT_VERSION:
                raise ValueError("format version mismatch")
            if meta.get("key") != repr(key):
                # A (vanishingly unlikely) hash collision, or a file
                # copied between cache dirs: never serve it.
                raise ValueError("key mismatch")
            rows = int(meta["rows"])
            columns = {}
            for name in COLUMN_NAMES:
                column = payload[name]
                if column.ndim != 1 or len(column) != rows:
                    raise ValueError(f"column {name!r} has wrong shape")
                columns[name] = column
            predictor = {
                "bimodal": payload["predictor_bimodal"],
                "gshare": payload["predictor_gshare"],
                "chooser": payload["predictor_chooser"],
                "history": int(meta["history"]),
            }
            trace = CompiledTrace.from_columns(
                columns,
                exhausted=bool(meta["exhausted"]),
                predictor=predictor,
                source_factory=source_factory,
            )
    except Exception:
        # Corrupted, truncated, stale or unreadable: the cache must
        # never take a run down — evict the entry and recompile.
        try:
            path.unlink()
        except OSError:
            pass
        return None
    trace.disk_key = key
    trace.persisted_rows = trace.rows
    return trace


def _persist_trace(trace: CompiledTrace) -> None:
    """Best-effort save of a trace's materialised prefix to the disk cache."""
    key = trace.disk_key
    if key is None or _np is None:
        return
    if trace.rows <= trace.persisted_rows:
        return
    path = _disk_path(key)
    if path is None:
        return
    columns, predictor, exhausted = trace.snapshot()
    rows = len(columns["kind"])
    meta = {
        "format": _DISK_FORMAT_VERSION,
        "key": repr(key),
        "rows": rows,
        "exhausted": exhausted,
        "history": predictor["history"],
    }
    arrays = {name: _np.asarray(column, dtype=_np.int64)
              for name, column in columns.items()}
    arrays["predictor_bimodal"] = _np.asarray(predictor["bimodal"], dtype=_np.int64)
    arrays["predictor_gshare"] = _np.asarray(predictor["gshare"], dtype=_np.int64)
    arrays["predictor_chooser"] = _np.asarray(predictor["chooser"], dtype=_np.int64)
    arrays["meta"] = _np.array(json.dumps(meta))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            prefix=path.stem + ".", suffix=".tmp.npz", dir=str(path.parent)
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                _np.savez(stream, **arrays)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
    except OSError:
        return  # the disk cache is an accelerator, never a failure source
    trace.persisted_rows = rows


def compiled_trace_for(benchmark: str, seed: int = 1) -> CompiledTrace:
    """The (cached) compiled trace of one seeded workload.

    Consults the in-process LRU first, then the on-disk ``.npz`` cache,
    and only then compiles from the workload generator.
    """
    key = _trace_cache_key(benchmark, seed)
    with _TRACE_CACHE_LOCK:
        trace = _TRACE_CACHE.get(key)
        if trace is not None:
            return trace
    # Disk I/O happens outside the global lock so concurrent threads
    # loading different traces do not serialise on each other's reads.
    factory = _workload_source_factory(benchmark, seed)
    trace = _load_trace_from_disk(key, factory)
    if trace is None:
        trace = CompiledTrace(source_factory=factory)
        trace.disk_key = key
    with _TRACE_CACHE_LOCK:
        existing = _TRACE_CACHE.get(key)
        if existing is not None:
            # Another thread won the race; its trace is the canonical
            # one (ours is discarded before compiling anything).
            return existing
        while len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        _TRACE_CACHE[key] = trace
        return trace


def clear_trace_cache(disk: bool = True) -> None:
    """Drop every cached compiled trace, in memory and (by default) on disk.

    Tests use this for isolation; re-recorded ``trace:`` files never
    need it (their cache keys include the file identity).
    """
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE.clear()
    if not disk:
        return
    directory = trace_cache_dir()
    if directory is None or not directory.is_dir():
        return
    for path in directory.glob("trace-*.npz"):
        try:
            path.unlink()
        except OSError:
            pass


class _FastCache:
    """Flat-array cache level, behaviourally identical to the reference model.

    Tag match, LRU victim selection and statistics are inlined over flat
    per-way lists (one contiguous list per attribute, indexed by
    ``set * assoc + way``); the precharge policy and the energy ledger
    are the same objects the reference path uses, called in the same
    order with the same arguments.  Policy hooks the base class defines
    as identity/no-op (``remap_set``, ``note_outcome``) are elided at
    wiring time.  One class serves every level: the L1s are wired to the
    shared flat L2, the L2 to the
    :class:`~repro.cache.hierarchy.MainMemory` model (misses below a
    fast next level consume its returned latency directly; a non-fast
    next level is consulted through the reference ``AccessResult``
    protocol).
    """

    __slots__ = (
        "organization", "name", "base_latency", "controller", "next_level",
        "mshrs", "ledger", "_tags", "_lines", "_dirty", "_last_used",
        "_sub_last", "gaps", "accesses", "hits", "misses", "writebacks",
        "precharge_penalties", "penalty_cycles", "_last_cycle",
        "_offset_bits", "_n_sets", "_assoc", "_sets_per_subarray",
        "_next_is_fast", "_remap", "_note_outcome", "_policy_access",
        "_policy_on_access", "_policy_stats", "_policy_last",
        "_accesses_flushed", "_prof",
    )

    def __init__(
        self,
        organization: CacheOrganization,
        name: str,
        controller,
        next_level,
        mshr_entries: int,
        base_latency: int,
    ) -> None:
        self.organization = organization
        self.name = name
        self.base_latency = base_latency
        self.controller = controller
        self.next_level = next_level
        self._next_is_fast = isinstance(next_level, _FastCache)
        self.mshrs = MSHRFile(mshr_entries)
        n_sets = organization.n_sets
        assoc = organization.associativity
        self._n_sets = n_sets
        self._assoc = assoc
        self._offset_bits = organization.offset_bits
        self._sets_per_subarray = organization.sets_per_subarray
        # -1 tags mark invalid ways (real tags are non-negative).
        self._tags = [-1] * (n_sets * assoc)
        #: Original (pre-remap) line address per way, for writebacks.
        self._lines = [-1] * (n_sets * assoc)
        self._dirty = [False] * (n_sets * assoc)
        self._last_used = [0] * (n_sets * assoc)
        self._sub_last = [-1] * organization.n_subarrays
        #: Inter-access subarray gaps in observation order (the reference
        #: tracker's ``access_gaps()``).
        self.gaps: List[int] = []
        self.ledger = EnergyLedger(organization.subarray, organization.n_subarrays)
        self.controller.attach(organization, self.ledger)
        # Per-access dynamic dispatch, resolved once: policies that keep
        # the base class's identity remap / no-op outcome hook skip the
        # calls entirely (every built-in but the resizable baseline).
        controller_type = type(controller)
        self._remap = (
            None
            if controller_type.remap_set is BasePrechargePolicy.remap_set
            else controller.remap_set
        )
        self._note_outcome = (
            None
            if controller_type.note_outcome is BasePrechargePolicy.note_outcome
            else controller.note_outcome
        )
        self._policy_access = controller.access
        # When the policy keeps the base class's access() bookkeeping
        # (every built-in does), perform it inline and call the
        # subclass hook directly — one interpreter frame less on the
        # hottest call of the simulation.  A policy that overrides
        # access() gets the full dynamic call instead.
        if controller_type.access is BasePrechargePolicy.access:
            self._policy_on_access = controller._on_access
            self._policy_stats = controller.stats
            self._policy_last = controller._last_access
        else:
            self._policy_on_access = None
            self._policy_stats = None
            self._policy_last = None
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.precharge_penalties = 0
        self.penalty_cycles = 0
        self._last_cycle = 0
        self._accesses_flushed = False
        # Armed kernel profiler, or None.  Bound once at construction:
        # the chunk that builds the hierarchy is the chunk that runs it.
        self._prof = _obs_profile.active()

    # ------------------------------------------------------------------
    def access(
        self, address: int, cycle: int, write: bool, base_address: Optional[int]
    ) -> Tuple[bool, int, int]:
        """One access; returns ``(hit, latency, precharge_penalty)``."""
        prof = self._prof
        if prof is not None:
            # Depth-counted: nested next-level accesses (miss service,
            # writebacks) bill only the outermost frame, so cache time
            # is wall time spent inside the hierarchy, not a multiple.
            prof.cache_depth += 1
            _cache_t0 = _perf()
        if cycle < self._last_cycle:
            cycle = self._last_cycle
        else:
            self._last_cycle = cycle
        self.accesses += 1

        line = address >> self._offset_bits
        n_sets = self._n_sets
        raw_set = line % n_sets
        tag = line // n_sets
        remap = self._remap
        set_index = raw_set if remap is None else remap(raw_set, n_sets)
        subarray = set_index // self._sets_per_subarray

        sub_last = self._sub_last
        previous = sub_last[subarray]
        if previous >= 0:
            self.gaps.append(cycle - previous if cycle > previous else 0)
        sub_last[subarray] = cycle
        # The ledger's dynamic-access tally is batched into finalize()
        # (it is an order-independent integer count).

        on_access = self._policy_on_access
        if on_access is not None:
            # Inlined BasePrechargePolicy.access bookkeeping (identical
            # statements in identical order).
            policy_stats = self._policy_stats
            policy_stats.accesses += 1
            policy_last = self._policy_last
            previous_access = policy_last[subarray]
            if previous_access is None:
                gap = cycle
            else:
                gap = cycle - previous_access
                if gap < 0:
                    gap = 0
            penalty = on_access(subarray, cycle, gap, base_address, address)
            policy_last[subarray] = cycle
            if penalty > 0:
                policy_stats.delayed_accesses += 1
                policy_stats.penalty_cycles += penalty
        else:
            penalty = self._policy_access(subarray, cycle, base_address, address)
        if penalty > 0:
            self.precharge_penalties += 1
            self.penalty_cycles += penalty

        assoc = self._assoc
        way_base = set_index * assoc
        way_end = way_base + assoc
        tags = self._tags
        hit_way = -1
        for way in range(way_base, way_end):
            if tags[way] == tag:
                hit_way = way
                break

        latency = self.base_latency + penalty
        if hit_way >= 0:
            self._last_used[hit_way] = cycle
            if write:
                self._dirty[hit_way] = True
            self.hits += 1
            hit = True
        else:
            self.misses += 1
            hit = False
            latency += self._service_miss(address, cycle)
            victim = -1
            for way in range(way_base, way_end):
                if tags[way] < 0:
                    victim = way
                    break
            if victim < 0:
                last_used = self._last_used
                victim = way_base
                oldest = last_used[way_base]
                for way in range(way_base + 1, way_end):
                    if last_used[way] < oldest:
                        oldest = last_used[way]
                        victim = way
            dirty = self._dirty
            if tags[victim] >= 0 and dirty[victim]:
                self.writebacks += 1
                # Drain the dirty victim to the next level (same point in
                # the access sequence as the reference model: after the
                # fill request, before the overwrite).  The recorded
                # pre-remap line address is used, like the reference.
                wb_address = self._lines[victim] << self._offset_bits
                if self._next_is_fast:
                    self.next_level.access(wb_address, cycle, True, None)
                else:
                    self.next_level.access(wb_address, cycle, write=True)
            tags[victim] = tag
            self._lines[victim] = line
            dirty[victim] = write
            self._last_used[victim] = cycle

        note_outcome = self._note_outcome
        if note_outcome is not None:
            note_outcome(hit, cycle)
        if prof is not None:
            prof.cache_accesses += 1
            prof.cache_depth -= 1
            if prof.cache_depth == 0:
                prof.cache_s += _perf() - _cache_t0
        return hit, latency, penalty

    def _service_miss(self, address: int, cycle: int) -> int:
        line_addr = address >> self._offset_bits
        mshrs = self.mshrs
        existing = mshrs.outstanding(line_addr)
        if existing is not None:
            return max(1, existing.ready_cycle - cycle)

        if self._next_is_fast:
            service = self.next_level.access(address, cycle, False, None)[1]
        else:
            service = self.next_level.access(address, cycle).latency

        mshrs.retire_completed(cycle)
        entry = mshrs.allocate(line_addr, ready_cycle=cycle + service)
        if entry is None:
            earliest = mshrs.earliest_ready_cycle()
            stall = max(1, (earliest - cycle)) if earliest is not None else 1
            service += stall
            mshrs.retire_completed(cycle + stall)
            mshrs.allocate(line_addr, ready_cycle=cycle + service)
        return service

    # ------------------------------------------------------------------
    @property
    def miss_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def finalize(self, end_cycle: int) -> EnergyBreakdown:
        if not self._accesses_flushed:
            self._accesses_flushed = True
            self.ledger.note_access_batch(self.accesses)
        self.controller.finalize(end_cycle)
        return self.ledger.breakdown(max(1, end_cycle))


def _simulate(
    trace: CompiledTrace,
    l1i: _FastCache,
    l1d: _FastCache,
    pipeline_config,
    stats: PipelineStats,
    n_instructions: int,
) -> int:
    """Run the flat-array out-of-order kernel; returns the final cycle.

    The loop advances one cycle at a time through commit, issue,
    dispatch and fetch — except across *quiet regions*: after each
    cycle's work it computes the earliest future cycle at which any
    stage could possibly act (head-of-ROB completion, incremental
    scheduler wake, fetch stall expiry) and jumps there in one step,
    charging the per-blocked-cycle dispatch-stall counter for the
    skipped window exactly as the reference model would have.
    """
    if n_instructions < 1:
        raise ValueError("must simulate at least one instruction")

    # Armed kernel profiler, or None; hoisted so each stage guard is a
    # single local test (the same two-instruction no-op discipline as
    # repro.faults when disarmed).
    prof = _obs_profile.active()

    # Trace columns (the lists grow in place, so aliases stay valid).
    t_kind = trace.kind
    t_pc = trace.pc
    t_dest = trace.dest
    t_src1 = trace.src1
    t_src2 = trace.src2
    t_addr = trace.addr
    t_base = trace.base
    t_mispred = trace.mispred
    t_len = trace.rows
    # Fetch-batching structures: the fetch-queue encoding, the branch /
    # mispredict prefix sums, the terminating-branch positions and the
    # per-line window geometry (see _FetchPlan).
    b_pref = trace.br_pref
    m_pref = trace.mp_pref
    t_terms = trace.terms
    n_terms = len(t_terms)
    term_ptr = 0

    # Machine parameters.
    width = pipeline_config.width
    rob_cap = pipeline_config.rob_entries
    iq_cap = pipeline_config.issue_queue_entries
    lsq_cap = pipeline_config.lsq_entries
    memory_ports = pipeline_config.memory_ports
    fetch_queue_size = pipeline_config.fetch_queue_size
    dispatch_latency = pipeline_config.dispatch_latency
    redirect_penalty = pipeline_config.redirect_penalty
    n_regs = pipeline_config.max_registers
    spec_latency = l1d.base_latency + pipeline_config.speculative_extra_latency
    limit = n_instructions * pipeline_config.max_cycles_per_instruction
    d_offset_bits = l1d._offset_bits
    d_base_latency = l1d.base_latency
    i_offset_bits = l1i._offset_bits
    i_base_latency = l1i.base_latency
    l1d_access = l1d.access
    l1i_access = l1i.access
    fetch_plan = trace.fetch_plan(i_offset_bits)
    p_lines = fetch_plan.lines
    p_run_end = fetch_plan.run_end

    # Per-in-flight-op parallel arrays, indexed by sequence number.
    # Preallocated: at most n_instructions commit, plus at most a full
    # ROB of un-committed dispatches when the loop exits, so next_seq
    # never reaches the bound.  The prefill doubles as the initial state
    # (-1 = not issued, True = in scheduler, None = no dependents), so
    # dispatch only writes the fields that vary.
    op_capacity = n_instructions + rob_cap + 2 * width + 8
    o_kind = [0] * op_capacity
    o_trace = [0] * op_capacity    # trace index of the op
    o_complete = [-1] * op_capacity  # -1 while not issued
    o_ready = [0] * op_capacity    # running max of earliest / producer completes
    o_pending = [0] * op_capacity  # producers not yet issued
    o_in_iq = [True] * op_capacity
    o_mispred = [0] * op_capacity
    #: Dependents registered while incomplete; None until the first one
    #: arrives (most ops never acquire any, so the lists are lazy).
    o_deps: List[Optional[List[int]]] = [None] * op_capacity

    rename = [-1] * n_regs
    # The reorder buffer is a contiguous range of sequence numbers
    # [rob_begin, next_seq): dispatch allocates ascending sequences and
    # commit retires them in order, so the whole structure is a cursor.
    rob_begin = 0
    lsq: "deque[Tuple[int, bool, int]]" = deque()  # (sequence, is_store, line)
    #: Store sequence numbers currently in the LSQ, per line address, in
    #: program order — the store-to-load forwarding probe reads the
    #: per-line head instead of scanning the whole LSQ (a load forwards
    #: iff *any* older store to its line is present, i.e. iff the oldest
    #: store on the line is older).
    store_seqs_by_line: Dict[int, "deque[int]"] = {}
    # The issue queue, split by wakeup state.  ``iq_waiting`` holds ops
    # with no pending producers, sorted by sequence number — which is
    # exactly the reference scheduler's (insertion-order) scan order.
    # Ops still waiting on a producer are invisible to the scan (the
    # reference skips them in O(1) anyway) and are counted only for the
    # capacity check; a producer's wake moves them into the sorted list.
    iq_waiting: List[int] = []
    iq_blocked = 0
    iq_len = 0
    #: Earliest cycle any currently-waiting op could issue; the wakeup
    #: scan is skipped while cycle < iq_min_wake (batched scheduling).
    iq_min_wake = _NEVER

    # Fetch state.  The fetch queue is a contiguous range of trace
    # indices [fq_begin, fq_end): fetch appends strictly ascending
    # indices and dispatch consumes them in order, so two cursors over
    # the trace columns replace the queue (the mispredict flag rides in
    # the ``mispred`` column).
    fq_begin = 0
    fq_end = 0
    fetch_index = 0
    pushback = -1
    stall_until = 0
    waiting_redirect = False
    last_line = -1
    exhausted = False

    # Counters.
    cycle = 0
    next_seq = 0
    committed = 0
    fetched_instructions = 0
    branches = 0
    branch_mispredictions = 0
    icache_stall_cycles = 0
    dcache_accesses = 0
    replayed_uops = 0
    delayed_loads = 0
    delayed_fetches = 0
    dispatch_stall_cycles = 0

    while committed < n_instructions:
        if exhausted and rob_begin == next_seq and fq_begin == fq_end:
            break

        # ---------------------------- commit ----------------------------
        retired = 0
        while retired < width and rob_begin < next_seq:
            complete = o_complete[rob_begin]
            if complete < 0 or complete > cycle:
                break
            rob_begin += 1
            retired += 1
        committed += retired
        # When the ROB is empty rob_begin == next_seq, which is exactly
        # the reference's "retire everything older than the next op".
        bound = rob_begin
        while lsq and lsq[0][0] < bound:
            retired_seq, retired_is_store, retired_line = lsq.popleft()
            if retired_is_store:
                line_queue = store_seqs_by_line[retired_line]
                line_queue.popleft()
                if not line_queue:
                    del store_seqs_by_line[retired_line]

        # ---------------------------- issue -----------------------------
        if iq_waiting and cycle >= iq_min_wake:
            if prof is not None:
                _issue_t0 = _perf()
            selected: List[int] = []
            keep: List[int] = []
            next_wake = _NEVER
            memory_used = 0
            n_selected = 0
            waiting_count = len(iq_waiting)
            cut = waiting_count
            for position in range(waiting_count):
                seq = iq_waiting[position]
                if n_selected >= width:
                    cut = position
                    break
                ready = o_ready[seq]
                if ready > cycle:
                    keep.append(seq)
                    if ready < next_wake:
                        next_wake = ready
                    continue
                kind = o_kind[seq]
                if kind == K_LOAD or kind == K_STORE:
                    if memory_used >= memory_ports:
                        keep.append(seq)
                        next_wake = cycle + 1
                        continue
                    memory_used += 1
                selected.append(seq)
                n_selected += 1
            if cut < waiting_count:
                keep.extend(iq_waiting[cut:])
            if n_selected >= width and (keep or iq_blocked):
                # Width-limited: anything left may be issuable next cycle.
                next_wake = cycle + 1
            iq_waiting = keep
            iq_len -= n_selected
            iq_min_wake = next_wake
            # Marking an op out-of-scheduler fuses into the execution
            # loop: a selected op can never appear in another selected
            # op's dependent list (dependents still have a pending
            # producer at scan time), so the replay count below never
            # observes the difference.
            for seq in selected:
                o_in_iq[seq] = False
                kind = o_kind[seq]
                trace_index = o_trace[seq]
                if kind == K_LOAD:
                    dcache_accesses += 1
                    address = t_addr[trace_index]
                    hit, latency, pre_penalty = l1d_access(
                        address, cycle, False, t_base[trace_index]
                    )
                    if pre_penalty > 0:
                        delayed_loads += 1
                    line = address >> d_offset_bits
                    line_stores = store_seqs_by_line.get(line)
                    if line_stores is not None and line_stores[0] < seq:
                        if d_base_latency < latency:
                            latency = d_base_latency
                    complete = cycle + latency
                    if latency > spec_latency:
                        # Load-hit misspeculation: selectively replay the
                        # dependents still waiting in the scheduler.
                        dependents = o_deps[seq]
                        if dependents:
                            counted_twice = 0
                            matched = 0
                            previous_dep = -1
                            for dep in dependents:
                                if o_in_iq[dep]:
                                    matched += 1
                                    if dep == previous_dep:
                                        counted_twice += 1
                                previous_dep = dep
                            replayed_uops += matched - counted_twice
                    o_complete[seq] = complete
                elif kind == K_STORE:
                    dcache_accesses += 1
                    l1d_access(
                        t_addr[trace_index], cycle, True, t_base[trace_index]
                    )
                    # Stores complete once sent to the LSQ; the write
                    # drains in the background.
                    complete = cycle + _EXEC_LATENCY[K_STORE]
                    o_complete[seq] = complete
                else:
                    complete = cycle + _EXEC_LATENCY[kind]
                    o_complete[seq] = complete
                    if kind == K_BRANCH and o_mispred[seq]:
                        # Resolved misprediction: restart the front end.
                        waiting_redirect = False
                        resume = complete + redirect_penalty
                        if resume > stall_until:
                            stall_until = resume
                        last_line = -1
                # Wake the registered dependents with the real latency.
                dependents = o_deps[seq]
                if dependents:
                    for dep in dependents:
                        o_pending[dep] -= 1
                        if complete > o_ready[dep]:
                            o_ready[dep] = complete
                        if not o_pending[dep]:
                            # Last producer issued: the op becomes
                            # visible to the scan, in sequence order.
                            insort(iq_waiting, dep)
                            iq_blocked -= 1
                            wake = o_ready[dep]
                            if wake < iq_min_wake:
                                iq_min_wake = wake
            if prof is not None:
                prof.issue_scan_s += _perf() - _issue_t0
                prof.issue_scans += 1

        # --------------------------- dispatch ----------------------------
        dispatched = 0
        while dispatched < width and fq_begin < fq_end:
            if next_seq - rob_begin >= rob_cap or iq_len >= iq_cap:
                dispatch_stall_cycles += 1
                break
            trace_index = fq_begin
            kind = t_kind[trace_index]
            is_memory = kind == K_LOAD or kind == K_STORE
            if is_memory and len(lsq) >= lsq_cap:
                dispatch_stall_cycles += 1
                break
            fq_begin += 1
            seq = next_seq
            next_seq += 1
            o_kind[seq] = kind
            o_trace[seq] = trace_index
            if t_mispred[trace_index]:
                o_mispred[seq] = 1
            ready = cycle + dispatch_latency
            pending = 0
            src1 = t_src1[trace_index]
            if src1 >= 0:
                producer = rename[src1 % n_regs]
                if producer >= 0:
                    producer_complete = o_complete[producer]
                    if producer_complete >= 0:
                        if producer_complete > ready:
                            ready = producer_complete
                    else:
                        pending += 1
                        producer_deps = o_deps[producer]
                        if producer_deps is None:
                            o_deps[producer] = [seq]
                        else:
                            producer_deps.append(seq)
            src2 = t_src2[trace_index]
            if src2 >= 0:
                producer = rename[src2 % n_regs]
                if producer >= 0:
                    producer_complete = o_complete[producer]
                    if producer_complete >= 0:
                        if producer_complete > ready:
                            ready = producer_complete
                    else:
                        pending += 1
                        producer_deps = o_deps[producer]
                        if producer_deps is None:
                            o_deps[producer] = [seq]
                        else:
                            producer_deps.append(seq)
            o_ready[seq] = ready
            if pending:
                o_pending[seq] = pending
            dest = t_dest[trace_index]
            if dest >= 0:
                rename[dest % n_regs] = seq
            iq_len += 1
            if pending:
                iq_blocked += 1
            else:
                # New sequence numbers are monotonic, so a plain append
                # keeps the waiting list sorted.
                iq_waiting.append(seq)
                if ready < iq_min_wake:
                    iq_min_wake = ready
            if is_memory:
                line = t_addr[trace_index] >> d_offset_bits
                is_store = kind == K_STORE
                lsq.append((seq, is_store, line))
                if is_store:
                    line_queue = store_seqs_by_line.get(line)
                    if line_queue is None:
                        store_seqs_by_line[line] = deque((seq,))
                    else:
                        line_queue.append(seq)
            dispatched += 1

        # ---------------------------- fetch ------------------------------
        # Windowed: between i-cache events (line changes, stalls) the
        # remaining ops of the current line are independent of timing, so
        # they move into the fetch queue as one precomputed slice, with
        # branch statistics read off prefix sums.  Windows never cross a
        # terminating branch (taken or mispredicted) — exactly where the
        # reference's per-op loop stops fetching.
        if not waiting_redirect and cycle >= stall_until:
            if prof is not None:
                _fetch_t0 = _perf()
            fetched = 0
            while fetched < width and fq_end - fq_begin < fetch_queue_size:
                if pushback >= 0:
                    index = pushback
                    pushback = -1
                else:
                    index = fetch_index
                    if index >= t_len:
                        if prof is None:
                            grown = trace.ensure(index)
                        else:
                            _compile_t0 = _perf()
                            grown = trace.ensure(index)
                            _compile_dt = _perf() - _compile_t0
                            prof.compile_s += _compile_dt
                            prof.compiles += 1
                            # Mid-fetch trace growth is compile time;
                            # shift the round's start so the fetch phase
                            # does not absorb it.
                            _fetch_t0 += _compile_dt
                        if grown:
                            t_len = trace.rows
                            trace.extend_fetch_plan(fetch_plan)
                            n_terms = len(t_terms)
                        else:
                            exhausted = True
                            break

                line = p_lines[index]
                if line != last_line:
                    _hit, latency, pre_penalty = l1i_access(
                        t_pc[index], cycle, False, None
                    )
                    last_line = line
                    extra = latency - i_base_latency
                    if pre_penalty > 0:
                        delayed_fetches += 1
                    if extra > 0:
                        # The i-cache could not deliver the block this
                        # cycle: stall and retry the instruction later.
                        icache_stall_cycles += extra
                        stall_until = cycle + extra
                        pushback = index
                        break

                window_end = p_run_end[index]
                budget = width - fetched
                space = fetch_queue_size - (fq_end - fq_begin)
                if space < budget:
                    budget = space
                if window_end > index + budget:
                    window_end = index + budget
                while term_ptr < n_terms and t_terms[term_ptr] < index:
                    term_ptr += 1
                terminated = False
                if term_ptr < n_terms:
                    term_index = t_terms[term_ptr]
                    if term_index < window_end:
                        window_end = term_index + 1
                        terminated = True
                fq_end = window_end
                count = window_end - index
                fetched += count
                fetched_instructions += count
                branches += b_pref[window_end] - b_pref[index]
                branch_mispredictions += m_pref[window_end] - m_pref[index]
                fetch_index = window_end
                if terminated:
                    if t_mispred[window_end - 1]:
                        # No wrong-path fetch: park until the branch resolves.
                        waiting_redirect = True
                    else:
                        # A taken branch ends the fetch block.
                        last_line = -1
                    break
            if prof is not None:
                prof.fetch_s += _perf() - _fetch_t0
                prof.fetch_rounds += 1

        cycle += 1
        if cycle > limit:
            raise RuntimeError(
                "pipeline exceeded the livelock safety bound "
                f"({cycle} cycles for {n_instructions} instructions)"
            )

        # ----------------------- quiet-region skip -----------------------
        # If the coming cycles provably do nothing (nothing to commit,
        # nothing the incremental scheduler can wake, dispatch blocked or
        # starved, fetch stalled), jump straight to the earliest cycle at
        # which any stage can act.  Every skipped cycle with a non-empty
        # fetch queue is a blocked dispatch cycle in the reference model,
        # so the stall counter is charged for the whole window.
        if committed >= n_instructions or (
            exhausted and rob_begin == next_seq and fq_begin == fq_end
        ):
            continue
        if fq_begin < fq_end:
            if next_seq - rob_begin < rob_cap and iq_len < iq_cap:
                head_kind = t_kind[fq_begin]
                if (
                    head_kind != K_LOAD and head_kind != K_STORE
                ) or len(lsq) < lsq_cap:
                    continue  # dispatch acts next cycle: no quiet region
        if prof is not None:
            _quiet_t0 = _perf()
        wake = _NEVER
        if rob_begin < next_seq:
            head_complete = o_complete[rob_begin]
            if head_complete >= 0:
                wake = head_complete
        if iq_waiting and iq_min_wake < wake:
            wake = iq_min_wake
        if (
            not waiting_redirect
            and fq_end - fq_begin < fetch_queue_size
            and (pushback >= 0 or not exhausted)
        ):
            fetch_wake = stall_until if stall_until > cycle else cycle
            if fetch_wake < wake:
                wake = fetch_wake
        if wake > cycle:
            if wake > limit:
                # The reference loop would spin through the quiet region
                # and trip the safety bound at limit + 1.
                raise RuntimeError(
                    "pipeline exceeded the livelock safety bound "
                    f"({limit + 1} cycles for {n_instructions} instructions)"
                )
            if fq_begin < fq_end:
                dispatch_stall_cycles += wake - cycle
            cycle = wake
        if prof is not None:
            prof.quiet_skip_s += _perf() - _quiet_t0
            prof.quiet_skips += 1

    stats.cycles = cycle
    stats.committed_instructions = committed
    stats.fetched_instructions = fetched_instructions
    stats.branch_mispredictions = branch_mispredictions
    stats.branches = branches
    stats.icache_fetch_stall_cycles = icache_stall_cycles
    stats.dcache_access_count = dcache_accesses
    stats.load_replays = replayed_uops
    stats.delayed_loads = delayed_loads
    stats.delayed_fetches = delayed_fetches
    stats.dispatch_stall_cycles = dispatch_stall_cycles
    return cycle


def execute_run_fast(config: SimulationConfig) -> RunResult:
    """Simulate one configuration on the batched fast path, uncached.

    Bit-identical to :func:`repro.sim.engine.execute_run` (the
    differential suite pins this); a module-level function so parallel
    worker processes can execute it directly.  Newly-compiled trace rows
    are persisted to the on-disk cache afterwards, so sibling worker
    processes and later invocations skip the workload generator.
    """
    prof = _obs_profile.active()
    if prof is None:
        trace = compiled_trace_for(config.benchmark, seed=config.seed)
    else:
        prof.runs += 1
        _compile_t0 = _perf()
        trace = compiled_trace_for(config.benchmark, seed=config.seed)
        prof.compile_s += _perf() - _compile_t0
        prof.compiles += 1
    hierarchy_config = config.hierarchy_config()
    memory = MainMemory(
        base_latency=hierarchy_config.memory_latency,
        cycles_per_8_bytes=hierarchy_config.memory_cycles_per_8_bytes,
        line_bytes=hierarchy_config.line_bytes,
    )
    l2 = _FastCache(
        organization=hierarchy_config.l2_organization(),
        name="L2",
        controller=config.l2.build(),
        next_level=memory,
        mshr_entries=hierarchy_config.mshr_entries,
        base_latency=hierarchy_config.l2_latency,
    )
    l1i = _FastCache(
        organization=hierarchy_config.l1i_organization(),
        name="L1I",
        controller=config.icache.build(),
        next_level=l2,
        mshr_entries=hierarchy_config.mshr_entries,
        base_latency=hierarchy_config.l1i_latency,
    )
    l1d = _FastCache(
        organization=hierarchy_config.l1d_organization(),
        name="L1D",
        controller=config.dcache.build(),
        next_level=l2,
        mshr_entries=hierarchy_config.mshr_entries,
        base_latency=hierarchy_config.l1d_latency,
    )
    stats = PipelineStats()
    cycles = _simulate(
        trace, l1i, l1d, config.pipeline_config(), stats, config.n_instructions
    )
    _persist_trace(trace)
    breakdowns = {
        "L1I": l1i.finalize(cycles),
        "L1D": l1d.finalize(cycles),
        "L2": l2.finalize(cycles),
    }
    energy = combine_run_energy(
        breakdowns,
        tech=get_technology(config.feature_size_nm),
        pipeline_stats=stats,
    )
    return RunResult(
        benchmark=config.benchmark,
        dcache_policy=config.dcache.info().name,
        icache_policy=config.icache.info().name,
        feature_size_nm=config.feature_size_nm,
        subarray_bytes=config.subarray_bytes,
        cycles=cycles,
        pipeline=stats,
        energy=energy,
        dcache_miss_ratio=l1d.miss_ratio,
        icache_miss_ratio=l1i.miss_ratio,
        dcache_gaps=l1d.gaps,
        icache_gaps=l1i.gaps,
        dcache_accesses=l1d.accesses,
        icache_accesses=l1i.accesses,
        dcache_delayed_accesses=l1d.precharge_penalties,
        icache_delayed_accesses=l1i.precharge_penalties,
        l2_policy=config.l2.info().name,
        l2_miss_ratio=l2.miss_ratio,
        l2_accesses=l2.accesses,
        l2_writebacks=l2.writebacks,
        l2_delayed_accesses=l2.precharge_penalties,
        l2_gaps=l2.gaps,
    )
