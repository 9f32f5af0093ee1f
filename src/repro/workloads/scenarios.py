"""Composite scenario workloads: the scenario algebra, resolved.

Three name families extend the sixteen single-program benchmarks, all
addressable anywhere a benchmark name is accepted (``SimulationConfig``,
``repro run/sweep --benchmark``, service payloads, loadgen mixes, the
fast path, trace recording):

* ``mix:`` / ``phases:`` — expressions of the recursive **scenario
  algebra** (:mod:`repro.workloads.grammar`): weighted terms, nested
  parenthesised scenarios, per-term pressure-shaping modifiers
  (``~scale=`` footprint scaling, ``~slab=`` address-slab width) and an
  optional ``@quantum``.  The flat forms (``mix:gcc+mcf@2000``,
  ``phases:gcc+art``) keep their PR-2 semantics and streams exactly;
  nesting composes them — ``mix:(phases:gcc+mcf@5000)*2+vortex@800``
  interleaves a phase-shifting program (two quanta per turn) with
  vortex.
* ``fuzz:SEED[/DEPTH]`` — a scenario expression *sampled* from the
  grammar (:mod:`repro.workloads.fuzzgen`), deterministic in the seed
  and valid by construction.  ``repro fuzz`` drives these through both
  simulation kernels as a differential gate.
* ``trace:PATH`` — a recorded
  :class:`~repro.workloads.tracefile.TraceFileWorkload` replay.

Programs of a ``mix:`` time-share the core in round-robin quanta, each
in its own address slab (:data:`grammar.DEFAULT_SLAB_BITS`-bit by
default) and a statically partitioned slice of the architectural
register file, so programs contend for cache subarrays and predictor
entries — the interesting part — without fabricating cross-program data
dependences.  ``phases:`` profiles share one address space and the full
register file.  In a nested expression the *programs* are the maximal
subtrees whose paths to the root cross the same ``mix:`` edges: a
``phases:`` group used as one term of a ``mix:`` is a single program.

All families compose with recording: any scenario can be recorded to a
``.trace.gz`` file and replayed byte-identically later.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from .characteristics import BenchmarkCharacteristics, get_benchmark
from .grammar import (
    DEFAULT_MIX_QUANTUM,
    DEFAULT_PHASE_QUANTUM,
    DEFAULT_SLAB_BITS,
    Bench,
    Group,
    LeafInfo,
    ScenarioError,
    analyse,
    iter_leaves,
    parse_scenario,
    unparse,
)
from .fuzzgen import generate_scenario, parse_fuzz_name
from .synthetic import N_REGISTERS, SyntheticWorkload, WorkloadBase
from .trace import MicroOp

__all__ = [
    "DEFAULT_MIX_QUANTUM",
    "DEFAULT_PHASE_QUANTUM",
    "ScenarioError",
    "ScenarioWorkload",
    "resolve_workload",
    "validate_workload_name",
    "workload_identity",
]

#: Address-space slab assigned to each program (2**40 bytes).
_ADDRESS_SPACE_BYTES = 1 << DEFAULT_SLAB_BITS

#: Smallest data footprint ``~scale=`` may shrink a benchmark to.
_MIN_DATA_FOOTPRINT = 8 * 1024

#: Smallest code footprint ``~scale=`` may shrink a benchmark to (the
#: code walker needs at least a few basic blocks).
_MIN_INSTR_FOOTPRINT = 2 * 1024


def _scaled_characteristics(
    ch: BenchmarkCharacteristics, scale: float
) -> BenchmarkCharacteristics:
    """Apply a ``~scale=`` modifier to a benchmark's footprints."""
    if scale == 1.0:
        return ch
    return _dc_replace(
        ch,
        data_footprint_bytes=max(
            _MIN_DATA_FOOTPRINT, int(ch.data_footprint_bytes * scale)
        ),
        instr_footprint_bytes=max(
            _MIN_INSTR_FOOTPRINT, int(ch.instr_footprint_bytes * scale)
        ),
    )


def _translate_stream(
    stream: Iterator[MicroOp],
    mask: int,
    offset: int,
    reg_base: int,
    reg_slice: int,
) -> Iterator[MicroOp]:
    """Fold a leaf stream into its program's address slab and registers."""

    def reg(value: Optional[int]) -> Optional[int]:
        if value is None:
            return None
        return reg_base + (value % reg_slice)

    for uop in stream:
        yield MicroOp(
            op_type=uop.op_type,
            pc=(uop.pc & mask) + offset,
            dest=reg(uop.dest),
            src1=reg(uop.src1),
            src2=reg(uop.src2),
            address=None if uop.address is None else (uop.address & mask) + offset,
            base_address=(
                None
                if uop.base_address is None
                else (uop.base_address & mask) + offset
            ),
            taken=uop.taken,
            target=None if uop.target is None else (uop.target & mask) + offset,
        )


def _interleave(
    streams: Sequence[Iterator[MicroOp]], weights: Sequence[int], quantum: int
) -> Iterator[MicroOp]:
    """Round-robin over child streams, ``weight * quantum`` ops per turn."""
    while True:
        for stream, weight in zip(streams, weights):
            for _ in range(weight * quantum):
                yield next(stream)


class ScenarioWorkload(WorkloadBase):
    """A workload evaluating one scenario-algebra expression.

    The expression's benchmark leaves become
    :class:`~repro.workloads.synthetic.SyntheticWorkload` streams
    (footprint-scaled per ``~scale=``, seeded ``seed + 101 * leaf
    index``), folded into their program's address slab and register
    slice, then interleaved bottom-up: every ``mix:``/``phases:`` node
    round-robins its children, ``weight * quantum`` micro-ops per turn.

    The stream is an infinite, deterministic function of
    ``(expression, seed)`` — the contract every cache layer and the
    differential fuzz gate rely on.
    """

    def __init__(
        self, root: Group, seed: int = 1, name: Optional[str] = None
    ) -> None:
        self.root = root
        self.seed = seed
        self.name = unparse(root) if name is None else name
        self._leaves, self._programs = analyse(root)
        # Resolve (and thereby validate) every leaf eagerly: an unknown
        # benchmark raises KeyError here, not mid-stream.
        self._characteristics = [
            _scaled_characteristics(get_benchmark(leaf.bench.name), leaf.scale)
            for leaf in self._leaves
        ]

    # ------------------------------------------------------------------
    @property
    def programs(self) -> List[Tuple[int, ...]]:
        """The distinct programs (chains of ``mix:`` child indices)."""
        return list(self._programs)

    def _leaf_stream(
        self, leaf: LeafInfo, ch: BenchmarkCharacteristics
    ) -> Iterator[MicroOp]:
        workload = SyntheticWorkload(ch, seed=self.seed + 101 * leaf.seed_index)
        stream = workload.instructions()
        n_programs = len(self._programs)
        program_index = self._programs.index(leaf.program)
        offset = program_index * _ADDRESS_SPACE_BYTES
        if n_programs > 1:
            reg_slice = max(1, N_REGISTERS // n_programs)
            reg_base = (program_index * reg_slice) % N_REGISTERS
        else:
            reg_slice, reg_base = N_REGISTERS, 0
        if (
            offset == 0
            and leaf.slab == DEFAULT_SLAB_BITS
            and reg_slice == N_REGISTERS
        ):
            # Single untranslated program (a pure phases: tree): the
            # leaf stream passes through untouched.
            return stream
        mask = (1 << leaf.slab) - 1
        return _translate_stream(stream, mask, offset, reg_base, reg_slice)

    def instructions(self) -> Iterator[MicroOp]:
        """Infinite composed micro-op stream (fresh leaf streams per call)."""
        pairs = iter(zip(self._leaves, self._characteristics))

        def build(node) -> Iterator[MicroOp]:
            if isinstance(node, Bench):
                leaf, ch = next(pairs)
                return self._leaf_stream(leaf, ch)
            streams = [build(child) for child in node.children]
            weights = [child.weight for child in node.children]
            return _interleave(streams, weights, node.quantum)

        return build(self.root)


def _name_family(name: str) -> Optional[str]:
    prefix, sep, _ = name.partition(":")
    if not sep:
        return None
    return prefix.strip().lower()


@lru_cache(maxsize=512)
def _scenario_identity(name: str) -> Optional[Tuple]:
    """Canonical identity of a scenario/fuzz name (memoised; pure)."""
    family = _name_family(name)
    try:
        if family == "fuzz":
            fuzz_seed, depth = parse_fuzz_name(name)
            return ("scenario", unparse(generate_scenario(fuzz_seed, depth)))
        root = parse_scenario(name)
    except ValueError:
        return None
    if root is None:
        return None
    return ("scenario", unparse(root))


def workload_identity(name: str) -> Optional[Tuple]:
    """Cache-key identity of a workload name; ``None`` for plain names.

    Every layer that memoises by workload name (the engine's result
    cache, the on-disk result store, the fast path's compiled-trace
    caches) folds this into its key:

    * ``trace:`` names point at mutable file contents, so the identity
      is the file's resolved path, mtime and size — re-recording a
      trace invalidates instead of serving stale results.  A missing
      file yields ``None``; the error surfaces when the workload is
      built.
    * ``mix:``/``phases:``/``fuzz:`` names yield ``("scenario",
      canonical_form)``: syntactically different spellings of one
      expression — including a ``fuzz:`` seed and its expansion — share
      compiled traces and results.  A malformed expression yields
      ``None``; the error surfaces at validation/build time.
    """
    family = _name_family(name)
    if family == "trace":
        _, _, rest = name.partition(":")
        path = Path(rest)
        try:
            stat = path.stat()
        except OSError:
            return None
        return ("trace", str(path.resolve()), stat.st_mtime_ns, stat.st_size)
    if family in ("mix", "phases", "fuzz"):
        return _scenario_identity(name)
    return None


def validate_workload_name(name: str) -> None:
    """Check a workload name without building the workload.

    The cheap counterpart of :func:`resolve_workload` for input
    validation (the CLI calls this once per name, then the run builds
    the workload once): scenario expressions are parsed and their leaf
    benchmarks looked up, ``fuzz:`` specs are parsed and expanded,
    trace paths are only checked for existence.

    Raises:
        KeyError: for an unknown benchmark name (also inside scenarios).
        ValueError: for a malformed scenario expression (a
            position-annotated :class:`ScenarioError`), a malformed
            ``fuzz:`` spec, or a missing trace file.
    """
    family = _name_family(name)
    if family == "trace":
        _, _, rest = name.partition(":")
        if not Path(rest).exists():
            raise ValueError(f"trace file not found: {rest}")
        return
    if family == "fuzz":
        fuzz_seed, depth = parse_fuzz_name(name)
        generate_scenario(fuzz_seed, depth)
        return
    if family in ("mix", "phases"):
        root = parse_scenario(name)
        for leaf in iter_leaves(root):
            get_benchmark(leaf.name)
        return
    get_benchmark(name)


def resolve_workload(name: str, seed: int = 1):
    """Resolve a scenario, fuzz or trace name; ``None`` for plain benchmarks.

    Raises:
        ValueError: for a malformed scenario expression (position-
            annotated), a malformed ``fuzz:`` spec, or an unreadable
            trace.
        KeyError: for an unknown benchmark inside a scenario.
    """
    family = _name_family(name)
    if family is None:
        return None
    if family == "trace":
        from .tracefile import TraceFileWorkload

        _, _, rest = name.partition(":")
        return TraceFileWorkload(rest)
    if family == "fuzz":
        fuzz_seed, depth = parse_fuzz_name(name)
        root = generate_scenario(fuzz_seed, depth)
        return ScenarioWorkload(root, seed=seed, name=name)
    if family in ("mix", "phases"):
        return ScenarioWorkload(parse_scenario(name), seed=seed)
    return None
