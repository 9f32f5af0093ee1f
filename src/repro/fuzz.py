"""Seeded differential fuzzing of the two simulation kernels.

The repo's core correctness invariant — ``execute_run_fast(config)``
bit-identical to ``execute_run(config)`` — is pinned by a hand-written
differential grid.  This module turns it into a fuzzing gate: sample
scenario expressions from the grammar (``fuzz:SEED`` names), run each
through both kernels under policies, a subarray size, a node and a core
shape drawn from the same seed, and compare ``RunResult.to_dict()``
payloads exactly.  On a mismatch the offending AST is *shrunk* to a
minimal reproducer and written to the committed regression corpus
(``tests/fuzz_corpus/``), which tier-1 replays forever
(``tests/sim/test_fuzz_corpus.py``).

Drive it from the shell (CI runs exactly this)::

    python -m repro fuzz --budget 50 --seed-base 0 --report fuzz.json

Exit status is 1 on any mismatch, 0 on a clean campaign.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from .circuits.technology import available_nodes
from .core.registry import PolicySpec
from .core.threshold import CANDIDATE_THRESHOLDS
from .cpu.pipeline import PipelineConfig
from .sim.config import SimulationConfig
from .sim.engine import execute_run, execute_run_fast
from .workloads.fuzzgen import DEFAULT_FUZZ_DEPTH, generate_scenario
from .workloads.grammar import (
    Bench,
    Group,
    Node,
    default_quantum,
    iter_leaves,
    unparse,
)

__all__ = [
    "DEFAULT_FUZZ_INSTRUCTIONS",
    "FUZZ_POLICIES",
    "FUZZ_SUBARRAY_BYTES",
    "FuzzResult",
    "draw_geometry",
    "draw_policies",
    "fuzz_config",
    "load_corpus",
    "run_campaign",
    "run_differential",
    "shrink_scenario",
    "write_corpus_entry",
]

#: Instructions per differential run.  Equivalence is binary, not
#: asymptotic; this is long enough to cross several context-switch
#: quanta of every generated scenario (quantum palette tops out at
#: 1500) while keeping a 50-scenario campaign in CI-friendly time.
DEFAULT_FUZZ_INSTRUCTIONS = 2000

#: Default committed-reproducer directory, relative to the repo root.
DEFAULT_CORPUS_DIR = Path("tests") / "fuzz_corpus"


#: The built-in policies a fuzz run draws from, for every cache level.
FUZZ_POLICIES = ("static", "oracle", "on-demand", "gated", "gated-predecode", "resizable")


def _draw_spec(rng: random.Random) -> PolicySpec:
    name = rng.choice(FUZZ_POLICIES)
    if name in ("oracle", "on-demand"):
        return PolicySpec(name, {"hold_cycles": rng.randint(1, 3)})
    if name in ("gated", "gated-predecode"):
        return PolicySpec(name, {
            "threshold": rng.choice(CANDIDATE_THRESHOLDS),
            "predecode_lead_cycles": rng.randint(1, 3),
        })
    if name == "resizable":
        # 100-2,000 accesses resize within a default-length fuzz run; the
        # default interval (no parameter) only within a long one.
        interval = rng.choice((100, 500, 2000, None))
        return PolicySpec(name, {} if interval is None else {"interval_accesses": interval})
    return PolicySpec(name)


def draw_policies(fuzz_seed: int) -> Dict[str, PolicySpec]:
    """Each cache level's policy for one fuzz seed.

    Every level draws one of :data:`FUZZ_POLICIES` and its parameters
    from a small table (gated thresholds from ``CANDIDATE_THRESHOLDS``,
    hold and predecode-lead cycles 1-3, resizing intervals of 100-2,000
    accesses), so a campaign exercises every policy the fast path
    bookkeeps itself as well as the ones it calls through their object.
    """
    rng = random.Random(f"fuzz-policy:{fuzz_seed}")
    return {level: _draw_spec(rng) for level in ("dcache", "icache", "l2")}


#: The L1 subarray sizes a fuzz run draws from (bytes).
FUZZ_SUBARRAY_BYTES = (256, 512, 1024, 2048, 4096)


def draw_geometry(fuzz_seed: int) -> Dict[str, Any]:
    """The L1 subarray size, node and core shape of one fuzz seed, as
    :class:`SimulationConfig` fields.  Each core knob (ROB and issue
    queue, width and memory ports, LSQ, registers) ranges from Table 2's
    default down to a small core."""
    rng = random.Random(f"fuzz-geometry:{fuzz_seed}")
    geometry: Dict[str, Any] = {
        "subarray_bytes": rng.choice(FUZZ_SUBARRAY_BYTES),
        "feature_size_nm": rng.choice(available_nodes()),
    }
    rob_entries, issue_queue_entries = rng.choice(((16, 8), (64, 32), (128, 64)))
    width, memory_ports = rng.choice(((2, 1), (4, 2), (8, 4)))
    geometry["pipeline"] = PipelineConfig(
        width=width, rob_entries=rob_entries, issue_queue_entries=issue_queue_entries,
        lsq_entries=rng.choice((4, 16, 64)), memory_ports=memory_ports,
        max_registers=rng.choice((8, 32, 64)),
    )
    return geometry


def fuzz_config(
    benchmark: str,
    n_instructions: int = DEFAULT_FUZZ_INSTRUCTIONS,
    seed: int = 1,
    policies: Optional[Mapping[str, PolicySpec]] = None,
    geometry: Optional[Mapping[str, Any]] = None,
) -> SimulationConfig:
    """The configuration of one fuzz run.

    ``policies`` maps ``dcache``, ``icache`` and ``l2`` to specs and
    ``geometry`` holds further configuration fields (a campaign passes
    :func:`draw_policies` and :func:`draw_geometry`); anything they
    leave out keeps the configuration's default.
    """
    return SimulationConfig(
        benchmark=benchmark,
        n_instructions=n_instructions,
        seed=seed,
        **(policies or {}),
        **(geometry or {}),
    )


def _outcome(execute: Callable[[SimulationConfig], object], config: SimulationConfig):
    # Both kernels raising the same error (e.g. the livelock bound) is
    # agreement too; one raising while the other returns is a mismatch.
    try:
        return ("ok", execute(config).to_dict())
    except Exception as error:  # pragma: no cover - only on kernel bugs
        return ("error", f"{type(error).__name__}: {error}")


def run_differential(config: SimulationConfig) -> bool:
    """``True`` when both kernels agree bit-for-bit on ``config``."""
    return _outcome(execute_run, config) == _outcome(execute_run_fast, config)


# ----------------------------------------------------------------------
# Shrinking


def _node_simplifications(node: Node) -> Iterator[Node]:
    """Strictly simpler variants of one term, most aggressive first."""
    if isinstance(node, Group):
        # Collapse the whole subtree to its first benchmark leaf.
        first = next(iter_leaves(node))
        yield Bench(name=first.name)
        # Simplify the subtree, keeping this term's own modifiers.
        for simpler in _group_simplifications(
            replace(node, weight=1, scale=1.0, slab=None)
        ):
            yield replace(
                simpler, weight=node.weight, scale=node.scale, slab=node.slab
            )
    if node.weight != 1:
        yield replace(node, weight=1)
    if node.scale != 1.0:
        yield replace(node, scale=1.0)
    if node.slab is not None:
        yield replace(node, slab=None)


def _group_simplifications(root: Group) -> Iterator[Group]:
    """Strictly simpler variants of a whole expression."""
    # Promote a nested scenario to the root.
    for child in root.children:
        if isinstance(child, Group):
            yield replace(child, weight=1, scale=1.0, slab=None)
    # Drop a child (lists need at least two terms).
    if len(root.children) > 2:
        for index in range(len(root.children)):
            yield replace(
                root,
                children=root.children[:index] + root.children[index + 1 :],
            )
    # Simplify one child in place.
    for index, child in enumerate(root.children):
        for simpler in _node_simplifications(child):
            yield replace(
                root,
                children=root.children[:index]
                + (simpler,)
                + root.children[index + 1 :],
            )
    # Reset a non-default quantum.
    if root.quantum != default_quantum(root.family):
        yield replace(root, quantum=default_quantum(root.family))


def shrink_scenario(
    root: Group,
    still_failing: Callable[[Group], bool],
    max_attempts: int = 500,
) -> Group:
    """Greedily minimise a failing expression.

    Repeatedly tries simpler variants (collapse subtrees, drop terms,
    strip modifiers, reset quanta) and keeps the first that still
    satisfies ``still_failing``, until no simplification reproduces or
    ``max_attempts`` candidate evaluations are spent.  The predicate is
    pluggable so the shrinker is testable without a real kernel bug.
    """
    current = root
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _group_simplifications(current):
            attempts += 1
            if still_failing(candidate):
                current = candidate
                improved = True
                break
            if attempts >= max_attempts:
                break
    return current


# ----------------------------------------------------------------------
# Corpus


def corpus_filename(config: SimulationConfig) -> str:
    """Stable content-addressed filename for one reproducer: its run key,
    so reproducers of one expression under different draws coexist."""
    return f"repro-{config.cache_key()[:16]}.json"


def write_corpus_entry(
    corpus_dir: Path,
    config: SimulationConfig,
    origin: str,
) -> Path:
    """Persist a minimised reproducer for tier-1 to replay forever.

    The entry is the full ``SimulationConfig.to_dict()`` payload (so the
    replay test rebuilds exactly the failing configuration) plus the
    ``fuzz:`` name that found it, for archaeology.
    """
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    entry = {"origin": origin, "config": config.to_dict()}
    path = corpus_dir / corpus_filename(config)
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(corpus_dir: Path) -> List[Tuple[str, SimulationConfig]]:
    """Load every committed reproducer as ``(origin, config)`` pairs."""
    corpus_dir = Path(corpus_dir)
    entries: List[Tuple[str, SimulationConfig]] = []
    if not corpus_dir.is_dir():
        return entries
    for path in sorted(corpus_dir.glob("*.json")):
        data = json.loads(path.read_text())
        entries.append(
            (data.get("origin", path.name), SimulationConfig.from_dict(data["config"]))
        )
    return entries


# ----------------------------------------------------------------------
# Campaign


@dataclass
class FuzzResult:
    """Outcome of one fuzzed scenario."""

    name: str
    canonical: str
    matched: bool
    reproducer: Optional[str] = None
    corpus_path: Optional[str] = None
    #: The drawn policy per cache level, as ``PolicySpec.to_dict()``.
    policies: Dict[str, Any] = field(default_factory=dict)
    #: The drawn subarray size, node and pipeline (as ``to_dict()``).
    geometry: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "canonical": self.canonical,
            "status": "match" if self.matched else "mismatch",
            "policies": self.policies,
            "geometry": self.geometry,
        }
        if self.reproducer is not None:
            payload["reproducer"] = self.reproducer
        if self.corpus_path is not None:
            payload["corpus_path"] = self.corpus_path
        return payload


def run_campaign(
    budget: int,
    seed_base: int = 0,
    depth: int = DEFAULT_FUZZ_DEPTH,
    n_instructions: int = DEFAULT_FUZZ_INSTRUCTIONS,
    workload_seed: int = 1,
    corpus_dir: Optional[Path] = None,
    progress: Optional[Callable[[FuzzResult], None]] = None,
) -> Dict[str, object]:
    """Run ``budget`` seeded scenarios through both kernels.

    Seeds are ``seed_base .. seed_base + budget - 1``, so a fixed
    ``--seed-base`` makes the campaign a regression gate and a rotating
    one makes it an explorer.  Each seed draws the scenario, every
    cache level's policy and the geometry.  Every mismatch is shrunk to
    a minimal reproducer under the same draws; with ``corpus_dir`` set it is
    also written there for tier-1 to replay.  Returns a JSON-ready
    report.
    """
    if budget < 1:
        raise ValueError("fuzz budget must be positive")
    results: List[FuzzResult] = []
    for index in range(budget):
        fuzz_seed = seed_base + index
        name = f"fuzz:{fuzz_seed}/{depth}"
        root = generate_scenario(fuzz_seed, depth)
        canonical = unparse(root)
        policies = draw_policies(fuzz_seed)
        geometry = draw_geometry(fuzz_seed)

        def config_for(benchmark: str) -> SimulationConfig:
            return fuzz_config(
                benchmark,
                n_instructions=n_instructions,
                seed=workload_seed,
                policies=policies,
                geometry=geometry,
            )

        drawn = {level: spec.to_dict() for level, spec in policies.items()}
        drawn_geometry = dict(geometry, pipeline=geometry["pipeline"].to_dict())
        if run_differential(config_for(name)):
            result = FuzzResult(
                name=name, canonical=canonical, matched=True, policies=drawn,
                geometry=drawn_geometry,
            )
        else:
            minimal = shrink_scenario(
                root,
                lambda candidate: not run_differential(config_for(unparse(candidate))),
            )
            reproducer = unparse(minimal)
            result = FuzzResult(
                name=name, canonical=canonical, matched=False,
                reproducer=reproducer, policies=drawn, geometry=drawn_geometry,
            )
            if corpus_dir is not None:
                path = write_corpus_entry(
                    corpus_dir, config_for(reproducer), origin=name
                )
                result.corpus_path = str(path)
        results.append(result)
        if progress is not None:
            progress(result)
    mismatches = sum(1 for result in results if not result.matched)
    return {
        "budget": budget,
        "seed_base": seed_base,
        "depth": depth,
        "n_instructions": n_instructions,
        "workload_seed": workload_seed,
        "mismatches": mismatches,
        "results": [result.to_dict() for result in results],
    }
