"""Seeded inputs: every configuration a workload submits comes from here.

The workload seed draws each benchmark's workload (trace) seed, every
policy parameter and the order of the jobs; the program under test only
ever sees the resulting :class:`SimulationConfig` objects.
"""

from __future__ import annotations

import random
from typing import List, Set

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.store import ResultStore

#: Cache-friendly and memory-bound benchmarks (the paper's two regimes).
BENCHMARKS = ("gcc", "equake", "mcf", "art")

#: The built-in L1 precharge policies.
POLICIES = ("static", "oracle", "on-demand", "gated", "gated-predecode", "resizable")

#: Micro-ops per grid configuration: the experiments' default size.
GRID_OPS = 30_000

#: Micro-ops per service job.
JOB_OPS = 6_000

#: serve-miss jobs run ``JOB_OPS`` plus an offset below this bound, so
#: every job, however many a run submits, stays inside the trace prefix
#: that set-up compiles.
MISS_OFFSETS = 1024

#: Micro-ops of the set-up jobs that compile serve-miss traces: above any
#: measured job, so they never share a unit with one.
MISS_WARM_OPS = JOB_OPS + MISS_OFFSETS + 1


def policy_spec(name: str, rng: random.Random) -> PolicySpec:
    """One L1 policy with seed-drawn parameters."""
    if name in ("oracle", "on-demand"):
        return PolicySpec(name, {"hold_cycles": rng.randint(1, 3)})
    if name in ("gated", "gated-predecode"):
        return PolicySpec(name, {
            "threshold": rng.randrange(50, 400),
            "predecode_lead_cycles": rng.randint(1, 3),
        })
    if name == "resizable":
        return PolicySpec(name, {
            "interval_accesses": rng.randrange(4_000, 20_000),
            "miss_ratio_slack": rng.choice((0.01, 0.02, 0.04)),
            "min_active_fraction": rng.choice((0.125, 0.25)),
        })
    return PolicySpec(name, {})


def workload_seeds(rng: random.Random) -> dict:
    return {name: rng.randrange(1, 1 << 16) for name in BENCHMARKS}


def grid_configs(seed: int, round_number: int) -> List[SimulationConfig]:
    """One round's grid: every built-in policy on every benchmark, in seeded order.

    Each round draws its own workload seeds and policy parameters.  Which
    worker computes which trace-affine chunk, and with it the pool's peak
    memory and the chunk boundaries that quantise latency, depends on the
    draw; a run that repeated one grid would inherit one draw's mode.
    """
    rng = random.Random(f"grid:{seed}:{round_number}")
    seeds = workload_seeds(rng)
    configs = [
        SimulationConfig(
            benchmark=name, dcache=policy_spec(policy, rng),
            n_instructions=GRID_OPS, seed=seeds[name],
        )
        for name in BENCHMARKS
        for policy in POLICIES
    ]
    rng.shuffle(configs)
    return configs


class MissStream:
    """Fresh serve-miss configurations: unique units in seeded order.

    A draw whose store key an earlier job already used is drawn again,
    so no job ever hits the result cache or coalesces with another.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"serve-miss:{seed}")
        self.seeds = workload_seeds(self._rng)
        self._used: Set[str] = set()

    def warm_configs(self) -> List[SimulationConfig]:
        """One set-up job per benchmark, compiling every trace the jobs use."""
        return [
            SimulationConfig(benchmark=name, n_instructions=MISS_WARM_OPS, seed=self.seeds[name])
            for name in BENCHMARKS
        ]

    def next(self) -> SimulationConfig:
        while True:
            name = self._rng.choice(BENCHMARKS)
            config = SimulationConfig(
                benchmark=name, dcache=policy_spec(self._rng.choice(POLICIES), self._rng),
                n_instructions=JOB_OPS + self._rng.randrange(MISS_OFFSETS), seed=self.seeds[name],
            )
            key = ResultStore.key_for(config)
            if key not in self._used:
                self._used.add(key)
                return config
