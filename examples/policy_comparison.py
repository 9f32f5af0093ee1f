#!/usr/bin/env python3
"""Compare every precharge-control policy on a set of benchmarks.

Reproduces, in miniature, the paper's central comparison: for each
benchmark the five policies (static pull-up, oracle, on-demand, gated,
resizable) are simulated and their execution time and remaining bitline
discharge are tabulated — showing that gated precharging captures nearly
all of the oracle's savings at a fraction of on-demand's performance cost.

Usage::

    python examples/policy_comparison.py [benchmark ...]
"""

from __future__ import annotations

import sys

from repro.experiments.report import format_table
from repro.sim import PolicySpec, SimEngine, SimulationConfig, slowdown

POLICIES = [
    ("static", "static"),
    ("oracle", "oracle"),
    ("on-demand", "on-demand"),
    ("gated-predecode", "gated"),
    ("resizable", "resizable"),
]


def main() -> None:
    benchmarks = sys.argv[1:] or ["gcc", "mesa", "health"]
    n_instructions = 15_000

    engine = SimEngine(workers=4)
    for benchmark in benchmarks:
        configs = [
            SimulationConfig(
                benchmark=benchmark,
                dcache=PolicySpec(dcache_policy),
                icache=PolicySpec(icache_policy),
                feature_size_nm=70,
                n_instructions=n_instructions,
            )
            for dcache_policy, icache_policy in POLICIES
        ]
        results = engine.run_many(configs)
        baseline = results[0]
        rows = []
        for (dcache_policy, _), result in zip(POLICIES, results):
            rows.append(
                [
                    dcache_policy,
                    f"{result.cycles}",
                    f"{slowdown(result, baseline) * 100:+.2f}%",
                    f"{result.energy.dcache_relative_discharge:.3f}",
                    f"{result.energy.icache_relative_discharge:.3f}",
                    f"{result.energy.dcache.precharged_fraction:.3f}",
                ]
            )
        print(
            format_table(
                headers=[
                    "Policy (D-cache)",
                    "Cycles",
                    "Slowdown",
                    "D rel. discharge",
                    "I rel. discharge",
                    "D precharged frac",
                ],
                rows=rows,
                title=f"\n=== {benchmark} (70nm, {n_instructions} micro-ops) ===",
            )
        )


if __name__ == "__main__":
    main()
