#!/usr/bin/env python3
"""Quickstart: simulate one benchmark under gated precharging.

Runs the synthetic ``gcc`` workload through the out-of-order processor
model twice — once with conventional statically pulled-up L1 caches and
once with gated precharging (the paper's technique) — and prints the
performance and bitline-discharge comparison.

Usage::

    python examples/quickstart.py [benchmark] [threshold]
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.sim import PolicySpec, SimEngine, SimulationConfig, slowdown


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    threshold = int(sys.argv[2]) if len(sys.argv) > 2 else 100

    baseline_config = SimulationConfig(
        benchmark=benchmark,
        dcache=PolicySpec("static"),
        icache=PolicySpec("static"),
        feature_size_nm=70,
        n_instructions=20_000,
    )
    gated_config = replace(
        baseline_config,
        dcache=PolicySpec("gated-predecode", {"threshold": threshold}),
        icache=PolicySpec("gated", {"threshold": threshold}),
    )

    engine = SimEngine()
    print(f"Simulating {benchmark!r} at 70nm ({baseline_config.n_instructions} micro-ops)...")
    baseline, gated = engine.run_many([baseline_config, gated_config])

    print()
    print(f"Baseline (static pull-up):   {baseline.summary()}")
    print(f"Gated precharging (T={threshold}):  {gated.summary()}")
    print()
    print(f"Performance degradation:        {slowdown(gated, baseline) * 100:6.2f}%")
    print(
        "Data-cache bitline discharge:   "
        f"{gated.energy.dcache_relative_discharge * 100:6.1f}% of conventional "
        f"({gated.energy.dcache_discharge_savings * 100:.1f}% eliminated)"
    )
    print(
        "Instr-cache bitline discharge:  "
        f"{gated.energy.icache_relative_discharge * 100:6.1f}% of conventional "
        f"({gated.energy.icache_discharge_savings * 100:.1f}% eliminated)"
    )
    print(
        "Subarrays kept precharged:      "
        f"data {gated.energy.dcache.precharged_fraction * 100:.1f}%, "
        f"instruction {gated.energy.icache.precharged_fraction * 100:.1f}%"
    )


if __name__ == "__main__":
    main()
