#!/usr/bin/env python3
"""Subarray-size sensitivity study (Figure 10 in miniature).

Runs gated precharging with 4KB, 1KB, 256B and 64B subarrays on a few
benchmarks and reports the fraction of subarrays kept precharged and the
remaining bitline discharge — showing the paper's finding that smaller
subarrays give finer control with diminishing returns below 256B.

Usage::

    python examples/subarray_size_study.py [benchmark ...]
"""

from __future__ import annotations

import sys

from repro.experiments.figure10 import SUBARRAY_SIZES
from repro.experiments.report import format_table
from repro.sim import PolicySpec, SimEngine, SimulationConfig


def main() -> None:
    benchmarks = sys.argv[1:] or ["gcc", "treeadd"]
    n_instructions = 12_000

    engine = SimEngine(workers=4)
    for benchmark in benchmarks:
        configs = [
            SimulationConfig(
                benchmark=benchmark,
                dcache=PolicySpec("gated-predecode"),
                icache=PolicySpec("gated"),
                feature_size_nm=70,
                subarray_bytes=size,
                n_instructions=n_instructions,
            )
            for size in SUBARRAY_SIZES
        ]
        results = engine.run_many(configs)
        rows = []
        for size, result in zip(SUBARRAY_SIZES, results):
            label = f"{size // 1024}KB" if size >= 1024 else f"{size}B"
            rows.append(
                [
                    label,
                    f"{result.energy.dcache.precharged_fraction:.3f}",
                    f"{result.energy.icache.precharged_fraction:.3f}",
                    f"{result.energy.dcache_relative_discharge:.3f}",
                    f"{result.energy.icache_relative_discharge:.3f}",
                ]
            )
        print(
            format_table(
                headers=[
                    "Subarray size",
                    "D precharged frac",
                    "I precharged frac",
                    "D rel. discharge",
                    "I rel. discharge",
                ],
                rows=rows,
                title=f"\n=== {benchmark}: effect of subarray size (70nm) ===",
            )
        )


if __name__ == "__main__":
    main()
