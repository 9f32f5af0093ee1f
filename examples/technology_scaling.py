#!/usr/bin/env python3
"""Technology-scaling study: why bitline isolation only pays off at 70nm.

Walks the four CMOS nodes of Table 1 and shows, from the circuit models
alone, the two trends the paper's argument rests on:

1. the energy overhead of toggling the precharge devices collapses
   relative to the leakage it saves (Figure 2), and
2. the worst-case bitline pull-up never fits in the final decode stage,
   so on-demand precharging always costs a cycle (Table 3).

It then runs one benchmark with gated precharging at each node to show the
architectural consequence: the discharge savings grow toward 70nm.

Usage::

    python examples/technology_scaling.py [benchmark]
"""

from __future__ import annotations

import sys

from repro.circuits import available_nodes, cache_organization, get_technology
from repro.circuits.transient import isolation_transient
from repro.experiments.report import format_table
from repro.sim import PolicySpec, SimEngine, SimulationConfig


def circuit_trends() -> None:
    rows = []
    for nm in available_nodes():
        tech = get_technology(nm)
        transient = isolation_transient(tech)
        org = cache_organization(nm, 32 * 1024, 32, 2, 1024, ports=2)
        rows.append(
            [
                nm,
                f"{tech.supply_voltage:.1f}",
                f"{tech.clock_frequency_ghz:.1f}",
                f"{transient.peak_normalized_power * 100:.0f}%",
                f"{transient.settling_time_s * 1e9:.0f}",
                f"{org.decoder.final_decode_s * 1e9:.3f}",
                f"{org.subarray.worst_case_pull_up_s * 1e9:.3f}",
                org.isolated_access_penalty_cycles,
            ]
        )
    print(
        format_table(
            headers=[
                "Node (nm)",
                "Vdd",
                "GHz",
                "Isolation peak power",
                "Settle (ns)",
                "Final decode (ns)",
                "Pull-up (ns)",
                "Penalty (cycles)",
            ],
            rows=rows,
            title="Circuit-level scaling trends (Figure 2 / Table 3)",
        )
    )


def architectural_consequence(benchmark: str) -> None:
    engine = SimEngine(workers=4)
    configs = [
        SimulationConfig(
            benchmark=benchmark,
            dcache=PolicySpec("gated-predecode"),
            icache=PolicySpec("gated"),
            feature_size_nm=nm,
            n_instructions=12_000,
        )
        for nm in available_nodes()
    ]
    results = engine.run_many(configs)
    rows = []
    for nm, result in zip(available_nodes(), results):
        rows.append(
            [
                nm,
                f"{result.energy.dcache_relative_discharge:.3f}",
                f"{result.energy.icache_relative_discharge:.3f}",
            ]
        )
    print()
    print(
        format_table(
            headers=["Node (nm)", "D-cache rel. discharge", "I-cache rel. discharge"],
            rows=rows,
            title=f"Gated precharging across nodes ({benchmark})",
        )
    )


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    circuit_trends()
    architectural_consequence(benchmark)


if __name__ == "__main__":
    main()
