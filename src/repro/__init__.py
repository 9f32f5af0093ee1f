"""repro: a reproduction of "Near-Optimal Precharging in High-Performance
Nanoscale CMOS Caches" (Yang & Falsafi, MICRO-36, 2003).

The package is organised bottom-up:

* :mod:`repro.circuits` — technology scaling, SRAM/bitline/decoder circuit
  models (the CACTI + SPICE substitute);
* :mod:`repro.cache` — behavioural caches with subarray-granularity
  precharge control and energy accounting, on every level of the
  hierarchy (L1I, L1D and the unified L2);
* :mod:`repro.core` — the precharge-control policies (static pull-up,
  oracle, on-demand, **gated precharging** — the paper's contribution,
  with predecoding — and the resizable-cache baseline) plus the
  pluggable policy registry;
* :mod:`repro.cpu` — the 8-wide out-of-order processor model with
  load-hit speculation and selective replay;
* :mod:`repro.workloads` — synthetic SPEC2000/Olden-like workloads;
* :mod:`repro.energy` — Wattch-style processor energy accounting;
* :mod:`repro.sim` — the driver layer: :class:`~repro.sim.SimEngine`
  (bounded caching, on-disk persistence, parallel sweeps),
  :class:`~repro.sim.SimulationConfig` and serialisable
  :class:`~repro.sim.RunResult` objects;
* :mod:`repro.experiments` — one module per table/figure of the paper,
  registered behind a common ``run(engine, options)`` protocol;
* :mod:`repro.cli` — the ``python -m repro`` command line.

Quick start::

    from repro.sim import PolicySpec, SimEngine, SimulationConfig

    engine = SimEngine()
    config = SimulationConfig(
        benchmark="gcc",
        dcache=PolicySpec("gated-predecode", {"threshold": 100}),
        icache=PolicySpec("gated", {"threshold": 100}),
        l2=PolicySpec("gated", {"threshold": 500}),
        feature_size_nm=70,
    )
    result = engine.run(config)
    print(result.summary())

    # Fan a sweep out over worker processes, persisting results on disk:
    engine = SimEngine(workers=4, store="results/")
    runs = engine.sweep(config)          # all sixteen benchmarks

New precharge policies plug in through the registry — no driver changes::

    from dataclasses import replace
    from repro.core import register_policy

    @register_policy("drowsy")
    def make_drowsy(wake_cycles: int = 2):
        return DrowsyPolicy(wake_cycles=wake_cycles)

    engine.run(replace(config, dcache="drowsy", icache="drowsy"))

Or from a shell::

    python -m repro run --benchmark gcc --dcache gated-predecode:threshold=150
    python -m repro experiment figure8 --json
"""

from .sim import (
    PolicySpec,
    RunResult,
    SimEngine,
    SimulationConfig,
)

__version__ = "2.0.0"

__all__ = [
    "PolicySpec",
    "RunResult",
    "SimEngine",
    "SimulationConfig",
    "__version__",
]
