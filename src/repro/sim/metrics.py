"""Run results and derived metrics.

:class:`RunResult` is fully serialisable: :meth:`RunResult.to_dict` /
:meth:`RunResult.from_dict` round-trip exactly through JSON, which backs
the on-disk :class:`~repro.sim.store.ResultStore`, the ``--json`` output
of the ``repro`` CLI, and cross-process transport in parallel sweeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from repro.cpu.stats import PipelineStats
from repro.energy.cache_energy import CacheEnergyReport

__all__ = ["RunResult", "slowdown", "geometric_mean", "arithmetic_mean"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated run.

    Attributes:
        benchmark: Benchmark name.
        dcache_policy: Data-cache precharge policy name.
        icache_policy: Instruction-cache precharge policy name.
        feature_size_nm: Technology node.
        subarray_bytes: Precharge-control granularity.
        cycles: Execution time in cycles.
        pipeline: Full pipeline statistics.
        energy: Cache (and processor) energy report.
        dcache_miss_ratio: L1D misses per access.
        icache_miss_ratio: L1I misses per access.
        dcache_gaps: Subarray inter-access gaps observed in the L1D (for
            locality analyses and threshold selection).
        icache_gaps: Subarray inter-access gaps observed in the L1I.
        dcache_accesses: Number of L1D accesses.
        icache_accesses: Number of L1I accesses.
        dcache_delayed_accesses: L1D accesses that paid a precharge penalty.
        icache_delayed_accesses: L1I accesses that paid a precharge penalty.
        l2_policy: Unified-L2 precharge policy name (``"static"`` — the
            conventional cache — on results recorded before the L2
            became policy-controlled).
        l2_miss_ratio: L2 misses per access.
        l2_accesses: Number of L2 accesses (L1 fills plus writebacks).
        l2_writebacks: Dirty L2 lines evicted (written back to memory).
        l2_delayed_accesses: L2 accesses that paid a precharge penalty.
        l2_gaps: Subarray inter-access gaps observed in the L2.
    """

    benchmark: str
    dcache_policy: str
    icache_policy: str
    feature_size_nm: int
    subarray_bytes: int
    cycles: int
    pipeline: PipelineStats
    energy: CacheEnergyReport
    dcache_miss_ratio: float
    icache_miss_ratio: float
    dcache_gaps: List[int]
    icache_gaps: List[int]
    dcache_accesses: int
    icache_accesses: int
    dcache_delayed_accesses: int
    icache_delayed_accesses: int
    l2_policy: str = "static"
    l2_miss_ratio: float = 0.0
    l2_accesses: int = 0
    l2_writebacks: int = 0
    l2_delayed_accesses: int = 0
    l2_gaps: List[int] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.pipeline.ipc

    def summary(self) -> str:
        """One-line human-readable summary.

        The L2 column only appears when the run used a non-static L2
        policy, keeping the paper-configuration output unchanged.
        """
        text = (
            f"{self.benchmark:9s} D={self.dcache_policy:15s} I={self.icache_policy:15s} "
            f"cycles={self.cycles:8d} IPC={self.ipc:4.2f} "
            f"relD(D)={self.energy.dcache_relative_discharge:5.3f} "
            f"relD(I)={self.energy.icache_relative_discharge:5.3f}"
        )
        if self.l2_policy != "static":
            text += (
                f" L2={self.l2_policy:15s} "
                f"relD(L2)={self.energy.l2_relative_discharge:5.3f}"
            )
        return text

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (round-trips via :meth:`from_dict`)."""
        return {
            "benchmark": self.benchmark,
            "dcache_policy": self.dcache_policy,
            "icache_policy": self.icache_policy,
            "feature_size_nm": self.feature_size_nm,
            "subarray_bytes": self.subarray_bytes,
            "cycles": self.cycles,
            "pipeline": self.pipeline.to_dict(),
            "energy": self.energy.to_dict(),
            "dcache_miss_ratio": self.dcache_miss_ratio,
            "icache_miss_ratio": self.icache_miss_ratio,
            "dcache_gaps": list(self.dcache_gaps),
            "icache_gaps": list(self.icache_gaps),
            "dcache_accesses": self.dcache_accesses,
            "icache_accesses": self.icache_accesses,
            "dcache_delayed_accesses": self.dcache_delayed_accesses,
            "icache_delayed_accesses": self.icache_delayed_accesses,
            "l2_policy": self.l2_policy,
            "l2_miss_ratio": self.l2_miss_ratio,
            "l2_accesses": self.l2_accesses,
            "l2_writebacks": self.l2_writebacks,
            "l2_delayed_accesses": self.l2_delayed_accesses,
            "l2_gaps": list(self.l2_gaps),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output.

        Payloads written before the L2 gained per-level reporting (no
        ``l2_*`` keys) load with the dataclass defaults, so old result
        stores and archived ``--json`` output stay readable.
        """
        fields = dict(data)
        fields["pipeline"] = PipelineStats.from_dict(fields["pipeline"])
        fields["energy"] = CacheEnergyReport.from_dict(fields["energy"])
        fields["dcache_gaps"] = list(fields["dcache_gaps"])
        fields["icache_gaps"] = list(fields["icache_gaps"])
        if "l2_gaps" in fields:
            fields["l2_gaps"] = list(fields["l2_gaps"])
        return cls(**fields)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Deserialise from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def slowdown(result: RunResult, baseline: RunResult) -> float:
    """Execution-time increase of ``result`` relative to ``baseline``.

    Raises:
        ValueError: when the runs are not comparable (different benchmark
            or instruction counts).
    """
    if result.benchmark != baseline.benchmark:
        raise ValueError("slowdown requires runs of the same benchmark")
    if baseline.cycles <= 0:
        raise ValueError("baseline run has no cycles")
    return result.cycles / baseline.cycles - 1.0


def arithmetic_mean(values) -> float:
    """Plain average (the paper's figures report arithmetic means)."""
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sequence")
    return sum(values) / len(values)


def geometric_mean(values) -> float:
    """Geometric mean (used for speedup-style aggregates)."""
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= value
    return product ** (1.0 / len(values))
