"""Combined cache energy reporting.

Glue between the per-cache :class:`~repro.cache.energy_accounting.EnergyBreakdown`
objects produced by the architectural simulation and the figures the paper
reports: relative bitline discharge (Figures 3, 8, 9), precharged-subarray
fraction (Figures 8, 10) and the overall cache / processor energy savings
(the 46%/41% opportunity of Section 4 and the 42%/36% result of Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.energy_accounting import EnergyBreakdown
from repro.cpu.stats import PipelineStats
from repro.circuits.technology import TechnologyNode

from .wattch import ProcessorEnergyBreakdown, WattchEnergyModel

__all__ = ["CacheEnergyReport", "combine_run_energy"]


@dataclass(frozen=True)
class CacheEnergyReport:
    """Energy summary of one simulated run under one precharge policy.

    Attributes:
        dcache: Energy breakdown of the L1 data cache.
        icache: Energy breakdown of the L1 instruction cache.
        processor: Non-cache processor energy (Wattch-style), or ``None``
            when only cache-level reporting was requested.
        l2: Energy breakdown of the unified L2 cache, or ``None`` for
            reports produced before the L2 became policy-controlled
            (old stored results round-trip with ``l2=None``).
    """

    dcache: EnergyBreakdown
    icache: EnergyBreakdown
    processor: Optional[ProcessorEnergyBreakdown] = None
    l2: Optional[EnergyBreakdown] = None

    # ------------------------------------------------------------------
    @property
    def dcache_relative_discharge(self) -> float:
        """L1D bitline discharge relative to blind static pull-up."""
        return self.dcache.relative_discharge

    @property
    def icache_relative_discharge(self) -> float:
        """L1I bitline discharge relative to blind static pull-up."""
        return self.icache.relative_discharge

    @property
    def dcache_discharge_savings(self) -> float:
        """Fraction of L1D bitline discharge eliminated."""
        return self.dcache.discharge_savings

    @property
    def icache_discharge_savings(self) -> float:
        """Fraction of L1I bitline discharge eliminated."""
        return self.icache.discharge_savings

    @property
    def dcache_overall_savings(self) -> float:
        """L1D total-energy savings relative to the static-pull-up cache."""
        return self.dcache.overall_energy_savings

    @property
    def icache_overall_savings(self) -> float:
        """L1I total-energy savings relative to the static-pull-up cache."""
        return self.icache.overall_energy_savings

    @property
    def l2_relative_discharge(self) -> float:
        """L2 bitline discharge relative to blind static pull-up.

        Returns ``1.0`` (the static baseline) when no L2 breakdown was
        recorded, so ratios stay meaningful over legacy reports.
        """
        if self.l2 is None:
            return 1.0
        return self.l2.relative_discharge

    @property
    def l2_overall_savings(self) -> float:
        """L2 total-energy savings relative to the static-pull-up cache."""
        if self.l2 is None:
            return 0.0
        return self.l2.overall_energy_savings

    @property
    def total_cache_energy_j(self) -> float:
        """Total L1 cache energy (both caches) under the policy."""
        return self.dcache.total_cache_energy_j + self.icache.total_cache_energy_j

    @property
    def total_hierarchy_energy_j(self) -> float:
        """Total cache energy across every level (L1s plus the L2)."""
        total = self.total_cache_energy_j
        if self.l2 is not None:
            total += self.l2.total_cache_energy_j
        return total

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the headline metrics (for reports/tests)."""
        summary = {
            "dcache_relative_discharge": self.dcache_relative_discharge,
            "icache_relative_discharge": self.icache_relative_discharge,
            "dcache_precharged_fraction": self.dcache.precharged_fraction,
            "icache_precharged_fraction": self.icache.precharged_fraction,
            "dcache_overall_savings": self.dcache_overall_savings,
            "icache_overall_savings": self.icache_overall_savings,
        }
        if self.l2 is not None:
            summary["l2_relative_discharge"] = self.l2_relative_discharge
            summary["l2_precharged_fraction"] = self.l2.precharged_fraction
            summary["l2_overall_savings"] = self.l2_overall_savings
        return summary

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (round-trips via :meth:`from_dict`)."""
        return {
            "dcache": self.dcache.to_dict(),
            "icache": self.icache.to_dict(),
            "processor": None if self.processor is None else self.processor.to_dict(),
            "l2": None if self.l2 is None else self.l2.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CacheEnergyReport":
        """Rebuild a report from :meth:`to_dict` output.

        Payloads written before the L2 gained a breakdown (no ``"l2"``
        key) load with ``l2=None``.
        """
        processor = data.get("processor")
        l2 = data.get("l2")
        return cls(
            dcache=EnergyBreakdown.from_dict(data["dcache"]),
            icache=EnergyBreakdown.from_dict(data["icache"]),
            processor=None
            if processor is None
            else ProcessorEnergyBreakdown.from_dict(processor),
            l2=None if l2 is None else EnergyBreakdown.from_dict(l2),
        )


def combine_run_energy(
    breakdowns: Dict[str, EnergyBreakdown],
    tech: TechnologyNode,
    pipeline_stats: Optional[PipelineStats] = None,
) -> CacheEnergyReport:
    """Build a :class:`CacheEnergyReport` from a finished run.

    Args:
        breakdowns: The dictionary returned by
            :meth:`repro.cache.MemoryHierarchy.finalize` (keys ``"L1D"``,
            ``"L1I"`` and — since the L2 became policy-controlled —
            ``"L2"``; an absent ``"L2"`` yields a report without one).
        tech: Technology node the run was simulated in.
        pipeline_stats: Optional pipeline statistics; when given, the
            Wattch-style processor energy is attached too.
    """
    processor = None
    if pipeline_stats is not None:
        processor = WattchEnergyModel(tech).breakdown(pipeline_stats)
    return CacheEnergyReport(
        dcache=breakdowns["L1D"],
        icache=breakdowns["L1I"],
        processor=processor,
        l2=breakdowns.get("L2"),
    )
