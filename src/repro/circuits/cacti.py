"""CACTI-like cache organisation model.

The paper uses a modified CACTI 3.2 to derive cache access latencies and
per-stage delays for its 32KB 2-way L1 caches.  This module provides the
equivalent *organisation* layer: given a cache's capacity, associativity,
line size and subarray size it derives the subarray count, the per-access
timing budget (decode, bitline, sense, output) and the access latency in
cycles, and exposes the per-subarray circuit characterisation.

Only the quantities the reproduction needs are modelled; CACTI's area and
aspect-ratio optimisation loops are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log2

from .decoder import DecoderTiming, decoder_timing
from .sense_amp import SenseAmplifier
from .subarray_circuit import SubarrayCircuit
from .technology import TechnologyNode, get_technology

__all__ = ["CacheOrganization", "CacheTiming", "cache_organization"]

#: Output-driver latency in FO4 units (drives the read data to the port).
_OUTPUT_DRIVE_FO4 = 2.0

#: Tag comparison latency in FO4 units (overlapped with data read in the
#: paper's set-associative caches).
_TAG_COMPARE_FO4 = 3.0


@dataclass(frozen=True)
class CacheTiming:
    """Per-stage access timing of one cache organisation (seconds)."""

    decode_s: float
    bitline_sense_s: float
    output_drive_s: float

    @property
    def total_s(self) -> float:
        """End-to-end access time in seconds."""
        return self.decode_s + self.bitline_sense_s + self.output_drive_s


@dataclass(frozen=True)
class CacheOrganization:
    """Physical organisation of a cache in a given technology.

    Attributes:
        tech: Technology node.
        capacity_bytes: Total cache capacity.
        line_bytes: Cache line size.
        associativity: Set associativity.
        subarray_bytes: Capacity of one subarray (the precharge-control
            granularity).
        ports: Number of read/write ports.
    """

    tech: TechnologyNode
    capacity_bytes: int
    line_bytes: int
    associativity: int
    subarray_bytes: int
    ports: int = 1

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("capacity and line size must be positive")
        if self.capacity_bytes % self.line_bytes:
            raise ValueError("capacity must be a multiple of the line size")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.subarray_bytes < self.line_bytes:
            raise ValueError("a subarray must hold at least one line")
        if self.capacity_bytes % self.subarray_bytes:
            raise ValueError("capacity must be a multiple of the subarray size")
        n_lines = self.capacity_bytes // self.line_bytes
        if n_lines % self.associativity:
            raise ValueError("line count must be a multiple of associativity")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def n_lines(self) -> int:
        """Total number of cache lines."""
        return self.capacity_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        """Number of cache sets."""
        return self.n_lines // self.associativity

    @property
    def n_subarrays(self) -> int:
        """Number of subarrays (precharge-control units)."""
        return self.capacity_bytes // self.subarray_bytes

    @property
    def lines_per_subarray(self) -> int:
        """Cache lines stored in each subarray."""
        return self.subarray_bytes // self.line_bytes

    @property
    def sets_per_subarray(self) -> int:
        """Number of sets mapped to one subarray.

        Subarrays are interleaved by set index: consecutive sets map to the
        same subarray until it is full, then move to the next.  With the
        paper's 32KB 2-way / 1KB-subarray configuration, both ways of a set
        live in the same subarray, so one access touches one subarray.
        """
        return max(1, self.lines_per_subarray // self.associativity)

    @property
    def offset_bits(self) -> int:
        """Number of address bits selecting the byte within a line."""
        return int(log2(self.line_bytes))

    def subarray_for_set(self, set_index: int) -> int:
        """Subarray index holding ``set_index``."""
        if not 0 <= set_index < self.n_sets:
            raise ValueError(f"set index {set_index} out of range")
        return set_index // self.sets_per_subarray

    def subarray_for_address(self, address: int) -> int:
        """Subarray index accessed by a byte address."""
        set_index = (address >> self.offset_bits) % self.n_sets
        return self.subarray_for_set(set_index)

    # ------------------------------------------------------------------
    # Circuit views
    # ------------------------------------------------------------------
    @property
    def subarray(self) -> SubarrayCircuit:
        """Circuit characterisation of one subarray."""
        return SubarrayCircuit(
            tech=self.tech,
            subarray_bytes=self.subarray_bytes,
            line_bytes=self.line_bytes,
            ports=self.ports,
            n_subarrays=self.n_subarrays,
        )

    @property
    def decoder(self) -> DecoderTiming:
        """Decoder timing for this organisation."""
        return decoder_timing(
            tech=self.tech,
            n_subarrays=self.n_subarrays,
            rows_per_subarray=self.lines_per_subarray,
        )

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @property
    def timing(self) -> CacheTiming:
        """Per-stage access timing with statically precharged bitlines."""
        fo4_s = self.tech.fo4_delay_ps * 1e-12
        sense = SenseAmplifier(tech=self.tech)
        bitline_sense = self.subarray.bitline.active_read_restore_s + sense.delay_s
        return CacheTiming(
            decode_s=self.decoder.total_decode_s,
            bitline_sense_s=bitline_sense,
            output_drive_s=(_OUTPUT_DRIVE_FO4 + _TAG_COMPARE_FO4) * fo4_s,
        )

    @property
    def access_latency_cycles(self) -> int:
        """Pipelined access latency in clock cycles (statically precharged)."""
        return max(1, int(ceil(self.timing.total_s / self.tech.cycle_time_s)))

    @property
    def isolated_access_penalty_cycles(self) -> int:
        """Extra cycles when the accessed subarray's bitlines were isolated."""
        return self.subarray.pull_up_cycles

    # ------------------------------------------------------------------
    # Energy shortcuts used by the architectural accounting
    # ------------------------------------------------------------------
    @property
    def static_discharge_energy_per_cycle_j(self) -> float:
        """Bitline discharge (J/cycle) of the WHOLE cache under static pull-up."""
        return (
            self.n_subarrays
            * self.subarray.static_discharge_energy_per_cycle_j
        )

    @property
    def read_access_energy_j(self) -> float:
        """Dynamic energy of one read access (one subarray's worth)."""
        return self.subarray.read_access_energy_j


@lru_cache(maxsize=None)
def cache_organization(
    feature_size_nm: int,
    capacity_bytes: int,
    line_bytes: int,
    associativity: int,
    subarray_bytes: int,
    ports: int = 1,
) -> CacheOrganization:
    """Cached constructor for :class:`CacheOrganization`."""
    return CacheOrganization(
        tech=get_technology(feature_size_nm),
        capacity_bytes=capacity_bytes,
        line_bytes=line_bytes,
        associativity=associativity,
        subarray_bytes=subarray_bytes,
        ports=ports,
    )
