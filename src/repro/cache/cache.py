"""Set-associative cache with subarray-granularity precharge control.

This is the behavioural cache model the paper's L1 instruction and data
caches — and, since the L2 became policy-controlled, the unified L2 —
are simulated with.  Each access:

1. maps the address to a set and to the subarray holding that set;
2. consults the attached *precharge policy* — the policy answers with the
   extra latency the access pays if the subarray's bitlines were isolated
   (Table 3 shows this is one cycle for all studied technologies) and
   updates its own bookkeeping plus the energy ledger;
3. performs the tag lookup, allocating on a miss (LRU by default) and
   forwarding the miss to the next level / memory model;
4. records the access in the subarray tracker (for the locality analyses)
   and in the energy ledger (dynamic access energy).

The cache never stores data values — only tags and metadata — because the
paper's results depend only on hit/miss behaviour, timing and subarray
residency.

This class is the *reference* cache model.  The batched fast path
(:class:`repro.sim.fastpath._FastCache`) re-implements the tag/LRU/MSHR
logic of :meth:`SetAssociativeCache.access` over flat arrays — for the
L1s and the L2 alike — together with the bookkeeping of the static,
oracle, on-demand and gated policies, and must stay bit-identical —
change access semantics here and there together (the differential
suites in ``tests/sim/test_fastpath_differential.py`` and
``tests/property/test_fastcache_differential.py`` will catch a
mismatch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

from repro.circuits.cacti import CacheOrganization

from .block import CacheLine
from .energy_accounting import EnergyBreakdown, EnergyLedger
from .mshr import MSHRFile
from .replacement import LRUReplacement, ReplacementPolicy
from .subarray import SubarrayTracker

__all__ = ["AccessResult", "SetAssociativeCache", "PrechargeController", "NextLevel"]


@runtime_checkable
class PrechargeController(Protocol):
    """What a precharge-control policy must provide to plug into a cache."""

    def attach(self, organization: CacheOrganization, ledger: EnergyLedger) -> None:
        """Bind the policy to a cache organisation and its energy ledger."""

    def access(
        self, subarray: int, cycle: int, base_address: Optional[int] = None,
        address: Optional[int] = None,
    ) -> int:
        """Notify an access; return the extra latency (cycles) it pays."""

    def note_outcome(self, hit: bool, cycle: int) -> None:
        """Notify the hit/miss outcome of the most recent access."""

    def remap_set(self, set_index: int, n_sets: int) -> int:
        """Optionally remap the set index (used by resizable caches)."""

    def finalize(self, end_cycle: int) -> None:
        """Close any open residency intervals at the end of the run."""

    def precharged_subarrays(self, cycle: int) -> int:
        """Number of subarrays currently precharged (for inspection)."""


@runtime_checkable
class NextLevel(Protocol):
    """Anything that can service a miss: an L2 cache or a memory model."""

    def access(self, address: int, cycle: int, write: bool = False) -> "AccessResult":
        """Service the request; only ``latency`` and ``hit`` are consumed."""


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access.

    Attributes:
        hit: Whether the access hit.
        latency: Total latency in cycles, including the base pipelined
            access latency, any precharge penalty, and miss service time.
        subarray: Index of the subarray the access mapped to.
        precharge_penalty: Extra cycles paid because the subarray's
            bitlines had been isolated.
        set_index: The (possibly remapped) set index used.
        writeback: Whether a dirty line was evicted.
    """

    hit: bool
    latency: int
    subarray: int
    precharge_penalty: int
    set_index: int
    writeback: bool = False


class _StaticController:
    """Fallback controller: blind static pull-up (the conventional baseline)."""

    def __init__(self) -> None:
        self._org: Optional[CacheOrganization] = None
        self._ledger: Optional[EnergyLedger] = None

    def attach(self, organization: CacheOrganization, ledger: EnergyLedger) -> None:
        self._org = organization
        self._ledger = ledger

    def access(self, subarray, cycle, base_address=None, address=None) -> int:
        return 0

    def note_outcome(self, hit: bool, cycle: int) -> None:
        return None

    def remap_set(self, set_index: int, n_sets: int) -> int:
        return set_index

    def finalize(self, end_cycle: int) -> None:
        if self._org is None or self._ledger is None:
            return
        for subarray in range(self._org.n_subarrays):
            self._ledger.note_precharged_interval(subarray, end_cycle)

    def precharged_subarrays(self, cycle: int) -> int:
        return self._org.n_subarrays if self._org is not None else 0


class SetAssociativeCache:
    """A set-associative cache with per-subarray precharge control."""

    def __init__(
        self,
        organization: CacheOrganization,
        name: str = "cache",
        controller: Optional[PrechargeController] = None,
        replacement: Optional[ReplacementPolicy] = None,
        next_level: Optional[NextLevel] = None,
        miss_latency: int = 12,
        mshr_entries: int = 8,
        base_latency: Optional[int] = None,
    ) -> None:
        """Create a cache.

        Args:
            organization: Physical organisation (capacity, ways, subarrays).
            name: Human-readable name used in reports ("L1D", "L1I", ...).
            controller: Precharge policy; defaults to blind static pull-up.
            replacement: Replacement policy; defaults to LRU.
            next_level: Where misses are serviced; if ``None``, misses pay
                a flat ``miss_latency``.
            miss_latency: Flat miss service latency used when there is no
                ``next_level``.
            mshr_entries: Number of outstanding misses supported.
            base_latency: Pipelined hit latency in cycles; defaults to the
                latency derived from the circuit model, but Table 2's
                configured values (2 for L1I, 3 for L1D, 12 for L2) can be
                imposed here.
        """
        self.organization = organization
        self.name = name
        self.base_latency = (
            base_latency
            if base_latency is not None
            else organization.access_latency_cycles
        )
        self.controller: PrechargeController = controller or _StaticController()
        self.replacement = replacement or LRUReplacement()
        self.next_level = next_level
        self.miss_latency = miss_latency
        self.mshrs = MSHRFile(mshr_entries)

        self._sets = [
            [CacheLine() for _ in range(organization.associativity)]
            for _ in range(organization.n_sets)
        ]
        self.tracker = SubarrayTracker(organization.n_subarrays)
        self.ledger = EnergyLedger(organization.subarray, organization.n_subarrays)
        self.controller.attach(organization, self.ledger)

        # Statistics
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.precharge_penalties = 0
        self.penalty_cycles = 0
        self._last_cycle = 0

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """Address with the intra-line offset stripped."""
        return address >> self.organization.offset_bits

    def set_and_tag(self, address: int) -> tuple:
        """(set index before remapping, tag) for an address."""
        line = self.line_address(address)
        set_index = line % self.organization.n_sets
        tag = line // self.organization.n_sets
        return set_index, tag

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------
    def access(
        self,
        address: int,
        cycle: int,
        write: bool = False,
        base_address: Optional[int] = None,
    ) -> AccessResult:
        """Perform one access and return its outcome.

        Args:
            address: Full byte address.
            cycle: Cycle at which the access starts.
            write: Whether this is a store (marks the line dirty).
            base_address: For loads/stores that use displacement
                addressing, the base-register value — made available to
                policies that implement predecoding (Section 6.3).
        """
        if cycle < self._last_cycle:
            cycle = self._last_cycle
        self._last_cycle = cycle
        self.accesses += 1

        raw_set, tag = self.set_and_tag(address)
        set_index = self.controller.remap_set(raw_set, self.organization.n_sets)
        subarray = self.organization.subarray_for_set(set_index)

        self.tracker.record_access(subarray, cycle)
        self.ledger.note_access(subarray)

        penalty = self.controller.access(
            subarray, cycle, base_address=base_address, address=address
        )
        if penalty > 0:
            self.precharge_penalties += 1
            self.penalty_cycles += penalty

        ways = self._sets[set_index]
        hit_way = None
        for way, line in enumerate(ways):
            if line.matches(tag):
                hit_way = way
                break

        latency = self.base_latency + penalty
        writeback = False
        if hit_way is not None:
            ways[hit_way].touch(cycle, write=write)
            self.hits += 1
            hit = True
        else:
            self.misses += 1
            hit = False
            latency += self._service_miss(address, cycle)
            victim = self.replacement.select_victim(ways)
            if ways[victim].valid and ways[victim].dirty:
                writeback = True
                self.writebacks += 1
                if self.next_level is not None:
                    # Drain the dirty victim to the next level.  The write
                    # happens off the critical path (a writeback buffer),
                    # so its latency is not added to this access — but it
                    # does update the next level's contents, MSHRs and
                    # precharge-policy state.  The victim's recorded line
                    # address is used (not tag * n_sets + set_index): the
                    # set index may have been remapped by the policy, in
                    # which case the tag cannot reconstruct the address.
                    victim_line = ways[victim].line_address
                    if victim_line is None:
                        victim_line = (
                            ways[victim].tag * self.organization.n_sets + raw_set
                        )
                    self.next_level.access(
                        victim_line << self.organization.offset_bits,
                        cycle,
                        write=True,
                    )
            ways[victim].fill(tag, cycle, line_address=self.line_address(address))
            ways[victim].touch(cycle, write=write)

        self.controller.note_outcome(hit, cycle)
        return AccessResult(
            hit=hit,
            latency=latency,
            subarray=subarray,
            precharge_penalty=penalty,
            set_index=set_index,
            writeback=writeback,
        )

    def _service_miss(self, address: int, cycle: int) -> int:
        """Latency added by servicing a miss (next level or flat)."""
        line_addr = self.line_address(address)
        existing = self.mshrs.outstanding(line_addr)
        if existing is not None:
            # Secondary miss: merge into the outstanding fill and wait.
            self.mshrs.allocate(line_addr, existing.ready_cycle)
            return max(1, existing.ready_cycle - cycle)

        if self.next_level is not None:
            below = self.next_level.access(address, cycle)
            service = below.latency
        else:
            service = self.miss_latency

        self.mshrs.retire_completed(cycle)
        entry = self.mshrs.allocate(line_addr, ready_cycle=cycle + service)
        if entry is None:
            earliest = self.mshrs.earliest_ready_cycle()
            stall = max(1, (earliest - cycle)) if earliest is not None else 1
            service += stall
            self.mshrs.retire_completed(cycle + stall)
            self.mshrs.allocate(line_addr, ready_cycle=cycle + service)
        return service

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def miss_ratio(self) -> float:
        """Misses per access."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def finalize(self, end_cycle: int) -> EnergyBreakdown:
        """Close the run at ``end_cycle`` and return the energy breakdown."""
        self.controller.finalize(end_cycle)
        return self.ledger.breakdown(max(1, end_cycle))
