"""Bitline-discharge energy ledger.

The paper's methodology (Section 3) is two-level: the architectural
simulation produces, for every subarray, the distribution of pulled-up and
isolated (idle) intervals plus the number of precharge-device toggles, and
those are combined with the circuit-level discharge/overhead rates to
obtain energy.  :class:`EnergyLedger` is exactly that combination step.

The precharge-control policies (static pull-up, oracle, on-demand, gated,
resizable) notify the ledger of four kinds of events:

* ``note_precharged_interval(subarray, cycles)`` — the subarray's bitlines
  were pulled up (statically or by the policy) for ``cycles`` cycles,
  paying the full static discharge rate;
* ``note_isolated_interval(subarray, cycles)`` — the bitlines were
  isolated for ``cycles`` cycles, paying only the decaying residual
  discharge;
* ``note_toggle(subarray)`` — the precharge devices were switched
  (isolate + later restore), paying the gate-switching overhead;
* ``note_access(subarray)`` — a read/write access occurred, paying the
  dynamic access energy (used for the "fraction of overall cache energy"
  figures, not for the bitline-discharge ratio itself).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.circuits.subarray_circuit import SubarrayCircuit

__all__ = ["EnergyLedger", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Summary of a run's cache energy, all in joules.

    Attributes:
        precharged_discharge_j: Bitline discharge while pulled up.
        isolated_discharge_j: Residual bitline discharge while isolated.
        toggle_overhead_j: Precharge-device switching overhead.
        dynamic_access_j: Dynamic read/write access energy.
        static_reference_j: Bitline discharge the same run would have paid
            under blind static pull-up (the normalisation baseline).
        precharged_subarray_cycles: Total subarray-cycles spent pulled up.
        total_subarray_cycles: Subarray-cycles available (subarrays x cycles).
    """

    precharged_discharge_j: float
    isolated_discharge_j: float
    toggle_overhead_j: float
    dynamic_access_j: float
    static_reference_j: float
    precharged_subarray_cycles: float
    total_subarray_cycles: float

    @property
    def bitline_discharge_j(self) -> float:
        """Total bitline discharge plus isolation overhead under the policy."""
        return (
            self.precharged_discharge_j
            + self.isolated_discharge_j
            + self.toggle_overhead_j
        )

    @property
    def relative_discharge(self) -> float:
        """Bitline discharge relative to blind static pull-up (Figure 8/9)."""
        if self.static_reference_j <= 0:
            return 0.0
        return self.bitline_discharge_j / self.static_reference_j

    @property
    def discharge_savings(self) -> float:
        """Fraction of the static-pull-up bitline discharge eliminated."""
        return max(0.0, 1.0 - self.relative_discharge)

    @property
    def precharged_fraction(self) -> float:
        """Time-averaged fraction of subarrays kept precharged (Figure 8/10)."""
        if self.total_subarray_cycles <= 0:
            return 0.0
        return min(1.0, self.precharged_subarray_cycles / self.total_subarray_cycles)

    @property
    def total_cache_energy_j(self) -> float:
        """Total cache energy under the policy (discharge + dynamic)."""
        return self.bitline_discharge_j + self.dynamic_access_j

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EnergyBreakdown":
        """Rebuild a breakdown from :meth:`to_dict` output."""
        return cls(**data)

    @property
    def overall_energy_savings(self) -> float:
        """Savings as a fraction of the *whole cache's* static-pull-up energy.

        The paper reports both the bitline-discharge reduction and the
        corresponding overall cache energy reduction (e.g. 83% discharge /
        42% overall for gated precharging on data caches at 70nm).
        """
        baseline = self.static_reference_j + self.dynamic_access_j
        if baseline <= 0:
            return 0.0
        return max(0.0, (baseline - self.total_cache_energy_j) / baseline)


class EnergyLedger:
    """Accumulates per-subarray residency and converts it to energy."""

    def __init__(self, circuit: SubarrayCircuit, n_subarrays: int) -> None:
        if n_subarrays < 1:
            raise ValueError("need at least one subarray")
        self._circuit = circuit
        self._isolated_energy_fn = circuit.isolated_discharge_energy_j
        self._n_subarrays = n_subarrays
        self._precharged_cycles = 0.0
        self._isolated_cycles = 0.0
        self._isolated_energy_j = 0.0
        self._toggles = 0
        self._accesses = 0
        self._finalized_total_cycles: Optional[int] = None

    # ------------------------------------------------------------------
    # Event notifications
    # ------------------------------------------------------------------
    def note_precharged_interval(self, subarray: int, cycles: float) -> None:
        """The subarray spent ``cycles`` cycles with bitlines pulled up."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._precharged_cycles += cycles

    def note_isolated_interval(self, subarray: int, cycles: float) -> None:
        """The subarray spent ``cycles`` cycles isolated (one contiguous interval)."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._isolated_cycles += cycles
        self._isolated_energy_j += self._circuit.isolated_discharge_energy_j(cycles)

    def note_toggle(self, subarray: int) -> None:
        """The subarray's precharge devices were toggled off and later on."""
        self._toggles += 1

    def note_gated_interval(self, subarray: int, interval: int, hold_cycles: int) -> bool:
        """Account one inter-access interval under a hold-then-isolate policy.

        Fuses the ``note_precharged_interval`` / ``note_isolated_interval``
        / ``note_toggle`` sequence every hold-style policy (oracle,
        on-demand, gated) performs per access into a single call on the
        simulation's hottest path.  The arithmetic and its order are
        exactly the unfused sequence's, so accumulated energies match
        bit-for-bit.  Returns ``True`` when the interval ended with the
        subarray isolated (i.e. the precharge devices were toggled).

        The fast path's ``repro.sim.fastpath._FastCache.access`` holds a
        second copy of this arithmetic for the built-in policies; change
        the two together.
        """
        if interval <= hold_cycles:
            if interval > 0:
                self._precharged_cycles += interval
            return False
        if hold_cycles > 0:
            self._precharged_cycles += hold_cycles
        isolated = interval - hold_cycles
        self._isolated_cycles += isolated
        self._isolated_energy_j += self._isolated_energy_fn(isolated)
        self._toggles += 1
        return True

    def note_access(self, subarray: int) -> None:
        """A read/write access touched the subarray."""
        self._accesses += 1

    def note_batch(
        self,
        accesses: int,
        precharged_cycles: float,
        isolated_cycles: float,
        isolated_energy_j: float,
        toggles: int,
    ) -> None:
        """Add sums a caller accumulated itself, in one call.

        The fast-path cache model counts its accesses and performs
        :meth:`note_gated_interval`'s arithmetic for the built-in
        hold-then-isolate policies in its own accumulators, starting
        from this ledger's zeros.  Handed over before anything else
        writes the ledger (``0.0 + x == x``), and before the policy
        closes its open intervals, every float addition happens in the
        unbatched order, so the breakdown is bit-identical.
        """
        if accesses < 0 or toggles < 0:
            raise ValueError("counts must be non-negative")
        self._accesses += accesses
        self._precharged_cycles += precharged_cycles
        self._isolated_cycles += isolated_cycles
        self._isolated_energy_j += isolated_energy_j
        self._toggles += toggles

    # ------------------------------------------------------------------
    @property
    def toggles(self) -> int:
        """Number of isolate/restore toggles recorded."""
        return self._toggles

    @property
    def accesses(self) -> int:
        """Number of accesses recorded."""
        return self._accesses

    def breakdown(self, total_cycles: int) -> EnergyBreakdown:
        """Convert the accumulated residency into an :class:`EnergyBreakdown`.

        Args:
            total_cycles: Length of the simulated run in cycles; sets the
                static-pull-up reference energy.
        """
        if total_cycles <= 0:
            raise ValueError("total_cycles must be positive")
        per_cycle = self._circuit.static_discharge_energy_per_cycle_j
        static_reference = per_cycle * total_cycles * self._n_subarrays
        return EnergyBreakdown(
            precharged_discharge_j=self._precharged_cycles * per_cycle,
            isolated_discharge_j=self._isolated_energy_j,
            toggle_overhead_j=self._toggles * self._circuit.toggle_switching_energy_j,
            dynamic_access_j=self._accesses * self._circuit.read_access_energy_j,
            static_reference_j=static_reference,
            precharged_subarray_cycles=self._precharged_cycles,
            total_subarray_cycles=float(total_cycles) * self._n_subarrays,
        )
