"""Oracle precharging: the potential study of Section 4.

On every access an oracle identifies the accessed subarray with *no* delay
and precharges only that subarray; once the access completes the bitlines
are isolated again.  Because identification is free and perfectly
accurate, no access pays a latency penalty — the oracle measures the
maximum discharge reduction bitline isolation can deliver.

The residual discharge the oracle cannot remove comes from two places
(Section 4): bitlines re-accessed soon after isolation have not decayed
far, and every access toggles the precharge devices (negligible at 70nm,
dominant at 180nm).

The fast path does not call this class per access:
``repro.sim.fastpath._FastCache`` performs the same bookkeeping itself
(see ``repro.sim.fastpath._compiled_policy``), so a change to
:meth:`OraclePrechargePolicy._on_access` must be made there too.
"""

from __future__ import annotations

from typing import Optional

from .policies import BasePrechargePolicy
from .registry import register_policy

__all__ = ["OraclePrechargePolicy"]


class OraclePrechargePolicy(BasePrechargePolicy):
    """Precharge exactly the accessed subarray, exactly when needed."""

    def __init__(self, hold_cycles: int = 1) -> None:
        """Create an oracle policy.

        Args:
            hold_cycles: How many cycles the accessed subarray stays
                precharged around each access (the access itself).
        """
        super().__init__()
        if hold_cycles < 1:
            raise ValueError("hold_cycles must be at least 1")
        self.hold_cycles = hold_cycles

    def _on_access(
        self,
        subarray: int,
        cycle: int,
        gap: Optional[int],
        base_address: Optional[int] = None,
        address: Optional[int] = None,
    ) -> int:
        interval = gap if gap is not None else cycle
        ledger = self.ledger
        assert ledger is not None
        # Fused accounting call (same arithmetic and order as the
        # note_precharged/note_isolated/note_toggle sequence).
        if ledger.note_gated_interval(subarray, interval, self.hold_cycles):
            self.stats.toggles += 1
        return 0

    def _on_finalize_subarray(
        self, subarray: int, remaining_cycles: int, never_accessed: bool
    ) -> None:
        self._account_gated_interval(subarray, remaining_cycles, self.hold_cycles)

    def _is_precharged(self, subarray: int, cycle: int) -> bool:
        last = self._last_access[subarray]
        if last is None:
            return cycle < self.hold_cycles
        return (cycle - last) < self.hold_cycles


@register_policy("oracle", description="Perfect zero-delay subarray identification (Section 4)")
def _make_oracle(hold_cycles: int = 1) -> OraclePrechargePolicy:
    return OraclePrechargePolicy(hold_cycles=hold_cycles)
