"""On-demand precharging via partial address decode (Section 5).

All bitlines are normally isolated.  On an access, the first two decoder
stages identify the accessed subarray and its bitlines are pulled up.
Identification is perfectly accurate, but Table 3 shows the worst-case
pull-up never fits in the remaining decode time, so *every* access pays
the pull-up penalty (one cycle for the studied technologies).  The paper
measures the resulting slowdown at ~9% for data caches and ~7% for
instruction caches, which is why it rejects on-demand precharging for L1.

The fast path does not call this class per access:
``repro.sim.fastpath._FastCache`` performs the same bookkeeping itself
(see ``repro.sim.fastpath._compiled_policy``), so a change to
:meth:`OnDemandPrechargePolicy._on_access` must be made there too.
"""

from __future__ import annotations

from typing import Optional

from .policies import BasePrechargePolicy
from .registry import register_policy

__all__ = ["OnDemandPrechargePolicy"]


class OnDemandPrechargePolicy(BasePrechargePolicy):
    """Precharge the accessed subarray on demand, paying the pull-up delay."""

    def __init__(self, hold_cycles: int = 1) -> None:
        """Create an on-demand policy.

        Args:
            hold_cycles: Cycles the subarray stays precharged per access.
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
        return self._penalty_cycles_per_miss

    def _on_finalize_subarray(
        self, subarray: int, remaining_cycles: int, never_accessed: bool
    ) -> None:
        self._account_gated_interval(subarray, remaining_cycles, self.hold_cycles)

    def _is_precharged(self, subarray: int, cycle: int) -> bool:
        last = self._last_access[subarray]
        if last is None:
            return False
        return (cycle - last) < self.hold_cycles


@register_policy(
    "on-demand",
    aliases=("ondemand", "on_demand"),
    scheduler_extra_latency=1,
    description="Partial-address-decode precharging; +1 cycle on every access (Section 5)",
)
def _make_on_demand(hold_cycles: int = 1) -> OnDemandPrechargePolicy:
    return OnDemandPrechargePolicy(hold_cycles=hold_cycles)
