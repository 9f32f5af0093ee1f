"""Blind static pull-up: the conventional high-performance baseline.

Every subarray's bitlines are statically connected to the supply at all
times (Section 2).  No access ever pays a precharge penalty, and the
bitline discharge of every subarray accrues on every cycle — this is the
normalisation baseline for all the paper's relative-discharge figures.

The fast path does not call this class per access:
``repro.sim.fastpath._FastCache`` performs the same bookkeeping itself
(see ``repro.sim.fastpath._compiled_policy``), so a change to
:meth:`StaticPullUpPolicy._on_access` must be made there too.
"""

from __future__ import annotations

from typing import Optional

from .policies import BasePrechargePolicy
from .registry import register_policy

__all__ = ["StaticPullUpPolicy"]


class StaticPullUpPolicy(BasePrechargePolicy):
    """Keep every subarray precharged for the entire run."""

    def _on_access(
        self,
        subarray: int,
        cycle: int,
        gap: Optional[int],
        base_address: Optional[int] = None,
        address: Optional[int] = None,
    ) -> int:
        assert self.ledger is not None
        if gap is not None and gap > 0:
            self.ledger.note_precharged_interval(subarray, gap)
        return 0

    def _on_finalize_subarray(
        self, subarray: int, remaining_cycles: int, never_accessed: bool
    ) -> None:
        assert self.ledger is not None
        if remaining_cycles > 0:
            self.ledger.note_precharged_interval(subarray, remaining_cycles)
        if never_accessed:
            return

    def _is_precharged(self, subarray: int, cycle: int) -> bool:
        return True


@register_policy("static", description="Conventional blind static pull-up baseline")
def _make_static() -> StaticPullUpPolicy:
    return StaticPullUpPolicy()
