"""Gated precharging: the paper's proposed technique (Section 6).

Each subarray carries a decay counter (Figure 7) that is reset on an
access and compared against a threshold every cycle.  While the counter is
below the threshold the subarray is *hot* and its bitlines stay
precharged; once it exceeds the threshold the bitlines are isolated.  The
next access to an isolated subarray pays the bitline pull-up penalty
(one cycle, Table 3) — a *misprediction* — unless, for data caches,
predecoding identified the subarray early from the load/store base
register and it was re-precharged in time.

Gated precharging therefore exploits subarray reference locality: most
accesses fall on a small set of recently used subarrays (Figures 5 and 6),
so keeping just those precharged captures nearly all of the oracle's
potential savings while delaying almost no accesses.

The fast path does not call this class per access:
``repro.sim.fastpath._FastCache`` performs the same bookkeeping itself
(see ``repro.sim.fastpath._compiled_policy``), so a change to
:meth:`GatedPrechargePolicy._on_access` must be made there too.
"""

from __future__ import annotations

from typing import Optional

from .policies import BasePrechargePolicy
from .registry import register_policy
from .predecode import Predecoder

__all__ = ["GatedPrechargePolicy", "DEFAULT_THRESHOLD"]

#: The constant threshold the paper uses as its across-the-board reference
#: (Section 6.4: "a constant threshold (100)").
DEFAULT_THRESHOLD = 100


class GatedPrechargePolicy(BasePrechargePolicy):
    """Keep recently accessed (hot) subarrays precharged; isolate the rest."""

    def __init__(
        self,
        threshold: int = DEFAULT_THRESHOLD,
        use_predecode: bool = False,
        predecode_lead_cycles: int = 2,
    ) -> None:
        """Create a gated-precharging policy.

        Args:
            threshold: Decay-counter threshold in cycles.  A subarray is
                isolated once it has gone ``threshold`` cycles without an
                access.  Smaller thresholds isolate more aggressively but
                mispredict more.
            use_predecode: Enable the Section 6.3 predecoding heuristic
                (meaningful for data caches, where the base-register value
                is available early).
            predecode_lead_cycles: How many cycles before the effective
                address the base register is available; a correct
                prediction re-precharges the subarray this early, hiding
                the pull-up.
        """
        super().__init__()
        if threshold < 1:
            raise ValueError("threshold must be at least one cycle")
        if predecode_lead_cycles < 1:
            raise ValueError("predecode_lead_cycles must be at least 1")
        self.threshold = threshold
        self.use_predecode = use_predecode
        self.predecode_lead_cycles = predecode_lead_cycles
        self.predecoder: Optional[Predecoder] = None

    # ------------------------------------------------------------------
    def _on_attach(self) -> None:
        assert self.organization is not None
        if self.use_predecode:
            self.predecoder = Predecoder(self.organization)
        else:
            self.predecoder = None

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
        # note_gated_interval fuses the precharged/isolated/toggle
        # accounting (same arithmetic, same order) for this hot path.
        if not ledger.note_gated_interval(subarray, interval, self.threshold):
            return 0
        self.stats.toggles += 1

        # The subarray had been isolated: normally the access is delayed by
        # the pull-up.  With predecoding, a correct early identification
        # re-precharges it in time and hides the delay.
        if self.predecoder is not None and base_address is not None:
            self.stats.predecode_attempts += 1
            if self.predecoder.predicts_correctly(base_address, subarray):
                self.stats.predecode_hits += 1
                return 0
        return self.penalty_cycles_per_delayed_access

    def _on_finalize_subarray(
        self, subarray: int, remaining_cycles: int, never_accessed: bool
    ) -> None:
        self._account_gated_interval(subarray, remaining_cycles, self.threshold)

    def _is_precharged(self, subarray: int, cycle: int) -> bool:
        """The Figure 7 decay counter, evaluated lazily from the last access."""
        last = self._last_access[subarray]
        reference = 0 if last is None else last
        return (cycle - reference) < self.threshold

    @property
    def misprediction_rate(self) -> float:
        """Fraction of accesses that found their subarray isolated."""
        if self.stats.accesses == 0:
            return 0.0
        return self.stats.delayed_accesses / self.stats.accesses


@register_policy(
    "gated",
    aliases=("gated_precharge",),
    description="Gated precharging with decay counters (Section 6)",
)
def _make_gated(
    threshold: int = DEFAULT_THRESHOLD, predecode_lead_cycles: int = 2
) -> GatedPrechargePolicy:
    return GatedPrechargePolicy(
        threshold=threshold,
        use_predecode=False,
        predecode_lead_cycles=predecode_lead_cycles,
    )


@register_policy(
    "gated-predecode",
    aliases=("gated_predecode",),
    description="Gated precharging with base-register predecoding (Section 6.3)",
)
def _make_gated_predecode(
    threshold: int = DEFAULT_THRESHOLD, predecode_lead_cycles: int = 2
) -> GatedPrechargePolicy:
    return GatedPrechargePolicy(
        threshold=threshold,
        use_predecode=True,
        predecode_lead_cycles=predecode_lead_cycles,
    )
