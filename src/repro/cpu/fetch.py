"""Instruction fetch engine.

Fetches micro-ops from the workload stream through the L1 instruction
cache into a fetch queue that feeds dispatch.  The model captures the
effects the paper's instruction-cache results depend on:

* each new cache line touched by the fetch stream is an L1I access — it
  maps to a subarray and may pay a precharge penalty or miss, which stalls
  the front end and slows the fetch-queue fill rate (Section 6.3);
* a taken branch ends the fetch block for that cycle;
* a mispredicted branch stops fetch entirely until the branch resolves in
  the back end, at which point the front end restarts after a redirect
  penalty representing the deep (16-stage) pipeline's refill.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional, Tuple

from repro.cache.hierarchy import MemoryHierarchy
from repro.workloads.trace import MicroOp

from .branch_predictor import CombinationPredictor
from .stats import PipelineStats

__all__ = ["FetchEngine"]


class FetchEngine:
    """Fetches micro-ops into a bounded fetch queue."""

    def __init__(
        self,
        instruction_stream: Iterator[MicroOp],
        hierarchy: MemoryHierarchy,
        predictor: CombinationPredictor,
        stats: PipelineStats,
        fetch_width: int = 8,
        fetch_queue_size: int = 32,
        redirect_penalty: int = 8,
    ) -> None:
        self._stream = instruction_stream
        self._hierarchy = hierarchy
        self._predictor = predictor
        self._stats = stats
        self.fetch_width = fetch_width
        self.fetch_queue_size = fetch_queue_size
        self.redirect_penalty = redirect_penalty

        #: Entries are (micro-op, branch_was_mispredicted).
        self.queue: Deque[Tuple[MicroOp, bool]] = deque()
        self._pushback: Optional[MicroOp] = None
        self._stall_until = 0
        self._waiting_redirect = False
        self._last_line: Optional[int] = None
        self._exhausted = False
        self._base_latency = hierarchy.l1i.base_latency

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """Whether the workload stream has ended."""
        return self._exhausted

    def redirect(self, resume_cycle: int) -> None:
        """A mispredicted branch resolved; fetch may resume after the refill."""
        self._waiting_redirect = False
        self._stall_until = max(self._stall_until, resume_cycle + self.redirect_penalty)
        self._last_line = None

    # ------------------------------------------------------------------
    def _next_uop(self) -> Optional[MicroOp]:
        if self._pushback is not None:
            uop = self._pushback
            self._pushback = None
            return uop
        try:
            return next(self._stream)
        except StopIteration:
            self._exhausted = True
            return None

    def _line_of(self, pc: int) -> int:
        return pc >> self._hierarchy.l1i.organization.offset_bits

    # ------------------------------------------------------------------
    def fetch_cycle(self, cycle: int) -> int:
        """Fetch up to ``fetch_width`` micro-ops at ``cycle``.

        Returns:
            The number of micro-ops added to the fetch queue.
        """
        if self._waiting_redirect or cycle < self._stall_until:
            return 0

        fetched = 0
        while fetched < self.fetch_width and len(self.queue) < self.fetch_queue_size:
            uop = self._next_uop()
            if uop is None:
                break

            line = self._line_of(uop.pc)
            if line != self._last_line:
                result = self._hierarchy.fetch_instruction(uop.pc, cycle)
                self._last_line = line
                extra = result.latency - self._base_latency
                if result.precharge_penalty > 0:
                    self._stats.delayed_fetches += 1
                if extra > 0:
                    # The i-cache could not deliver the block this cycle:
                    # stall the front end and retry the instruction later.
                    self._stats.icache_fetch_stall_cycles += extra
                    self._stall_until = cycle + extra
                    self._pushback = uop
                    break

            mispredicted = False
            if uop.is_branch:
                self._stats.branches += 1
                correct = self._predictor.update(uop.pc, uop.taken)
                if not correct:
                    mispredicted = True
                    self._stats.branch_mispredictions += 1

            self.queue.append((uop, mispredicted))
            self._stats.fetched_instructions += 1
            fetched += 1

            if uop.is_branch and mispredicted:
                # Fetch down the wrong path is not modelled; the front end
                # simply waits for the branch to resolve.
                self._waiting_redirect = True
                break
            if uop.is_branch and uop.taken:
                # A taken branch ends the fetch block.
                self._last_line = None
                break
        return fetched
