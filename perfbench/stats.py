"""The benchmark's own arithmetic: percentiles, exclusive span time, tallies.

Pure functions with no dependency on the simulator, so the tests in
``test_stats.py`` pin them without booting anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it is one or two outliers, not a tail.
MIN_BEYOND = 10

#: Terminal outcomes of one attempted operation.  Everything but "ok"
#: counts as failed in ``error_rate``.
OUTCOMES = ("ok", "failed", "rejected", "timeout", "poisoned", "mismatch")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ranked samples lie above the ``q`` quantile's rank.

    The rank is the nearest-rank one, ``ceil(q * n)``: 100 samples put
    10 beyond p90, 99 samples only 9.
    """
    if n < 1:
        return 0
    return n - math.ceil(round(q * n, 9))


def reportable(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples support reporting the ``q`` quantile."""
    return samples_beyond(n, q) >= min_beyond


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """The fewest samples for which the ``q`` quantile is reportable."""
    n = 1
    while not reportable(n, q, min_beyond):
        n += 1
    return n


def latency_summary(
    samples: Sequence[float], quantiles: Sequence[float] = (0.5, 0.9, 0.99)
) -> Dict[str, Optional[float]]:
    """``{"p50": .., "p90": .., "p99": .., "count": n}``; ``None`` where unsupported."""
    summary: Dict[str, Optional[float]] = {"count": len(samples)}
    for q in quantiles:
        name = f"p{round(q * 100):d}"
        summary[name] = (
            percentile(samples, q) if reportable(len(samples), q) else None
        )
    return summary


@dataclass
class Tally:
    """Counts attempted operations by outcome."""

    counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))

    def add(self, outcome: str, n: int = 1) -> None:
        if outcome not in self.counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.counts[outcome] += n

    def mismatch(self, n: int = 1) -> None:
        """Re-label ``n`` operations that completed but returned a wrong result."""
        moved = min(n, self.counts["ok"])
        self.counts["ok"] -= moved
        self.counts["mismatch"] += moved

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def exclusive_times(
    spans: Iterable[Tuple[str, float, float, int]],
) -> Dict[str, float]:
    """Attribute every instant to the deepest span active at that instant.

    ``spans`` are ``(label, start, end, depth)``.  For a properly nested
    tree this is each span's self time: its duration minus the part of
    its interval that its children cover.  Where unrelated spans overlap
    (a client poll in flight while the server executes), the deeper one
    wins, so the labels' totals still sum to the union of the intervals
    and never count one instant twice.  Ties go to the later-starting
    span.  Returns ``label -> seconds`` (labels repeat: their times add).
    """
    items = [(label, start, end, depth) for label, start, end, depth in spans if end > start]
    bounds = sorted({point for _, start, end, _ in items for point in (start, end)})
    totals: Dict[str, float] = {}
    for left, right in zip(bounds, bounds[1:]):
        best: Optional[Tuple[int, float, str]] = None
        for label, start, end, depth in items:
            if start <= left and end >= right:
                rank = (depth, start, label)
                if best is None or rank[:2] > best[:2]:
                    best = rank
        if best is not None:
            totals[best[2]] = totals.get(best[2], 0.0) + (right - left)
    for label, *_ in items:
        totals.setdefault(label, 0.0)
    return totals


def median_band(values: Sequence[float], width: float = 0.1) -> List[int]:
    """Indices of the samples between the ``0.5 - width`` and ``0.5 + width`` quantiles."""
    if not values:
        return []
    low = percentile(values, max(0.0, 0.5 - width))
    high = percentile(values, min(1.0, 0.5 + width))
    return [index for index, value in enumerate(values) if low <= value <= high]
