"""What every workload shares: the run context and the result it returns."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from stats import Tally, latency_summary, min_samples

#: End-to-end latency percentiles; each run measures until every one of
#: them has enough samples beyond it to be reported.
GATED_QUANTILES = (0.5, 0.9)

#: Latency samples a run collects at least (p90 needs ten beyond it).
MIN_LATENCY_SAMPLES = min_samples(max(GATED_QUANTILES))

#: Hard cap on one measurement window, so a pathologically slow program
#: still ends the run well inside its time limit.
MAX_WINDOW_S = 90.0


@dataclass
class RunContext:
    """One invocation: where it may write, what it draws from, how long it runs."""

    root: Path
    run_dir: Path
    seed: int
    seconds: float
    #: CPUs this run may use (serve-miss splits them between server and clients).
    cpus: List[int]
    #: Process groups of every server this run started (for the leak check).
    server_groups: List[int] = field(default_factory=list)

    @property
    def workers(self) -> int:
        """Pool workers and client threads: one per CPU (``nproc``)."""
        return len(self.cpus)


@dataclass
class Result:
    """A workload's measurements, its correctness verdict and report lines."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    failures: List[str] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """No check failed and no attempted operation failed.

        Failed, rejected, timed-out and poisoned jobs make a run incorrect
        as surely as a mismatched result does.
        """
        return not self.failures and self.tally.failed == 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        self.lines.append(f"INCORRECT: {reason}")

    def latency(self, samples_ms: Sequence[float]) -> None:
        """Record the gated latency percentiles and print the full summary."""
        summary = latency_summary(samples_ms)
        for q in GATED_QUANTILES:
            name = f"p{round(q * 100):d}"
            value = summary[name]
            if value is None:
                # Runs measure until these are reportable, so only a
                # window cut short by MAX_WINDOW_S lands here.
                raise RuntimeError(
                    f"{summary['count']} latency samples cannot support {name}"
                )
            self.put(f"latency_{name}_ms", value, "ms")
        shown = ", ".join(
            f"{key} {value:.3f} ms" if value is not None else f"{key} n/a"
            for key, value in summary.items() if key != "count"
        )
        self.lines.append(f"latency ({summary['count']} samples): {shown}")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
