"""Loadgen reporting: human-readable runs and saturation curves.

``repro loadgen`` renders single runs and ``--sweep`` saturation curves
as text with these helpers (or emits the same rows as JSON).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .runner import LoadReport

__all__ = ["format_curve", "format_report"]


def _fmt_ms(seconds: Optional[float]) -> str:
    return "      -" if seconds is None else f"{seconds * 1000:7.1f}"


def format_report(report: LoadReport) -> str:
    """A single run as readable text."""
    row = report.to_dict()
    lines = [
        f"{report.mode}-loop load: {report.generator}",
        f"  offered   {row['offered']:5d} requests "
        f"({row['offered_per_s']:.2f}/s over {row['duration_s']:g}s)",
        f"  completed {row['completed']:5d} "
        f"({row['achieved_per_s']:.2f}/s achieved, ratio "
        f"{row['achieved_ratio']:.3f})",
        f"  rejected  {row['rejected_429']:5d} (429s), failed {row['failed']}",
        f"  latency   p50 {_fmt_ms(row['latency_s']['p50'])}ms   "
        f"p95 {_fmt_ms(row['latency_s']['p95'])}ms   "
        f"p99 {_fmt_ms(row['latency_s']['p99'])}ms",
        f"  lateness  p95 {_fmt_ms(row['lateness_s']['p95'])}ms   "
        f"max {_fmt_ms(row['lateness_s']['max'])}ms",
    ]
    if row["coalesce_rate"] is not None:
        lines.append(f"  coalesce  {row['coalesce_rate']:.3f}")
    delta = row.get("metrics_delta") or {}
    if delta:
        # The server's own /v1/metrics counter delta across the run, so
        # client-side counts can be cross-checked against what the
        # service says it admitted and executed.
        lines.append(
            f"  server Δ  jobs +{delta.get('jobs_submitted', 0)} submitted, "
            f"+{delta.get('jobs_rejected', 0)} rejected"
        )
        lines.append(
            f"            units +{delta.get('units_requested', 0)} requested: "
            f"{delta.get('units_executed', 0)} executed, "
            f"{delta.get('units_cached', 0)} cached, "
            f"{delta.get('units_coalesced', 0)} coalesced"
        )
    if row["identity"]["checked"]:
        lines.append(
            f"  identity  {row['identity']['checked']} sampled config(s): "
            + ("byte-identical to local engine" if row["identity"]["ok"]
               else "MISMATCH vs local engine")
        )
    return "\n".join(lines)


def format_curve(reports: Sequence[LoadReport]) -> str:
    """A saturation curve as an aligned text table."""
    lines = [
        "offered/s  achieved/s   ratio   p50 ms   p95 ms   p99 ms  "
        "429s  coalesce  identity"
    ]
    for report in reports:
        row = report.to_dict()
        coalesce = row["coalesce_rate"]
        lines.append(
            f"{row['offered_per_s']:9.2f}  {row['achieved_per_s']:10.2f}  "
            f"{row['achieved_ratio']:6.3f}  {_fmt_ms(row['latency_s']['p50'])}  "
            f"{_fmt_ms(row['latency_s']['p95'])}  "
            f"{_fmt_ms(row['latency_s']['p99'])}  "
            f"{row['rejected_429']:4d}  "
            + (f"{coalesce:8.3f}  " if coalesce is not None else "       -  ")
            + str(row["identity"]["ok"])
        )
    return "\n".join(lines)
