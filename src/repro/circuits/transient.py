"""Post-isolation bitline power transient (Figure 2).

Figure 2 of the paper plots the power dissipated *through the bitlines* of
a 1KB subarray as a function of time after the precharge devices are
turned off at t = 0, for each technology node, normalised to that node's
own static-pull-up bitline power.

Two components make up the transient:

1. **Switching spike** — the large precharge devices are toggled off; the
   charge displaced by their gates and the ensuing current redistribution
   flows through the bitlines.  The paper measures this overhead at up to
   195% of the static pull-up power in 180nm.  Scaling theory (Borkar)
   says switching power halves per generation while leakage grows 3.5x, so
   the spike *relative to the static (leakage) baseline* shrinks by ~7x
   per generation and is insignificant by 70nm.
2. **Leakage decay** — once isolated, the bitline voltage decays through
   the cell leakage paths; the discharge power decays as ``G * V(t)^2``
   from 100% of the static value towards the (approximately fully
   discharged) steady state.

We anchor the spike amplitude at the paper's 180nm measurement and scale
it across nodes with the physical switching-to-leakage ratio; the leakage
decay comes directly from the :class:`~repro.circuits.bitline.Bitline` RC
model.  The result reproduces the Figure 2 shape: a tall, slow transient
at 180nm and a negligible, fast-settling one at 70nm.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from typing import List

from .bitline import Bitline
from .technology import TechnologyNode, get_technology

__all__ = ["IsolationTransient", "isolation_transient", "TransientPoint"]

#: Peak *total* normalised bitline power measured by the paper at 180nm
#: immediately after isolation (195% of the static pull-up power).
_PEAK_NORMALIZED_POWER_180NM = 1.95

#: The switching spike amplitude above the leakage baseline at 180nm.
_SPIKE_AMPLITUDE_180NM = _PEAK_NORMALIZED_POWER_180NM - 1.0

#: The injected charge bleeds away through the same leakage paths as the
#: bitline itself, but from a boosted starting point; the effective spike
#: time constant is this fraction of the bitline decay constant.
_SPIKE_TAU_FRACTION = 0.05


@dataclass(frozen=True)
class TransientPoint:
    """One sample of the post-isolation transient."""

    time_s: float
    normalized_power: float


@dataclass(frozen=True)
class IsolationTransient:
    """The post-isolation bitline power transient of one subarray.

    Attributes:
        tech: Technology node.
        bitline: The bitline model the transient is computed for.
        peak_normalized_power: Peak power relative to static pull-up
            (``1.95`` at 180nm per the paper; near the leakage baseline of
            1.0 at 70nm).
        switching_overhead: Peak power *above* the leakage baseline,
            relative to static pull-up — the isolation "energy overhead".
        settling_time_s: Time for the normalised power to fall below 5%.
        samples: Time series of normalised power.
    """

    tech: TechnologyNode
    bitline: Bitline
    peak_normalized_power: float
    switching_overhead: float
    settling_time_s: float
    samples: List[TransientPoint]

    def power_at(self, time_s: float) -> float:
        """Normalised power at an arbitrary time (recomputed analytically)."""
        return _normalized_power(self.bitline, self.tech, time_s)


def spike_amplitude(tech: TechnologyNode) -> float:
    """Switching-spike amplitude (normalised to static pull-up) for ``tech``.

    Anchored at the paper's 180nm measurement and scaled with the
    switching-to-leakage power ratio (x0.5 / x3.5 per generation).
    """
    base = get_technology(180)
    generations = tech.generation_index - base.generation_index
    ratio = (tech.relative_switching / tech.relative_leakage)
    del generations
    return _SPIKE_AMPLITUDE_180NM * ratio


def _normalized_power(bitline: Bitline, tech: TechnologyNode, t_s: float) -> float:
    """Normalised bitline power ``t_s`` seconds after isolation."""
    tau = bitline.decay_time_constant_s
    leak = exp(-2.0 * t_s / tau)
    spike_tau = _SPIKE_TAU_FRACTION * tau
    spike = spike_amplitude(tech) * exp(-t_s / spike_tau)
    return leak + spike


def isolation_transient(
    tech: TechnologyNode,
    subarray_bytes: int = 1024,
    line_bytes: int = 32,
    ports: int = 1,
    duration_s: float = 600e-9,
    samples: int = 241,
) -> IsolationTransient:
    """Compute the Figure 2 transient for a subarray in ``tech``.

    Args:
        tech: Technology node.
        subarray_bytes: Subarray capacity (the paper uses 1KB).
        line_bytes: Cache line size; sets the rows-per-subarray count.
        ports: Number of cache ports.
        duration_s: Length of the simulated window (Figure 2 spans ~600ns).
        samples: Number of evenly spaced samples.

    Returns:
        An :class:`IsolationTransient` with the normalised power series.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    if duration_s <= 0:
        raise ValueError("duration must be positive")

    rows = max(1, subarray_bytes // line_bytes)
    bitline = Bitline(tech=tech, rows=rows, ports=ports)

    points: List[TransientPoint] = []
    peak = 0.0
    settling = duration_s
    settled = False
    for i in range(samples):
        t = duration_s * i / (samples - 1)
        p = _normalized_power(bitline, tech, t)
        points.append(TransientPoint(time_s=t, normalized_power=p))
        peak = max(peak, p)
        if not settled and p < 0.05:
            settling = t
            settled = True

    return IsolationTransient(
        tech=tech,
        bitline=bitline,
        peak_normalized_power=peak,
        switching_overhead=spike_amplitude(tech),
        settling_time_s=settling,
        samples=points,
    )
