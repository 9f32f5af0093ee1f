"""Synthetic traffic: seeded static mixes and dynamic rate schedules.

A **mix** is a weighted distribution over job payloads — the
load-generation analogue of the ``mix:`` scenario family.  Each entry
names the benchmarks and the L1-D precharge policy of the submitted
configuration, with an optional integer weight::

    gcc/gated*3, art/gated:threshold=200, gcc+art/gated

* ``benchmark/policy-spec`` submits **run** jobs for that
  configuration;
* ``A+B[+C...]/policy-spec`` submits **sweep** jobs over the named
  benchmarks (one job, one configuration per benchmark — the service
  fans it out);
* ``*N`` weights the entry (default 1): a draw picks entries
  proportionally.

Draws are made with a dedicated :class:`random.Random` stream, so a
given ``(mix spec, seed)`` always generates the identical payload
sequence — the reproducibility contract the CLI's ``--seed`` exposes
and the tests pin.

**Static vs dynamic.**  A :class:`MixEngine` couples a mix to an
arrival process.  With a constant-rate schedule the stream is a
*static* workload; handing the same engine a ``phases:`` or
``diurnal:`` schedule (see :mod:`~repro.loadgen.base`) makes the
offered load time-varying — bursty phases and compressed diurnal days
— without touching the payload distribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from repro.core.registry import PolicySpec
from repro.service.jobs import JobError, parse_job_payload
from repro.sim.config import SimulationConfig

from .base import ArrivalProcess, Request, RequestEngine

__all__ = ["MixEntry", "MixEngine", "StaticMix", "parse_mix"]

#: Decorrelates the payload-draw stream from the arrival-time stream so
#: the same seed yields the same arrival pattern under any mix.
_PAYLOAD_SEED_OFFSET = 9973


@dataclass(frozen=True)
class MixEntry:
    """One weighted payload template of a mix."""

    benchmarks: Tuple[str, ...]
    dcache: str
    weight: int
    instructions: int
    seed: int

    @property
    def kind(self) -> str:
        return "run" if len(self.benchmarks) == 1 else "sweep"

    def payload(self) -> Dict[str, Any]:
        """The ``POST /v1/jobs`` body this entry submits."""
        config = SimulationConfig(
            benchmark=self.benchmarks[0],
            dcache=PolicySpec.parse(self.dcache),
            icache="gated",
            n_instructions=self.instructions,
            seed=self.seed,
        )
        if self.kind == "run":
            return {"kind": "run", "config": config.to_dict()}
        return {
            "kind": "sweep",
            "config": config.to_dict(),
            "benchmarks": list(self.benchmarks),
        }

    def tag(self) -> str:
        return f"{self.kind}:{'+'.join(self.benchmarks)}/{self.dcache}"


class StaticMix:
    """A weighted, seeded distribution over job payloads."""

    def __init__(self, entries: List[MixEntry]) -> None:
        if not entries:
            raise ValueError("a mix needs at least one entry")
        self.entries = list(entries)
        self._weights = [entry.weight for entry in self.entries]
        # Validate every template once, up front: an unknown benchmark
        # or policy should fail at parse time with the registry's
        # message, not as a mid-run 422 from the server.
        for entry in self.entries:
            try:
                parse_job_payload(entry.payload())
            except JobError as error:
                raise ValueError(f"mix entry {entry.tag()!r}: {error}") from None

    def draw(self, rng: random.Random) -> MixEntry:
        return rng.choices(self.entries, weights=self._weights, k=1)[0]

    def payloads(self, seed: int) -> Iterator[Tuple[Dict[str, Any], str]]:
        """An infinite, reproducible ``(payload, tag)`` stream."""
        rng = random.Random(seed + _PAYLOAD_SEED_OFFSET)
        while True:
            entry = self.draw(rng)
            yield entry.payload(), entry.tag()

    def describe(self) -> str:
        return ",".join(
            entry.tag() + (f"*{entry.weight}" if entry.weight != 1 else "")
            for entry in self.entries
        )


def _split_toplevel(text: str, sep: str) -> List[str]:
    """Split ``text`` on ``sep``, ignoring separators inside ``(...)``.

    Scenario expressions contain ``+``, ``*`` and ``/`` themselves, so
    the mix language requires them to be parenthesised —
    ``(mix:gcc+art@500)/gated*3`` — and every split in this parser is
    parenthesis-depth-aware.  Unbalanced parentheses raise ValueError.
    """
    segments: List[str] = []
    depth = 0
    start = 0
    for index, char in enumerate(text):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced ')' in mix entry {text!r}")
        elif char == sep and depth == 0:
            segments.append(text[start:index])
            start = index + 1
    if depth != 0:
        raise ValueError(f"unbalanced '(' in mix entry {text!r}")
    segments.append(text[start:])
    return segments


def _strip_parens(name: str) -> str:
    """Unwrap one enclosing ``(...)`` pair, if it spans the whole name."""
    name = name.strip()
    if name.startswith("(") and name.endswith(")"):
        depth = 0
        for index, char in enumerate(name):
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
                if depth == 0 and index != len(name) - 1:
                    return name  # e.g. "(a)(b)": parens don't span it
        return name[1:-1].strip()
    return name


def parse_mix(
    text: str, instructions: int = 4000, workload_seed: int = 1
) -> StaticMix:
    """Parse a ``--mix`` spec into a validated :class:`StaticMix`.

    Args:
        text: Comma-separated entries,
            ``benchmarks[/policy-spec][*weight]``.  A benchmark may be a
            parenthesised scenario or fuzz expression —
            ``(mix:gcc+art@500)/gated`` submits runs of the scenario,
            ``gcc+(phases:art+mcf)/gated`` sweeps over gcc and the
            composite — since bare ``+``/``*``/``/`` characters belong
            to the mix language itself.
        instructions: Micro-ops per submitted configuration.
        workload_seed: The *simulation* seed inside every payload (the
            generator's stream seed is separate, so changing it never
            changes the unit digests being requested).

    Raises:
        ValueError: for a malformed entry, unbalanced parentheses, an
            unknown benchmark, a malformed scenario expression (with its
            position), or a policy spec the registry rejects.
    """
    entries: List[MixEntry] = []
    for raw in _split_toplevel(text, ","):
        part = raw.strip()
        if not part:
            continue
        pieces = _split_toplevel(part, "*")
        if len(pieces) > 2:
            raise ValueError(f"mix entry {part!r} has more than one weight")
        weight_text = pieces[1].strip() if len(pieces) == 2 else ""
        part = pieces[0]
        if len(pieces) == 2:
            try:
                weight = int(weight_text)
            except ValueError:
                raise ValueError(
                    f"mix weight must be an integer (got {weight_text!r})"
                ) from None
            if weight < 1:
                raise ValueError(f"mix weight must be at least 1 (got {weight})")
        else:
            weight = 1
        name_pieces = _split_toplevel(part, "/")
        names_text = name_pieces[0]
        policy = "/".join(name_pieces[1:]).strip() if len(name_pieces) > 1 else ""
        benchmarks = tuple(
            stripped
            for name in _split_toplevel(names_text, "+")
            if (stripped := _strip_parens(name))
        )
        if not benchmarks:
            raise ValueError(f"mix entry {raw.strip()!r} names no benchmark")
        entries.append(
            MixEntry(
                benchmarks=benchmarks,
                dcache=policy if policy else "gated",
                weight=weight,
                instructions=instructions,
                seed=workload_seed,
            )
        )
    return StaticMix(entries)


class MixEngine(RequestEngine):
    """A mix driven by an arrival process: the synthetic request stream.

    ``requests()`` pairs the arrival process's offsets with the mix's
    payload stream.  Arrival times and payload draws use decorrelated
    seeded streams, so the whole request stream — times, payloads and
    tags — is a pure function of ``(mix, arrivals, seed, duration)``.
    """

    def __init__(
        self,
        mix: StaticMix,
        arrivals: ArrivalProcess,
        seed: int = 1,
        duration: float = float("inf"),
    ) -> None:
        self.mix = mix
        self.arrivals = arrivals
        self.seed = seed
        self.duration = duration

    def requests(self) -> Iterator[Request]:
        payloads = self.mix.payloads(self.seed)
        for at_s, (payload, tag) in zip(
            self.arrivals.arrivals(self.duration), payloads
        ):
            yield Request(at_s=at_s, payload=payload, tag=tag)

    def describe(self) -> str:
        return f"{self.arrivals.describe()} over [{self.mix.describe()}]"
