"""Deterministic failpoints: named fault-injection sites for chaos testing.

Every recovery path in the stack (engine pool rebuild, store quarantine,
journal torn-line replay, scheduler unit retry, client backoff) is
exercised through *failpoints*: named sites where production code asks
this module whether an injected fault should fire.  With no plan
installed — the production default — :func:`check` is a two-instruction
no-op (one global load, one ``is None`` test), so the hot path pays
nothing.

A :class:`FaultPlan` maps sites to :class:`FaultRule` schedules and is
fully deterministic: each site draws from its own ``random.Random``
seeded with ``"{plan.seed}:{site}"`` (string seeds hash through SHA-512,
stable across processes and ``PYTHONHASHSEED``), so a failing chaos
trial replays exactly from its seed.

Plans travel as compact spec strings::

    seed=7;engine.chunk=crash:p=0.5,max=1;store.put=torn:n=2

and are activated per-process three ways:

* programmatically — ``faults.install(plan)`` / ``faults.clear()``;
* by CLI — ``repro serve --faults SPEC``;
* by environment — ``REPRO_FAULTS=SPEC`` (read at import, so spawned
  worker processes and subprocess servers pick the plan up; forked
  engine workers inherit the installed plan directly).

The site catalogue (:data:`SITES`) names every failpoint and its legal
actions; :meth:`FaultPlan.parse` rejects anything outside it, so a typo
in a chaos spec fails fast instead of silently injecting nothing.

A layer boundary enters its failpoint through :func:`site`, which is
also its span: while a :mod:`repro.obs.trace` recorder is armed the
block is recorded as a span named after the site.  Span-only sites
(no actions) are catalogued too, so rules on them are rejected.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Optional, Tuple, Union

from repro.obs import trace as obs_trace

__all__ = [
    "SITES",
    "FaultHit",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active_spec",
    "check",
    "clear",
    "install",
    "site",
    "trip",
]

#: Environment variable carrying a plan spec for subprocess activation.
ENV_VAR = "REPRO_FAULTS"

#: Injected sleeps are bounded so a chaos campaign cannot wedge itself.
MAX_DELAY_S = 5.0

#: Default injected sleep for hang/slow/stall actions, seconds.
DEFAULT_DELAY_S = 0.05

#: Every failpoint site and the actions its host code interprets.
SITES: Dict[str, Tuple[str, ...]] = {
    # Worker-side, inside the pool: kill the worker process outright,
    # raise from the task, or sleep mid-chunk.
    "engine.chunk": ("crash", "raise", "hang"),
    # Result-store writes: publish a truncated entry, publish a
    # digest-mismatched entry, fail the write, or stall it.
    "store.put": ("torn", "corrupt", "error", "slow"),
    # Result-store reads: fail (treated as a miss) or stall.
    "store.get": ("error", "slow"),
    # Journal appends: tear the line mid-write (fsync lost) or fail
    # before writing anything.
    "journal.append": ("torn", "error"),
    # Scheduler unit execution: raise before the engine runs, or set
    # the job's cancel event as a timeout storm would.
    "scheduler.unit": ("raise", "timeout"),
    # HTTP responses: answer 503, or drop the connection unanswered.
    "server.response": ("error", "drop"),
    # Client requests: fail as a transport error, or stall before
    # sending.
    "client.request": ("drop", "stall"),
    # Span-only sites: timed by site() while tracing, never faulted.
    "engine.run_many": (),
    "unit.exec": (),
}


class FaultInjected(RuntimeError):
    """An injected failure (the ``raise``/``error`` actions)."""

    def __init__(self, site: str, action: str = "raise") -> None:
        super().__init__(f"injected fault at {site} ({action})")
        self.site = site
        self.action = action


@dataclass(frozen=True)
class FaultHit:
    """One fired failpoint: what the host code should do."""

    site: str
    action: str
    delay: float = DEFAULT_DELAY_S


@dataclass(frozen=True)
class FaultRule:
    """Schedule for one site.

    Attributes:
        site / action: Where and what (validated against :data:`SITES`).
        p: Independent fire probability per check (1.0 = always).
        n: Fire exactly once, on the n-th check (overrides ``p``).
        max_fires: Stop firing after this many hits (``None`` = no cap).
        delay: Sleep length for hang/slow/stall actions, seconds.
    """

    site: str
    action: str
    p: float = 1.0
    n: Optional[int] = None
    max_fires: Optional[int] = None
    delay: float = DEFAULT_DELAY_S

    def __post_init__(self) -> None:
        actions = SITES.get(self.site)
        if actions is None:
            raise ValueError(
                f"unknown failpoint site {self.site!r}; "
                f"known: {', '.join(sorted(SITES))}"
            )
        if self.action not in actions:
            raise ValueError(
                f"site {self.site!r} does not support action {self.action!r}; "
                f"supported: {', '.join(actions) or 'none (span-only site)'}"
            )
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be at least 1")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max must be at least 1")
        if not 0.0 <= self.delay <= MAX_DELAY_S:
            raise ValueError(f"delay must be in [0, {MAX_DELAY_S}]")

    def to_spec(self) -> str:
        parts = []
        if self.p != 1.0:
            parts.append(f"p={self.p:g}")
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.max_fires is not None:
            parts.append(f"max={self.max_fires}")
        if self.delay != DEFAULT_DELAY_S:
            parts.append(f"delay={self.delay:g}")
        spec = f"{self.site}={self.action}"
        return spec + (":" + ",".join(parts) if parts else "")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of per-site rules; the unit a chaos trial installs."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen = set()
        for rule in self.rules:
            if rule.site in seen:
                raise ValueError(f"duplicate rule for site {rule.site!r}")
            seen.add(rule.site)

    def rule_for(self, site: str) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.site == site:
                return rule
        return None

    def to_spec(self) -> str:
        """The compact string form; :meth:`parse` round-trips it."""
        return ";".join(
            [f"seed={self.seed}"] + [rule.to_spec() for rule in self.rules]
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``seed=N;site=action[:k=v,...];...`` into a plan.

        Raises:
            ValueError: for an unknown site/action, a malformed
                segment, or an out-of-range parameter — chaos specs
                must fail loudly, never inject nothing by accident.
        """
        seed = 0
        rules = []
        for segment in spec.split(";"):
            segment = segment.strip()
            if not segment:
                continue
            if "=" not in segment:
                raise ValueError(f"malformed failpoint segment {segment!r}")
            left, _, right = segment.partition("=")
            left = left.strip()
            if left == "seed":
                try:
                    seed = int(right)
                except ValueError:
                    raise ValueError(f"malformed seed {right!r}") from None
                continue
            action, _, params = right.partition(":")
            kwargs: Dict[str, Union[float, int]] = {}
            if params:
                for pair in params.split(","):
                    if "=" not in pair:
                        raise ValueError(
                            f"malformed parameter {pair!r} in {segment!r}"
                        )
                    key, _, value = pair.partition("=")
                    key = key.strip()
                    try:
                        if key == "p":
                            kwargs["p"] = float(value)
                        elif key == "n":
                            kwargs["n"] = int(value)
                        elif key == "max":
                            kwargs["max_fires"] = int(value)
                        elif key == "delay":
                            kwargs["delay"] = float(value)
                        else:
                            raise ValueError(
                                f"unknown failpoint parameter {key!r}"
                            )
                    except ValueError as error:
                        raise ValueError(
                            f"bad parameter {pair!r} in {segment!r}: {error}"
                        ) from None
            rules.append(FaultRule(site=left, action=action.strip(), **kwargs))
        return cls(seed=seed, rules=tuple(rules))


class _SiteState:
    """Per-site runtime counters and RNG (reset on every install)."""

    __slots__ = ("rng", "checks", "fires")

    def __init__(self, seed: int, site: str) -> None:
        # A string seed hashes through SHA-512: stable across processes.
        self.rng = random.Random(f"{seed}:{site}")
        self.checks = 0
        self.fires = 0


_PLAN: Optional[FaultPlan] = None
_STATE: Dict[str, _SiteState] = {}
_LOCK = threading.Lock()


def install(plan: Union[FaultPlan, str]) -> FaultPlan:
    """Activate a plan in this process (replacing any previous one).

    Counters and RNG state reset, so installing the same plan twice
    yields the same fault schedule twice.  Returns the installed plan.
    """
    global _PLAN
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    with _LOCK:
        _STATE.clear()
        for rule in plan.rules:
            _STATE[rule.site] = _SiteState(plan.seed, rule.site)
        _PLAN = plan
    return plan


def clear() -> None:
    """Deactivate fault injection in this process (idempotent)."""
    global _PLAN
    with _LOCK:
        _PLAN = None
        _STATE.clear()


def active_spec() -> Optional[str]:
    """The installed plan's spec string, or ``None``."""
    plan = _PLAN
    return None if plan is None else plan.to_spec()


def check(site: str) -> Optional[FaultHit]:
    """Should an injected fault fire at ``site`` right now?

    The production fast path: with no plan installed this returns
    ``None`` after a single global read.  With a plan installed the
    site's schedule (probability / n-th check / fire cap) is consulted
    under a lock, deterministically.
    """
    plan = _PLAN
    if plan is None:
        return None
    rule = plan.rule_for(site)
    if rule is None:
        # Only reached with a plan armed, so the catalogue lookup costs
        # the production path nothing — and a typo at a call site fails
        # the chaos run loudly instead of silently injecting nothing.
        if site not in SITES:
            raise ValueError(f"unknown failpoint site {site!r}")
        return None
    with _LOCK:
        state = _STATE.get(site)
        if state is None:  # plan swapped concurrently
            return None
        state.checks += 1
        if rule.max_fires is not None and state.fires >= rule.max_fires:
            return None
        if rule.n is not None:
            if state.checks != rule.n:
                return None
        elif rule.p < 1.0 and state.rng.random() >= rule.p:
            return None
        state.fires += 1
    return FaultHit(site=site, action=rule.action, delay=rule.delay)


#: What a disarmed :func:`site` returns: one shared, reusable no-op.
_IDLE = nullcontext()


def site(
    name: str, trace_id: Optional[str] = None, parent_id: Optional[str] = None,
    **attrs: Any,
) -> ContextManager[Optional[FaultHit]]:
    """Enter the layer boundary ``name``: its failpoint and its span.

    ``with faults.site("store.put", key=key) as hit:`` yields what
    :func:`check` returns.  Disarmed (no plan, no span recorder) it
    returns one shared idle object after two global reads.  Armed,
    entering the block calls :func:`check` exactly once; while a
    recorder is installed the block is also recorded as a span named
    ``name`` — parented to ``trace_id``/``parent_id`` when given, else
    to the thread's current span — and is the thread's current span
    inside the block.  An exception leaving the block sets
    ``attrs["error"]`` to its type name.
    """
    if _PLAN is None and obs_trace.recorder() is None:
        return _IDLE
    return _site(name, trace_id, parent_id, attrs)


@contextmanager
def _site(name, trace_id, parent_id, attrs):
    """The armed :func:`site`: check once, then time the block as a span."""
    hit = check(name)
    if obs_trace.recorder() is None:
        yield hit
        return
    outer = obs_trace.get_current()
    if trace_id is None and outer is not None:
        trace_id, parent_id = outer
    trace_id = trace_id or obs_trace.new_trace_id()
    span_id = obs_trace.new_span_id()
    obs_trace.set_current(trace_id, span_id)
    start, began = time.time(), time.perf_counter()
    try:
        yield hit
    except BaseException as error:
        attrs["error"] = type(error).__name__
        raise
    finally:
        if outer is None:
            obs_trace.clear_current()
        else:
            obs_trace.set_current(*outer)
        obs_trace.record_span(
            name, start, time.perf_counter() - began,
            trace_id=trace_id, span_id=span_id, parent_id=parent_id,
            attrs=attrs,
        )


def trip(site: str) -> Optional[FaultHit]:
    """Check ``site`` and act on the generic actions in place.

    ``crash`` exits the process without cleanup (``os._exit``, the
    SIGKILL-alike for a worker), ``hang``/``slow``/``stall`` sleep the
    rule's bounded delay, and ``raise``/``error`` raise
    :class:`FaultInjected`.  Site-specific actions (``torn`` writes
    etc.) are returned for the caller to interpret; so are the sleeps,
    in case the caller wants to log them.
    """
    hit = check(site)
    if hit is None:
        return None
    if hit.action == "crash":
        os._exit(87)
    if hit.action in ("hang", "slow", "stall"):
        time.sleep(min(hit.delay, MAX_DELAY_S))
        return hit
    if hit.action in ("raise", "error"):
        raise FaultInjected(site, hit.action)
    return hit


# Subprocess activation: a spawned worker or a `repro serve` child reads
# the plan from the environment at import.  A malformed spec raises here
# — better a loud ImportError in the chaos harness than a silent no-op.
_env_spec = os.environ.get(ENV_VAR)
if _env_spec:
    install(_env_spec)
del _env_spec
