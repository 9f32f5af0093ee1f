"""Simulation configuration (Tables 1 and 2).

:class:`SimulationConfig` collects everything one run needs: the
technology node (Table 1), the processor and memory-hierarchy sizing
(Table 2), the benchmark, the precharge policies of the two L1 caches
and the unified L2, and the run length.  The precharge policies are
carried as declarative :class:`~repro.core.registry.PolicySpec` objects
resolved through the policy registry, so adding a policy never touches
this module::

    SimulationConfig(dcache=PolicySpec("gated", {"threshold": 150}))

A bare registered name is shorthand for a parameterless spec
(``l2="gated"`` means ``l2=PolicySpec("gated")``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from hashlib import sha256
from typing import Any, Dict, Mapping, Optional, Union

from repro.cache.hierarchy import HierarchyConfig
from repro.core.registry import PolicySpec
from repro.cpu.pipeline import PipelineConfig
from repro.workloads.scenarios import workload_identity

__all__ = [
    "SimulationConfig",
    "DEFAULT_INSTRUCTIONS",
]

#: Default simulated instruction count for experiments.  The paper uses
#: SimPoint regions of hundreds of millions of instructions; the synthetic
#: workloads here reach steady-state behaviour within tens of thousands.
DEFAULT_INSTRUCTIONS = 30_000


def _coerce_spec(value: Union[PolicySpec, str]) -> PolicySpec:
    """Accept a spec or a bare registered policy name."""
    if isinstance(value, PolicySpec):
        return value
    if isinstance(value, str):
        return PolicySpec(value)
    raise TypeError(f"cannot interpret {value!r} as a PolicySpec")


def _default_static_spec() -> PolicySpec:
    return PolicySpec("static")


def _is_default_static(spec: PolicySpec) -> bool:
    """Whether ``spec`` canonicalises to the plain static-pull-up default.

    Used to keep run keys byte-identical to the keys written before the
    L2 carried a policy: an L2 spec equivalent to the old implicit static
    pull-up contributes nothing to a key.
    """
    try:
        return spec.cache_key() == PolicySpec("static").cache_key()
    except ValueError:
        return False


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulated run needs.

    Attributes:
        benchmark: Benchmark, scenario (``mix:``/``phases:``) or
            ``trace:`` workload name.
        dcache: Precharge policy spec for the L1 data cache.
        icache: Precharge policy spec for the L1 instruction cache.
        feature_size_nm: Technology node (Table 1).
        subarray_bytes: L1 precharge-control granularity (1KB base).
        n_instructions: Micro-ops to simulate.
        seed: Workload seed.
        pipeline: Microarchitecture parameters (Table 2 defaults).
        l2: Precharge policy spec for the unified L2 cache (defaults to
            the conventional static pull-up the paper assumes).
        l2_subarray_bytes: L2 precharge-control granularity; ``None``
            scales the L1 granularity (at least 4KB) — see
            :meth:`~repro.cache.hierarchy.HierarchyConfig.l2_organization`.
    """

    benchmark: str = "gcc"
    dcache: PolicySpec = field(default_factory=_default_static_spec)
    icache: PolicySpec = field(default_factory=_default_static_spec)
    feature_size_nm: int = 70
    subarray_bytes: int = 1024
    n_instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = 1
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    l2: PolicySpec = field(default_factory=_default_static_spec)
    l2_subarray_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dcache", _coerce_spec(self.dcache))
        object.__setattr__(self, "icache", _coerce_spec(self.icache))
        object.__setattr__(self, "l2", _coerce_spec(self.l2))

    # ------------------------------------------------------------------
    def hierarchy_config(self) -> HierarchyConfig:
        """The memory-hierarchy sizing for this run."""
        return HierarchyConfig(
            feature_size_nm=self.feature_size_nm,
            subarray_bytes=self.subarray_bytes,
            l2_subarray_bytes=self.l2_subarray_bytes,
        )

    def pipeline_config(self) -> PipelineConfig:
        """Pipeline configuration, with policy-declared latency folded in.

        A policy that delays *every* data-cache access by a known number
        of cycles (on-demand precharging declares
        ``scheduler_extra_latency=1`` in the registry) has that latency
        folded into the scheduler's expectations, so the deterministic
        delay does not masquerade as misspeculation.
        """
        extra = self.dcache.info().scheduler_extra_latency
        if extra and self.pipeline.speculative_extra_latency == 0:
            return replace(self.pipeline, speculative_extra_latency=extra)
        return self.pipeline

    # ------------------------------------------------------------------
    def _l2_is_default(self) -> bool:
        """Whether the L2 settings match the pre-policy-capable default."""
        return self.l2_subarray_bytes is None and _is_default_static(self.l2)

    def cache_key(self) -> str:
        """The run's identity: a digest of its canonical serialised form.

        One key names a run everywhere: the engine's result cache, the
        on-disk result store (the file name), the service's units and
        the ``/v1/results/<key>`` endpoint.  It is derived from the
        canonical policy specs, so two configs that build identical
        policies (e.g. with and without an explicit default threshold)
        share a key, and newly registered policies participate with no
        driver changes.  ``trace:`` benchmarks fold the trace file's
        identity (path, mtime, size) in, so a re-recorded file is never
        served a stale result; scenario and ``fuzz:`` benchmarks fold
        their canonical expression in, so equivalent spellings share one
        entry.  A default L2 (static pull-up) is omitted by
        :meth:`to_dict`, so digests of pre-L2 configurations are
        unchanged and old stores resume; a non-default L2 folds its
        canonical spec in.
        """
        canonical = self.to_dict()
        canonical["dcache"] = self.dcache.canonical().to_dict()
        canonical["icache"] = self.icache.canonical().to_dict()
        if "l2" in canonical:
            canonical["l2"] = self.l2.canonical().to_dict()
        identity = workload_identity(self.benchmark)
        if identity is not None:
            canonical["workload_identity"] = list(identity)
            if identity[0] == "scenario":
                # Digest the canonical expression, not the literal
                # spelling, so `MIX: GCC + McF` and `mix:gcc+mcf@2000`
                # share one entry.
                canonical["benchmark"] = identity[1]
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return sha256(payload.encode("utf-8")).hexdigest()[:32]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (round-trips via :meth:`from_dict`).

        The ``l2`` / ``l2_subarray_bytes`` keys are only emitted when
        they differ from the default (static pull-up, derived subarray
        size): the round-trip stays exact, while serialised forms — and
        the run keys derived from them — stay byte-identical to the ones
        written before the L2 carried a policy.
        """
        data = {
            "benchmark": self.benchmark,
            "dcache": self.dcache.to_dict(),
            "icache": self.icache.to_dict(),
            "feature_size_nm": self.feature_size_nm,
            "subarray_bytes": self.subarray_bytes,
            "n_instructions": self.n_instructions,
            "seed": self.seed,
            "pipeline": self.pipeline.to_dict(),
        }
        if not self._l2_is_default():
            data["l2"] = self.l2.to_dict()
            data["l2_subarray_bytes"] = self.l2_subarray_bytes
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Payloads written before the L2 carried a policy (no ``"l2"``
        key) load with the default static L2.
        """
        l2 = data.get("l2")
        return cls(
            benchmark=data["benchmark"],
            dcache=PolicySpec.from_dict(data["dcache"]),
            icache=PolicySpec.from_dict(data["icache"]),
            feature_size_nm=data["feature_size_nm"],
            subarray_bytes=data["subarray_bytes"],
            n_instructions=data["n_instructions"],
            seed=data["seed"],
            pipeline=PipelineConfig.from_dict(data["pipeline"]),
            l2=_default_static_spec() if l2 is None else PolicySpec.from_dict(l2),
            l2_subarray_bytes=data.get("l2_subarray_bytes"),
        )
