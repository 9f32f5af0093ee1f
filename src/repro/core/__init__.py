"""Precharge-control policies: the paper's contribution and its baselines.

* :class:`~repro.core.static_pullup.StaticPullUpPolicy` — conventional
  blind static pull-up (the normalisation baseline);
* :class:`~repro.core.oracle.OraclePrechargePolicy` — the Section 4
  potential study (perfect, zero-delay subarray identification);
* :class:`~repro.core.on_demand.OnDemandPrechargePolicy` — Section 5
  partial-address-decode precharging (+1 cycle on every access);
* :class:`~repro.core.gated.GatedPrechargePolicy` — Section 6 gated
  precharging with decay counters and optional predecoding;
* :class:`~repro.core.resizable.ResizableCachePolicy` — the prior-work
  resizable-cache baseline compared against in Figure 9;
* :mod:`~repro.core.registry` — the pluggable policy registry:
  :func:`~repro.core.registry.register_policy` publishes a factory under
  a short name and :class:`~repro.core.registry.PolicySpec` describes one
  policy instance declaratively (this is how the driver layer stays
  closed while the policy menu stays open);
* :mod:`~repro.core.threshold` — per-benchmark optimum / constant
  threshold selection;
* :mod:`~repro.core.predecode` — base-register subarray prediction.
"""

from .gated import DEFAULT_THRESHOLD, GatedPrechargePolicy
from .registry import (
    PolicyInfo,
    PolicySpec,
    create_policy,
    get_policy_info,
    policy_names,
    register_policy,
    unregister_policy,
)
from .on_demand import OnDemandPrechargePolicy
from .oracle import OraclePrechargePolicy
from .policies import BasePrechargePolicy, PolicyStats
from .predecode import Predecoder, PredecodeStats
from .resizable import ResizableCachePolicy
from .static_pullup import StaticPullUpPolicy
from .threshold import (
    CANDIDATE_THRESHOLDS,
    CONSTANT_THRESHOLD,
    PERFORMANCE_BUDGET,
    ThresholdProfile,
    select_threshold,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "GatedPrechargePolicy",
    "OnDemandPrechargePolicy",
    "OraclePrechargePolicy",
    "BasePrechargePolicy",
    "PolicyStats",
    "PolicyInfo",
    "PolicySpec",
    "create_policy",
    "get_policy_info",
    "policy_names",
    "register_policy",
    "unregister_policy",
    "Predecoder",
    "PredecodeStats",
    "ResizableCachePolicy",
    "StaticPullUpPolicy",
    "CANDIDATE_THRESHOLDS",
    "CONSTANT_THRESHOLD",
    "PERFORMANCE_BUDGET",
    "ThresholdProfile",
    "select_threshold",
]
