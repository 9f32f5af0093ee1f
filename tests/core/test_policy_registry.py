"""Tests for the policy registry and PolicySpec."""

import pytest

from repro.core import GatedPrechargePolicy, StaticPullUpPolicy
from repro.core.registry import (
    PolicySpec,
    create_policy,
    get_policy_info,
    policy_names,
    register_policy,
    unregister_policy,
)
from repro.sim import SimEngine, SimulationConfig


class TestRegistryLookup:
    def test_builtins_are_registered(self):
        names = policy_names()
        for name in ("static", "oracle", "on-demand", "gated", "gated-predecode", "resizable"):
            assert name in names

    def test_aliases_resolve(self):
        assert get_policy_info("ondemand").name == "on-demand"
        assert get_policy_info("on_demand").name == "on-demand"
        assert get_policy_info("gated_predecode").name == "gated-predecode"

    def test_lookup_is_case_insensitive(self):
        assert get_policy_info("GATED").name == "gated"

    def test_unknown_name_rejected_with_suggestions(self):
        with pytest.raises(ValueError, match="drowsy.*choose from"):
            get_policy_info("drowsy")

    def test_defaults_captured_from_signature(self):
        info = get_policy_info("gated")
        assert info.defaults["threshold"] == 100
        assert get_policy_info("on-demand").scheduler_extra_latency == 1
        assert get_policy_info("static").scheduler_extra_latency == 0

    def test_create_policy_passes_params(self):
        policy = create_policy("gated", threshold=250)
        assert isinstance(policy, GatedPrechargePolicy)
        assert policy.threshold == 250


class TestPolicySpec:
    def test_params_mapping_is_normalised_and_hashable(self):
        a = PolicySpec("gated", {"use_predecode": True, "threshold": 50})
        b = PolicySpec("GATED", (("threshold", 50), ("use_predecode", True)))
        assert a == b
        assert hash(a) == hash(b)

    def test_get_and_asdict(self):
        spec = PolicySpec("gated", {"threshold": 50})
        assert spec.get("threshold") == 50
        assert spec.get("missing", 7) == 7
        assert spec.asdict() == {"threshold": 50}

    def test_with_params_returns_modified_copy(self):
        spec = PolicySpec("gated", {"threshold": 50})
        other = spec.with_params(threshold=200)
        assert other.get("threshold") == 200
        assert spec.get("threshold") == 50

    def test_canonical_fills_defaults(self):
        bare = PolicySpec("gated")
        explicit = PolicySpec("gated", {"threshold": 100, "predecode_lead_cycles": 2})
        assert bare.canonical() == explicit.canonical()
        assert bare.cache_key() == explicit.cache_key()

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            PolicySpec("static", {"threshold": 5}).canonical()

    def test_build_constructs_policy(self):
        policy = PolicySpec("gated-predecode", {"threshold": 30}).build()
        assert isinstance(policy, GatedPrechargePolicy)
        assert policy.use_predecode and policy.threshold == 30

    def test_dict_round_trip(self):
        spec = PolicySpec("gated", {"threshold": 75})
        assert PolicySpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "text,name,params",
        [
            ("static", "static", {}),
            ("gated:threshold=150", "gated", {"threshold": 150}),
            (
                "gated:threshold=150,predecode_lead_cycles=3",
                "gated",
                {"threshold": 150, "predecode_lead_cycles": 3},
            ),
            ("resizable:miss_ratio_slack=0.05", "resizable", {"miss_ratio_slack": 0.05}),
        ],
    )
    def test_parse(self, text, name, params):
        spec = PolicySpec.parse(text)
        assert spec.name == name
        assert spec.asdict() == params

    def test_parse_booleans(self):
        assert PolicySpec.parse("x:a=true,b=off").asdict() == {"a": True, "b": False}

    def test_parse_rejects_malformed_params(self):
        with pytest.raises(ValueError, match="key=value"):
            PolicySpec.parse("gated:threshold")


class ExternalHoldPolicy(StaticPullUpPolicy):
    """A 'third-party' policy defined entirely outside repro.sim."""

    def __init__(self, hold_fraction: float = 1.0) -> None:
        super().__init__()
        self.hold_fraction = hold_fraction


@pytest.fixture()
def external_policy():
    register_policy("external-hold", description="test-only policy")(ExternalHoldPolicy)
    yield "external-hold"
    unregister_policy("external-hold")


class TestThirdPartyRegistration:
    """A new policy plugs into the full driver with no driver edits."""

    def test_spec_flows_through_config_and_engine(self, external_policy):
        config = SimulationConfig(
            benchmark="gcc",
            dcache=PolicySpec(external_policy, {"hold_fraction": 0.5}),
            icache=PolicySpec("static"),
            n_instructions=1_500,
        )
        assert isinstance(config.dcache.build(), ExternalHoldPolicy)
        assert config.dcache.build().hold_fraction == 0.5

        engine = SimEngine()
        result = engine.run(config)
        assert result.dcache_policy == "external-hold"
        assert result.cycles > 0
        # The memo key is derived from the spec: an identical second run hits.
        assert engine.run(config) is result
        # A different parameterisation is a different key.
        other = SimulationConfig(
            benchmark="gcc",
            dcache=PolicySpec(external_policy, {"hold_fraction": 0.9}),
            n_instructions=1_500,
        )
        assert other.cache_key() != config.cache_key()

    def test_unregistered_name_fails_before_run(self, engine):
        config = SimulationConfig(dcache=PolicySpec("never-registered"))
        with pytest.raises(ValueError, match="never-registered.*choose from"):
            config.cache_key()
        with pytest.raises(ValueError, match="never-registered.*choose from"):
            engine.run(config)

    def test_shadowing_registration_does_not_inherit_aliases(self):
        register_policy("shadow-target", aliases=("shadow-alias",))(ExternalHoldPolicy)
        try:
            assert get_policy_info("shadow-alias").name == "shadow-target"
            # Re-register under the same name without the alias: the alias
            # must stop resolving rather than silently reach the shadow.
            register_policy("shadow-target")(ExternalHoldPolicy)
            with pytest.raises(ValueError):
                get_policy_info("shadow-alias")
        finally:
            unregister_policy("shadow-target")

    def test_name_may_not_shadow_an_existing_alias(self):
        # "ondemand" is an alias of "on-demand"; a policy registered under
        # it would be unreachable (alias resolution wins in lookups).
        with pytest.raises(ValueError, match="already an alias"):
            register_policy("ondemand")(ExternalHoldPolicy)

    def test_unhashable_params_rejected_at_construction(self):
        with pytest.raises(ValueError, match="hashable"):
            PolicySpec("gated", {"threshold": [100]})

    def test_alias_may_not_steal_another_policys_name(self):
        with pytest.raises(ValueError, match="collides"):
            register_policy("thief", aliases=("static",))(ExternalHoldPolicy)
        assert "thief" not in policy_names()
        with pytest.raises(ValueError, match="collides"):
            register_policy("thief", aliases=("ondemand",))(ExternalHoldPolicy)

    def test_unregister_accepts_aliases(self):
        register_policy("tmp-pol", aliases=("tmp-alias",))(ExternalHoldPolicy)
        unregister_policy("tmp-alias")
        assert "tmp-pol" not in policy_names()
        with pytest.raises(ValueError):
            get_policy_info("tmp-alias")
