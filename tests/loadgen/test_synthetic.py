"""Mix parsing, weighted draws, and the seed-reproducibility contract."""

from __future__ import annotations

import pytest

from repro.loadgen.base import PoissonArrivals, parse_rate_schedule, take_requests
from repro.loadgen.synthetic import MixEngine, parse_mix


class TestParseMix:
    def test_runs_sweeps_and_weights(self):
        mix = parse_mix("gcc/gated*3, art/gated:threshold=200, gcc+art/gated")
        kinds = [entry.kind for entry in mix.entries]
        weights = [entry.weight for entry in mix.entries]
        assert kinds == ["run", "run", "sweep"]
        assert weights == [3, 1, 1]
        assert mix.entries[2].benchmarks == ("gcc", "art")

    def test_payloads_are_valid_submission_bodies(self):
        mix = parse_mix("gcc/gated,gcc+art/gated", instructions=2000)
        run, sweep = (entry.payload() for entry in mix.entries)
        assert run["kind"] == "run"
        assert run["config"]["n_instructions"] == 2000
        assert sweep["kind"] == "sweep"
        assert sweep["benchmarks"] == ["gcc", "art"]

    def test_unknown_benchmark_fails_at_parse_time(self):
        with pytest.raises(ValueError, match="nosuchbench"):
            parse_mix("nosuchbench/gated")

    def test_unknown_policy_fails_at_parse_time(self):
        with pytest.raises(ValueError, match="nosuchpolicy"):
            parse_mix("gcc/nosuchpolicy")

    @pytest.mark.parametrize("spec", ["", "gcc/gated*x", "gcc/gated*0", "/gated"])
    def test_malformed_entries_raise_value_error(self, spec):
        with pytest.raises(ValueError):
            parse_mix(spec)

    def test_parenthesised_scenario_entries(self):
        # Scenario expressions contain +/*// themselves, so the mix
        # language takes them parenthesised; splitting is depth-aware.
        mix = parse_mix(
            "(mix:gcc+art@500)/gated*2, gcc+(phases:art+mcf)/gated,"
            " (fuzz:3/2)/gated"
        )
        assert [entry.kind for entry in mix.entries] == ["run", "sweep", "run"]
        assert mix.entries[0].benchmarks == ("mix:gcc+art@500",)
        assert mix.entries[0].weight == 2
        assert mix.entries[1].benchmarks == ("gcc", "phases:art+mcf")
        assert mix.entries[2].benchmarks == ("fuzz:3/2",)

    def test_unbalanced_parentheses_fail_at_parse_time(self):
        with pytest.raises(ValueError, match="unbalanced"):
            parse_mix("(mix:gcc+art@500/gated")
        with pytest.raises(ValueError, match="unbalanced"):
            parse_mix("mix:gcc+art@500)/gated")

    def test_malformed_scenario_entry_carries_the_position(self):
        with pytest.raises(ValueError, match="at position"):
            parse_mix("(mix:gcc+art@soon)/gated")

    def test_scenario_entry_with_unknown_benchmark_fails(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            parse_mix("(mix:gcc+nosuch@100)/gated")


class TestReproducibility:
    MIX = "gcc/gated,art/gated:threshold=200*2,gcc+art/gated"

    def _stream(self, seed, mix_spec=MIX, rate="30"):
        engine = MixEngine(
            parse_mix(mix_spec),
            PoissonArrivals(parse_rate_schedule(rate), seed=seed),
            seed=seed,
        )
        return take_requests(engine, 3.0)

    def test_identical_seed_and_mix_give_the_identical_stream(self):
        # The acceptance contract: times, payloads and tags all match.
        assert self._stream(11) == self._stream(11)

    def test_different_seed_changes_the_stream(self):
        assert self._stream(11) != self._stream(12)

    def test_weights_bias_the_draw(self):
        engine = MixEngine(
            parse_mix("gcc/gated*9,art/gated"),
            PoissonArrivals(parse_rate_schedule("100"), seed=2),
            seed=2,
        )
        requests = take_requests(engine, 5.0)
        gcc = sum(1 for r in requests if "gcc" in r.tag)
        art = len(requests) - gcc
        assert gcc > 5 * max(art, 1)

    def test_arrival_times_are_decorrelated_from_the_mix(self):
        # Same seed, different mixes: the arrival pattern is unchanged,
        # only the payload draws differ.
        a = self._stream(4, mix_spec="gcc/gated,art/gated")
        b = self._stream(4, mix_spec="equake/gated:threshold=150")
        assert [r.at_s for r in a] == [r.at_s for r in b]
