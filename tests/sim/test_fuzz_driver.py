"""The differential fuzz driver: shrinking, corpus I/O, campaigns."""

from __future__ import annotations

import json

from repro import fuzz
from repro.circuits.technology import available_nodes
from repro.fuzz import (
    FUZZ_POLICIES,
    FUZZ_SUBARRAY_BYTES,
    corpus_filename,
    draw_geometry,
    draw_policies,
    fuzz_config,
    load_corpus,
    run_campaign,
    shrink_scenario,
    write_corpus_entry,
)
from repro.workloads.grammar import (
    Bench,
    iter_leaves,
    parse_scenario,
    unparse,
)


class TestShrinker:
    # The shrinker takes a pluggable predicate, so it is testable with
    # synthetic "bugs" — no real kernel divergence needed.

    def test_shrinks_to_the_buggy_benchmark(self):
        root = parse_scenario(
            "mix:(phases:gcc+mcf@300)*2+art~scale=0.5+vortex@800"
        )

        def involves_art(candidate):
            return any(
                leaf.name == "art" for leaf in iter_leaves(candidate)
            )

        minimal = shrink_scenario(root, involves_art)
        assert involves_art(minimal)
        # Two-term list with no surviving modifiers or odd quanta.
        assert len(minimal.children) == 2
        assert unparse(minimal).count("(") == 0
        assert "~" not in unparse(minimal)
        assert "*" not in unparse(minimal)

    def test_shrinks_nesting_away_when_irrelevant(self):
        root = parse_scenario("mix:(mix:gcc~slab=24+mcf@100)*3+vortex@50")

        def always(candidate):
            return True

        minimal = shrink_scenario(root, always)
        assert unparse(minimal) == "mix:gcc+mcf@2000"

    def test_keeps_structure_the_predicate_needs(self):
        root = parse_scenario("mix:(phases:gcc+mcf@300)+vortex@800")

        def needs_nesting(candidate):
            return any(
                not isinstance(child, Bench) for child in candidate.children
            )

        minimal = shrink_scenario(root, needs_nesting)
        assert needs_nesting(minimal)

    def test_result_always_parses(self):
        root = parse_scenario(
            "mix:(mix:gcc+art@77)~scale=2+health~slab=28*4+mcf@99"
        )
        minimal = shrink_scenario(root, lambda candidate: True)
        assert parse_scenario(unparse(minimal)) == minimal

    def test_attempt_budget_bounds_the_search(self):
        root = parse_scenario("mix:(mix:gcc+art@77)+health+mcf@99")
        calls = []

        def count(candidate):
            calls.append(candidate)
            return True

        shrink_scenario(root, count, max_attempts=3)
        assert len(calls) <= 3


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        config = fuzz_config("mix:gcc+mcf@400", n_instructions=1234)
        path = write_corpus_entry(tmp_path, config, origin="fuzz:9/3")
        assert path.name == corpus_filename(config)
        assert path.name == f"repro-{config.cache_key()[:16]}.json"
        entries = load_corpus(tmp_path)
        assert len(entries) == 1
        origin, loaded = entries[0]
        assert origin == "fuzz:9/3"
        assert loaded == config

    def test_rewriting_the_same_reproducer_is_idempotent(self, tmp_path):
        config = fuzz_config("mix:gcc+mcf@400")
        write_corpus_entry(tmp_path, config, origin="a")
        write_corpus_entry(tmp_path, config, origin="b")
        assert len(load_corpus(tmp_path)) == 1

    def test_one_expression_under_two_draws_keeps_two_entries(self, tmp_path):
        # Reproducers are named by run key, not by expression alone, so
        # the same scenario failing under two drawn policies keeps both.
        expression = "mix:gcc+mcf@400"
        first = fuzz_config(expression, policies=draw_policies(0))
        second = fuzz_config(expression, policies=draw_policies(1))
        assert first.dcache != second.dcache
        write_corpus_entry(tmp_path, first, origin="fuzz:0/3")
        write_corpus_entry(tmp_path, second, origin="fuzz:1/3")
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert {config for _, config in load_corpus(tmp_path)} == {first, second}

    def test_missing_directory_loads_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_entries_are_stable_json(self, tmp_path):
        config = fuzz_config("phases:gcc+art@300")
        path = write_corpus_entry(tmp_path, config, origin="seed")
        data = json.loads(path.read_text())
        assert set(data) == {"origin", "config"}
        assert data["config"]["benchmark"] == "phases:gcc+art@300"


class TestCampaign:
    def test_clean_campaign_report(self, tmp_path):
        report = run_campaign(
            budget=2,
            seed_base=0,
            depth=2,
            n_instructions=600,
            corpus_dir=tmp_path,
        )
        assert report["budget"] == 2
        assert report["mismatches"] == 0
        assert len(report["results"]) == 2
        assert all(r["status"] == "match" for r in report["results"])
        # No mismatch, no corpus writes.
        assert load_corpus(tmp_path) == []

    def test_progress_callback_sees_every_result(self):
        seen = []
        run_campaign(
            budget=3, depth=1, n_instructions=400, progress=seen.append
        )
        assert [r.name for r in seen] == ["fuzz:0/1", "fuzz:1/1", "fuzz:2/1"]

    def test_seed_base_shifts_the_block(self):
        report = run_campaign(budget=1, seed_base=7, depth=1, n_instructions=400)
        assert report["results"][0]["name"] == "fuzz:7/1"


class TestPolicyDraw:
    def test_draw_is_fixed_by_the_seed(self):
        assert draw_policies(5) == draw_policies(5)
        assert fuzz_config("gcc", policies=draw_policies(5)).dcache == (
            draw_policies(5)["dcache"]
        )

    def test_every_level_draws_every_builtin(self):
        draws = [draw_policies(seed) for seed in range(80)]
        for level in ("dcache", "icache", "l2"):
            assert {draw[level].name for draw in draws} == set(FUZZ_POLICIES)

    def test_resizable_draws_the_default_interval(self):
        draws = [draw_policies(seed)[level] for seed in range(80)
                 for level in ("dcache", "icache", "l2")]
        intervals = {dict(spec.params).get("interval_accesses")
                     for spec in draws if spec.name == "resizable"}
        assert intervals == {100, 500, 2000, None}

    def test_report_records_the_drawn_specs(self):
        report = run_campaign(budget=1, seed_base=3, depth=1, n_instructions=400)
        assert report["results"][0]["policies"] == {
            level: spec.to_dict() for level, spec in draw_policies(3).items()
        }

    def test_reproducer_keeps_the_drawn_specs(self, tmp_path, monkeypatch):
        # Every candidate "mismatches", so the shrinker runs to the end
        # and the corpus entry must still carry the seed's policies.
        monkeypatch.setattr(fuzz, "run_differential", lambda config: False)
        report = run_campaign(
            budget=1, seed_base=4, depth=2, n_instructions=400, corpus_dir=tmp_path
        )
        assert report["mismatches"] == 1
        [(origin, config)] = load_corpus(tmp_path)
        drawn = draw_policies(4)
        assert origin == "fuzz:4/2"
        assert (config.dcache, config.icache, config.l2) == (
            drawn["dcache"], drawn["icache"], drawn["l2"]
        )
        geometry = draw_geometry(4)
        assert (config.subarray_bytes, config.feature_size_nm, config.pipeline) == (
            geometry["subarray_bytes"], geometry["feature_size_nm"],
            geometry["pipeline"],
        )


class TestGeometryDraw:
    def test_draw_is_fixed_by_the_seed(self):
        assert draw_geometry(5) == draw_geometry(5)
        config = fuzz_config("gcc", geometry=draw_geometry(5))
        assert config.pipeline == draw_geometry(5)["pipeline"]

    def test_every_value_is_drawn(self):
        draws = [draw_geometry(seed) for seed in range(80)]
        assert {draw["subarray_bytes"] for draw in draws} == set(FUZZ_SUBARRAY_BYTES)
        assert {draw["feature_size_nm"] for draw in draws} == set(available_nodes())
        shapes = [draw["pipeline"] for draw in draws]
        assert {shape.lsq_entries for shape in shapes} == {4, 16, 64}
        assert {shape.max_registers for shape in shapes} == {8, 32, 64}
        assert {(shape.rob_entries, shape.issue_queue_entries) for shape in shapes} == {
            (16, 8), (64, 32), (128, 64)
        }
        assert {(shape.width, shape.memory_ports) for shape in shapes} == {
            (2, 1), (4, 2), (8, 4)
        }

    def test_report_records_the_drawn_geometry(self):
        report = run_campaign(budget=1, seed_base=3, depth=1, n_instructions=400)
        geometry = draw_geometry(3)
        assert report["results"][0]["geometry"] == {
            "subarray_bytes": geometry["subarray_bytes"],
            "feature_size_nm": geometry["feature_size_nm"],
            "pipeline": geometry["pipeline"].to_dict(),
        }
