"""Scenario workloads: multiprogrammed interleave and phase shifting."""

from __future__ import annotations

import itertools

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_run
from repro.workloads.grammar import Bench
from repro.workloads.scenarios import ScenarioWorkload, resolve_workload
from repro.workloads.synthetic import make_workload


def _take(workload, count):
    return list(itertools.islice(workload.instructions(), count))


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------
def test_plain_names_do_not_resolve_as_scenarios() -> None:
    assert resolve_workload("gcc") is None


def test_mix_resolution_and_defaults() -> None:
    workload = resolve_workload("mix:gcc+mcf")
    assert isinstance(workload, ScenarioWorkload)
    assert workload.root.family == "mix"
    assert workload.root.children == (Bench("gcc"), Bench("mcf"))
    assert workload.root.quantum == 2000


def test_phases_resolution_with_quantum() -> None:
    workload = resolve_workload("phases:gcc+art@750")
    assert isinstance(workload, ScenarioWorkload)
    assert workload.root.family == "phases"
    assert workload.root.quantum == 750


@pytest.mark.parametrize(
    "bad",
    ["mix:gcc", "mix:gcc+mcf@soon", "phases:art"],
)
def test_malformed_scenarios_raise(bad: str) -> None:
    with pytest.raises(ValueError):
        resolve_workload(bad)


def test_unknown_child_benchmark_raises_key_error() -> None:
    with pytest.raises(KeyError):
        resolve_workload("mix:gcc+notabench")


def test_make_workload_dispatches_scenarios() -> None:
    assert make_workload("mix:gcc+mcf@100").root.family == "mix"
    assert make_workload("phases:gcc+art").root.family == "phases"


# ----------------------------------------------------------------------
# Stream semantics
# ----------------------------------------------------------------------
def test_mix_is_deterministic() -> None:
    a = _take(make_workload("mix:gcc+mcf@300", seed=6), 2000)
    b = _take(make_workload("mix:gcc+mcf@300", seed=6), 2000)
    assert a == b


def test_mix_programs_live_in_disjoint_address_spaces() -> None:
    quantum = 250
    workload = resolve_workload(f"mix:gcc+mcf@{quantum}")
    ops = _take(workload, 4 * quantum)
    slabs = {uop.pc >> 40 for uop in ops}
    assert slabs == {0, 1}
    for index, uop in enumerate(ops):
        expected_slab = (index // quantum) % 2
        assert uop.pc >> 40 == expected_slab
        if uop.address is not None:
            assert uop.address >> 40 == expected_slab


def test_mix_register_slices_are_disjoint() -> None:
    workload = resolve_workload("mix:gcc+mcf@100")
    ops = _take(workload, 400)
    for index, uop in enumerate(ops):
        program = (index // 100) % 2
        low, high = program * 32, program * 32 + 32
        for register in (uop.dest, uop.src1, uop.src2):
            if register is not None:
                assert low <= register < high


def test_mix_of_same_benchmark_decorrelates_instances() -> None:
    workload = resolve_workload("mix:gcc+gcc@100")
    ops = _take(workload, 200)
    first = [(u.op_type, u.pc & ((1 << 40) - 1)) for u in ops[:100]]
    second = [(u.op_type, u.pc & ((1 << 40) - 1)) for u in ops[100:]]
    assert first != second


def test_phases_alternate_between_profiles() -> None:
    quantum = 200
    workload = resolve_workload(f"phases:gcc+art@{quantum}")
    ops = _take(workload, 4 * quantum)
    gcc_ops = _take(make_workload("gcc", seed=1), quantum)
    assert ops[:quantum] == gcc_ops
    # The second quantum comes from the other profile, same address space.
    assert ops[quantum : 2 * quantum] != gcc_ops
    assert all(uop.pc >> 40 == 0 for uop in ops)


def test_scenarios_support_generate() -> None:
    # The engine-bypassing experiments (predecode, figure6) call
    # workload.generate(); scenario names must satisfy the same protocol.
    workload = make_workload("mix:gcc+mcf@100")
    ops = workload.generate(250)
    assert len(ops) == 250
    assert ops == _take(make_workload("mix:gcc+mcf@100"), 250)
    with pytest.raises(ValueError):
        workload.generate(-1)


def test_predecode_experiment_accepts_scenario_names() -> None:
    from repro.experiments.registry import ExperimentOptions, get_experiment
    from repro.sim.engine import SimEngine

    experiment = get_experiment("predecode")
    result = experiment.run(
        SimEngine(),
        ExperimentOptions(benchmarks=("mix:gcc+mcf@200",), n_instructions=600),
    )
    assert experiment.format(result)


def test_scenarios_simulate_end_to_end() -> None:
    for name in ("mix:gcc+mcf@200", "phases:gcc+art@200"):
        result = execute_run(
            SimulationConfig(benchmark=name, n_instructions=1000)
        )
        assert result.benchmark == name
        # Commit is width-wide, so the run can overshoot by < one group.
        assert result.pipeline.committed_instructions >= 1000
