"""The run key: one identity for the engine cache, the store and the service.

``SimulationConfig.cache_key()`` names a run everywhere, and it is the
store's file name, so a changed digest would orphan every existing
store.  The literals below are the digests stores have been written
under since before the engine cache shared them; they must never
change.
"""

from __future__ import annotations

import pytest

from repro.core.registry import PolicySpec
from repro.sim.config import SimulationConfig
from repro.sim.store import ResultStore

PINNED = [
    ("default", SimulationConfig(), "f20c5fba27c352e0186dc467a7dbb08f"),
    (
        "gated-l1d",
        SimulationConfig(
            benchmark="gcc",
            dcache=PolicySpec("gated", {"threshold": 150}),
            n_instructions=6000,
        ),
        "2da764525c8bb4b6a883fce4405a7091",
    ),
    (
        "gated-l2",
        SimulationConfig(l2=PolicySpec("gated", {"threshold": 500})),
        "2eb71b640191534f3e6e5465d53cc902",
    ),
    (
        "mix",
        SimulationConfig(benchmark="mix:gcc+mcf@2000"),
        "ca220014645f1c9d79fcf06771ee294d",
    ),
    (
        "mix-spelling",
        SimulationConfig(benchmark="MIX: GCC + McF"),
        "ca220014645f1c9d79fcf06771ee294d",
    ),
    ("fuzz", SimulationConfig(benchmark="fuzz:3/2"), "2c6431058544c2b8f038fe53843114e6"),
]


@pytest.mark.parametrize("name, config, digest", PINNED, ids=[pin[0] for pin in PINNED])
def test_run_keys_are_pinned(name, config, digest):
    assert config.cache_key() == digest


def _gated(threshold):
    return SimulationConfig(dcache=PolicySpec("gated", {"threshold": threshold}))


def _oracle(hold_cycles):
    return SimulationConfig(dcache=PolicySpec("oracle", {"hold_cycles": hold_cycles}))


# Pairs that compare equal in Python but serialise differently, and
# two spellings of one scenario.
PAIRS = [
    ("threshold-int-float", _gated(150), _gated(150.0)),
    ("bool-int", _oracle(True), _oracle(1)),
    (
        "scenario-spelling",
        SimulationConfig(benchmark="mix:gcc+mcf@2000"),
        SimulationConfig(benchmark="MIX: GCC *1 + McF"),
    ),
]


@pytest.mark.parametrize("name, a, b", PAIRS, ids=[pair[0] for pair in PAIRS])
def test_engine_and_store_agree_on_run_identity(name, a, b):
    # One run is one key: the engine cache may never merge two runs the
    # store keeps apart, nor split one the store shares.
    assert (a.cache_key() == b.cache_key()) == (
        ResultStore.key_for(a) == ResultStore.key_for(b)
    )
