"""Cache-level differential: the flat fast-path cache against the reference cache.

The run-level grid (``tests/sim/test_fastpath_differential.py``)
compares whole simulations, and whole simulations never reach some
corners of a cache: at 2,500 micro-ops no benchmark makes a secondary
miss merge into an outstanding MSHR entry.  These tests drive one flat
``_FastCache`` and one reference ``SetAssociativeCache``, both over
``MainMemory``, with the same access stream on a tiny conflict-heavy
geometry (2 KB, 2-way, 512 B subarrays, three lines fighting over each
set), and compare every access's outcome and the final energy
accounts.  Every built-in policy is covered, the resizable baseline
with an interval short enough to resize, and a registered subclass of
a built-in whose own ``_on_access`` the fast path must call.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import MainMemory
from repro.circuits.cacti import cache_organization
from repro.core.registry import PolicySpec, register_policy, unregister_policy
from repro.core.static_pullup import StaticPullUpPolicy
from repro.sim.fastpath import _FastCache

ORGANIZATION = cache_organization(70, 2048, 32, 2, 512, ports=1)

#: Sets spread over three of the four subarrays; three tags per 2-way set.
_SETS = (0, 5, 8, 31)
_TAGS = 3

#: Cycle steps between accesses: mostly back to back, now and then a
#: pause longer than a memory fill, so outstanding misses retire while
#: the MSHR file has room.
_STEPS = (0, 1, 2, 3) * 4 + (150,)

MSHR_ENTRIES = (1, 2, 8)


class DelayEveryThirdAccess(StaticPullUpPolicy):
    """A static subclass with its own ``_on_access``: the fast path may
    not bookkeep it as static pull-up."""

    def _on_access(self, subarray, cycle, gap, base_address=None, address=None):
        super()._on_access(subarray, cycle, gap, base_address, address)
        return 1 if self.stats.accesses % 3 == 0 else 0


SPECS = {
    "static": PolicySpec("static"),
    "oracle": PolicySpec("oracle", {"hold_cycles": 2}),
    "on-demand": PolicySpec("on-demand", {"hold_cycles": 1}),
    "gated": PolicySpec("gated", {"threshold": 6}),
    "gated-predecode": PolicySpec("gated-predecode", {"threshold": 4}),
    "resizable": PolicySpec("resizable", {"interval_accesses": 8}),
    "subclass": PolicySpec("test-delay-every-third"),
}


@pytest.fixture(scope="module", autouse=True)
def _registered_subclass():
    register_policy("test-delay-every-third")(DelayEveryThirdAccess)
    yield
    unregister_policy("test-delay-every-third")


def _address(set_index: int, tag: int, offset: int) -> int:
    return ((tag * ORGANIZATION.n_sets + set_index) << ORGANIZATION.offset_bits) + offset


_STREAM = st.lists(
    st.tuples(
        st.sampled_from(_SETS),
        st.integers(min_value=0, max_value=_TAGS - 1),
        st.integers(min_value=0, max_value=31),
        st.sampled_from(_STEPS),
        st.booleans(),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4095)),
    ),
    min_size=1,
    max_size=200,
)


def _random_stream(seed: int, length: int) -> list:
    rng = random.Random(seed)
    return [
        (
            rng.choice(_SETS), rng.randrange(_TAGS), rng.randrange(32),
            rng.choice(_STEPS), rng.random() < 0.3,
            None if rng.random() < 0.3 else rng.randrange(4096),
        )
        for _ in range(length)
    ]


def _drive(spec: PolicySpec, mshr_entries: int, stream) -> SetAssociativeCache:
    """Run ``stream`` through both caches, asserting they agree; returns
    the reference cache."""
    fast = _FastCache(
        ORGANIZATION, "L1", spec.build(), MainMemory(), mshr_entries, base_latency=3
    )
    reference = SetAssociativeCache(
        ORGANIZATION, "L1", controller=spec.build(), next_level=MainMemory(),
        mshr_entries=mshr_entries, base_latency=3,
    )
    cycle = 0
    for index, (set_index, tag, offset, step, write, base) in enumerate(stream):
        cycle += step
        address = _address(set_index, tag, offset)
        expected = reference.access(address, cycle, write=write, base_address=base)
        outcome = fast.access(address, cycle, write, base)
        assert outcome == (expected.hit, expected.latency, expected.precharge_penalty), (
            f"access {index}: {address:#x} at cycle {cycle}"
        )
    end = cycle + 40
    assert fast.finalize(end) == reference.finalize(end)
    assert fast.gaps == reference.tracker.access_gaps()
    assert fast.writebacks == reference.writebacks
    return reference


@pytest.mark.parametrize("mshr_entries", MSHR_ENTRIES)
@pytest.mark.parametrize("policy", sorted(SPECS))
@given(stream=_STREAM)
@settings(max_examples=30, deadline=None)
def test_every_access_matches(policy: str, mshr_entries: int, stream) -> None:
    _drive(SPECS[policy], mshr_entries, stream)


@pytest.mark.parametrize("mshr_entries", MSHR_ENTRIES)
def test_streams_reach_mshr_merges_and_rejections(mshr_entries: int):
    # The comparison above means something only if such streams merge
    # secondary misses and fill the MSHR file.
    reference = _drive(SPECS["gated-predecode"], mshr_entries, _random_stream(7, 2000))
    assert reference.mshrs.rejected_allocations >= 1
    if mshr_entries >= 2:
        assert reference.mshrs.merged_misses
