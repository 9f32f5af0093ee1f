"""Property-based tests for the PR-2 subsystems.

Hypothesis pins the invariants the fast path and trace format lean on:
energy-ledger non-negativity and additivity (splitting one run's event
stream in two and summing the breakdowns changes nothing), and
trace-file write→read round-trip identity.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.cache.energy_accounting import EnergyLedger
from repro.circuits.cacti import cache_organization
from repro.workloads.trace import MicroOp, OP_TYPES
from repro.workloads.tracefile import read_trace, write_trace


def _fresh_ledger() -> EnergyLedger:
    organization = cache_organization(70, 32 * 1024, 32, 2, 1024, ports=2)
    return EnergyLedger(organization.subarray, organization.n_subarrays)


# ----------------------------------------------------------------------
# Energy ledger
# ----------------------------------------------------------------------
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["precharged", "isolated", "toggle", "access"]),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=5_000),
    ),
    min_size=0,
    max_size=80,
)


def _apply(ledger: EnergyLedger, events) -> None:
    for kind, subarray, cycles in events:
        if kind == "precharged":
            ledger.note_precharged_interval(subarray, cycles)
        elif kind == "isolated":
            ledger.note_isolated_interval(subarray, cycles)
        elif kind == "toggle":
            ledger.note_toggle(subarray)
        else:
            ledger.note_access(subarray)


class TestLedgerProperties:
    @given(events=_EVENTS, total_cycles=st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=60, deadline=None)
    def test_breakdown_fields_are_non_negative(self, events, total_cycles):
        ledger = _fresh_ledger()
        _apply(ledger, events)
        breakdown = ledger.breakdown(total_cycles)
        for field in dataclasses.fields(breakdown):
            assert getattr(breakdown, field.name) >= 0.0

    @given(
        events=_EVENTS,
        split_at=st.integers(min_value=0, max_value=80),
        total_cycles=st.integers(min_value=1, max_value=200_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_breakdown_is_additive_over_event_streams(
        self, events, split_at, total_cycles
    ):
        split_at = min(split_at, len(events))
        whole = _fresh_ledger()
        _apply(whole, events)
        first = _fresh_ledger()
        _apply(first, events[:split_at])
        second = _fresh_ledger()
        _apply(second, events[split_at:])

        expected = whole.breakdown(total_cycles)
        a = first.breakdown(total_cycles)
        b = second.breakdown(total_cycles)
        # The static reference and capacity terms depend only on the run
        # length, not on the events; the accumulated terms must add up.
        assert a.static_reference_j == expected.static_reference_j
        assert a.total_subarray_cycles == expected.total_subarray_cycles
        for field in (
            "precharged_discharge_j",
            "isolated_discharge_j",
            "toggle_overhead_j",
            "dynamic_access_j",
            "precharged_subarray_cycles",
        ):
            combined = getattr(a, field) + getattr(b, field)
            reference = getattr(expected, field)
            assert abs(combined - reference) <= 1e-12 * max(1.0, abs(reference))


# ----------------------------------------------------------------------
# Trace files
# ----------------------------------------------------------------------
_REGISTERS = st.one_of(st.none(), st.integers(min_value=0, max_value=(1 << 31) - 1))
_ADDRESSES = st.one_of(st.none(), st.integers(min_value=0, max_value=(1 << 62) - 1))

_MICRO_OPS = st.builds(
    MicroOp,
    op_type=st.sampled_from(OP_TYPES),
    pc=st.integers(min_value=0, max_value=(1 << 62) - 1),
    dest=_REGISTERS,
    src1=_REGISTERS,
    src2=_REGISTERS,
    address=_ADDRESSES,
    base_address=_ADDRESSES,
    taken=st.booleans(),
    target=_ADDRESSES,
)


class TestTraceFileProperties:
    @given(ops=st.lists(_MICRO_OPS, min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_write_read_round_trip_identity(self, ops, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "roundtrip.trace.gz"
        written = write_trace(path, ops, meta={"benchmark": "prop"})
        assert written == len(ops)
        assert list(read_trace(path)) == ops
