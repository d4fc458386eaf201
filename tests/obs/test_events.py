"""The typed event taxonomy: schemas, payloads, round-trips."""

import dataclasses

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    Delivered,
    RxFail,
    TraceEvent,
    TxStart,
    event_from_payload,
)


class TestTaxonomy:
    def test_every_kind_registered_once(self):
        kinds = [cls.KIND for cls in EVENT_TYPES.values()]
        assert len(kinds) == len(set(kinds))
        for kind, cls in EVENT_TYPES.items():
            assert cls.KIND == kind
            assert issubclass(cls, TraceEvent)

    def test_all_events_are_frozen_with_time_first(self):
        for cls in EVENT_TYPES.values():
            assert cls.__dataclass_params__.frozen
            assert dataclasses.fields(cls)[0].name == "time"

    def test_schema_id_is_kind_and_version(self):
        event = TxStart(
            time=1.0, source=0, destination=1, power_w=0.5, packet=7
        )
        assert event.schema_id == "tx_start/v1"

    def test_events_are_immutable(self):
        event = TxStart(
            time=1.0, source=0, destination=1, power_w=0.5, packet=7
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.source = 9


class TestPayloads:
    def test_payload_excludes_time_in_declaration_order(self):
        event = Delivered(
            time=2.0, station=4, packet=9, delay=0.25, hops=3, energy_j=1e-3
        )
        assert list(event.payload()) == [
            "station", "packet", "delay", "hops", "energy_j",
        ]
        assert "time" not in event.payload()

    def test_round_trip_through_payload(self):
        original = RxFail(
            time=3.0, receiver=1, source=2, reason="sir",
            types=(2, 3), packet=5, min_sir=0.1,
        )
        rebuilt = event_from_payload(
            original.KIND, original.time, original.payload()
        )
        assert rebuilt == original

    def test_from_payload_coerces_lists_to_tuples(self):
        rebuilt = event_from_payload(
            "rx_fail",
            3.0,
            {
                "receiver": 1, "source": 2, "reason": "sir",
                "types": [2, 3], "packet": 5, "min_sir": 0.1,
            },
        )
        assert rebuilt.types == (2, 3)

    def test_from_payload_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_payload("not_a_kind", 0.0, {})
