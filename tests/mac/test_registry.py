"""Tests for the declarative MAC registry."""

import numpy as np
import pytest

from repro.mac import registry
from repro.mac.aloha import AlohaMac
from repro.mac.registry import (
    MacDescriptor,
    get_mac,
    mac_factory,
    mac_names,
    register_mac,
)
from repro.mac.shepard import ShepardMac
from repro.net.network import LinkBudget, NetworkConfig
from repro.radio.receiver_model import SicReceiver
from repro.sim.streams import RandomStreams

LEGACY = ("shepard", "aloha", "slotted_aloha", "csma", "maca")
FRONTIER = ("sic_aloha", "multilevel_power", "sinr_adaptive")


def budget() -> LinkBudget:
    return LinkBudget(
        sir_threshold=0.05,
        data_rate_bps=1e4,
        slot_time=0.4,
        packet_airtime=0.1,
        min_gain=1e-9,
        interference_bounds=np.ones(4),
        thermal_noise_w=1e-9,
        processing_gain_db=20.0,
        target_delivered_w=1.0,
    )


class TestEnumeration:
    def test_names_scheme_first_then_lineage(self):
        names = mac_names()
        assert names[: len(LEGACY)] == LEGACY
        assert set(FRONTIER) <= set(names)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="sic_aloha"):
            get_mac("token_ring")

    def test_descriptors_carry_capabilities(self):
        assert get_mac("sic_aloha").slotted
        assert isinstance(get_mac("sic_aloha").receiver_model, SicReceiver)
        assert get_mac("aloha").receiver_model is None
        assert not get_mac("aloha").slotted

    def test_stream_prefixes_unique(self):
        prefixes = [get_mac(name).stream_prefix for name in mac_names()]
        assert len(prefixes) == len(set(prefixes))

    def test_legacy_prefixes_grandfathered(self):
        # Digest stability: the historical single-letter stream labels
        # survive the registry redesign for the legacy contenders.
        assert get_mac("aloha").stream_prefix == "a"
        assert get_mac("slotted_aloha").stream_prefix == "s"
        assert get_mac("csma").stream_prefix == "c"
        assert get_mac("maca").stream_prefix == "m"
        # New contenders derive the prefix from the registered name, so
        # suite growth can never collide on a single letter again.
        for name in FRONTIER:
            assert get_mac(name).stream_prefix == f"{name}:"


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_mac("aloha")
            def duplicate(context):
                raise AssertionError

    def test_stream_prefix_collision_rejected(self):
        with pytest.raises(ValueError, match="collides"):

            @register_mac("aloha_two", stream_prefix="a")
            def collider(context):
                raise AssertionError

        assert "aloha_two" not in mac_names()

    def test_unknown_receiver_model_rejected(self):
        # A descriptor installs its model object on every bank, so a
        # model named by string is refused at registration.
        with pytest.raises(TypeError, match="SicReceiver"):
            register_mac("mystery", receiver_model="quantum")
        assert "mystery" not in mac_names()

    def test_registration_round_trip(self):
        @register_mac("test_only_mac", slotted=True, description="temp")
        def builder(context):
            return AlohaMac(context.stream(), slotted=True)

        try:
            descriptor = get_mac("test_only_mac")
            assert isinstance(descriptor, MacDescriptor)
            assert descriptor.stream_prefix == "test_only_mac:"
            factory = mac_factory(
                "test_only_mac", RandomStreams(5), NetworkConfig()
            )
            assert factory(0, budget()).slotted
        finally:
            del registry._REGISTRY["test_only_mac"]


class TestBuilding:
    def test_build_every_mac(self):
        # Every registered name, the paper's scheme included, builds
        # through the one factory; the scheme takes its guard from the
        # network config.
        config = NetworkConfig(guard_fraction=0.03)
        streams = RandomStreams(11)
        for name in mac_names():
            mac = mac_factory(name, streams, config)(3, budget())
            assert mac.name == name
        scheme = mac_factory("shepard", streams, config)(0, budget())
        assert isinstance(scheme, ShepardMac)
        assert scheme.guard == config.guard_fraction * budget().slot_time

    def test_factory_builds_one_instance_per_station(self):
        factory = mac_factory("aloha", RandomStreams(7), NetworkConfig())
        first, second = factory(0, budget()), factory(1, budget())
        assert first is not second
        # Each station draws from its own stream.
        assert first.rng.random() != second.rng.random()

    def test_mac_factory_refuses_unknown_name_before_building(self):
        with pytest.raises(ValueError, match="sic_aloha"):
            mac_factory("token_ring", RandomStreams(5), NetworkConfig())

    def test_legacy_stream_identity_preserved(self):
        # The registry draws station i's RNG from the same seed-tree
        # stream the old hand-written suite did.
        seed, index = 23, 4
        factory = mac_factory("aloha", RandomStreams(seed), NetworkConfig())
        built = factory(index, budget())
        legacy = AlohaMac(RandomStreams(seed).stream(f"a{index}"))
        assert built.rng.random() == legacy.rng.random()
