"""Tests for device specifications."""

import pytest

from repro.device.spec import (
    DEVICE_PRESETS,
    DeviceSpec,
    ampere_a100_40gb,
    get_device_spec,
    small_test_device,
    titan_x_pascal,
)
from repro.units import GIB


def test_titan_x_pascal_matches_paper_testbed():
    spec = titan_x_pascal()
    assert spec.memory_capacity == 12 * GIB
    assert spec.h2d_bandwidth == pytest.approx(6.3e9)
    assert spec.d2h_bandwidth == pytest.approx(6.4e9)
    assert "Titan X" in spec.name


def test_ampere_preset_has_40gb():
    assert ampere_a100_40gb().memory_capacity == 40 * GIB


def test_get_device_spec_by_name():
    for name in DEVICE_PRESETS:
        spec = get_device_spec(name)
        assert isinstance(spec, DeviceSpec)


def test_get_device_spec_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown device preset"):
        get_device_spec("does-not-exist")


def test_with_memory_capacity_returns_modified_copy():
    spec = titan_x_pascal()
    bigger = spec.with_memory_capacity(48 * GIB)
    assert bigger.memory_capacity == 48 * GIB
    assert spec.memory_capacity == 12 * GIB
    assert bigger.name == spec.name


def test_spec_validation_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        DeviceSpec(name="bad", memory_capacity=0, peak_flops=1e12,
                   memory_bandwidth=1e9, h2d_bandwidth=1e9, d2h_bandwidth=1e9)
    with pytest.raises(ValueError):
        DeviceSpec(name="bad", memory_capacity=1, peak_flops=-1,
                   memory_bandwidth=1e9, h2d_bandwidth=1e9, d2h_bandwidth=1e9)
    with pytest.raises(ValueError):
        DeviceSpec(name="bad", memory_capacity=1, peak_flops=1e12,
                   memory_bandwidth=1e9, h2d_bandwidth=0, d2h_bandwidth=1e9)


def test_spec_to_dict_round_trips_key_fields():
    spec = small_test_device()
    data = spec.to_dict()
    assert data["memory_capacity"] == spec.memory_capacity
    assert data["name"] == spec.name
    assert data["h2d_bandwidth"] == spec.h2d_bandwidth


def test_spec_is_frozen():
    spec = titan_x_pascal()
    with pytest.raises(Exception):
        spec.memory_capacity = 1


def test_preset_lookups_share_one_frozen_instance():
    import dataclasses

    for name in DEVICE_PRESETS:
        spec = get_device_spec(name)
        assert get_device_spec(name) is spec
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.memory_capacity = 1
        assert spec == DEVICE_PRESETS[name]()
        assert spec.with_memory_capacity(1) is not spec
