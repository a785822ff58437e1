"""Tests for the device's host↔device copies and the bandwidthTest reproduction."""

import pytest

from repro.core.swap import BandwidthConfig, swap_round_trip_ns
from repro.device.bandwidth import BandwidthTest
from repro.device.device import Device
from repro.device.tape import TAPE_MEMCPY_D2H, TAPE_MEMCPY_H2D, TimingTape
from repro.device.spec import titan_x_pascal
from repro.units import MIB


@pytest.fixture
def device():
    return Device(titan_x_pascal())


def test_synchronous_copy_advances_clock(device):
    before = device.clock.now_ns
    duration = device.copy_host_to_device(10 * MIB)
    assert duration > 0
    assert duration == device.clock.now_ns - before


def test_copy_duration_matches_bandwidth(device):
    nbytes = 64 * MIB
    duration = device.copy_device_to_host(nbytes)
    expected_transfer_ns = 1e9 * nbytes / titan_x_pascal().d2h_bandwidth
    overhead = titan_x_pascal().memcpy_launch_overhead_ns
    assert duration == pytest.approx(expected_transfer_ns + overhead, rel=1e-6)


def test_device_to_host_copy_advances_clock(device):
    before = device.clock.now_ns
    duration = device.copy_device_to_host(10 * MIB)
    assert duration > 0
    assert duration == device.clock.now_ns - before


def test_empty_copy_costs_only_the_launch_overhead(device):
    overhead = titan_x_pascal().memcpy_launch_overhead_ns
    assert device.copy_host_to_device(0) == overhead
    assert device.copy_device_to_host(0) == overhead
    assert device.clock.now_ns == 2 * overhead


def test_copies_are_taped_with_their_direction_and_bytes(device):
    tape = TimingTape(device.clock)
    durations = [device.copy_host_to_device(10), device.copy_device_to_host(20),
                 device.copy_host_to_device(30)]
    assert list(tape.kind) == [TAPE_MEMCPY_H2D, TAPE_MEMCPY_D2H, TAPE_MEMCPY_H2D]
    assert list(tape.nbytes) == [10, 20, 30]
    assert list(tape.duration_ns) == durations
    assert sum(tape.duration_ns) == device.clock.now_ns


def test_round_trip_time_matches_equation_one():
    nbytes = 79_370  # the paper's 25 us operating point
    bandwidths = BandwidthConfig.from_device_spec(titan_x_pascal())
    assert swap_round_trip_ns(nbytes, bandwidths) == pytest.approx(25_000, rel=0.01)


def test_bandwidth_test_converges_to_configured_bandwidths(device):
    report = BandwidthTest(device, transfer_bytes=256 * MIB, repetitions=5).run()
    assert report.h2d_gb_per_s == pytest.approx(6.3, rel=0.02)
    assert report.d2h_gb_per_s == pytest.approx(6.4, rel=0.02)
    assert "Host to Device" in report.summary()


def test_bandwidth_test_small_transfers_lose_to_overhead(device):
    small = BandwidthTest(device, transfer_bytes=64 * 1024, repetitions=3).run()
    large = BandwidthTest(device, transfer_bytes=256 * MIB, repetitions=3).run()
    assert small.h2d_gb_per_s < large.h2d_gb_per_s


def test_bandwidth_test_sweep_restores_transfer_size(device):
    test = BandwidthTest(device, transfer_bytes=1 * MIB, repetitions=2)
    reports = test.sweep([1 * MIB, 8 * MIB])
    assert len(reports) == 2
    assert test.transfer_bytes == 1 * MIB


def test_bandwidth_test_validates_arguments(device):
    with pytest.raises(ValueError):
        BandwidthTest(device, transfer_bytes=0)
    with pytest.raises(ValueError):
        BandwidthTest(device, repetitions=0)
