"""Tests for unit conversion and formatting helpers."""

import pytest

from repro import units


def test_size_constants_are_consistent():
    assert units.MIB == 1024 * units.KIB
    assert units.GIB == 1024 * units.MIB
    assert units.GB == 1000 * units.MB


def test_time_conversions_round_trip():
    assert units.us_to_ns(25) == 25_000
    assert units.s_to_ns(0.8) == 800_000_000
    assert units.ns_to_us(25_000) == pytest.approx(25.0)
    assert units.ns_to_ms(1_500_000) == pytest.approx(1.5)


def test_bandwidth_conversions_round_trip():
    bpn = units.gbps_to_bytes_per_ns(6.4)
    assert units.bytes_per_ns_to_gbps(bpn) == pytest.approx(6.4)


def test_format_bytes_picks_adaptive_units():
    assert units.format_bytes(512) == "512 B"
    assert units.format_bytes(2048) == "2.00 KiB"
    assert units.format_bytes(3 * units.MIB) == "3.00 MiB"
    assert units.format_bytes(int(1.5 * units.GIB)) == "1.50 GiB"


def test_format_bytes_handles_negative_values():
    assert units.format_bytes(-2048) == "-2.00 KiB"


def test_format_duration_picks_adaptive_units():
    assert units.format_duration(500) == "500 ns"
    assert units.format_duration(25_000) == "25.000 us"
    assert units.format_duration(1_500_000) == "1.500 ms"
    assert units.format_duration(2_000_000_000) == "2.000 s"


def test_us_to_ns_rounds_fractions():
    assert units.us_to_ns(0.5) == 500
    assert units.us_to_ns(0.0001) == 0
