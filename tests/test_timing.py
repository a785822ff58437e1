"""Tests for the roofline kernel-timing model."""

import pytest

from repro.device.spec import titan_x_pascal
from repro.device.timing import (
    KernelCost,
    KernelTimingModel,
    conv2d_cost,
    elementwise_cost,
    matmul_cost,
    reduction_cost,
)


@pytest.fixture
def model():
    return KernelTimingModel(titan_x_pascal(), compute_efficiency=1.0,
                             bandwidth_efficiency=1.0, host_dispatch_overhead_ns=0)


def test_kernel_cost_bytes_moved():
    cost = KernelCost(flops=10, bytes_read=100, bytes_written=50)
    assert cost.bytes_moved == 150


def test_kernel_cost_scaled():
    cost = KernelCost(flops=10, bytes_read=100, bytes_written=50).scaled(2.0)
    assert cost.flops == 20
    assert cost.bytes_moved == 300


def test_empty_kernel_costs_only_launch_overhead(model):
    duration = model.kernel_duration_ns(KernelCost())
    assert duration == titan_x_pascal().kernel_launch_overhead_ns


def test_compute_bound_kernel_duration(model):
    spec = titan_x_pascal()
    cost = KernelCost(flops=spec.peak_flops)  # one second of peak compute
    duration = model.kernel_duration_ns(cost)
    assert duration == pytest.approx(1e9 + spec.kernel_launch_overhead_ns, rel=1e-6)


def test_memory_bound_kernel_duration(model):
    spec = titan_x_pascal()
    cost = KernelCost(bytes_read=spec.memory_bandwidth)  # one second of peak traffic
    duration = model.kernel_duration_ns(cost)
    assert duration == pytest.approx(1e9 + spec.kernel_launch_overhead_ns, rel=1e-6)


def test_roofline_takes_the_maximum(model):
    spec = titan_x_pascal()
    cost = KernelCost(flops=spec.peak_flops, bytes_read=spec.memory_bandwidth * 2)
    duration = model.kernel_duration_ns(cost)
    assert duration == pytest.approx(2e9 + spec.kernel_launch_overhead_ns, rel=1e-6)


def test_op_duration_adds_host_dispatch_overhead():
    model = KernelTimingModel(titan_x_pascal(), host_dispatch_overhead_ns=7_000)
    base = model.kernel_duration_ns(KernelCost())
    assert model.op_duration_ns(KernelCost()) == base + 7_000


def test_efficiency_must_be_in_unit_interval():
    with pytest.raises(ValueError):
        KernelTimingModel(titan_x_pascal(), compute_efficiency=0.0)
    with pytest.raises(ValueError):
        KernelTimingModel(titan_x_pascal(), bandwidth_efficiency=1.5)


def test_memcpy_duration_scales_with_bytes(model):
    slow = model.memcpy_duration_ns(10_000_000, 1e9)
    fast = model.memcpy_duration_ns(10_000_000, 10e9)
    assert slow > fast
    with pytest.raises(ValueError):
        model.memcpy_duration_ns(-1, 1e9)


def test_matmul_cost_flops():
    cost = matmul_cost(4, 8, 16)
    assert cost.flops == 2 * 4 * 8 * 16
    assert cost.bytes_written == 4 * 16 * 4


def test_elementwise_cost_counts_inputs():
    cost = elementwise_cost(100, n_inputs=3)
    assert cost.bytes_read == 100 * 4 * 3
    assert cost.bytes_written == 400


def test_conv2d_cost_flops():
    cost = conv2d_cost(batch=2, in_channels=3, out_channels=8, out_h=10, out_w=10,
                       kernel_h=3, kernel_w=3)
    assert cost.flops == 2.0 * (2 * 8 * 10 * 10) * 3 * 9


def test_reduction_cost_writes_one_element():
    cost = reduction_cost(1000)
    assert cost.bytes_written == 4
    assert cost.flops == 1000
