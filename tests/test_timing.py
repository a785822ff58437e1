"""Tests for the roofline kernel-timing model."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.device.spec import get_device_spec, titan_x_pascal
from repro.device.timing import (
    COST_CACHE_SIZE,
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


# -- memoization: a cost and its duration are derived once -----------------------------

_dims = st.integers(min_value=0, max_value=4096)
_itemsizes = st.sampled_from([1, 2, 4, 8])
_names = st.sampled_from(["op", "conv2d_forward", "sgd_step"])
_MEMOIZED = {
    matmul_cost: st.tuples(_dims, _dims, _dims, _itemsizes, _names),
    elementwise_cost: st.tuples(_dims, st.integers(0, 5),
                                st.sampled_from([1.0, 3.0, 4.0, 10.0]), _itemsizes, _names),
    conv2d_cost: st.tuples(_dims, _dims, _dims, _dims, _dims, st.integers(0, 7),
                           st.integers(0, 7), _itemsizes, _names),
    reduction_cost: st.tuples(_dims, _itemsizes, _names),
}


@pytest.mark.parametrize("function", list(_MEMOIZED), ids=lambda f: f.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memoized_cost_equals_its_original_field_for_field(function, data):
    args = data.draw(_MEMOIZED[function])
    cached, fresh = function(*args), function.__wrapped__(*args)
    for field in dataclasses.fields(KernelCost):
        left, right = getattr(cached, field.name), getattr(fresh, field.name)
        assert left == right and type(left) is type(right), field.name
    assert function(*args) is cached                 # equal launches share one cost
    assert not hasattr(cached, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cached.flops = 0.0


@pytest.mark.parametrize("function", list(_MEMOIZED), ids=lambda f: f.__name__)
def test_cost_caches_are_bounded(function):
    assert function.cache_info().maxsize == COST_CACHE_SIZE


def test_duration_table_is_bounded_and_exact():
    model = KernelTimingModel(titan_x_pascal())
    for numel in range(COST_CACHE_SIZE + 50):
        cost = KernelCost(flops=float(numel), bytes_read=8.0 * numel)
        expected = model.host_dispatch_overhead_ns + model.kernel_duration_ns(cost)
        assert model.op_duration_ns(cost) == expected == model.op_duration_ns(cost)
        assert len(model._op_durations) <= COST_CACHE_SIZE


@settings(max_examples=60, deadline=None)
@given(numel=st.integers(1, 1 << 24), specs=st.permutations(
           ["titan_x_pascal", "v100_sxm2_16gb", "small_test_device"]),
       overheads=st.lists(st.integers(0, 50_000), min_size=2, max_size=2, unique=True))
def test_models_never_share_a_duration(numel, specs, overheads):
    # One shared (memoized) cost priced by models differing in spec or dispatch
    # overhead: each answers from its own table, equal to the uncached formula.
    cost = elementwise_cost(numel, 2, 4.0, 4, "shared")
    models = [KernelTimingModel(get_device_spec(specs[0]), host_dispatch_overhead_ns=overheads[0]),
              KernelTimingModel(get_device_spec(specs[1]), host_dispatch_overhead_ns=overheads[0]),
              KernelTimingModel(get_device_spec(specs[0]), host_dispatch_overhead_ns=overheads[1])]
    for _ in range(2):                               # second pass answers from the tables
        for model in models:
            assert model.op_duration_ns(cost) == (
                model.host_dispatch_overhead_ns + model.kernel_duration_ns(cost))
    assert models[0].op_duration_ns(cost) != models[2].op_duration_ns(cost)
    assert models[0]._op_durations is not models[1]._op_durations
