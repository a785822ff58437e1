"""Tests for the Tensor type and its factory helpers."""

import numpy as np
import pytest

from repro.core.events import MemoryCategory
from repro.device import Device, small_test_device
from repro.errors import ShapeError, TensorError
from repro.tensor import arange_labels, empty, from_numpy, full, randn, zeros
from repro.tensor.dtype import float16, float32, int64

from tests.helpers import BehaviorLog


def test_empty_tensor_shape_and_bytes(test_device):
    tensor = empty(test_device, (4, 8), tag="x")
    assert tensor.shape == (4, 8)
    assert tensor.numel == 32
    assert tensor.nbytes == 128
    assert tensor.ndim == 2
    assert tensor.block_id is not None


def test_scalar_shape_normalization(test_device):
    tensor = empty(test_device, 5)
    assert tensor.shape == (5,)
    with pytest.raises(ShapeError):
        empty(test_device, (-1, 3))


def test_fill_factories_allocate_then_write_once(test_device):
    log = BehaviorLog(test_device)
    z = zeros(test_device, (3, 3), tag="z")
    f = full(test_device, (2, 2), 7.5, tag="f")
    r = randn(test_device, (10,), tag="r")
    assert log.rows == [("malloc", "z", None), ("write", "z", "fill_zero"),
                        ("malloc", "f", None), ("write", "f", "fill_value"),
                        ("malloc", "r", None), ("write", "r", "fill_randn")]
    assert [t.shape for t in (z, f, r)] == [(3, 3), (2, 2), (10,)]


def test_from_numpy_takes_the_host_array_shape_and_dtype(test_device):
    log = BehaviorLog(test_device)
    array = np.arange(6, dtype=np.float32).reshape(2, 3)
    tensor = from_numpy(test_device, array, category=MemoryCategory.INPUT, tag="x")
    assert (tensor.shape, tensor.dtype, tensor.category) == (
        (2, 3), float32, MemoryCategory.INPUT)
    labels = from_numpy(test_device, np.array([1, 2, 3], dtype=np.int64), tag="y")
    assert labels.dtype is int64
    assert log.rows == [("malloc", "x", None), ("write", "x", "init_from_host"),
                        ("malloc", "y", None), ("write", "y", "init_from_host")]
    # Floating host data lands in the device's training precision.
    half = Device(small_test_device(), default_dtype="float16")
    assert from_numpy(half, array).dtype is float16


def test_from_numpy_with_h2d_staging_prices_the_copy(test_device):
    log = BehaviorLog(test_device)
    tensor = from_numpy(test_device, np.zeros((64, 64), dtype=np.float32), tag="batch",
                        stage_h2d=True)
    assert log.rows == [("malloc", "batch", None), ("write", "batch", "memcpy_h2d")]
    assert log.kernel_ns("memcpy_h2d", "batch") == test_device.timing.memcpy_duration_ns(
        tensor.nbytes, test_device.spec.h2d_bandwidth)


def test_reshape_shares_storage(test_device):
    tensor = empty(test_device, (12,))
    view = tensor.reshape((3, 4))
    assert view.storage is tensor.storage
    assert view.shape == (3, 4)
    with pytest.raises(ShapeError):
        tensor.reshape((5, 5))
    # Releasing the original keeps the storage alive through the view.
    tensor.release()
    assert not view.is_freed
    view.release()
    assert view.is_freed


@pytest.mark.parametrize("shape, numel", [((), 1), ((7,), 7), (7, 7), ((0,), 0),
                                          ((3, 0, 2), 0), ((2, 3, 4), 24)])
def test_numel_for_scalar_vector_and_zero_size_shapes(test_device, shape, numel):
    tensor = empty(test_device, shape)
    assert tensor.numel == numel and isinstance(tensor.numel, int)
    assert tensor.storage.numel == numel
    assert tensor.nbytes == 4 * numel
    assert tensor.reshape((numel,)).shape == (numel,)
    assert tensor.reshape((1, numel, 1)).numel == numel
    with pytest.raises(ShapeError, match="cannot reshape"):
        tensor.reshape((numel + 1,))
    with pytest.raises(ShapeError, match="negative dimension"):
        tensor.reshape((-1,))


def test_reshape_of_a_scalar_and_a_zero_size_tensor(test_device):
    scalar = empty(test_device, ())
    assert scalar.reshape(()).shape == () and scalar.reshape((1, 1)).numel == 1
    with pytest.raises(ShapeError):
        scalar.reshape((0,))
    hollow = empty(test_device, (4, 0))
    assert hollow.reshape((0, 9)).shape == (0, 9)
    with pytest.raises(ShapeError):
        hollow.reshape(())
    with pytest.raises(ShapeError, match="cannot view shape"):
        type(scalar)(test_device, (2,), storage=scalar.storage)


def test_views_record_no_behavior_and_the_last_release_frees(test_device):
    tensor = empty(test_device, (2, 3, 4), tag="act")
    log = BehaviorLog(test_device)
    view = tensor.reshape((6, 4))
    flat = tensor.flatten_batch()
    assert log.rows == []
    for handle in (tensor, view):
        handle.release()
        assert log.rows == []
    flat.release()
    assert log.rows == [("free", "act", None)]


def test_a_freed_tensor_refuses_every_access(test_device):
    tensor = empty(test_device, (4,), tag="gone")
    tensor.free()
    log = BehaviorLog(test_device)
    before = test_device.clock.now_ns
    for access in (tensor.copy_to_host, tensor.retain, lambda: tensor.reshape((2, 2))):
        with pytest.raises(TensorError, match="already been freed"):
            access()
    assert test_device.clock.now_ns == before
    with pytest.raises(TensorError, match="already been freed"):
        tensor.copy_from_host()
    assert tensor.is_freed and tensor.block_id is None
    assert log.rows == []


def test_resident_host_data_is_written_without_a_copy():
    """Unstaged, ``from_numpy`` costs what allocating the tensor costs."""
    resident, allocated = Device(small_test_device()), Device(small_test_device())
    from_numpy(resident, np.zeros((64, 64), dtype=np.float32))
    empty(allocated, (64, 64))
    assert resident.clock.now_ns == allocated.clock.now_ns > 0


def test_a_half_precision_device_halves_every_float_factory():
    half = Device(small_test_device(), default_dtype="float16")
    made = [empty(half, (3, 5)), zeros(half, (3, 5)), full(half, (3, 5), 2.0),
            randn(half, (3, 5)), from_numpy(half, np.zeros((3, 5), dtype=np.float64))]
    assert [(t.dtype, t.nbytes) for t in made] == [(float16, 30)] * 5
    # Integer data keeps its width: labels are int64 in every precision.
    assert arange_labels(half, batch=3).nbytes == 24
    assert empty(half, (3,), dtype=float32).nbytes == 12


def test_flatten_batch(test_device):
    tensor = empty(test_device, (2, 3, 4, 4))
    flat = tensor.flatten_batch()
    assert flat.shape == (2, 48)
    with pytest.raises(ShapeError):
        empty(test_device, (5,)).flatten_batch()


def test_copy_to_host_reads_then_prices_the_d2h_copy(test_device):
    tensor = empty(test_device, (2,), tag="loss")
    log = BehaviorLog(test_device)
    assert tensor.copy_to_host() is None
    assert log.rows == [("read", "loss", "memcpy_d2h")]
    assert test_device.clock.now_ns - log.times[0] == test_device.timing.memcpy_duration_ns(
        tensor.nbytes, test_device.spec.d2h_bandwidth)


def test_arange_labels_is_one_int64_label_write(test_device):
    log = BehaviorLog(test_device)
    labels = arange_labels(test_device, batch=16)
    assert (labels.shape, labels.dtype, labels.category) == (
        (16,), int64, MemoryCategory.LABEL)
    assert log.rows == [("malloc", "labels", None), ("write", "labels", "init_labels")]


def test_normalize_shape_fast_path_and_fallback():
    from repro.tensor.tensor import _normalize_shape

    plain = (2, 0, 3)
    assert _normalize_shape(plain) is plain          # returned as is, not re-tupled
    for shape in ([2, 0, 3], (np.int64(2), 0, 3), (2.0, 0, 3), (True, 0, 3), np.array([2, 0, 3])):
        normalized = _normalize_shape(shape)
        assert normalized == (int(shape[0]), 0, 3)
        assert all(type(dim) is int for dim in normalized)
    assert _normalize_shape(np.int32(4)) == (4,) and _normalize_shape(()) == ()
    for bad in ((2, -1), [2, -1], (np.int64(-1),), -3):
        with pytest.raises(ShapeError, match="negative dimension"):
            _normalize_shape(bad)


def test_tensor_and_storage_carry_no_instance_dict(test_device):
    tensor = empty(test_device, (2, 2), tag="slotted")
    for instance in (tensor, tensor.storage):
        assert not hasattr(instance, "__dict__")
        with pytest.raises(AttributeError):
            instance.scratch = 1
    # ``empty`` is the constructor itself: the documented leading arguments.
    typed = empty(test_device, (3,), int64, MemoryCategory.LABEL, "labels")
    assert (typed.dtype, typed.category, typed.tag) == (int64, MemoryCategory.LABEL, "labels")
