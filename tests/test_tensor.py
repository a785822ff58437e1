"""Tests for the Tensor type and its factory helpers."""

import numpy as np
import pytest

from repro.core.events import MemoryCategory
from repro.errors import ShapeError, TensorError
from repro.tensor import arange_labels, empty, from_numpy, full, randn, zeros
from repro.tensor.dtype import float32, int64


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


def test_zeros_and_full(test_device):
    z = zeros(test_device, (3, 3))
    np.testing.assert_allclose(z.numpy(), np.zeros((3, 3)))
    f = full(test_device, (2, 2), 7.5)
    np.testing.assert_allclose(f.numpy(), np.full((2, 2), 7.5))


def test_randn_is_deterministic_with_rng(test_device, rng):
    import numpy as np
    a = randn(test_device, (10,), rng=np.random.default_rng(7))
    b = randn(test_device, (10,), rng=np.random.default_rng(7))
    np.testing.assert_allclose(a.numpy(), b.numpy())


def test_from_numpy_preserves_values_and_dtype(test_device):
    array = np.arange(6, dtype=np.float32).reshape(2, 3)
    tensor = from_numpy(test_device, array, category=MemoryCategory.INPUT)
    assert tensor.shape == (2, 3)
    assert tensor.dtype is float32
    np.testing.assert_allclose(tensor.numpy(), array)
    labels = from_numpy(test_device, np.array([1, 2, 3], dtype=np.int64))
    assert labels.dtype is int64


def test_from_numpy_with_h2d_staging_advances_clock(test_device):
    before = test_device.clock.now_ns
    from_numpy(test_device, np.zeros((64, 64), dtype=np.float32), stage_h2d=True)
    assert test_device.clock.now_ns > before


def test_reshape_shares_storage(test_device):
    tensor = from_numpy(test_device, np.arange(12, dtype=np.float32))
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


def test_flatten_batch(test_device):
    tensor = empty(test_device, (2, 3, 4, 4))
    flat = tensor.flatten_batch()
    assert flat.shape == (2, 48)
    with pytest.raises(ShapeError):
        empty(test_device, (5,)).flatten_batch()


def test_item_requires_single_element(test_device):
    scalar = full(test_device, (1,), 3.0)
    assert scalar.item() == pytest.approx(3.0)
    with pytest.raises(TensorError):
        empty(test_device, (2,)).item()


def test_set_data_validates_size(test_device):
    tensor = empty(test_device, (2, 2))
    tensor.set_data(np.ones(4))
    np.testing.assert_allclose(tensor.numpy(), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        tensor.set_data(np.ones(5))


def test_copy_to_host_returns_values_in_eager_mode(test_device):
    tensor = full(test_device, (2,), 1.5)
    values = tensor.copy_to_host()
    np.testing.assert_allclose(values, [1.5, 1.5])


def test_copy_to_host_returns_none_in_virtual_mode(virtual_device):
    tensor = empty(virtual_device, (2,))
    assert tensor.copy_to_host() is None


def test_arange_labels_in_range(test_device):
    labels = arange_labels(test_device, batch=16, num_classes=4)
    values = labels.numpy()
    assert values.shape == (16,)
    assert values.min() >= 0
    assert values.max() < 4


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
