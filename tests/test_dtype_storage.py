"""Tests for dtypes and device storage."""

import numpy as np
import pytest

from repro.core.events import MemoryCategory
from repro.errors import DTypeError, TensorError
from repro.tensor.dtype import all_dtypes, float32, from_numpy_dtype, get_dtype, int64
from repro.tensor.storage import DeviceStorage

from tests.helpers import BehaviorLog


# -- dtypes ---------------------------------------------------------------------------


def test_get_dtype_by_name():
    assert get_dtype("float32") is float32
    assert get_dtype("int64") is int64
    with pytest.raises(DTypeError):
        get_dtype("complex128")


def test_from_numpy_dtype_round_trip():
    for dtype in all_dtypes():
        assert from_numpy_dtype(dtype.numpy_dtype) is dtype
    with pytest.raises(DTypeError):
        from_numpy_dtype(np.dtype(np.complex64))


def test_dtype_itemsizes():
    assert float32.itemsize == 4
    assert int64.itemsize == 8
    assert get_dtype("float16").itemsize == 2
    assert repr(float32) == "repro.float32"


# -- storage --------------------------------------------------------------------------


def test_storage_allocates_device_block(test_device):
    storage = DeviceStorage(test_device, numel=100, dtype=float32,
                            category=MemoryCategory.ACTIVATION, tag="act")
    assert storage.nbytes == 400
    assert storage.request is not None
    assert test_device.place().stats.allocated_bytes >= 400


def test_a_storage_records_its_malloc_and_free_and_nothing_else(test_device):
    log = BehaviorLog(test_device)
    storage = DeviceStorage(test_device, numel=4, dtype=float32, tag="x")
    assert log.rows == [("malloc", "x", None)]
    storage.free()
    assert log.rows == [("malloc", "x", None), ("free", "x", None)]


def test_storage_refcounting_frees_at_zero(test_device):
    storage = DeviceStorage(test_device, numel=10)
    storage.retain()
    storage.release()
    assert not storage.is_freed
    storage.release()
    assert storage.is_freed
    # Releasing an already-freed storage is a no-op.
    storage.release()


def test_storage_free_is_idempotent(test_device):
    storage = DeviceStorage(test_device, numel=10)
    storage.free()
    storage.free()
    assert storage.is_freed
    with pytest.raises(TensorError):
        storage.record_read("op")


class _Touches:
    """The accesses a device hands its recorder: kind, request id and op."""

    def __init__(self, device):
        self.seen = []
        device.recorder = self

    def on_malloc(self, request):
        pass

    def on_read(self, request, op):
        self.seen.append(("read", request, op))

    def on_write(self, request, op):
        self.seen.append(("write", request, op))


def test_storage_access_records_events(test_device):
    touches = _Touches(test_device)
    storage = DeviceStorage(test_device, numel=10, tag="x")
    storage.record_write("producer")
    storage.record_read("consumer")
    storage.record_read("consumer")
    assert [kind for kind, _, _ in touches.seen] == ["write", "read", "read"]


def test_an_access_reports_its_storage_request_and_op(test_device):
    touches = _Touches(test_device)
    storage = DeviceStorage(test_device, numel=10, dtype=int64)
    storage.record_write("producer")
    storage.record_read("consumer")
    storage.record_write("update")
    request = storage.request
    assert touches.seen == [("write", request, "producer"), ("read", request, "consumer"),
                            ("write", request, "update")]
    assert test_device.requests.nbytes[request] == 80


def test_storage_rejects_negative_numel(test_device):
    with pytest.raises(TensorError):
        DeviceStorage(test_device, numel=-1)


def test_zero_element_storage_still_occupies_a_block(test_device):
    storage = DeviceStorage(test_device, numel=0)
    assert storage.request is not None
    assert test_device.place().size[storage.request] == 512
