"""Tests for dtypes and device storage."""

import numpy as np
import pytest

from repro.core.events import MemoryCategory
from repro.errors import DTypeError, ShapeError, TensorError
from repro.tensor.dtype import all_dtypes, float32, from_numpy_dtype, get_dtype, int64
from repro.tensor import empty
from repro.tensor import functional as F

from tests.helpers import BehaviorLog, call_advance, kernel_rows


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
    storage = empty(test_device, (100,), dtype=float32, category=MemoryCategory.ACTIVATION,
                    tag="act").storage
    assert storage.nbytes == 400
    assert storage.request is not None
    assert test_device.place().stats.allocated_bytes >= 400


def test_a_storage_records_its_malloc_and_free_and_nothing_else(test_device):
    log = BehaviorLog(test_device)
    tensor = empty(test_device, (4,), dtype=float32, tag="x")
    assert log.rows == [("malloc", "x", None)]
    tensor.free()
    assert log.rows == [("malloc", "x", None), ("free", "x", None)]


def test_storage_refcounting_frees_at_zero(test_device):
    tensor = empty(test_device, (10,), dtype=float32)
    storage = tensor.storage
    tensor.retain()
    tensor.release()
    assert not storage.is_freed and storage.refcount == 1
    tensor.release()
    assert storage.is_freed
    # Releasing an already-freed storage is a no-op.
    tensor.release()


def test_storage_free_is_idempotent(test_device):
    tensor = empty(test_device, (10,), dtype=float32)
    storage = tensor.storage
    tensor.free()
    tensor.free()
    assert storage.is_freed
    with pytest.raises(TensorError):
        storage.record_read("op")


class _Touches:
    """The accesses a device hands its recorder: kind, request id and op."""

    def __init__(self, device):
        self.clock = device.clock
        self.call_ns = device.spec.allocator_overhead_ns
        self.seen = []
        self.nbytes = []
        device.recorder = self

    def on_malloc(self, nbytes, category_code, tag):
        call_advance(self)
        self.nbytes.append(nbytes)
        return len(self.nbytes) - 1

    def on_read(self, request, op):
        self.seen.append(("read", request, op))

    def on_write(self, request, op):
        self.seen.append(("write", request, op))

    on_kernel = kernel_rows


def test_storage_access_records_events(test_device):
    touches = _Touches(test_device)
    storage = empty(test_device, (10,), dtype=float32, tag="x").storage
    storage.record_write("producer")
    storage.record_read("consumer")
    storage.record_read("consumer")
    assert [kind for kind, _, _ in touches.seen] == ["write", "read", "read"]


def test_an_access_reports_its_storage_request_and_op(test_device):
    touches = _Touches(test_device)
    storage = empty(test_device, (10,), dtype=int64).storage
    storage.record_write("producer")
    storage.record_read("consumer")
    storage.record_write("update")
    request = storage.request
    assert touches.seen == [("write", request, "producer"), ("read", request, "consumer"),
                            ("write", request, "update")]
    assert touches.nbytes[request] == 80


def test_a_kernel_reports_its_operands_requests_reads_then_writes(test_device):
    touches = _Touches(test_device)
    a, b = empty(test_device, (10,), tag="a"), empty(test_device, (10,), tag="b")
    out = F.add(a, b)
    assert touches.seen == [("read", a.storage.request, "add"),
                            ("read", b.storage.request, "add"),
                            ("write", out.storage.request, "add")]


def test_storage_rejects_negative_numel(test_device):
    """A storage is made by its tensor, which refuses a negative shape
    before it requests anything."""
    with pytest.raises(ShapeError):
        empty(test_device, (-1,))
    assert len(test_device.recorder) == 0


def test_zero_element_storage_still_occupies_a_block(test_device):
    storage = empty(test_device, (0,), dtype=float32).storage
    assert storage.request is not None
    assert test_device.place().size[storage.request] == 512
