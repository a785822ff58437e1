"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
            assert issubclass(obj, errors.ReproError)


def test_out_of_memory_error_carries_sizes():
    error = errors.OutOfMemoryError(requested=100, free=10, reserved=50, capacity=60)
    assert error.requested == 100
    assert error.free == 10
    assert error.reserved == 50
    assert error.capacity == 60
    assert "100 bytes" in str(error)


def test_out_of_memory_is_a_device_error():
    assert issubclass(errors.OutOfMemoryError, errors.DeviceError)
    assert issubclass(errors.DeviceError, errors.ReproError)


def test_trace_errors_subclass_trace_error():
    assert issubclass(errors.EmptyTraceError, errors.TraceError)
    assert issubclass(errors.TraceFormatError, errors.TraceError)


def test_tensor_errors_subclass_tensor_error():
    assert issubclass(errors.ShapeError, errors.TensorError)
    assert issubclass(errors.DTypeError, errors.TensorError)
