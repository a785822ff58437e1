"""Equivalence suite: symbolic execution is event-identical to eager.

The whole point of symbolic mode is that the trace/timing layer is a pure
function of shapes, never of tensor values — so a symbolic run must produce
*exactly* the events an eager run of the same configuration produces:
same kinds, sizes, categories, addresses, iteration attribution, simulated
timestamps, tags/ops, lifetimes and device ranks.  These tests pin that
equivalence across models (dense MLP, conv AlexNet, residual ResNet),
replica counts and training dtypes, so any kernel that accidentally makes
memory behavior value-dependent (or mode-dependent) fails tier-1
immediately.

Block ids come from a process-global counter (they are *stable within* a
session but not across sessions), so the comparison normalizes them to
first-appearance order before comparing streams.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, MaterializationError
from repro.train.session import TrainingRunConfig, run_training_session

from tests.helpers import validating

# Every session this file runs must also satisfy the trace invariants.
run_training_session = validating(run_training_session)


def _normalized_block_ids(values):
    """Remap a block-id sequence to dense first-appearance order."""
    mapping = {}
    out = []
    for value in values:
        if value not in mapping:
            mapping[value] = len(mapping)
        out.append(mapping[value])
    return out


def event_stream(trace):
    """The full per-event comparison tuples, with block ids normalized."""
    cols = trace.columns()
    tags, ops = trace.event_strings()
    block_ids = _normalized_block_ids(cols.block_id.tolist())
    return list(zip(
        cols.kind_code.tolist(),
        cols.timestamp_ns.tolist(),
        block_ids,
        cols.address.tolist(),
        cols.size.tolist(),
        cols.category_code.tolist(),
        cols.iteration.tolist(),
        cols.device_rank.tolist(),
        tags,
        ops,
    ))


def lifetime_stream(trace):
    """Per-lifetime comparison tuples, with block ids normalized."""
    block_ids = _normalized_block_ids(
        [lifetime.block_id for lifetime in trace.lifetimes])
    return [
        (bid, lt.address, lt.size, lt.category, lt.tag, lt.malloc_ns, lt.free_ns,
         lt.iteration, lt.access_count, lt.device_rank)
        for bid, lt in zip(block_ids, trace.lifetimes)
    ]


def run_pair(model, model_kwargs, batch_size, n_devices, dtype, iterations=2,
             dataset="two_cluster"):
    """Run the same configuration eagerly and symbolically."""
    base = dict(model=model, model_kwargs=model_kwargs, dataset=dataset,
                batch_size=batch_size, iterations=iterations,
                n_devices=n_devices, dtype=dtype, seed=7)
    eager = run_training_session(TrainingRunConfig(execution_mode="eager", **base))
    symbolic = run_training_session(TrainingRunConfig(execution_mode="symbolic", **base))
    return eager, symbolic


CASES = [
    # (model, model_kwargs, dataset, batch_size, n_devices, dtype)
    ("mlp", {"hidden_dim": 64}, "two_cluster", 16, 1, "float32"),
    ("mlp", {"hidden_dim": 64}, "two_cluster", 16, 2, "float32"),
    ("mlp", {"hidden_dim": 64}, "two_cluster", 16, 1, "float16"),
    ("mlp", {"hidden_dim": 64}, "two_cluster", 16, 2, "float16"),
    ("alexnet", {"input_size": 32, "num_classes": 10}, "cifar10", 4, 1, "float32"),
    ("alexnet", {"input_size": 32, "num_classes": 10}, "cifar10", 4, 2, "float16"),
    ("resnet18", {"input_size": 32, "num_classes": 10}, "cifar10", 4, 1, "float32"),
    ("resnet18", {"input_size": 32, "num_classes": 10}, "cifar10", 4, 2, "float16"),
    ("vgg11", {"input_size": 32, "num_classes": 10}, "cifar10", 2, 1, "float32"),
    ("inception_small", {"input_size": 32, "num_classes": 10}, "cifar10", 2, 1, "float32"),
    ("mlp", {"hidden_dim": 64}, "two_cluster", 16, 4, "float32"),
]


@pytest.mark.parametrize("model,model_kwargs,dataset,batch_size,n_devices,dtype", CASES)
def test_symbolic_trace_is_event_identical_to_eager(model, model_kwargs, dataset,
                                                    batch_size, n_devices, dtype):
    eager, symbolic = run_pair(model, model_kwargs, batch_size, n_devices, dtype,
                               dataset=dataset)

    assert event_stream(symbolic.trace) == event_stream(eager.trace)
    assert lifetime_stream(symbolic.trace) == lifetime_stream(eager.trace)
    assert ([mark.to_dict() for mark in symbolic.trace.iteration_marks]
            == [mark.to_dict() for mark in eager.trace.iteration_marks])
    assert symbolic.trace.duration_ns == eager.trace.duration_ns

    # Timing and footprint reductions agree too.
    assert symbolic.peak_allocated_bytes == eager.peak_allocated_bytes
    assert symbolic.peak_reserved_bytes == eager.peak_reserved_bytes
    assert symbolic.parameter_bytes == eager.parameter_bytes
    assert ([stats.duration_ns for stats in symbolic.iteration_stats]
            == [stats.duration_ns for stats in eager.iteration_stats])


def test_symbolic_columns_match_eager_columns():
    """The columnar views agree array-for-array (not just tuple-wise)."""
    import numpy as np

    eager, symbolic = run_pair("mlp", {"hidden_dim": 32}, 8, 1, "float32")
    eager_cols = eager.trace.columns()
    symbolic_cols = symbolic.trace.columns()
    for name in ("kind_code", "timestamp_ns", "size", "category_code",
                 "iteration", "device_rank", "address", "event_id"):
        np.testing.assert_array_equal(getattr(symbolic_cols, name),
                                      getattr(eager_cols, name), err_msg=name)


def test_legacy_virtual_mode_name_is_rejected():
    """The alias is gone: one mode name, one cache key per result."""
    with pytest.raises(ConfigurationError, match="execution_mode"):
        run_training_session(TrainingRunConfig(
            model="mlp", model_kwargs={"hidden_dim": 32}, batch_size=8,
            iterations=1, execution_mode="virtual"))


def test_unified_swap_session_is_event_identical_to_eager():
    """A ``--swap unified`` session is mode-invariant end to end."""
    base = dict(model="mlp", model_kwargs={"hidden_dim": 64},
                dataset="two_cluster", batch_size=16, iterations=3, seed=7,
                swap="unified")
    eager = run_training_session(
        TrainingRunConfig(execution_mode="eager", **base))
    symbolic = run_training_session(
        TrainingRunConfig(execution_mode="symbolic", **base))
    assert event_stream(symbolic.trace) == event_stream(eager.trace)
    assert lifetime_stream(symbolic.trace) == lifetime_stream(eager.trace)
    assert symbolic.swap_execution == eager.swap_execution


def test_unified_rematerialization_is_event_identical_to_eager():
    """Where the unified plan actually swaps *and* recomputes, both modes
    emit the same decision stream (block ids come from a process-global
    counter, so the comparison normalizes them)."""
    from repro.swap.policies import UnifiedPolicy
    from tests.test_swap_execution import run_manual_policy

    settings = dict(model="mlp", dataset="two_cluster", batch_size=512,
                    iterations=5,
                    model_kwargs={"hidden_dim": 1024, "num_hidden_layers": 3},
                    seed=7)

    def run(mode):
        return run_manual_policy(
            UnifiedPolicy(min_candidate_bytes=256 * 1024),
            execution_mode=mode, **settings)

    def normalized_summary(summary):
        data = summary.to_dict()
        predicted = dict(data["predicted"])
        predicted["decisions"] = [
            {key: value for key, value in decision.items() if key != "block_id"}
            for decision in predicted["decisions"]]
        data["predicted"] = predicted
        return data

    symbolic_trace, symbolic_summary = run("symbolic")
    eager_trace, eager_summary = run("eager")
    assert symbolic_summary.swap_out_count > 0
    assert any(d["mechanism"] == "recompute"
               for d in symbolic_summary.predicted["decisions"])
    assert event_stream(symbolic_trace) == event_stream(eager_trace)
    assert lifetime_stream(symbolic_trace) == lifetime_stream(eager_trace)
    assert (normalized_summary(symbolic_summary)
            == normalized_summary(eager_summary))


def test_symbolic_mode_has_no_values_but_eager_does():
    eager, symbolic = run_pair("mlp", {"hidden_dim": 32}, 8, 1, "float32",
                               iterations=1)
    assert all(loss is not None for loss in eager.losses())
    assert all(loss is None for loss in symbolic.losses())


def test_symbolic_storage_refuses_numeric_readout():
    from repro.device import Device, small_test_device
    from repro.tensor import randn

    device = Device(small_test_device(), execution_mode="symbolic")
    assert device.is_symbolic and not device.is_eager
    tensor = randn(device, (4, 4))
    with pytest.raises(MaterializationError):
        tensor.numpy()
