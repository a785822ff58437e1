"""A symbolic session simulates shapes, not values.

Three seams used to leak values or unread history into symbolic runs: the
loader drew every batch, ``copy_from_host`` cast it, and every kernel was
logged on the compute stream.  The oracle for the first two is the same
session with the loader forced (test-only; there is nothing in ``src/`` to
switch) to draw real batches; the oracle for the third is the stream's own
contract — its horizon is the clock — plus times recorded on the parent
commit.  Eager sessions must not have moved at all.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.data.datasets import DATASET_PRESETS, build_dataset
from repro.data.loader import DataLoader
from repro.device.device import Device
from repro.device.stream import StreamOp
from repro.device.timing import elementwise_cost
from repro.swap.executor import SwapExecutor
from repro.tensor.storage import DeviceStorage
from repro.tensor.tensor import from_numpy
from repro.train import session as session_module
from repro.train.session import TrainingRunConfig, run_training_session
from repro.train.trainer import shard_batch

from .test_replica_classes import (assert_sessions_equal, make_config, outcome,
                                   pressure_capacity, reduced)

RESNET_FP16 = dict(model="resnet18", dataset="cifar10", batch_size=8, iterations=3,
                   model_kwargs={"input_size": 32, "num_classes": 10},
                   dtype="float16", execution_mode="symbolic", seed=3)


@contextmanager
def loader_draws_every_batch():
    """Sessions started inside feed real batches, whatever their mode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DataLoader, "next_batch",
                      lambda self: self.dataset.sample_batch(self.batch_size))
        yield


class _GrabGroup:
    """A session ``capture`` hook that only keeps the device group."""

    def attach(self, group):
        self.group = group

    def collect(self, profilers, traces):
        pass


# -- (a) nothing is drawn, cast, stored or logged --------------------------------------


@pytest.mark.parametrize("dataset", sorted(DATASET_PRESETS))
def test_stand_ins_look_like_a_drawn_batch(dataset):
    source = build_dataset(dataset, seed=11)
    untouched = build_dataset(dataset, seed=11)
    stand_ins = source.batch_stand_ins(7)
    assert source._rng.bit_generator.state == untouched._rng.bit_generator.state
    for stand_in, drawn in zip(stand_ins, source.sample_batch(7)):
        assert (stand_in.shape, stand_in.dtype, stand_in.size, stand_in.nbytes) == (
            drawn.shape, drawn.dtype, drawn.size, drawn.nbytes)
        assert not any(stand_in.strides) and not stand_in.flags.writeable
        assert ([s.shape for s in shard_batch(stand_in, 3)]
                == [s.shape for s in shard_batch(drawn, 3)])


def test_symbolic_session_never_asks_the_dataset_for_values(monkeypatch):
    built = []

    def build_unreadable(name, **kwargs):
        dataset = build_dataset(name, **kwargs)
        dataset.sample_batch = lambda batch_size: pytest.fail("batch drawn")
        built.append(dataset)
        return dataset

    monkeypatch.setattr(session_module, "build_dataset", build_unreadable)
    config = make_config("lenet5", batch_size=7, n_devices=2, iterations=3)
    result = run_training_session(config)
    assert len(result.iteration_stats) == 3
    (dataset,) = built
    fresh = np.random.default_rng(config.seed)
    assert dataset._rng.bit_generator.state == fresh.bit_generator.state


def test_symbolic_session_writes_no_buffer_and_logs_no_kernel(monkeypatch):
    stream_ops, buffer_writes = [], []
    original_init = StreamOp.__init__
    monkeypatch.setattr(StreamOp, "__init__", lambda op, *args, **kwargs: (
        stream_ops.append(op), original_init(op, *args, **kwargs))[1])
    monkeypatch.setattr(DeviceStorage, "set_buffer",
                        lambda storage, values: buffer_writes.append(storage.tag))
    grab = _GrabGroup()
    run_training_session(TrainingRunConfig(**RESNET_FP16), capture=grab)
    (device,) = grab.group
    assert device.kernel_count > 900
    assert buffer_writes == []
    assert stream_ops == [] == device.compute_stream.ops


def test_copy_from_host_casts_only_into_a_buffer():
    class Uncastable(np.ndarray):
        def astype(self, *args, **kwargs):
            raise AssertionError("cast of a batch nobody keeps")

    host = np.ones((4, 3), dtype=np.float32).view(Uncastable)
    symbolic = from_numpy(Device(execution_mode="symbolic", default_dtype="float16"),
                          host, stage_h2d=True)
    assert (symbolic.dtype.name, symbolic.nbytes) == ("float16", 24)
    eager = from_numpy(Device(default_dtype="float16"),
                       np.ones((4, 3), dtype=np.float32), stage_h2d=True)
    assert eager.numpy().dtype == np.float16 and eager.numpy().sum() == 12


# -- (b) differential: stand-ins against drawn batches ---------------------------------


def _swap_config(structure, dtype, n_devices, batch_size, swap):
    capacity = None
    if swap in ("lru", "unified"):
        capacity = pressure_capacity(structure, -(-batch_size // n_devices),
                                     dtype, "caching")
    return make_config(structure, dtype=dtype, n_devices=n_devices,
                       batch_size=batch_size, swap=swap,
                       device_memory_capacity=capacity)


@pytest.mark.parametrize("swap", ["off", "lru", "zero_offload", "unified"])
@pytest.mark.parametrize("n_devices,batch_size", [(1, 12), (2, 12), (2, 13),
                                                  (3, 12), (3, 14)])
@pytest.mark.parametrize("dtype", ["float32", "float16"])
@pytest.mark.parametrize("structure", ["mlp", "lenet5"])
def test_stand_in_session_equals_the_drawn_one(structure, dtype, n_devices,
                                               batch_size, swap):
    config = _swap_config(structure, dtype, n_devices, batch_size, swap)
    status, default = outcome(config)
    with loader_draws_every_batch():
        oracle_status, oracle = outcome(config)
    assert status == oracle_status
    if status != "ok":
        assert default == oracle
        return
    assert_sessions_equal(default, oracle)
    assert reduced(default) == reduced(oracle)


@pytest.mark.parametrize("swap", ["off", "zero_offload"])
def test_uneven_shards_of_512_on_three_devices(swap):
    """171/171/170: the stand-ins shard exactly like the drawn batch."""
    config = make_config("mlp", batch_size=512, n_devices=3, swap=swap)
    default = run_training_session(config)
    with loader_draws_every_batch():
        oracle = run_training_session(config)
    assert_sessions_equal(default, oracle)
    assert reduced(default) == reduced(oracle)


def test_half_precision_conv_net_equals_the_drawn_one():
    config = TrainingRunConfig(**{**RESNET_FP16, "iterations": 2, "n_devices": 3})
    default = run_training_session(config)
    with loader_draws_every_batch():
        oracle = run_training_session(config)
    assert_sessions_equal(default, oracle)
    assert reduced(default) == reduced(oracle)


# -- (c) eager is untouched ------------------------------------------------------------

EAGER_MLP = dict(model="mlp", dataset="two_cluster",
                 model_kwargs={"hidden_dim": 64, "num_hidden_layers": 2},
                 batch_size=32, iterations=4, execution_mode="eager", seed=3)
EAGER_RESNET = dict(model="resnet18", dataset="cifar10", batch_size=4, iterations=2,
                    model_kwargs={"num_classes": 10}, execution_mode="eager", seed=3)


@pytest.mark.parametrize("overrides,losses", [
    # Recorded on the parent commit (832b736).  The tolerance only absorbs a
    # different BLAS; another batch, cast or RNG position moves the first digit.
    (EAGER_MLP, [2.1798839569091797, 1.8308430910110474,
                 0.3065106272697449, 0.17527739703655243]),
    ({**EAGER_MLP, "n_devices": 2}, [2.17988383769989, 1.8308431506156921,
                                     0.3065106272697449, 0.17527740448713303]),
    ({**EAGER_MLP, "dtype": "float16"}, [2.1800460815429688, 1.8326672315597534,
                                         0.3063366413116455, 0.17540617287158966]),
    (EAGER_RESNET, [4.200672149658203, 4.176075458526611]),
], ids=["mlp", "mlp-2-devices", "mlp-fp16", "resnet18"])
def test_eager_losses_equal_the_parent_commit(overrides, losses):
    session = run_training_session(TrainingRunConfig(**overrides))
    assert session.losses() == pytest.approx(losses, rel=1e-6)


def test_lazy_generator_draws_the_seeded_stream():
    import copy

    from repro.rng import LazyGenerator

    for seed in (0, 3, 12345):
        lazy, eager = LazyGenerator(seed), np.random.default_rng(seed)
        assert (lazy.standard_normal((3, 4)).tobytes()
                == eager.standard_normal((3, 4)).tobytes())
        assert lazy.integers(0, 10, size=7).tolist() == eager.integers(0, 10, size=7).tolist()
        assert lazy.uniform(-1.0, 1.0, size=5).tobytes() == eager.uniform(-1.0, 1.0, size=5).tobytes()
        assert lazy.random(6).tobytes() == eager.random(6).tobytes()
        assert copy.deepcopy(lazy).random(2).tobytes() == lazy.random(2).tobytes()


_COLD_PROCESS = """
import sys
from repro.experiments.sweep import SweepGrid, SweepRunner, run_scenario

def lazily_imported():
    return sorted(name for name in ("numpy.random", "numpy.ma") if name in sys.modules)

grid = dict(models=("resnet18",), batch_sizes=(8,), dataset="cifar10",
            model_kwargs={"input_size": 32, "num_classes": 10}, iterations=(2,),
            n_devices=(1, 2), dtypes=("float32", "float16"),
            swap_policies=("none", "planner"))
for scenario in SweepGrid(**grid).expand():
    run_scenario(scenario)
print("simulated", lazily_imported())
replayed = SweepRunner(cache_dir=None).run(SweepGrid(execution_mode="replay", **grid))
assert replayed.replayed == len(replayed.results) == 8
print("replayed", lazily_imported())
run_scenario(SweepGrid(models=("mlp",), execution_mode="eager").expand()[0])
print("eager", lazily_imported())
"""


def test_a_symbolic_process_imports_neither_numpy_random_nor_numpy_ma():
    """13 ms + 9 ms of every cold child's and pool worker's first scenario."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    completed = subprocess.run(
        [sys.executable, "-c", _COLD_PROCESS], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
                          "PYTHONDONTWRITEBYTECODE": "1"})
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == [
        "simulated []", "replayed []", "eager ['numpy.random']"]


# -- (d) the compute stream is a horizon, and it is the clock --------------------------


def test_horizon_equals_the_clock_after_every_kernel_and_rematerialization(monkeypatch):
    checked = {"kernel": 0, "rematerialize": 0}

    def checking(kind, original):
        def wrapper(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            device = self if kind == "kernel" else self.device
            assert device.compute_stream.busy_until_ns == device.clock.now_ns
            checked[kind] += 1
            return result
        return wrapper

    monkeypatch.setattr(Device, "run_kernel", checking("kernel", Device.run_kernel))
    monkeypatch.setattr(SwapExecutor, "_rematerialize",
                        checking("rematerialize", SwapExecutor._rematerialize))
    config = make_config("mlp", batch_size=2048, iterations=5, swap="unified",
                         model_kwargs={"hidden_dim": 8192, "num_hidden_layers": 6})
    grab = _GrabGroup()
    run_training_session(config, capture=grab)
    assert checked["rematerialize"] > 0 and checked["kernel"] > 100
    # Swap traffic reserves slots on the copy stream; compute logs nothing.
    assert grab.group.primary.dma.copy_stream.ops
    assert grab.group.primary.compute_stream.ops == []


def test_hand_scheduled_compute_work_reads_as_on_the_parent_commit():
    """Clock / horizon pairs recorded on the parent commit (832b736)."""
    device = Device(execution_mode="symbolic")
    cost = elementwise_cost(1 << 16)
    for _ in range(3):
        device.run_kernel(cost)
    assert device.compute_stream.schedule(50_000, name="hand") == (37_368, 87_368)
    device.run_kernel(cost)         # queues behind the hand-scheduled op
    assert (device.clock.now_ns, device.compute_stream.busy_until_ns) == (49_824, 99_824)
    device.compute_stream.schedule_at(device.clock.now_ns + 200_000, 30_000)
    device.run_kernel(cost)
    assert (device.clock.now_ns, device.compute_stream.busy_until_ns) == (62_280, 292_280)
    assert device.synchronize() == 292_280
    device.run_kernel(cost)
    assert device.clock.now_ns == device.compute_stream.busy_until_ns == 304_736
    assert [op.name for op in device.compute_stream.ops] == ["hand", "compute-op1"]
