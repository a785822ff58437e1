"""Steady iterations: the trainer simulates each distinct iteration once.

An iteration that leaves every replica's live requests and the replicas'
clock offsets as it found them is appended again, shifted, as every later
iteration of its ``train`` call (:mod:`repro.train.trainer`).  The oracle
here is the untiled trainer: with the steady predicate patched (test-only;
nothing in ``src/`` switches it) never to fire, every iteration is
simulated, and the tiled run must record exactly what the oracle does —
each request's bytes, category and tag, the recorder's rows (the malloc and
free calls among them) and strings, marks, clocks, timing atoms and mark
spans, collective records and iteration statistics.  The placed trace
of every corpus recording is then exactly periodic, with period 1, from the
iteration the trainer found steady (:func:`repro.core.patterns.periodicity`).

``pytest --hypothesis-profile=steady-wide`` (``make scaling-smoke``) draws
the differential at the profile's count instead of its tier-1 one.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import MemoryCategory
from repro.core.patterns import periodicity
from repro.core.trace import ROW_FIELDS, ROW_WIDTH, columns_from_rows
from repro.data.loader import HostLatencyModel
from repro.device import Device, small_test_device
from repro.models import MLP
from repro.models import registry
from repro.nn import SGD
from repro.tensor.tensor import empty
from repro.train import session as session_module
from repro.train import trainer as trainer_module
from repro.train.session import TrainingRunConfig, record_session
from repro.train.trainer import DataParallelTrainer

WIDE = settings.get_current_profile_name() == "steady-wide"
#: The package's models, read at collection, before any test registers one.
REGISTERED = registry.available_models()

_IMAGE = {"input_size": 32, "num_classes": 10}
#: Every registered model at a small size, with the dataset it accepts.
MODELS = {
    "mlp": ("two_cluster", {"hidden_dim": 32, "num_hidden_layers": 2}),
    "paper_mlp": ("two_cluster", {}),
    "lenet5": ("mnist", {"num_classes": 10}),
    "alexnet": ("cifar10", _IMAGE),
    "inception_small": ("cifar10", _IMAGE),
    "vgg11": ("cifar10", _IMAGE),
    "vgg16": ("cifar10", _IMAGE),
    "resnet18": ("cifar10", _IMAGE),
    "resnet34": ("cifar10", _IMAGE),
    "resnet50": ("cifar10", _IMAGE),
    "resnet101": ("cifar10", _IMAGE),
    "resnet152": ("cifar10", _IMAGE),
}
OPTIMIZERS = [("sgd", 0.9), ("sgd", 0.0), ("adam", 0.9)]
DTYPES = ["float32", "float16"]
#: (devices, batch): one replica, two ranks of one class, three ranks in two
#: classes (shards of 2, 2 and 1 samples).
DEVICES = [(1, 4), (2, 4), (3, 5)]
#: The default host-latency model, and none at all.
LATENCIES = [None, HostLatencyModel(per_batch_ns=0, per_sample_ns=0, per_byte_ns=0.0)]


def make_config(model, optimizer=("sgd", 0.9), dtype="float32", devices=(1, 4),
                host_latency=None, iterations=5):
    dataset, model_kwargs = MODELS[model]
    return TrainingRunConfig(
        model=model, model_kwargs=dict(model_kwargs), dataset=dataset,
        batch_size=devices[1], n_devices=devices[0], iterations=iterations,
        optimizer=optimizer[0], momentum=optimizer[1], dtype=dtype,
        host_latency=host_latency)


def record(config, steady=True):
    """Run ``config``'s front end; returns everything it recorded, the
    indices of the iterations the trainer simulated and the recording.
    ``steady=False`` is the oracle: the steady predicate never fires."""
    groups, trainers, simulated = [], [], []
    build_device_group = session_module.build_device_group
    train = DataParallelTrainer.train
    train_iteration = DataParallelTrainer.train_iteration

    def spy_group(config):
        groups.append(build_device_group(config))
        return groups[-1]

    def spy_train(self, num_iterations):
        trainers.append(self)
        return train(self, num_iterations)

    def spy_iteration(self, index):
        simulated.append(index)
        return train_iteration(self, index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "build_device_group", spy_group)
        patch.setattr(DataParallelTrainer, "train", spy_train)
        patch.setattr(DataParallelTrainer, "train_iteration", spy_iteration)
        if not steady:
            patch.setattr(trainer_module, "left_as_found", lambda *args: False)
        recording = record_session(config)
    (trainer,), (group,) = trainers, groups
    replicas = []
    for device in group:
        recorder = device.recorder
        replicas.append({
            "tags": list(recorder.tags),
            "rows": recorder.rows.tobytes(),
            "ops": list(recorder.ops),
            "marks": [(mark.index, mark.start_ns, mark.end_ns)
                      for mark in recorder.iteration_marks],
            "end_ns": device.clock.now_ns,
            "atoms": bytes(recorder.atoms),
            "mark_spans": [list(span) for span in recorder.mark_spans],
        })
    recorded = {
        "replicas": replicas,
        "history": [dataclasses.astuple(stats) for stats in trainer.history],
        "collective_records": [record.to_dict() for record in trainer.collective_records],
        "engine_records": [record.to_dict() for record in trainer.group.collective.records],
        "collective_summary": trainer.collective_summary(),
        "recording_collective": recording.collective,
    }
    return recorded, simulated, recording


def assert_same(tiled, oracle):
    """Field-by-field equality, naming the first field that differs."""
    assert tiled.keys() == oracle.keys()
    assert len(tiled["replicas"]) == len(oracle["replicas"])
    for replica, (ours, theirs) in enumerate(zip(tiled["replicas"], oracle["replicas"])):
        for name in theirs:
            assert ours[name] == theirs[name], f"replica {replica}: {name}"
    for name in oracle:
        assert tiled[name] == oracle[name], name


def check(config):
    """The tiled run equals the oracle; returns the iterations it simulated."""
    tiled, simulated, _ = record(config)
    oracle, everything, _ = record(config, steady=False)
    assert everything == list(range(config.iterations))
    assert_same(tiled, oracle)
    return simulated


def _corpus():
    """Each model twice, with every value of every axis somewhere."""
    cases = []
    for i, model in enumerate(sorted(MODELS) * 2):
        config = make_config(model, optimizer=OPTIMIZERS[i % 3], dtype=DTYPES[i % 2],
                             devices=DEVICES[(i // 3) % 3],
                             host_latency=LATENCIES[(i // 2) % 2],
                             iterations=1 + (i * 5) % 6)
        cases.append(pytest.param(config, id=f"{i}-{model}"))
    return cases


def test_the_corpus_covers_every_registered_model():
    assert sorted(MODELS) == REGISTERED


@pytest.mark.parametrize("config", _corpus())
def test_copied_iterations_equal_the_oracle(config):
    """Every registered model's iteration 1 is steady: the tiled trainer
    simulates iterations 0 and 1 and records what the oracle records."""
    assert check(config) == list(range(min(config.iterations, 2)))


@pytest.mark.parametrize("config", _corpus())
def test_the_placed_trace_is_period_one_from_the_steady_iteration(config):
    """Under ``best_fit`` each replica class's placed trace repeats from the
    iteration after which the trainer copied (read off the iterations it
    simulated): iteration 0 makes the gradients and the optimizer state, so
    its pair breaks on ``rows``.  A run too short to copy has no period."""
    _, simulated, recording = record(config)
    steady = simulated[-1] if len(simulated) < config.iterations else None
    placed = recording.placed(dataclasses.replace(config, allocator="best_fit"))
    for class_trace in placed.traces:
        result = periodicity(class_trace.trace)
        assert (result.start, result.period) == ((None, None) if steady is None
                                                 else (steady, 1))
        assert result.breaks == ("rows",) * (config.iterations > 1) + (
            None,) * (config.iterations - 2)


@settings(max_examples=settings.default.max_examples if WIDE else 10, deadline=None)
@given(model=st.sampled_from(sorted(MODELS)), optimizer=st.sampled_from(OPTIMIZERS),
       dtype=st.sampled_from(DTYPES), n_devices=st.integers(1, 3),
       extra=st.integers(0, 3), latency=st.sampled_from(LATENCIES),
       iterations=st.integers(1, 6))
def test_drawn_sessions_equal_the_oracle(model, optimizer, dtype, n_devices, extra,
                                         latency, iterations):
    config = make_config(model, optimizer, dtype, (n_devices, n_devices + extra),
                         latency, iterations)
    check(config)


def test_a_steady_session_simulates_two_iterations():
    """Six iterations: iteration 0 makes the gradients and the optimizer
    state, iteration 1 leaves the devices as it found them, and 2-5 are its
    copies."""
    config = make_config("resnet18", devices=(3, 5), iterations=6)
    assert record(config)[1] == [0, 1]


def test_a_malloc_row_is_its_request():
    """A malloc row carries its request's bytes and category code, a request
    id is its malloc's ordinal, and a copied steady iteration's malloc rows
    carry them too."""
    device = Device(small_test_device())
    made = [device.allocate(1000, MemoryCategory.PARAMETER, "w"),
            device.allocate(24, MemoryCategory.ACTIVATION, "a")]
    device.free(made[0])
    device.allocate(512, MemoryCategory.WORKSPACE, "g")
    columns = columns_from_rows(device.recorder.rows)
    malloc = columns.is_malloc
    assert made == [0, 1]
    assert columns.block_id[malloc].tolist() == [0, 1, 2]
    assert columns.size[malloc].tolist() == [1000, 24, 512]
    assert columns.category_code[malloc].tolist() == [
        category.code for category in (MemoryCategory.PARAMETER, MemoryCategory.ACTIVATION,
                                       MemoryCategory.WORKSPACE)]
    assert device.recorder.tags == ["w", "a", "g"]

    recorded, simulated, _ = record(make_config("mlp", iterations=4))
    assert simulated == [0, 1]
    (replica,) = recorded["replicas"]
    rows = np.frombuffer(replica["rows"], dtype=np.int64).reshape(-1, ROW_WIDTH)
    kind, request, size, category, iteration = (ROW_FIELDS.index(name) for name in (
        "kind_code", "block_id", "size", "category_code", "iteration"))
    mallocs = rows[rows[:, kind] == columns.kind_code[malloc][0]]
    assert mallocs[:, request].tolist() == list(range(len(mallocs)))

    def requests_of(index):
        return [(nbytes, code, replica["tags"][made]) for made, nbytes, code in
                mallocs[mallocs[:, iteration] == index][:, [request, size, category]].tolist()]

    steady = requests_of(1)
    assert steady and all(nbytes > 0 for nbytes, _, _ in steady)
    assert requests_of(2) == requests_of(3) == steady


class _GrowingMLP(MLP):
    """An MLP that keeps one more buffer in each of its first three
    forward passes: its live requests grow until iteration 3."""

    def __init__(self, device, **kwargs):
        super().__init__(device, **kwargs)
        self.kept = []

    def forward(self, x):
        if len(self.kept) < 3:
            self.kept.append(empty(self.device, (64,), category=MemoryCategory.ACTIVATION,
                                   tag=f"kept{len(self.kept)}"))
        return super().forward(x)


def test_a_module_that_grows_is_simulated_until_it_stops(monkeypatch):
    monkeypatch.setitem(registry._REGISTRY, "growing_mlp",
                        lambda device, **kw: _GrowingMLP(device, **kw))
    monkeypatch.setitem(MODELS, "growing_mlp", MODELS["mlp"])
    config = make_config("growing_mlp", devices=(3, 5), iterations=7)
    assert check(config) == [0, 1, 2, 3]


class _RotatingMLP(MLP):
    """An MLP that swaps one kept buffer for a fresh one in every forward
    pass: as many requests live at each iteration's end as at its start,
    but never the same ones."""

    def __init__(self, device, **kwargs):
        super().__init__(device, **kwargs)
        self.kept = empty(device, (64,), category=MemoryCategory.ACTIVATION, tag="kept")

    def forward(self, x):
        self.kept.release()
        self.kept = empty(self.device, (64,), category=MemoryCategory.ACTIVATION, tag="kept")
        return super().forward(x)


def test_a_module_that_renews_what_it_keeps_is_never_steady(monkeypatch):
    monkeypatch.setitem(registry._REGISTRY, "rotating_mlp",
                        lambda device, **kw: _RotatingMLP(device, **kw))
    monkeypatch.setitem(MODELS, "rotating_mlp", MODELS["mlp"])
    config = make_config("rotating_mlp", devices=(2, 4), iterations=4)
    assert check(config) == [0, 1, 2, 3]


class _LaggingSGD(SGD):
    """SGD whose device falls ``lag_ns`` further behind after each of its
    first three steps: the replicas' clock offsets move until iteration 4."""

    def __init__(self, parameters, lag_ns):
        super().__init__(parameters, lr=0.01, momentum=0.9)
        self.lag_ns, self.steps = lag_ns, 0

    def step(self):
        super().step()
        self.steps += 1
        if self.steps <= 3:
            self.parameters[0].device.host_pause(self.steps * self.lag_ns)


def test_replicas_whose_clock_offsets_move_are_not_steady(monkeypatch):
    """Two replica classes; the second one's optimizer lags: iterations 1-3
    leave the live requests as they found them but not the clock offsets."""
    built = []

    def lagging(config, model):
        # Each session builds two optimizers: the second replica's lags.
        built.append(_LaggingSGD(model.parameters(), lag_ns=1_000 * (len(built) % 2)))
        return built[-1]

    monkeypatch.setattr(session_module, "_build_optimizer", lagging)
    config = make_config("mlp", devices=(3, 5), iterations=6)
    assert check(config) == [0, 1, 2, 3, 4]
