"""A session simulates shapes, not values.

A batch is a shape-only stand-in that is never filled or cast, a symbolic
process never imports the NumPy modules only value computations need, and
the device's clock stays its whole timeline: every kernel blocks until done,
and swap traffic runs on the overlay's own clock.

The stand-in sessions are pinned by golden digests recorded while this suite
still held each of them, trace for trace, to the same session fed real drawn
batches — and the sessions whose losses it pinned, to their value-computing
twin.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.datasets import DATASET_PRESETS, build_dataset
from repro.device.device import Device
from repro.device.stream import Stream
from repro.device.timing import elementwise_cost
from repro.tensor.tensor import from_numpy
from repro.train import session as session_module
from repro.train.session import TrainingRunConfig, run_training_session
from repro.train.trainer import shard_batch

from tests.helpers import trace_events

from .test_replica_classes import make_config, outcome, pressure_capacity
from .test_symbolic_equivalence import session_digest, trace_digest


RESNET_FP16 = dict(model="resnet18", dataset="cifar10", batch_size=8, iterations=3,
                   model_kwargs={"input_size": 32, "num_classes": 10},
                   dtype="float16", seed=3)


class _GrabGroup:
    """A session ``capture`` hook that only keeps the device group."""

    def attach(self, group):
        self.group = group


# -- (a) nothing is drawn, cast or stored ----------------------------------------------


@pytest.mark.parametrize("dataset", sorted(DATASET_PRESETS))
def test_stand_ins_have_a_batch_shape_and_no_buffer(dataset):
    source = build_dataset(dataset)
    inputs, labels = source.batch_stand_ins(7)
    assert (inputs.shape, inputs.dtype, inputs.nbytes) == (
        (7,) + source.sample_shape, np.float32, source.batch_bytes(7))
    assert (labels.shape, labels.dtype, labels.nbytes) == (
        (7,), np.int64, source.label_bytes(7))
    for stand_in in (inputs, labels):
        assert not any(stand_in.strides) and not stand_in.flags.writeable
        assert [s.shape[0] for s in shard_batch(stand_in, 3)] == [3, 2, 2]


def test_staging_a_batch_never_casts_it():
    class Uncastable(np.ndarray):
        def astype(self, *args, **kwargs):
            raise AssertionError("cast of a batch nobody keeps")

    host = np.ones((4, 3), dtype=np.float32).view(Uncastable)
    staged = from_numpy(Device(default_dtype="float16"), host, stage_h2d=True)
    assert (staged.dtype.name, staged.nbytes) == ("float16", 24)


def test_a_session_asks_its_dataset_for_stand_ins_only(monkeypatch):
    asked = []

    def build_recording(name, **kwargs):
        dataset = build_dataset(name, **kwargs)
        stand_ins = dataset.batch_stand_ins
        dataset.batch_stand_ins = lambda size: asked.append(size) or stand_ins(size)
        return dataset

    monkeypatch.setattr(session_module, "build_dataset", build_recording)
    result = run_training_session(make_config("lenet5", batch_size=7, n_devices=2,
                                              iterations=3))
    assert len(result.iteration_stats) == 3
    # One ask per simulated iteration: 0 and 1; iteration 2 is 1's copy.
    assert asked == [7, 7]


def test_a_session_stages_every_batch_and_fills_nothing_from_the_host():
    """Inputs and labels arrive by H2D copy; nothing else is written from host
    data, whatever the model, precision or replica count."""
    ops = set()
    config = TrainingRunConfig(**{**RESNET_FP16, "n_devices": 2})
    result = run_training_session(config)
    for trace in result.rank_traces:
        ops |= {event.op for event in trace_events(trace) if event.op}
    assert "memcpy_h2d" in ops and "init_from_host" not in ops
    h2d = [event for event in trace_events(result.rank_traces[0])
           if event.op == "memcpy_h2d"]
    assert len(h2d) == 2 * config.iterations


# -- (b) golden digests: stand-ins as the drawn batches left them ----------------------


def outcome_digest(status, session):
    """sha256 of a session's merged and per-rank traces (see
    :func:`~tests.test_symbolic_equivalence.session_digest`), or of the
    ``"<error type>: <message>"`` of a session that failed."""
    if status != "ok":
        return hashlib.sha256(f"{status.__name__}: {session}".encode()).hexdigest()
    ranks = [trace_digest(trace) for trace in (session.rank_traces or ())]
    return trace_digest(session.trace,
                        extra={"session": session_digest(session), "ranks": ranks})


def _swap_config(structure, dtype, n_devices, batch_size, swap):
    capacity = None
    if swap in ("lru", "unified"):
        capacity = pressure_capacity(structure, -(-batch_size // n_devices),
                                     dtype, "caching")
    return make_config(structure, dtype=dtype, n_devices=n_devices,
                       batch_size=batch_size, swap=swap,
                       device_memory_capacity=capacity)


#: :func:`outcome_digest` per ``structure-dtype-n_devices-batch_size-swap``,
#: recorded while each session equalled its drawn-batch oracle.
STAND_IN_DIGESTS = {
    "mlp-float32-1-12-off":
        "96499a547d7d0d5397fc8aa98956f6c05d32feea3ef6877e6375d83a32ae6ad3",
    "mlp-float32-1-12-lru":
        "c1c2fac88cc29816722b236d9fdb698fc828ec77cefd0ec5ebfd7cca3000c620",
    "mlp-float32-1-12-zero_offload":
        "e694836ab935ab0a64c76613f45e9378a84c6e4a9549883176b5d0c4bf7dbc11",
    "mlp-float32-1-12-unified":
        "1f21e3430a4025287458c361c1da66dc0fc13274bc863c8a76fdce2406bc75eb",
    "mlp-float32-2-12-off":
        "d9b324ae832e30d0f293bd8b3bde046c3177388dc1f09601186537fd179120f4",
    "mlp-float32-2-12-lru":
        "5d6e815347a49576142bbbef1de2ac45fff8bb0f4b4cb63cf2d52a1cd75c94c6",
    "mlp-float32-2-12-zero_offload":
        "087e61145475499fe598b59b37f7078eb2f54a87809d71114fefe8ceb4c1f2a5",
    "mlp-float32-2-12-unified":
        "69ce2edb01c0b40b073f24bbf6fac9819f1bdb28087d5d8349dbb80f6d361208",
    "mlp-float32-2-13-off":
        "a282dd1e02b858da879fc6893b69b519379733f2e25ff47d9b66a30ace9ea4c2",
    "mlp-float32-2-13-lru":
        "8091cb954a061af6d266fb1c4ba6222a5a77d913e20d9fccbbefbde700ec26b0",
    "mlp-float32-2-13-zero_offload":
        "52ae16742de97b9e52db74ac7f387274155151789067c32d29f3753c7c265a4d",
    "mlp-float32-2-13-unified":
        "a240af879884a56fd86425e8029fed8ad93666e5e2ea336234ff2eb3679958ca",
    "mlp-float32-3-12-off":
        "d22f053e3502d46b7df26b5986519ec28fd4c19a0bdbd28bdeef18531b55244e",
    "mlp-float32-3-12-lru":
        "11f24d82574c190e4d0107d913bb06ba3d45c48a9fd9a0654c061bd6eecaa675",
    "mlp-float32-3-12-zero_offload":
        "b58119ba3509c8a92546f93245e75d8a7dd21ae1b935d3ba81207c94f473c335",
    "mlp-float32-3-12-unified":
        "c2e2a42fe787a006fcd4c890545f28578af6ce86218899aa68933ecb26dba549",
    "mlp-float32-3-14-off":
        "28d4d64e08ff66242f3c361ab989877e15bbce0b37aa20f222e68ce4862c5649",
    "mlp-float32-3-14-lru":
        "5be534cf4d481407c0fca7c27ebcc8d7135c986d7b8a2cae210b54510959606a",
    "mlp-float32-3-14-zero_offload":
        "6a1ed98d34bbf09bc09a65c39fdbd16a1415021a1540a434fb7cdc4eca3db631",
    "mlp-float32-3-14-unified":
        "f9e94d14cd2bd287763249738a06777056b5fe826cf0a3c789245bfc7a29685c",
    "mlp-float16-1-12-off":
        "12f013f6f84d40e4764be25140170d76bc91c1cae7da03e11042eddde883ae64",
    "mlp-float16-1-12-lru":
        "f8530e7e65a28d2efbc0ca9234135166c27ff15e561c8d8223bd2badc500fb9d",
    "mlp-float16-1-12-zero_offload":
        "3235d26327c1360f11b12151b0f9892959caa33604b931d937878684a256e9a1",
    "mlp-float16-1-12-unified":
        "3bbc15d2170e9d3af8979577bf023e541ab9ab6f45bbfd11469c2128f1268a19",
    "mlp-float16-2-12-off":
        "02d103960c9ea3ac489d291b3e8363806825a257f11fbdd402ff08598455d335",
    "mlp-float16-2-12-lru":
        "0836361fdbaf8e580f419533bcd08cf418dda6f623ee2eda93944f133b355fc9",
    "mlp-float16-2-12-zero_offload":
        "556cbd7c5714610bd963445cc18057b1ab9d7b5fd17d948d3e724b9a5b38c413",
    "mlp-float16-2-12-unified":
        "42550f8e803a3897ebd0462c4e1df401d22691cdeb6dadf050c72946067e261e",
    "mlp-float16-2-13-off":
        "36d7765fb36c0b7a8220e99f41275531485889455359b224334d6264c20e3838",
    "mlp-float16-2-13-lru":
        "5bba4482f399735ab8b3bddc3faacc955a43f06c0513bf6f9c1e1c93de3111c9",
    "mlp-float16-2-13-zero_offload":
        "49af375f9867f5fe9bf4ddf90d0bc035e29e0ce2a50e7df72a691bc313d11e28",
    "mlp-float16-2-13-unified":
        "5bba88643f4d74bd0f5dc256a9ac25cf77ed64d93c5558a9bd6c10b188cb2c64",
    "mlp-float16-3-12-off":
        "139f9539b662a57875d41d5806d7c4e78fd5a0d9c8f2134eac3ecdb13b24abed",
    "mlp-float16-3-12-lru":
        "07673504a8da722117930c536eef16672db78521e7e872269cf7eaf3489dcb2b",
    "mlp-float16-3-12-zero_offload":
        "2d377ed3e164e24ca66b68db422518345b15607fe2c016ad8432b13fad06f149",
    "mlp-float16-3-12-unified":
        "be984122ca2171b24ffaf506577743fdee4c4965e8f13c40f7dc4c226a4ea0fd",
    "mlp-float16-3-14-off":
        "921017fbb6e8731ea95e5bfbec3bb6bfea233eac7d92dea98257314e5f65fcf5",
    "mlp-float16-3-14-lru":
        "f59e409532538bc6fe50a4cbc9fbcd23dc7e0cf7a3c77dfc5f482e45d1c823c0",
    "mlp-float16-3-14-zero_offload":
        "3aa751fb9f80349894da8b4ebea441b7e73e2cae79f01a885eb1d0210e318b06",
    "mlp-float16-3-14-unified":
        "f8e066158a6ba5ded5e756c6e30e614c733cb648e8d5ff96d5657814a0491b35",
    "lenet5-float32-1-12-off":
        "8572896796c51c9e0761731e23e86158b1fa0a66de2d38030149084d88f53847",
    "lenet5-float32-1-12-lru":
        "4679b5e1559010986634fdd3fd1f42a8ec02249efbcf8e43517aac445950250a",
    "lenet5-float32-1-12-zero_offload":
        "43d6db9586dd33f17dede7dae9f28b88c54c469d94895aedd888f01e7237d4d1",
    "lenet5-float32-1-12-unified":
        "778fb372a0b40d0901995839a5d4507ec3ddf88d32e365dcc08541d309f33acf",
    "lenet5-float32-2-12-off":
        "4a4f912e8f7f9690b287b0ed58865074574462622215f96ea0debe2dd56971cb",
    "lenet5-float32-2-12-lru":
        "3ac9850cd85301a2f4ba603e0f986313d50e9da254fc5f30f45e5ef18025be8e",
    "lenet5-float32-2-12-zero_offload":
        "9ccd7aa9b463407a5c0f9a09bb7e8b088a7b685e0d1ce1f15069290578e8becb",
    "lenet5-float32-2-12-unified":
        "6a80456a96b2a70aabedb4aed309b67353b4dd5a0a9018f707737357a0b6a9ed",
    "lenet5-float32-2-13-off":
        "48aee98cc394ff2f680911e51eee5fefd7ee9668387b44c0e585014446c5195f",
    "lenet5-float32-2-13-lru":
        "a7de70c4bf76c7c8257d0a34f62f08292ae4bde45a489a8226de6b6a6dbcf5bf",
    "lenet5-float32-2-13-zero_offload":
        "6ed284cebddda276fcbef172447c2a7652d85a0fdb6e1868ac8260f970ad95f3",
    "lenet5-float32-2-13-unified":
        "8aba7bf2a29409ededb7d43dfe4064272a06b17e95d90e54cc5c8e421c1d0971",
    "lenet5-float32-3-12-off":
        "1a48d2b98be64ffe1e2057479562876d99029ffbd4f470e616f31bf5f5ec3d98",
    "lenet5-float32-3-12-lru":
        "dce14e0bdd76ada66a63a8b6c9f1fb0d49696908eb5e9b3a6e6d333176920228",
    "lenet5-float32-3-12-zero_offload":
        "b5652947c335f1f8b9b19aa81f58ce0d28062d086ae95004f0e25b91045c803d",
    "lenet5-float32-3-12-unified":
        "778f2cfc1eaf7726c4c1724c8654f0c2fa1fe6e2f0efc81ab4f3eef060a18f05",
    "lenet5-float32-3-14-off":
        "7e415794cc6f5e7d1dbb8da59d04df1e344a95ffb81010ded44da9362d5d0271",
    "lenet5-float32-3-14-lru":
        "c0c98b8a8e04978db0415932dbff8970d7ad8e54797c17cbda700282047ac660",
    "lenet5-float32-3-14-zero_offload":
        "ec76ebad360a96b622323886a73f658139febc0334b6e3a8f8db049472628093",
    "lenet5-float32-3-14-unified":
        "886f6bdadbcaec6c65b2e0ac390b5bea5ecbd57589051c0a19cbb76f8d10606d",
    "lenet5-float16-1-12-off":
        "6460a9773f9ece4f471d292fa27775c9c77d18fdea7d69dba42fd25a453eeccc",
    "lenet5-float16-1-12-lru":
        "669165f7542fb907d167e79da0cca40fea8d13517aa732daa4449f7fe517ea5b",
    "lenet5-float16-1-12-zero_offload":
        "b99971216e824f47ee1e8fa669c7b1270feeabc7fae04ab4ac72b3c392636b30",
    "lenet5-float16-1-12-unified":
        "4afc14cb710377b4e366e177e24d4014fccaa40387b8b7b9a4b69fbc0a7923e8",
    "lenet5-float16-2-12-off":
        "691ba309e569184b90e74e89ea8428b4d7b77df633eedda84c30c39765802a2a",
    "lenet5-float16-2-12-lru":
        "17e83912843ba47bd9a84788e6f0188ca833a5c8cb07a972234b7a89a12ea322",
    "lenet5-float16-2-12-zero_offload":
        "a2e8a8ed1b8ac0298007c5d17bf327bb40dd15d4ebef642ae7dceecfd6349cfb",
    "lenet5-float16-2-12-unified":
        "d10e6f2d283293bda9574f0c7380632f858cba5b169cc2d8f06b1294a6ee8d98",
    "lenet5-float16-2-13-off":
        "345973bb90edda8654ce97fb705bbf4fa1cefcd426aa9a0c56a9a3d25f344342",
    "lenet5-float16-2-13-lru":
        "2aa3ed546faf7b8fe424f152aefefc49cb4d5cac5fafbb9e4ffc6fb1abb42d39",
    "lenet5-float16-2-13-zero_offload":
        "e2c8b2904ba1a14356b3e4b98d17b392554885f1d378097966b04c2700be8d3f",
    "lenet5-float16-2-13-unified":
        "d66d19477d39f228ec099294a798d906cfe3c68c69df548dd5592f9353168cb4",
    "lenet5-float16-3-12-off":
        "a0732501979f1d96834540d029ca23b809696f64a63a53b5c96362230c827404",
    "lenet5-float16-3-12-lru":
        "df8d3495864c490f3b8b8fe01cd9f99f551b746064d7ae77ead7aa09fa3d6cd2",
    "lenet5-float16-3-12-zero_offload":
        "b5d30a240baa1260d4316adf81d6956e712c5facfa20a90911d6891911916485",
    "lenet5-float16-3-12-unified":
        "509b9327eaa85a1d1d668f9a47b227290a05188c873c8c9a7c3232859bae1090",
    "lenet5-float16-3-14-off":
        "5648612256695a61efaeebaadcfa34c910c3e9372e6ffd8c578e1eacd5be9d7a",
    "lenet5-float16-3-14-lru":
        "f8f6846e4b702ba600a073dba1c4008de7c07ba1a6934136c21da6113b7c96d4",
    "lenet5-float16-3-14-zero_offload":
        "0700ba8657953aaa0a60378eafed219e041e74420de2975a2964d109abe23d9f",
    "lenet5-float16-3-14-unified":
        "862040cbde1bf636ce17bcb9133838ae8e60e638c387eafe1e57fa13fba0a33e",
}


@pytest.mark.parametrize("swap", ["off", "lru", "zero_offload", "unified"])
@pytest.mark.parametrize("n_devices,batch_size", [(1, 12), (2, 12), (2, 13),
                                                  (3, 12), (3, 14)])
@pytest.mark.parametrize("dtype", ["float32", "float16"])
@pytest.mark.parametrize("structure", ["mlp", "lenet5"])
def test_stand_in_session_matches_its_golden_digest(structure, dtype, n_devices,
                                                    batch_size, swap):
    config = _swap_config(structure, dtype, n_devices, batch_size, swap)
    label = f"{structure}-{dtype}-{n_devices}-{batch_size}-{swap}"
    assert outcome_digest(*outcome(config)) == STAND_IN_DIGESTS[label]


@pytest.mark.parametrize("swap,digest", [
    ("off", "72bad7a74ae485b9f5e22e8b81cbc6fc3f91c08c04a962586eb73981b475ccbf"),
    ("zero_offload",
     "f74e7632c8f8e902461e075d8f384b6d0be90aa5fa3210eddf35dfc46005bae8"),
])
def test_uneven_shards_of_512_on_three_devices(swap, digest):
    """171/171/170: the stand-ins shard exactly like the drawn batch did."""
    session = run_training_session(make_config("mlp", batch_size=512, n_devices=3,
                                               swap=swap))
    assert [trace.metadata["device_rank"] for trace in session.rank_traces] == [0, 1, 2]
    assert outcome_digest("ok", session) == digest


def test_half_precision_conv_net_matches_its_golden_digest():
    config = TrainingRunConfig(**{**RESNET_FP16, "iterations": 2, "n_devices": 3})
    assert outcome_digest("ok", run_training_session(config)) == (
        "98453659385932a427fca4f7670cc04f98e8d93e08eaf20fed1e3bedd1718369")


LOSS_MLP = dict(model="mlp", dataset="two_cluster",
                model_kwargs={"hidden_dim": 64, "num_hidden_layers": 2},
                batch_size=32, iterations=4, seed=3)
LOSS_RESNET = dict(model="resnet18", dataset="cifar10", batch_size=4, iterations=2,
                   model_kwargs={"num_classes": 10}, seed=3)


@pytest.mark.parametrize("overrides,digest", [
    # Recorded where these sessions' losses were pinned, each equal to the
    # trace of the twin that computed those losses.
    (LOSS_MLP, "08a6211a296036874eb200b5109159f13f87a493d7c2c138e36e7a6219ef47a0"),
    ({**LOSS_MLP, "n_devices": 2},
     "035d46299f1d7322d7834e5914bb421020f83974f5ed2c40077da4cbc748e738"),
    ({**LOSS_MLP, "dtype": "float16"},
     "6f07dc58ce8d12b8445c9b36d0ec4d0949b97caa47eb598a8c331c93cd1f9122"),
    (LOSS_RESNET, "634c076c7f33dea82bb3fa4766a7009432d3ebcda7a60b0df08de984565582e5"),
], ids=["mlp", "mlp-2-devices", "mlp-fp16", "resnet18"])
def test_loss_pinned_sessions_keep_their_traces(overrides, digest):
    session = run_training_session(TrainingRunConfig(**overrides))
    assert outcome_digest("ok", session) == digest


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
    assert completed.stdout.splitlines() == ["simulated []", "replayed []"]


# -- (c) the clock is the device's timeline --------------------------------------------


def test_every_kernel_advances_the_clock_by_its_duration_and_swap_keeps_off_it(
        monkeypatch):
    """A kernel blocks until done, so the clock moves by exactly its duration;
    swapping and rematerialization happen in the swap overlay, whose copy
    stream runs on a clock of its own."""
    kernels = 0
    original = Device.run_kernel

    def run_kernel(self, *args, **kwargs):
        nonlocal kernels
        before = self.clock.now_ns
        duration = original(self, *args, **kwargs)
        assert self.clock.now_ns == before + duration
        kernels += 1
        return duration

    stream_clocks = []
    original_reserve = Stream.reserve

    def reserve(self, *args, **kwargs):
        stream_clocks.append(self.clock)
        return original_reserve(self, *args, **kwargs)

    monkeypatch.setattr(Device, "run_kernel", run_kernel)
    monkeypatch.setattr(Stream, "reserve", reserve)
    config = make_config("mlp", batch_size=2048, iterations=5, swap="unified",
                         model_kwargs={"hidden_dim": 8192, "num_hidden_layers": 6})
    grab = _GrabGroup()
    session = run_training_session(config, capture=grab)
    assert kernels > 100
    assert session.swap_execution["recompute_count"] > 0
    assert session.swap_execution["swap_out_count"] > 0
    assert stream_clocks
    device_clocks = [device.clock for device in grab.group]
    assert not any(clock is device_clock for clock in stream_clocks
                   for device_clock in device_clocks)


def test_device_work_reads_as_on_the_parent_commit():
    """Clock times recorded on commit 832b736: 12,456 ns per kernel, and a
    host pause adds exactly its length."""
    device = Device()
    cost = elementwise_cost(1 << 16)
    for _ in range(3):
        device.run_kernel("k", cost, (), ())
    assert device.clock.now_ns == 37_368
    device.host_pause(50_000)
    device.run_kernel("k", cost, (), ())
    assert device.clock.now_ns == 99_824
