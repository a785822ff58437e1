"""Placement: where each allocator policy puts a device's requests.

:func:`~repro.device.allocator.place` runs one policy — ``caching``,
``best_fit`` or ``bump`` — over the malloc and free calls a recording's rows
make under a capacity, each request its malloc row (bytes, category, tag);
hand-built programs are :class:`tests.helpers.RequestProgram`, built as
recordings.  This file

* pins the sha256 of whole placements (the eight columns, the segment tags,
  the preamble count and the counters) of recorded training runs and of a
  seeded corpus of request programs, out-of-memory outcomes included;
* holds drawn request programs to the placement invariants under every
  policy (``--hypothesis-profile=placement-wide`` widens the draw);
* states each policy's behavior on hand-built logs: rounding, segment
  sizing, reuse keeping the block id, best fit, splitting, coalescing, both
  tiebreaks among equal sizes, double frees, out-of-memory details and the
  caching allocator's empty-cache-and-retry.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import IterationMark, MemoryCategory
from repro.core.trace import ROW_FIELDS, EventColumns, MemoryTrace, Splice
from repro.device.allocator import (
    BASE_ADDRESS,
    AllocatorStats,
    LARGE_SEGMENT_SIZE,
    MIN_BLOCK_SIZE,
    SEGMENT_ALIGNMENT,
    SMALL_ALLOCATION_LIMIT,
    SMALL_SEGMENT_SIZE,
    round_block_size,
    segment_size_for,
)
from repro.device.device import Device
from repro.device.spec import small_test_device
from repro.errors import InvalidFreeError, OutOfMemoryError
from repro.units import GIB, KIB, MIB

from tests.helpers import (SEGMENT_ALLOC_CODE, SEGMENT_FREE_CODE, RequestProgram,
                           check_placement, segment_rows)

POLICIES = ("caching", "best_fit", "bump")
COLUMNS = ("block_id", "address", "size", "segment_op", "segment_kind", "segment_id",
           "segment_address", "segment_size")


# -- building and reading request programs ------------------------------------------------


def malloc(requests: RequestProgram, nbytes: int, tag: str = "",
           category: MemoryCategory = MemoryCategory.UNKNOWN) -> int:
    """Log a malloc of ``nbytes``; returns its request id."""
    return requests.malloc(nbytes, category, tag)


def free(requests: RequestProgram, *ids: int) -> None:
    """Log the free of each request in ``ids``, in order."""
    requests.free(*ids)


def place(requests: RequestProgram, policy: str, capacity: int):
    """``policy``'s placement of the program under ``capacity`` bytes."""
    return requests.place(policy, capacity)


def digest(placement) -> str:
    """sha256 of a whole placement: its columns, tags, preamble and counters."""
    hasher = hashlib.sha256()
    for name in COLUMNS:
        column = getattr(placement, name)
        assert column.dtype == np.int64, name
        hasher.update(f"{name}:{column.size}:".encode())
        hasher.update(np.ascontiguousarray(column).tobytes())
    hasher.update(json.dumps([placement.segment_tags, placement.preamble_segments,
                              placement.stats.to_dict()],
                             sort_keys=True, separators=(",", ":")).encode())
    return hasher.hexdigest()


def failing_call(requests: RequestProgram, policy: str, capacity: int) -> int:
    """Index into the program's calls of the one that runs out of memory."""
    low, high = 0, len(requests.calls)        # prefix(low) places, prefix(high) fails
    while high - low > 1:
        middle = (low + high) // 2
        try:
            place(requests.prefix(middle), policy, capacity)
        except OutOfMemoryError:
            high = middle
        else:
            low = middle
    return high - 1


def outcome(requests: RequestProgram, policy: str, capacity: int) -> str:
    """A placement's digest, or the call and message of its out-of-memory."""
    try:
        return digest(place(requests, policy, capacity))
    except OutOfMemoryError as error:
        return f"oom@{failing_call(requests, policy, capacity)}: {error}"


#: ``pytest --hypothesis-profile=placement-wide`` (``make trace-smoke``) draws
#: the property at the profile's count instead of its tier-1 one.
WIDE = settings.get_current_profile_name() == "placement-wide"

#: Request sizes: equal sizes recur (ties among free blocks), both pools, the
#: large pool's split threshold and a huge request with a dedicated segment.
PALETTE = (512, 1000, 4 * KIB, 96 * KIB, 256 * KIB, 1 * MIB, 1 * MIB + 512,
           2 * MIB, 3 * MIB, 8 * MIB, 21 * MIB)

drawn_programs = st.lists(
    st.tuples(st.one_of(st.sampled_from(PALETTE), st.integers(1, 6 * MIB)),  # request size
              st.lists(st.integers(0, 1 << 16), max_size=3)),                # frees before it
    min_size=1, max_size=60)


def log_of_program(program, free_all: bool) -> RequestProgram:
    """The request program a draw describes: its frees, then its malloc, per step."""
    requests, live = RequestProgram(), []
    for size, frees in program:
        for choice in frees:
            if live:
                free(requests, live.pop(choice % len(live)))
        live.append(malloc(requests, size))
    if free_all:
        free(requests, *live)
    return requests


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=settings.default.max_examples if WIDE else 40, deadline=None)
@given(program=drawn_programs, free_all=st.booleans(),
       capacity=st.sampled_from((24 * MIB, 96 * MIB, 1 * GIB)))
def test_drawn_programs_keep_the_placement_invariants(policy, program, free_all, capacity):
    requests = log_of_program(program, free_all)
    try:
        placement = place(requests, policy, capacity)
    except OutOfMemoryError as error:
        assert error.capacity == capacity
        assert error.requested > error.free
        # The prefix before the failing call places and keeps the invariants.
        call = failing_call(requests, policy, capacity)
        head = requests.prefix(call)
        check_placement(head, place(head, policy, capacity), policy, capacity)
        return
    check_placement(requests, placement, policy, capacity)
    if free_all:
        assert placement.stats.allocated_bytes == 0
    # A placement is a pure pass: ids are numbered from 1 every time.
    assert digest(place(requests, policy, capacity)) == digest(placement)


# -- pins: recorded training runs ------------------------------------------------------------

CONV = {"input_size": 32, "num_classes": 10}
#: The capture probe's structures (``tools/capture_probe.py``).
STRUCTURES = {
    "resnet18": dict(model="resnet18", dataset="cifar10", batch_size=8, model_kwargs=CONV),
    "vgg11": dict(model="vgg11", dataset="cifar10", batch_size=8, model_kwargs=CONV),
    "mlp": dict(model="mlp", dataset="two_cluster", batch_size=512,
                model_kwargs={"hidden_dim": 1024, "num_hidden_layers": 4}),
}
RECORDED = [(name, n, dtype) for name in STRUCTURES for n in (1, 2)
            for dtype in ("float32", "float16")]

#: sha256 of each replica class's placement at the device's native capacity,
#: by ``structure/devices/dtype/policy`` (one digest per class, joined by ``+``).
RECORDED_SHA256 = {
    "resnet18/1/float32/caching":
        "f63ff8dd751fcc822c55f2c7a2619ae90dc241b5e638fbe31e85759622163775",
    "resnet18/1/float32/best_fit":
        "a1fcbf5c85b9e6fd6263ea51e7c9e9124332bfab4f2e05f9e32ff529391e7c5d",
    "resnet18/1/float32/bump":
        "1d14e9fdc9373431641418948f00019ef3f6e27055d9f681afdce1dee9277b6e",
    "resnet18/1/float16/caching":
        "297a19e1706ea140c8c5e287be744e8ad83db7df64228ceaf7ae92ce2c2363de",
    "resnet18/1/float16/best_fit":
        "5f3336ff69cae3c027f9f60eebd41fd696e39e9b2a669542d29c43a0dedbd3b7",
    "resnet18/1/float16/bump":
        "6053244e5b9d4dd3be9fe4dd822f311e1a16c91aab9ea2e1edbf4f15081955bf",
    "resnet18/2/float32/caching":
        "d8bb29b6f193e57341c932618a18b5bdd25de057033f1d8a45d8c2216c972af4",
    "resnet18/2/float32/best_fit":
        "1a44cdea4658f0eec9b723533d46e63e298bbc705fd9552860374260a4b6ed55",
    "resnet18/2/float32/bump":
        "c5cfc52b20d2d1f602b2787e1853ebdf4beb831601c2d06ac802d70a1b11bfd8",
    "resnet18/2/float16/caching":
        "6c8e6ed54b010160bb68b61794cf6b69e777ba71e5e4852d603050b8d0943fb0",
    "resnet18/2/float16/best_fit":
        "deeebf505f7e00170625ecae9ca1b6e987c024f57cda49df5304c37eb7d9ed66",
    "resnet18/2/float16/bump":
        "c6ad72a8cfdce3b7ee8d9e0d114f4b6d6bd78d669d21b62f0acaa96e18cf8e66",
    "vgg11/1/float32/caching":
        "d453cd50af33845551dda4ffcba6c3e70080f0a813f6d9310a69662df91c9e45",
    "vgg11/1/float32/best_fit":
        "39a727d5322ca21e6b6655c9d74242df577dce2e4a10849f8ff2a1608baf1539",
    "vgg11/1/float32/bump":
        "0165bf4cbd99d8e7294a159f0acc951cac6eaa2526249fae6ba46d6d050e372f",
    "vgg11/1/float16/caching":
        "cc457280e07a99f9c194424808753a5d88e91d83cb376df12885b07d7150db01",
    "vgg11/1/float16/best_fit":
        "40bee342f395f8965886e6fea002ed27e1686ca8d91a8c926e26d60bc5fc83b2",
    "vgg11/1/float16/bump":
        "bec75d8dfdbe6c59af80e4ae5853e8dd16d1e85780a64ea8f8afecdf2f172131",
    "vgg11/2/float32/caching":
        "54d3220eac6a8c1b3c482c56ab35560ed772279102b2eb94e77c8feaf8e2983f",
    "vgg11/2/float32/best_fit":
        "f0d30ef3eedb89e4ecf09de8a47bf2251009c8a66fb8f424c07a9fdd9ecaa4b6",
    "vgg11/2/float32/bump":
        "8d5f1fe2bb618b0823684e55f307de24b7deecd1d277c4010973b186a4346992",
    "vgg11/2/float16/caching":
        "1d61623d6f52a753a70502db457840cd196ada60152d3a23f21096cc56238c19",
    "vgg11/2/float16/best_fit":
        "a6703961043e3c1c35f7929f8bfe8e4b15ccee469cceb27cfcda8b4fd6bac428",
    "vgg11/2/float16/bump":
        "269744761e5e9852d0c43cc551701b66e698f30fc562630ba7cffba9af764271",
    "mlp/1/float32/caching":
        "fdd7b7fe0aa124dca17cd289325e46af6b13f660d346b6d0bbb3c3ed365089dd",
    "mlp/1/float32/best_fit":
        "05e05eb67a50d1393a9c1b270bcd901bbac1c98b0537cdeee5a0912954fbed0e",
    "mlp/1/float32/bump":
        "3e3943646b7f5247ecfcccdfd48ba00762a44fa708fa425982685bea11c5b44c",
    "mlp/1/float16/caching":
        "1807a2f1779183c17f02f0f9389d178af55cdbcb7586d30f483ccf7e29398ad1",
    "mlp/1/float16/best_fit":
        "68067d1898ebef339aa11dba0490464572f7a309b2d14edb7e15f2871e2c0303",
    "mlp/1/float16/bump":
        "d718721d66ee855658c618af3cab487a4be12a9b929c8e71cf3282f1de317e3c",
    "mlp/2/float32/caching":
        "0b44153441565eb1c5106d24791ad314914f7177d11d3c0f6c9bd60fbcbf2090",
    "mlp/2/float32/best_fit":
        "9926e0e3c859b6439d4bb28334f1e7079738a4987f5c5fc4d0359b3688ec5779",
    "mlp/2/float32/bump":
        "3f41290822df26d71dc3e8e02af49a21a38e9f726a6abb6e7e28c1aca542d83b",
    "mlp/2/float16/caching":
        "a0f96f99da71c5a014f3c7bc0d30a640cea0b9bd5913e6110a77990b551dc04b",
    "mlp/2/float16/best_fit":
        "0eafc6e408dfc121a3a7793b2251226db15d77da7e3d33a48ade4fcfb5f5bb6c",
    "mlp/2/float16/bump":
        "7b05f997e8194f17eabfeba4de9045956f654fa5148e9b5be899cc550f79d604",
}


@pytest.fixture(scope="module")
def recordings():
    from repro.train.session import TrainingRunConfig, record_session

    return {key: record_session(TrainingRunConfig(iterations=3, seed=3, n_devices=key[1],
                                                  dtype=key[2], **STRUCTURES[key[0]]))
            for key in RECORDED}


@pytest.mark.parametrize("name,n,dtype", RECORDED)
def test_recorded_placements_are_pinned(recordings, name, n, dtype):
    recording = recordings[name, n, dtype]
    capacity = recording.spec.memory_capacity
    programs = [RequestProgram.recorded(trace) for trace in recording.traces]
    for policy in POLICIES:
        placements = [place(program, policy, capacity) for program in programs]
        for program, placement in zip(programs, placements):
            check_placement(program, placement, policy, capacity)
        assert "+".join(digest(placement) for placement in placements) \
            == RECORDED_SHA256[f"{name}/{n}/{dtype}/{policy}"]


# -- pins: a seeded corpus of request programs ----------------------------------------------


def seeded_program(seed: int, steps: int = 160) -> RequestProgram:
    """A random interleaving of mallocs (sizes mostly from :data:`PALETTE`)
    and frees of live requests, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    requests, live = RequestProgram(), []
    for step in range(steps):
        if live and rng.random() < 0.45:
            requests.free(live.pop(rng.randrange(len(live))))
        else:
            size = rng.choice(PALETTE) if rng.random() < 0.75 else rng.randint(1, 6 * MIB)
            live.append(requests.malloc(size, MemoryCategory.UNKNOWN, f"r{len(requests)}"))
    return requests


def fifo_ties() -> RequestProgram:
    """Four equal free blocks kept apart by live separators, freed out of
    address order, then asked for again at the same size."""
    requests = RequestProgram()
    holes, keep = [], []
    for _ in range(4):
        holes.append(malloc(requests, 1 * KIB))
        keep.append(malloc(requests, 1 * KIB))
    free(requests, holes[2], holes[0], holes[3], holes[1])
    for _ in range(4):
        malloc(requests, 1 * KIB)
    return requests


def address_ties() -> RequestProgram:
    """Two equal holes and one larger, freed high address first, then asked
    for a small block, one the large hole fits and one no hole fits."""
    requests = RequestProgram()
    large, _, low, _, high, _ = (malloc(requests, size) for size in
                                 (8 * KIB, 1 * KIB, 2 * KIB, 1 * KIB, 2 * KIB, 1 * KIB))
    free(requests, high, low, large)
    malloc(requests, 1 * KIB)
    malloc(requests, 4 * KIB)
    malloc(requests, 8 * KIB)
    return requests


CORPUS_SEEDS = (0, 1, 2, 3)
#: 96 MiB makes seed 0's caching placement release cached segments and retry;
#: 64 MiB runs every policy out of memory on every seed.
CORPUS_CAPACITIES = (64 * MIB, 96 * MIB, 128 * MIB, 1 * GIB)
CORPUS = {**{f"seed{seed}@{capacity // MIB}MiB": (seed, capacity)
             for seed in CORPUS_SEEDS for capacity in CORPUS_CAPACITIES},
          "fifo_ties@64MiB": ("fifo_ties", 64 * MIB),
          "address_ties@64MiB": ("address_ties", 64 * MIB)}

#: Each corpus entry's outcome per policy: a placement digest or
#: ``oom@<call>: <message>``.
CORPUS_OUTCOMES = {
    "address_ties@64MiB/caching":
        "eb0faff6022b051ce760fccf95049cda43b3f7660539095d12f57faae3635696",
    "address_ties@64MiB/best_fit":
        "906246d3580e7114183d6991dd3d87abf333008586ee7ca5e9b97f3da35479ab",
    "address_ties@64MiB/bump":
        "c90f317c27a2480f08904bde922624defff328162b6b9cf9bf780bc5c39a4609",
    "fifo_ties@64MiB/caching":
        "e787602ef26eedece84541f689bdafc62bbc790fa28a2976a9edbb17813003bb",
    "fifo_ties@64MiB/best_fit":
        "68cb29b1aa2ff32bb403a1b682a6034a4f55ad4111970140e0811bf8c755f3ee",
    "fifo_ties@64MiB/bump":
        "bf23522f90e503f47052651fb9d4f9b59dea3532a48f6f7257d517ad6a63b037",
    "seed0@1024MiB/caching":
        "b7c3b66b2d99de337d771adb86e8213170d97d7b4e2d653cac828bf24c8e8dd4",
    "seed0@1024MiB/best_fit":
        "b58c5b626d73d10941006eec0fb4e94c14df96d2820e9f483557ca63dc2c93f0",
    "seed0@1024MiB/bump":
        "b5e6f2d52283898fcc4227d82611b89c520f034be32551b4da7d82e402e1f3b0",
    "seed0@128MiB/caching":
        "b7c3b66b2d99de337d771adb86e8213170d97d7b4e2d653cac828bf24c8e8dd4",
    "seed0@128MiB/best_fit":
        "f698bf64cdbc05e449aa01b752e8c4bed7dbda966843d9d06c47a343fc87a47f",
    "seed0@128MiB/bump":
        ("oom@69: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 134217728 bytes, reserved 133385728 bytes, free 832000 bytes)"),
    "seed0@64MiB/caching":
        ("oom@69: Device out of memory: tried to allocate 23068672 bytes "
         "(capacity 67108864 bytes, reserved 46137344 bytes, free 20971520 bytes)"),
    "seed0@64MiB/best_fit":
        ("oom@69: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 67108864 bytes, reserved 62914560 bytes, free 19522560 bytes)"),
    "seed0@64MiB/bump":
        ("oom@45: Device out of memory: tried to allocate 8388608 bytes "
         "(capacity 67108864 bytes, reserved 60833792 bytes, free 6275072 bytes)"),
    "seed0@96MiB/caching":
        "d292e239b9e93ca508068bae9ad96122ac850ac01d246e2fd427a324c36b76c2",
    "seed0@96MiB/best_fit":
        "d855c64605bc83c9811c865a291efb6687d153c1be273f2c4d4ffa2039aa5f7c",
    "seed0@96MiB/bump":
        ("oom@50: Device out of memory: tried to allocate 8388608 bytes "
         "(capacity 100663296 bytes, reserved 96293888 bytes, free 4369408 bytes)"),
    "seed1@1024MiB/caching":
        "ed6856d7e0c62374558ae37a33c807e02b414e995f1f9b1a27ddcf99581d0add",
    "seed1@1024MiB/best_fit":
        "550067c46afd37d37f97d9ba3f6648f21790a524d4fbfbf8e50c7e509adaded5",
    "seed1@1024MiB/bump":
        "1afe69dcf3615d90cc5684ce217f642d0d173177268f2c9c2e5d588301c12ad3",
    "seed1@128MiB/caching":
        "ed6856d7e0c62374558ae37a33c807e02b414e995f1f9b1a27ddcf99581d0add",
    "seed1@128MiB/best_fit":
        "42dffb02be926b322c17f9ae8d2b3551a6183de1fe2d57010d55415e3268e788",
    "seed1@128MiB/bump":
        ("oom@61: Device out of memory: tried to allocate 262144 bytes "
         "(capacity 134217728 bytes, reserved 134135296 bytes, free 82432 bytes)"),
    "seed1@64MiB/caching":
        ("oom@22: Device out of memory: tried to allocate 20971520 bytes "
         "(capacity 67108864 bytes, reserved 67108864 bytes, free 0 bytes)"),
    "seed1@64MiB/best_fit":
        ("oom@26: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 67108864 bytes, reserved 62914560 bytes, free 6089216 bytes)"),
    "seed1@64MiB/bump":
        ("oom@22: Device out of memory: tried to allocate 8388608 bytes "
         "(capacity 67108864 bytes, reserved 60042752 bytes, free 7066112 bytes)"),
    "seed1@96MiB/caching":
        ("oom@26: Device out of memory: tried to allocate 23068672 bytes "
         "(capacity 100663296 bytes, reserved 88080384 bytes, free 12582912 bytes)"),
    "seed1@96MiB/best_fit":
        ("oom@32: Device out of memory: tried to allocate 4527104 bytes "
         "(capacity 100663296 bytes, reserved 94371840 bytes, free 2430976 bytes)"),
    "seed1@96MiB/bump":
        ("oom@29: Device out of memory: tried to allocate 8388608 bytes "
         "(capacity 100663296 bytes, reserved 95871488 bytes, free 4791808 bytes)"),
    "seed2@1024MiB/caching":
        "cb5f3ad2e2247e8354d1f7bbc06a67eb2ff93d453354629955a5d249841b8d4b",
    "seed2@1024MiB/best_fit":
        "16fdc2c0073021634d2efcb84166b139d4a961d2f6717f131215256b13f23462",
    "seed2@1024MiB/bump":
        "3420c0728049ca5e81067a8864da7b88d0d8be7271a00a420b957c8d04af38c9",
    "seed2@128MiB/caching":
        ("oom@149: Device out of memory: tried to allocate 23068672 bytes "
         "(capacity 134217728 bytes, reserved 134217728 bytes, free 0 bytes)"),
    "seed2@128MiB/best_fit":
        ("oom@149: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 134217728 bytes, reserved 125829120 bytes, free 15140352 bytes)"),
    "seed2@128MiB/bump":
        ("oom@79: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 134217728 bytes, reserved 128291328 bytes, free 5926400 bytes)"),
    "seed2@64MiB/caching":
        ("oom@38: Device out of memory: tried to allocate 20971520 bytes "
         "(capacity 67108864 bytes, reserved 48234496 bytes, free 18874368 bytes)"),
    "seed2@64MiB/best_fit":
        ("oom@120: Device out of memory: tried to allocate 3554816 bytes "
         "(capacity 67108864 bytes, reserved 62914560 bytes, free 3435520 bytes)"),
    "seed2@64MiB/bump":
        ("oom@33: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 67108864 bytes, reserved 56697856 bytes, free 10411008 bytes)"),
    "seed2@96MiB/caching":
        ("oom@133: Device out of memory: tried to allocate 23068672 bytes "
         "(capacity 100663296 bytes, reserved 90177536 bytes, free 10485760 bytes)"),
    "seed2@96MiB/best_fit":
        ("oom@133: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 100663296 bytes, reserved 94371840 bytes, free 19545088 bytes)"),
    "seed2@96MiB/bump":
        ("oom@48: Device out of memory: tried to allocate 8388608 bytes "
         "(capacity 100663296 bytes, reserved 94246400 bytes, free 6416896 bytes)"),
    "seed3@1024MiB/caching":
        "a2ec327a7a08f0ec641a2db21982ff60775768777ff201ffef8304db9bece117",
    "seed3@1024MiB/best_fit":
        "3e5b009eeac418a4b370d2c9fff8f610a8a4682a52196fe63ce716ddcfd58d7b",
    "seed3@1024MiB/bump":
        "152bb351599b9de0c60376dd3a39ba578898a99cac15baf97b31a9e0ffee04e9",
    "seed3@128MiB/caching":
        "a2ec327a7a08f0ec641a2db21982ff60775768777ff201ffef8304db9bece117",
    "seed3@128MiB/best_fit":
        "b97ea82b8134222d98381dd81864902bec3f4e2347a4a1a19a2f1916c641e51d",
    "seed3@128MiB/bump":
        ("oom@51: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 134217728 bytes, reserved 113694208 bytes, free 20523520 bytes)"),
    "seed3@64MiB/caching":
        ("oom@51: Device out of memory: tried to allocate 23068672 bytes "
         "(capacity 67108864 bytes, reserved 67108864 bytes, free 0 bytes)"),
    "seed3@64MiB/best_fit":
        ("oom@51: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 67108864 bytes, reserved 62914560 bytes, free 16211456 bytes)"),
    "seed3@64MiB/bump":
        ("oom@21: Device out of memory: tried to allocate 5721088 bytes "
         "(capacity 67108864 bytes, reserved 65512448 bytes, free 1596416 bytes)"),
    "seed3@96MiB/caching":
        ("oom@52: Device out of memory: tried to allocate 23068672 bytes "
         "(capacity 100663296 bytes, reserved 90177536 bytes, free 10485760 bytes)"),
    "seed3@96MiB/best_fit":
        ("oom@52: Device out of memory: tried to allocate 22020096 bytes "
         "(capacity 100663296 bytes, reserved 94371840 bytes, free 16025088 bytes)"),
    "seed3@96MiB/bump":
        ("oom@35: Device out of memory: tried to allocate 2597888 bytes "
         "(capacity 100663296 bytes, reserved 100468224 bytes, free 195072 bytes)"),
}


def corpus_log(source) -> RequestProgram:
    return {"fifo_ties": fifo_ties, "address_ties": address_ties}[source]() \
        if isinstance(source, str) else seeded_program(source)


@pytest.mark.parametrize("entry", sorted(CORPUS))
def test_corpus_outcomes_are_pinned(entry):
    source, capacity = CORPUS[entry]
    requests = corpus_log(source)
    for policy in POLICIES:
        result = outcome(requests, policy, capacity)
        if not result.startswith("oom@"):
            check_placement(requests, place(requests, policy, capacity), policy, capacity)
        assert result == CORPUS_OUTCOMES[f"{entry}/{policy}"], policy


def test_the_corpus_reaches_the_retry_and_out_of_memory():
    """The pins cover caching's empty-cache retry and every policy's OOM."""
    assert place(seeded_program(0), "caching", 96 * MIB).stats.segment_frees > 0
    for policy in POLICIES:
        with pytest.raises(OutOfMemoryError):
            place(seeded_program(0), policy, 64 * MIB)


# -- rounding and segment sizing ---------------------------------------------------------------


def test_round_block_size_rounds_up_to_512():
    assert round_block_size(1) == 512
    assert round_block_size(512) == 512
    assert round_block_size(513) == 1024
    assert round_block_size(0) == MIN_BLOCK_SIZE


def test_segment_size_for_small_and_large_requests():
    assert segment_size_for(1024) == SMALL_SEGMENT_SIZE
    assert segment_size_for(SMALL_ALLOCATION_LIMIT) == SMALL_SEGMENT_SIZE
    assert segment_size_for(2 * MIB) == LARGE_SEGMENT_SIZE
    huge = 64 * MIB + 3
    assert segment_size_for(huge) >= huge
    assert segment_size_for(huge) % (2 * MIB) == 0


def test_unknown_allocator_name():
    with pytest.raises(KeyError, match="unknown allocator"):
        place(RequestProgram(), "nope", 256 * MIB)


def test_stats_to_dict_contains_all_counters():
    expected_keys = {"allocated_bytes", "reserved_bytes", "active_blocks",
                     "peak_allocated_bytes", "peak_reserved_bytes", "peak_active_blocks",
                     "total_alloc_count", "total_free_count", "total_alloc_bytes",
                     "cache_hits", "cache_misses", "segment_allocs", "segment_frees",
                     "split_count", "coalesce_count"}
    assert expected_keys == set(AllocatorStats().to_dict())


def test_placements_number_blocks_and_segments_from_one():
    """Two replicas' equal logs place to equal ids: each placement numbers
    its blocks and segments from 1, whatever the process placed before."""
    requests = RequestProgram()
    malloc(requests, 1 * KIB)
    for policy in POLICIES:
        first, second = place(requests, policy, 64 * MIB), place(requests, policy, 64 * MIB)
        assert first.block_id.tolist() == second.block_id.tolist() == [1]
        assert digest(first) == digest(second)


# -- caching ------------------------------------------------------------------------------------


def test_caching_serves_a_rounded_block_in_a_fresh_segment():
    requests = RequestProgram()
    request = malloc(requests, 1000, tag="w", category=MemoryCategory.PARAMETER)
    placement = place(requests, "caching", 256 * MIB)
    # The segment's covering block serves the first request, from its start.
    assert placement.size[request] == 1024
    assert placement.block_id[request] == 1
    assert placement.address[request] == placement.segment_address[0] == BASE_ADDRESS
    assert segment_rows(placement) == [(0, SEGMENT_ALLOC_CODE, 1, BASE_ADDRESS, SMALL_SEGMENT_SIZE)]
    assert placement.segment_tags == ["segment:small"]
    assert placement.stats.allocated_bytes == 1024
    assert placement.stats.active_blocks == 1
    # What was asked stays the request's: its malloc row's.
    recorded = RequestProgram.recorded(requests.recording())
    assert (recorded.nbytes[request], recorded.categories[request], recorded.tags[request]) \
        == (1000, MemoryCategory.PARAMETER, "w")


def test_caching_small_requests_share_one_segment():
    requests = RequestProgram()
    for _ in range(10):
        malloc(requests, 10 * KIB)
    placement = place(requests, "caching", 256 * MIB)
    assert placement.stats.segment_allocs == 1
    assert placement.stats.reserved_bytes == SMALL_SEGMENT_SIZE


def test_caching_reuse_keeps_the_block_id():
    requests = RequestProgram()
    first = malloc(requests, 64 * KIB, tag="a")
    free(requests, first)
    second = malloc(requests, 64 * KIB, tag="b")
    placement = place(requests, "caching", 256 * MIB)
    assert placement.block_id[second] == placement.block_id[first]
    assert placement.address[second] == placement.address[first]
    assert requests.tags[second] == "b"
    assert placement.stats.cache_hits >= 1


def test_caching_best_fit_prefers_the_smallest_sufficient_block():
    requests = RequestProgram()
    small = malloc(requests, 2 * MIB)        # large pool
    big = malloc(requests, 8 * MIB)
    free(requests, small, big)
    reused = malloc(requests, 2 * MIB)
    placement = place(requests, "caching", 256 * MIB)
    assert placement.size[reused] <= 8 * MIB
    assert placement.block_id[reused] == placement.block_id[small]


def test_caching_split_keeps_the_remainder_available():
    requests = RequestProgram()
    first = malloc(requests, 512 * KIB)     # small pool, 2 MiB segment
    second = malloc(requests, 512 * KIB)
    placement = place(requests, "caching", 256 * MIB)
    assert placement.size[first] == 512 * KIB
    # Both fit in the same 2 MiB segment thanks to splitting.
    assert placement.stats.segment_allocs == 1
    assert placement.stats.split_count == 2
    assert placement.address[second] >= placement.address[first] + placement.size[first]
    assert placement.block_id[second] != placement.block_id[first]


def test_caching_coalesces_free_neighbours():
    requests = RequestProgram()
    blocks = [malloc(requests, 512 * KIB) for _ in range(4)]   # the whole segment
    free(requests, *blocks)
    whole = malloc(requests, SMALL_ALLOCATION_LIMIT)
    placement = place(requests, "caching", 256 * MIB)
    assert placement.stats.coalesce_count >= 3
    # Everything was freed back into one block: it serves a request none of
    # the four could, from the same segment, under the left-most block's id.
    assert placement.stats.segment_allocs == 1
    assert placement.block_id[whole] == placement.block_id[blocks[0]]
    assert placement.address[whole] == placement.address[blocks[0]] == BASE_ADDRESS
    assert placement.stats.allocated_bytes == SMALL_ALLOCATION_LIMIT


def test_caching_coalesced_blocks_leave_the_free_list():
    """A block absorbed by its free neighbour is never served under its own id."""
    requests = RequestProgram()
    left, right, _ = (malloc(requests, 1 * KIB) for _ in range(3))
    free(requests, left, right)
    again = [malloc(requests, 1 * KIB) for _ in range(2)]
    placement = place(requests, "caching", 256 * MIB)
    assert placement.block_id[again[0]] == placement.block_id[left]
    assert placement.address[again[1]] == placement.address[right]
    assert placement.block_id[again[1]] not in placement.block_id[[left, right]].tolist()


def test_caching_equal_sizes_are_served_oldest_free_first():
    requests = fifo_ties()
    placement = place(requests, "caching", 64 * MIB)
    holes = [0, 2, 4, 6]
    served = list(range(8, 12))
    # Freed in the order holes[2], holes[0], holes[3], holes[1].
    assert [placement.block_id[request] for request in served] \
        == [placement.block_id[holes[index]] for index in (2, 0, 3, 1)]
    assert placement.stats.segment_allocs == 1
    # Best fit breaks the same ties by address.
    by_address = place(requests, "best_fit", 64 * MIB)
    assert [by_address.block_id[request] for request in served] \
        == [by_address.block_id[hole] for hole in holes]


def test_caching_double_free_raises():
    requests = RequestProgram()
    request = malloc(requests, 1024, tag="x")
    free(requests, request, request)
    with pytest.raises(InvalidFreeError, match=r"block 1 \(tag='x'\) is not currently allocated"):
        place(requests, "caching", 256 * MIB)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_request_freed_again_after_its_block_is_served_again_raises(policy):
    """A free is checked against its request, not against the block that
    served it: once ``b`` holds the block ``a`` held, freeing ``a`` again
    raises instead of freeing ``b``'s block."""
    requests = RequestProgram()
    a = malloc(requests, 1024, tag="a")
    free(requests, a)
    b = malloc(requests, 1024, tag="b")
    served = place(requests, policy, 1 * GIB)
    assert served.stats.allocated_bytes == 1024
    if policy != "bump":
        assert served.block_id[b] == served.block_id[a]
    free(requests, a)
    with pytest.raises(InvalidFreeError,
                       match=rf"block {served.block_id[a]} \(tag='a'\) is not currently allocated"):
        place(requests, policy, 1 * GIB)


def test_caching_out_of_memory_carries_its_details():
    requests = RequestProgram()
    malloc(requests, 20 * MIB)
    malloc(requests, 30 * MIB)
    with pytest.raises(OutOfMemoryError) as excinfo:
        place(requests, "caching", 32 * MIB)
    error = excinfo.value
    assert (error.requested, error.free, error.reserved, error.capacity) \
        == (30 * MIB, 12 * MIB, 20 * MIB, 32 * MIB)
    assert failing_call(requests, "caching", 32 * MIB) == 1


def test_caching_releases_its_cache_and_retries_before_failing():
    requests = RequestProgram()
    cached = malloc(requests, 40 * MIB)
    free(requests, cached)                   # cached, not released
    # A different size cannot reuse the cached block, but the allocator
    # releases the cached segment and retries instead of failing.
    big = malloc(requests, 50 * MIB)
    placement = place(requests, "caching", 64 * MIB)
    assert placement.size[big] >= 50 * MIB
    assert segment_rows(placement) == [
        (0, SEGMENT_ALLOC_CODE, 1, BASE_ADDRESS, 40 * MIB),
        (2, SEGMENT_FREE_CODE, 1, BASE_ADDRESS, 40 * MIB),
        (2, SEGMENT_ALLOC_CODE, 2, BASE_ADDRESS + 40 * MIB, 50 * MIB)]
    assert placement.segment_tags == ["segment:large"] * 3


def test_caching_empty_cache_releases_every_fully_free_segment():
    requests = RequestProgram()
    small, large = malloc(requests, 4 * KIB), malloc(requests, 4 * MIB)
    free(requests, small, large)
    huge = malloc(requests, 22 * MIB)
    placement = place(requests, "caching", 24 * MIB)
    reserved_before = SMALL_SEGMENT_SIZE + LARGE_SEGMENT_SIZE
    released = [row for row in segment_rows(placement) if row[1] == SEGMENT_FREE_CODE]
    assert [row[0] for row in released] == [4, 4]
    assert sum(row[4] for row in released) == reserved_before
    assert placement.stats.reserved_bytes == placement.size[huge] == 22 * MIB
    assert placement.stats.peak_reserved_bytes == reserved_before


def test_caching_retry_that_frees_nothing_fails_with_the_first_details():
    requests = RequestProgram()
    malloc(requests, 4 * MIB)
    malloc(requests, 22 * MIB)
    with pytest.raises(OutOfMemoryError) as excinfo:
        place(requests, "caching", 24 * MIB)
    assert (excinfo.value.requested, excinfo.value.free, excinfo.value.reserved) \
        == (22 * MIB, 4 * MIB, LARGE_SEGMENT_SIZE)


def test_caching_placement_reports_malloc_free_and_segment():
    requests = RequestProgram()
    request = requests.malloc(1024, MemoryCategory.UNKNOWN, "x")
    requests.free(request)
    placement = place(requests, "caching", 256 * MIB)
    assert placement.stats.total_alloc_count == 1
    assert placement.stats.total_free_count == 1
    assert placement.segment_op.tolist() == [0]
    assert placement.segment_tags == ["segment:small"]


def test_allocation_advances_the_clock():
    """A request pays the bookkeeping overhead live; its segment reservation
    is the placement's, one overhead atom at the call that made it."""
    device = Device(small_test_device(256 * MIB))
    start = device.clock.now_ns
    device.allocate(1024)
    assert device.clock.now_ns == start + device.spec.allocator_overhead_ns
    assert device.place().segment_op.tolist() == [0]


# -- best fit -------------------------------------------------------------------------------


def test_best_fit_reserves_one_arena_up_front():
    placement = place(RequestProgram(), "best_fit", 64 * MIB)
    assert placement.preamble_segments == 1
    assert placement.stats.segment_allocs == 1
    assert placement.stats.reserved_bytes == (int(64 * MIB * 0.95) // SEGMENT_ALIGNMENT
                                              * SEGMENT_ALIGNMENT) > 0
    assert placement.segment_op.size == 0


def test_best_fit_allocates_and_frees():
    requests = RequestProgram()
    request = malloc(requests, 100 * KIB, tag="x")
    assert place(requests, "best_fit", 64 * MIB).stats.allocated_bytes == 100 * KIB
    free(requests, request)
    placement = place(requests, "best_fit", 64 * MIB)
    assert placement.stats.allocated_bytes == 0
    assert placement.size[request] == 100 * KIB


def test_best_fit_chooses_the_smallest_sufficient_hole():
    requests = RequestProgram()
    first, second, third = (malloc(requests, size) for size in (1 * MIB, 4 * MIB, 2 * MIB))
    free(requests, first, third)
    # A 1.5 MiB request fits both holes; best fit takes the 2 MiB one.
    block = malloc(requests, int(1.5 * MIB))
    free(requests, second)
    placement = place(requests, "best_fit", 64 * MIB)
    assert placement.address[block] == placement.address[third]


def test_best_fit_equal_holes_are_served_lowest_address_first():
    requests = address_ties()
    placement = place(requests, "best_fit", 64 * MIB)
    large, low, high = 0, 2, 4
    small, fits_large, beyond = 6, 7, 8
    assert placement.address[small] == placement.address[low]
    assert placement.address[fits_large] == placement.address[large]
    # No hole is left that fits: the arena's untouched tail serves it.
    assert placement.address[beyond] > placement.address[high]
    # The caching allocator breaks the same tie by age: ``high`` was freed first.
    assert place(requests, "caching", 64 * MIB).address[small] == placement.address[high]


def test_best_fit_coalesces_adjacent_holes():
    requests = RequestProgram()
    blocks = [malloc(requests, 1 * MIB) for _ in range(3)]
    free(requests, *blocks)
    arena = int(64 * MIB * 0.95) // SEGMENT_ALIGNMENT * SEGMENT_ALIGNMENT
    whole = malloc(requests, arena)
    placement = place(requests, "best_fit", 64 * MIB)
    assert placement.stats.coalesce_count == 3
    # The arena is one free block again: the whole of it is served from its start.
    assert placement.address[whole] == BASE_ADDRESS
    assert placement.block_id[whole] == placement.block_id[blocks[0]] == 1


def test_best_fit_out_of_memory_when_no_hole_fits():
    requests = RequestProgram()
    malloc(requests, 10 * MIB)
    malloc(requests, 10 * MIB)
    with pytest.raises(OutOfMemoryError) as excinfo:
        place(requests, "best_fit", 16 * MIB)
    assert (excinfo.value.requested, excinfo.value.free, excinfo.value.capacity) \
        == (10 * MIB, 4 * MIB, 16 * MIB)


def test_best_fit_double_free_raises():
    requests = RequestProgram()
    request = malloc(requests, 1024)
    free(requests, request, request)
    with pytest.raises(InvalidFreeError):
        place(requests, "best_fit", 64 * MIB)


# -- bump ---------------------------------------------------------------------------------------


def test_bump_never_reuses_memory():
    requests = RequestProgram()
    first = malloc(requests, 1 * MIB, tag="a")
    free(requests, first)
    second = malloc(requests, 1 * MIB, tag="b")
    placement = place(requests, "bump", 64 * MIB)
    assert placement.address[second] != placement.address[first]
    assert placement.block_id[second] != placement.block_id[first]
    assert placement.stats.segment_frees == 0


def test_bump_out_of_memory_at_capacity():
    requests = RequestProgram()
    malloc(requests, 3 * MIB)
    malloc(requests, 2 * MIB)
    with pytest.raises(OutOfMemoryError) as excinfo:
        place(requests, "bump", 4 * MIB)
    assert (excinfo.value.requested, excinfo.value.free) == (2 * MIB, 1 * MIB)


def test_bump_starts_every_placement_at_an_empty_device():
    requests = RequestProgram()
    request = malloc(requests, 3 * MIB)
    for _ in range(2):
        placement = place(requests, "bump", 4 * MIB)
        assert placement.address[request] == BASE_ADDRESS
        assert placement.stats.reserved_bytes == 3 * MIB


def test_bump_segments_hold_one_block_each():
    requests = RequestProgram()
    first, second = malloc(requests, 1000), malloc(requests, 1024)
    placement = place(requests, "bump", 64 * MIB)
    assert placement.size.tolist() == placement.segment_size.tolist() == [1024, 1024]
    assert placement.address.tolist() == placement.segment_address.tolist()
    assert placement.block_id.tolist() == placement.segment_id.tolist() == [1, 2]
    # Segments are aligned to 2 MiB however small.
    assert placement.address[second] - placement.address[first] == SEGMENT_ALIGNMENT


def test_bump_counters_track_peaks():
    requests = RequestProgram()
    first, _ = malloc(requests, 600), malloc(requests, 300)
    free(requests, first)
    stats = place(requests, "bump", 64 * MIB).stats
    assert stats.allocated_bytes == 512
    assert stats.peak_allocated_bytes == 1024 + 512
    assert stats.active_blocks == 1
    assert stats.peak_active_blocks == 2
    assert stats.reserved_bytes == stats.peak_reserved_bytes == 1024 + 512


def test_bump_double_free_raises():
    requests = RequestProgram()
    request = malloc(requests, 1024)
    free(requests, request, request)
    with pytest.raises(InvalidFreeError):
        place(requests, "bump", 64 * MIB)


def test_bump_placement_reports_malloc_and_free():
    requests = RequestProgram()
    requests.free(requests.malloc(1024, MemoryCategory.UNKNOWN, ""))
    placement = place(requests, "bump", 64 * MIB)
    assert placement.stats.total_alloc_count == 1
    assert placement.stats.total_free_count == 1
    assert placement.segment_tags == ["segment:bump"]


# -- laying rows into a recording ------------------------------------------------------------


def _recording(rng: random.Random, length: int) -> MemoryTrace:
    """A recording of ``length`` rows of random values, tags and ops."""
    columns = {name: np.array([rng.randrange(-50, 50) for _ in range(length)], dtype=np.int64)
               for name in ROW_FIELDS}
    return MemoryTrace(
        columns=EventColumns(event_id=np.arange(length), device_rank=np.zeros(length, np.int64),
                             **columns),
        event_tags=[f"t{row}" for row in range(length)],
        event_ops=[f"o{row}" for row in range(length)], metadata={"device_rank": 1})


def _naive_splice(recorded: MemoryTrace, n: int, anchors, inserted, tags, ops, delay):
    """Row by row: each inserted row before its anchor, then the recorded
    row at its delay.  Returns ``(rows, own, output rows)``, an output row
    being its :data:`ROW_FIELDS` values, tag and op."""
    columns = recorded.columns()
    rows, own, out = [], [], []
    pending = list(zip(anchors, zip(*(inserted[name] for name in ROW_FIELDS)), tags, ops))
    for row in range(n + 1):
        while pending and pending[0][0] == row:
            _, values, tag, op = pending.pop(0)
            own.append(len(out))
            out.append((*values, tag, op))
        if row < n:
            values = [int(getattr(columns, name)[row]) for name in ROW_FIELDS]
            values[ROW_FIELDS.index("timestamp_ns")] += int(delay[row])
            rows.append(len(out))
            out.append((*values, recorded.event_tags[row], recorded.event_ops[row]))
    assert not pending
    return rows, own, out


def _check_splice(seed: int, length: int, n: int, count: int) -> None:
    """A :class:`Splice` of ``count`` drawn rows into the first ``n`` of a
    ``length``-row recording equals the row-by-row splice."""
    rng = random.Random(seed)
    recorded = _recording(rng, length)
    anchors = sorted(rng.choice([0, n, rng.randint(0, n)]) for _ in range(count))
    inserted = {name: [rng.randrange(-50, 50) for _ in range(count)] for name in ROW_FIELDS}
    tags = [f"inserted-tag{j}" for j in range(count)]
    ops = [f"inserted-op{j}" for j in range(count)]
    delay = np.array([rng.randrange(0, 100) for _ in range(n)], dtype=np.int64)
    splice = Splice(recorded, n, np.array(anchors, dtype=np.int64),
                    {name: np.array(values, dtype=np.int64) for name, values in inserted.items()},
                    tags, ops, delay)
    rows, own, out = _naive_splice(recorded, n, anchors, inserted, tags, ops, delay)
    assert len(splice) == len(out) == n + count
    assert splice.rows.tolist() == rows and splice.own.tolist() == own
    for position, name in enumerate(ROW_FIELDS):
        assert splice.column(name).tolist() == [row[position] for row in out], name
    assert splice.tags() == [row[-2] for row in out]
    assert splice.ops() == [row[-1] for row in out]
    marks = [IterationMark(index=0, start_ns=1, end_ns=2)]
    trace = splice.trace(marks, 77)
    built = trace.columns()
    assert built.event_id.tolist() == list(range(len(out)))
    assert built.device_rank.tolist() == [0] * len(out)
    assert [getattr(built, name).tolist() for name in ROW_FIELDS] == \
        [splice.column(name).tolist() for name in ROW_FIELDS]
    assert trace.event_strings() == (splice.tags(), splice.ops())
    assert (trace.iteration_marks, trace.end_ns, trace.metadata) == (marks, 77, {"device_rank": 1})
    assert trace.metadata is not recorded.metadata


@settings(max_examples=settings.default.max_examples if WIDE else 40, deadline=None)
@given(seed=st.integers(0, 1 << 30), length=st.integers(0, 30), walked=st.floats(0, 1),
       count=st.integers(0, 12))
def test_a_splice_lays_rows_as_a_row_by_row_splice(seed, length, walked, count):
    """Repeated anchors, anchor 0 and anchor ``n``, part of a recording."""
    _check_splice(seed, length, int(walked * length), count)


@pytest.mark.parametrize("length,n,count", [(0, 0, 0), (0, 0, 3), (9, 9, 0), (9, 4, 0),
                                            (9, 4, 6), (9, 9, 6), (1, 0, 2)],
                         ids=["empty", "only-inserted", "nothing-inserted", "part-walked",
                              "part-walked-inserted", "whole", "none-walked"])
def test_a_splice_at_the_edges(length, n, count):
    _check_splice(length * 100 + n * 10 + count, length, n, count)
