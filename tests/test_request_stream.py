"""What training asks of device memory is the workload's, not the allocator's.

Under ``caching``, ``best_fit`` and ``bump`` a workload makes the same
requests: its malloc / free / read / write rows agree in kind, category, tag
and op, and its mallocs ask for the same byte counts (its request log).
Only the placement differs — the block ``size`` column (the allocator's
rounding and splitting) and the segment rows.  So a sweep over the three
allocators and three swap-off capacities of one structure runs its front
end once and places it nine times, with the results and failures pinned
below.
"""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from repro.core.events import MemoryEventKind
from repro.core.trace import KIND_CODES
from repro.experiments.grid import SweepGrid
from repro.experiments.sweep import SweepRunner
from repro.train import session as session_module
from repro.train.session import TrainingRunConfig, run_training_session
from repro.units import GIB, MIB

CONV = {"input_size": 32, "num_classes": 10}
#: The capture probe's structures (``tools/capture_probe.py``).
STRUCTURES = {
    "resnet18": dict(model="resnet18", dataset="cifar10", batch_size=8, model_kwargs=CONV),
    "vgg11": dict(model="vgg11", dataset="cifar10", batch_size=8, model_kwargs=CONV),
    "mlp": dict(model="mlp", dataset="two_cluster", batch_size=512,
                model_kwargs={"hidden_dim": 1024, "num_hidden_layers": 4}),
}
ALLOCATORS = ("caching", "best_fit", "bump")
RUNS = [(name, n) for name in STRUCTURES for n in (1, 2)]

_BEHAVIORS = [KIND_CODES[kind] for kind in (MemoryEventKind.MALLOC, MemoryEventKind.FREE,
                                            MemoryEventKind.READ, MemoryEventKind.WRITE)]
_SEGMENTS = [KIND_CODES[MemoryEventKind.SEGMENT_ALLOC],
             KIND_CODES[MemoryEventKind.SEGMENT_FREE]]

#: Rank 0's segment rows per (structure, replica count): caching, best_fit, bump.
SEGMENT_ROWS = {
    ("resnet18", 1): (23, 0, 943), ("resnet18", 2): (22, 0, 943),
    ("vgg11", 1): (13, 0, 342), ("vgg11", 2): (12, 0, 342),
    ("mlp", 1): (4, 0, 99), ("mlp", 2): (6, 0, 99),
}
#: Allocator pairs whose block ``size`` columns differ, per structure: the
#: caching allocator keeps a large block whole when the remainder is at most
#: 1 MiB; best-fit and bump only round to 512 bytes.  Every MLP request is
#: already a multiple of 512 bytes and below the large pool's slack.
SIZES_DIFFER = {
    "resnet18": {("caching", "best_fit"), ("caching", "bump")},
    "vgg11": {("caching", "best_fit"), ("caching", "bump")},
    "mlp": set(),
}


def _config(name: str, n_devices: int, allocator: str) -> TrainingRunConfig:
    return TrainingRunConfig(iterations=3, seed=3, n_devices=n_devices,
                             allocator=allocator, **STRUCTURES[name])


def _session_and_requests(config):
    """The session plus each replica class's requested malloc sizes."""
    session = run_training_session(config)
    return session, [requests.nbytes.tolist() for requests in session.recording.requests]


def _view(trace, requested):
    """What the comparison reads off one replica's trace."""
    cols = trace.columns()
    tags, ops = trace.event_strings()
    behavior = np.flatnonzero(np.isin(cols.kind_code, _BEHAVIORS))
    return {
        "kind": cols.kind_code[behavior].tolist(),
        "category": cols.category_code[behavior].tolist(),
        "tag": [tags[i] for i in behavior.tolist()],
        "op": [ops[i] for i in behavior.tolist()],
        "requested": requested,
        "size": cols.size[behavior].tolist(),
        "segment_rows": int(np.isin(cols.kind_code, _SEGMENTS).sum()),
    }


@pytest.fixture(scope="module")
def views():
    table = {}
    for name, n in RUNS:
        for allocator in ALLOCATORS:
            session, requested = _session_and_requests(_config(name, n, allocator))
            traces = session.rank_traces or [session.trace]
            classes = session.recording.rank_classes
            table[name, n, allocator] = [_view(trace, requested[classes[rank]])
                                         for rank, trace in enumerate(traces)]
    return table


@pytest.mark.parametrize("name,n", RUNS)
def test_the_request_stream_is_the_workloads(views, name, n):
    """Behavior rows and requested sizes are equal under every allocator."""
    base = views[name, n, "caching"]
    for allocator in ALLOCATORS[1:]:
        for mine, theirs in zip(views[name, n, allocator], base):
            for column in ("kind", "category", "tag", "op", "requested"):
                assert mine[column] == theirs[column], (allocator, column)


@pytest.mark.parametrize("name,n", RUNS)
def test_only_the_placement_differs(views, name, n):
    """Block sizes differ where the allocators round differently, and the
    segment rows are the allocator's: 0 for best-fit's pre-reserved arena."""
    ranks = [views[name, n, allocator] for allocator in ALLOCATORS]
    assert tuple(rank[0]["segment_rows"] for rank in ranks) == SEGMENT_ROWS[name, n]
    differ = {(ALLOCATORS[first], ALLOCATORS[second])
              for first in range(len(ALLOCATORS))
              for second in range(first + 1, len(ALLOCATORS))
              if ranks[first][0]["size"] != ranks[second][0]["size"]}
    assert differ == SIZES_DIFFER[name]
    # Every block holds at least what was asked of it.
    for rank in ranks:
        for view in rank:
            malloc = [size for kind, size in zip(view["kind"], view["size"])
                      if kind == _BEHAVIORS[0]]
            assert all(got >= asked for got, asked in zip(malloc, view["requested"]))


# -- one structure over every allocator and swap-off capacity ---------------------------

#: The 1024x4 MLP peaks near 40 MiB allocated: 1 GiB fits every allocator
#: (bump never reuses an address), 16 MiB fits none.
FEASIBLE = 1 * GIB
OOM = 16 * MIB
ALLOCATOR_GRID = SweepGrid(
    models=("mlp",), batch_sizes=(512,), iterations=(3,), allocators=ALLOCATORS,
    device_memory_capacities=(None, FEASIBLE, OOM),
    model_kwargs={"hidden_dim": 1024, "num_hidden_layers": 4})

#: sha256 of each result's ``to_dict()`` without wall time, by allocator@capacity.
RESULT_SHA256 = {
    "caching@None": "85a09cce14ab3adb2083a0790fa5d76b8877212f3014a8f1867b02d6fe80d7ee",
    "caching@1073741824": "12d0332353ad8751537d53d239dce8dac3e1f8f83ac4832c1a39dbde6d2c3a0d",
    "best_fit@None": "f7ec9c00530f0132e3b58a0be5d55525efb563e1ec123fe396cfc7f9e00b2f5c",
    "best_fit@1073741824": "f4c139cf38707720d998b8c2c6304f1b277b8edd719181178b757be7fa6a6f27",
    "bump@None": "b332c75a921a9ac3f44bdbe20b0fb6b2072b36c6a5667919fe5f788079f0c0f3",
    "bump@1073741824": "b4d621da2fbb3a769165a58c2bf5c6563a0541d942dbf1f29894c829051a5232",
}
#: sha256 of each failure's ``[reason, kind, error]``, by allocator@capacity.
FAILURE_SHA256 = {
    "caching@16777216": "32413f09408f4db32cf0515b49ce083566a054668ce1215df86698473c27bb65",
    "best_fit@16777216": "871cc176835d3a4578d30a44d59fb3e9c8b09d97e54195bd168c2a09fbb4ae32",
    "bump@16777216": "4fb599e9aa805a0fae9e469eee0767df7237fcb4ce1469f2874319acbfdffb6d",
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sweep_digests():
    with mock.patch.object(session_module, "record_session",
                           wraps=session_module.record_session) as record_session, \
            SweepRunner(use_cache=False, strict=False) as runner:
        sweep = runner.run(ALLOCATOR_GRID.expand())
    assert record_session.call_count == 1
    results = {}
    for result in sweep.results:
        data = result.to_dict()
        data.pop("wall_time_s")
        scenario = result.scenario
        results[f"{scenario['allocator']}@{scenario['device_memory_capacity']}"] = \
            _digest(data)
    failures = {}
    for record in sweep.failures:
        scenario = record.scenario
        failures[f"{scenario['allocator']}@{scenario['device_memory_capacity']}"] = \
            _digest([record.reason, record.kind, record.error])
    return results, failures


def test_allocator_and_capacity_rows_keep_their_outcomes():
    """Six rows fit and three run out of memory, each with its own result or
    error, pinned byte for byte — from one run of the front end."""
    results, failures = _sweep_digests()
    assert results == RESULT_SHA256
    assert failures == FAILURE_SHA256
