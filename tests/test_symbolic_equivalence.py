"""Golden digests: the traces simulation records are pinned byte for byte.

Memory behavior is a function of shapes, never of tensor values, so the
simulator computes none: every session records the events, lifetimes,
iteration marks and end time digested here.  The digests were recorded while
this suite still held each run event for event to a twin that computed
every value in NumPy — the configurations are that suite's: dense MLP, conv
AlexNet, residual ResNet, VGG, Inception, replica counts, training dtypes,
three swap runs, the integration suite's MLP and the
mixed-precision pair — so a kernel that changes what a run records fails
here.

The digests rename block ids to first-appearance order only because the
literals were recorded that way, when ids came from a process-global
counter.  Ids are numbered from 1 per placement now, so raw ids would
compare as well; re-recording the literals raw would move every one of
them for no gain.
"""

from __future__ import annotations

import enum
import hashlib
import json

import pytest

from repro.train.session import TrainingRunConfig, run_training_session

from tests.helpers import validating, trace_lifetimes

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
        [lifetime.block_id for lifetime in trace_lifetimes(trace)])
    return [
        (bid, lt.address, lt.size, lt.category, lt.tag, lt.malloc_ns, lt.free_ns,
         lt.iteration, lt.access_count, lt.device_rank)
        for bid, lt in zip(block_ids, trace_lifetimes(trace))
    ]


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


#: ``(label, config overrides)`` of every run the digests pin: the
#: :data:`CASES`, a ``unified`` and a ``zero_offload`` swap session, the
#: integration suite's MLP and the mixed-precision suite's fp16/fp32 pair.
GOLDEN_RUNS = [
    (f"{model}-{dtype}-x{n_devices}",
     dict(model=model, model_kwargs=model_kwargs, dataset=dataset,
          batch_size=batch_size, iterations=2, n_devices=n_devices, dtype=dtype,
          seed=7))
    for model, model_kwargs, dataset, batch_size, n_devices, dtype in CASES
] + [
    ("unified-session",
     dict(model="mlp", model_kwargs={"hidden_dim": 64}, dataset="two_cluster",
          batch_size=16, iterations=3, seed=7, swap="unified")),
    ("zero-offload-session",
     dict(model="mlp", dataset="two_cluster", batch_size=512, iterations=5,
          swap="zero_offload")),
    ("integration-mlp",
     dict(model="mlp", model_kwargs={"hidden_dim": 64}, dataset="two_cluster",
          batch_size=32, iterations=2, seed=0)),
    ("mixed-precision-float16",
     dict(model="mlp", model_kwargs={"hidden_dim": 32}, batch_size=16,
          iterations=2, dtype="float16")),
    ("mixed-precision-float32",
     dict(model="mlp", model_kwargs={"hidden_dim": 32}, batch_size=16,
          iterations=2, dtype="float32")),
]

#: sha256 of :func:`session_digest`'s payload per golden run, recorded while
#: each run was still held event for event to a twin that computed values.
GOLDEN_DIGESTS = {
    "mlp-float32-x1":
        "7fbd1a1949ecc05a94f4e5a704cd1d9c13ec07adc49b6f3853b837bcf16e130c",
    "mlp-float32-x2":
        "1e423c5213b7410508da94bbcf54d7f091bdf42cf8f89ea23b3cbaf9a694a51f",
    "mlp-float16-x1":
        "538bf38bfab98b67797aa177334243588fb0aefac874c03cee35518de9cb8a0b",
    "mlp-float16-x2":
        "c9fd74f3c5e5b55da4743dcb109c9c7fe47b1b8d28cadbb5cc7819b45ec67d63",
    "alexnet-float32-x1":
        "255c0fb6c4fdfab67c1b16017e1f2f79557adbac4b7c1cb096bfad0b7a7657d0",
    "alexnet-float16-x2":
        "52cd993f106e252e4b1ca6202c5b0b4d2c9898355f682aba15ba37e50fa46653",
    "resnet18-float32-x1":
        "4c718518198ed2463083ca5be2d547fd3e5cd3509bfc970780497718c0a75d20",
    "resnet18-float16-x2":
        "25d3782d68fab2a83e69413cd38df44e6ec36d240655c9ac8b8bb92ef42ce3c2",
    "vgg11-float32-x1":
        "80426a78b2f3e3e94ea17f17b68b2f359887e33a09ecf3e4d315d5a0844690d3",
    "inception_small-float32-x1":
        "c5c0ae470a97cf65bb43e08b2305a34a3f5416272c1989989d93bd75b76abe1b",
    "mlp-float32-x4":
        "0aab86f409e71eb4e7e00bbbe5b8ccd4e1f7203d67e03188d1d4f85b6701e4ca",
    "unified-session":
        "951e6331dd6803b98f92280c13fd4c57936d17ec2ddd58d0b55a49b163056db2",
    "zero-offload-session":
        "c7dee98b55aeec3efbf96e8077528181ac8277157b1e06653d077df371e5b488",
    "integration-mlp":
        "63065c3f9d4737d636336c507f9083e6ba6c35d391b9dc53996124a53e9d35d5",
    "mixed-precision-float16":
        "e20e378e079bff091778225049f7b831bbdb8bd247c9949735accf7ac6ccda48",
    "mixed-precision-float32":
        "319c9a51c96fba1734dbd3ac91aa87935274a362586cad9616977faafb1847b1",
}

#: The unified plan's swap-and-recompute run (``run_manual_policy``).
UNIFIED_REMATERIALIZATION_DIGEST = (
    "1938709994b67bee73e4d5b64b3e64e7a900965facf2d33a1bafffb9c4201b29")


def _json_default(value):
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"cannot digest {value!r}")


def trace_digest(trace, extra=None):
    """sha256 over the normalized event and lifetime streams, the iteration
    marks and ``end_ns`` (metadata aside), plus any ``extra`` payload."""
    payload = {
        "events": event_stream(trace),
        "lifetimes": lifetime_stream(trace),
        "marks": [mark.to_dict() for mark in trace.iteration_marks],
        "end_ns": trace.end_ns,
        "extra": extra,
    }
    text = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def session_digest(result):
    """:func:`trace_digest` of a session plus its footprint, durations and
    swap summary."""
    return trace_digest(result.trace, extra={
        "peaks": [result.peak_allocated_bytes, result.peak_reserved_bytes,
                  result.parameter_bytes],
        "durations": [stats.duration_ns for stats in result.iteration_stats],
        "swap_execution": result.swap_execution,
    })


def _normalized_summary(summary):
    """A swap summary with its process-global block ids dropped."""
    data = summary.to_dict()
    predicted = dict(data["predicted"])
    predicted["decisions"] = [
        {key: value for key, value in decision.items() if key != "block_id"}
        for decision in predicted["decisions"]]
    data["predicted"] = predicted
    return data


@pytest.mark.parametrize("label,overrides", GOLDEN_RUNS, ids=[l for l, _ in GOLDEN_RUNS])
def test_symbolic_trace_matches_its_golden_digest(label, overrides):
    result = run_training_session(TrainingRunConfig(**overrides))
    assert session_digest(result) == GOLDEN_DIGESTS[label]


def test_unified_rematerialization_matches_its_golden_digest():
    from repro.swap.policies import UnifiedPolicy
    from tests.test_swap_execution import run_manual_policy

    trace, summary = run_manual_policy(
        UnifiedPolicy(min_candidate_bytes=256 * 1024), model="mlp", dataset="two_cluster", batch_size=512, iterations=5,
        model_kwargs={"hidden_dim": 1024, "num_hidden_layers": 3}, seed=7)
    assert summary.swap_out_count > 0
    assert (trace_digest(trace, extra=_normalized_summary(summary))
            == UNIFIED_REMATERIALIZATION_DIGEST)


def test_the_seed_only_labels_a_row():
    """No kernel, initializer or batch reads the seed: two seeds, one trace."""
    base = dict(model="resnet18", model_kwargs={"input_size": 32, "num_classes": 10},
                dataset="cifar10", batch_size=4, iterations=2, n_devices=2,
                dtype="float16")
    first, second = (run_training_session(TrainingRunConfig(seed=seed, **base))
                     for seed in (0, 99))
    assert event_stream(first.trace) == event_stream(second.trace)
    assert lifetime_stream(first.trace) == lifetime_stream(second.trace)
