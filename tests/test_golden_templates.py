"""Golden digests of captured template bytes.

The replay ≡ simulation suites compare a replayed row with a fresh run of
the same checkout, so a change to what a capture records (which atoms, in
which order, at which event positions) moves both sides together and passes.
These digests pin the captured bytes themselves — every tape column, the
event→atom positions, the iteration spans and the pre-attach preamble — for
five structures that cover the three allocators, fp16, replica classes and
a non-divisible batch.  A digest that moves means stored templates no
longer match what this checkout would capture: bump
``TEMPLATE_SCHEMA_VERSION`` and re-record, or find the drift.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.replay import ReplayEngine, _TAPE_COLUMNS, _rank_array
from repro.train.session import TrainingRunConfig

CONV = {"input_size": 32, "num_classes": 10}
MLP = {"hidden_dim": 64}

#: label -> (config overrides, tape length of rank 0, digest)
GOLDEN = {
    "mlp/caching": (
        dict(model="mlp", model_kwargs=MLP), 113,
        "2d4e1b08a89538c85dded4b60ba128b4e9bcac236664d94157d98fe8a669d86b"),
    "mlp/best_fit/2dev/b50": (
        dict(model="mlp", model_kwargs=MLP, allocator="best_fit",
             n_devices=2, batch_size=50), 114,
        "e01f4d4934c7320d719e0de23faf9132ec749aeb07c602c34c8df355c43e6b9e"),
    "resnet18/best_fit": (
        dict(model="resnet18", dataset="cifar10", model_kwargs=CONV,
             allocator="best_fit", batch_size=4), 1820,
        "88a7d82760f4c74d87419951fb36197d16997bc8c50438eae631745e40295e4d"),
    "resnet18/caching/fp16/2dev/b5": (
        dict(model="resnet18", dataset="cifar10", model_kwargs=CONV,
             dtype="float16", n_devices=2, batch_size=5), 1901,
        "db26747a8e27f9c1c628de5e91c14fd95878323f1c3ed68d982132b02b83b697"),
    "vgg11/bump": (
        dict(model="vgg11", dataset="cifar10", model_kwargs=CONV,
             allocator="bump", batch_size=4), 966,
        "14adbc4a849750ebdc3e87b247ec85be8c1d31e49981eebd431181fb9f97169a"),
}


def template_digest(template):
    """sha256 over every rank's tape columns, positions, spans and preamble."""
    digest = hashlib.sha256()
    for rank in template.ranks:
        for name in (*_TAPE_COLUMNS, "event_tape_pos", "mark_spans"):
            array = np.ascontiguousarray(_rank_array(rank, name))
            digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
            digest.update(array.tobytes())
        digest.update(f"preamble:{rank.preamble_segments};".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_captured_template_bytes_are_pinned(label):
    overrides, tape_len, expected = GOLDEN[label]
    config = TrainingRunConfig(**{"iterations": 2, "execution_mode": "symbolic",
                                  "seed": 3, **overrides})
    template = ReplayEngine().template_for(config)
    assert template is not None
    assert len(template.ranks[0].tape_kind) == tape_len
    assert template_digest(template) == expected
