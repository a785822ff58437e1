"""Tests for the content-addressed template store (``index.json`` + npz files).

The store gives the replay engine O(1) lookup by template key, bounds the
cache with an LRU over a monotonic sequence counter, and publishes families
atomically (temp file + ``os.replace``) so a crashed or concurrent writer can
never leave a torn archive behind.  The manifest is advisory: a missing or
corrupt ``index.json`` must never lose templates that are still on disk.
"""

import json
import logging

from repro.experiments import replay
from repro.experiments.replay import ReplayEngine, TemplateFamily, template_key
from repro.experiments.template_store import (
    DEFAULT_MAX_ENTRIES,
    INDEX_NAME,
    TemplateStore,
)
from repro.train.session import TrainingRunConfig


def make_family(dtypes=("float32",), **overrides):
    settings = dict(model="mlp", model_kwargs={"hidden_dim": 32},
                    dataset="two_cluster", batch_size=16, iterations=2,
                    execution_mode="symbolic", seed=3)
    settings.update(overrides)
    configs = [TrainingRunConfig(**{**settings, "dtype": dtype})
               for dtype in dtypes]
    family = TemplateFamily(template_key(configs[0]))
    for config in configs:
        family.capture(config)
    return family


def test_publish_writes_manifest_entry_and_npz(tmp_path):
    store = TemplateStore(tmp_path)
    family = make_family(dtypes=("float32", "float16"))
    store.publish(family)

    path = store.path_for(family.key)
    assert path.is_file()
    index = json.loads((tmp_path / INDEX_NAME).read_text())
    entry = index["entries"][family.key]
    assert entry["file"] == path.name
    assert entry["bytes"] == path.stat().st_size
    assert entry["dtypes"] == ["float16", "float32"]
    assert entry["seq"] < index["next_seq"]


def test_publish_leaves_no_temp_files(tmp_path):
    store = TemplateStore(tmp_path)
    store.publish(make_family())
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted([INDEX_NAME,
                            store.path_for(make_family().key).name])


def test_load_round_trips_the_family(tmp_path):
    store = TemplateStore(tmp_path)
    family = make_family(dtypes=("float32", "float16"))
    store.publish(family)

    loaded = TemplateStore(tmp_path).load(family.key)
    assert loaded is not None
    assert loaded.key == family.key
    assert loaded.captured_dtypes() == ["float16", "float32"]
    assert not loaded.compiled_fresh  # a store hit is not a fresh compile


def test_load_miss_returns_none(tmp_path):
    assert TemplateStore(tmp_path).load("no-such-key") is None


def test_lru_eviction_bounds_the_store(tmp_path):
    store = TemplateStore(tmp_path, max_entries=2)
    families = [make_family(batch_size=size) for size in (4, 8, 16)]
    for family in families:
        store.publish(family)

    kept = set(store.keys())
    assert families[0].key not in kept  # oldest evicted
    assert {families[1].key, families[2].key} == kept
    assert not store.path_for(families[0].key).exists()


def test_load_touch_protects_entries_from_eviction(tmp_path):
    store = TemplateStore(tmp_path, max_entries=2)
    first, second = make_family(batch_size=4), make_family(batch_size=8)
    store.publish(first)
    store.publish(second)
    assert store.load(first.key) is not None  # LRU-touch: first becomes newest

    third = make_family(batch_size=16)
    store.publish(third)
    assert set(store.keys()) == {first.key, third.key}  # second was the victim


def test_corrupt_manifest_recovers_from_the_directory(tmp_path):
    store = TemplateStore(tmp_path)
    family = make_family()
    store.publish(family)
    (tmp_path / INDEX_NAME).write_text("{ not json")

    fresh = TemplateStore(tmp_path)
    assert fresh.load(family.key) is not None  # directory probe wins


def test_corrupt_npz_is_dropped_from_the_manifest(tmp_path, caplog):
    store = TemplateStore(tmp_path)
    family = make_family()
    store.publish(family)
    path = store.path_for(family.key)
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])   # torn write

    fresh = TemplateStore(tmp_path)
    with caplog.at_level(logging.WARNING, logger=replay.__name__):
        assert fresh.load(family.key) is None
    assert family.key not in fresh.read_index()["entries"]
    assert fresh.artifacts.quarantined == {"template_corrupt": 1}
    (record,) = caplog.records
    assert str(path) in record.getMessage() and family.key in record.getMessage()
    assert record.exc_info is not None          # the traceback says why


def test_an_archive_of_the_previous_schema_is_never_opened(tmp_path, monkeypatch, caplog):
    """The schema version is part of the template key, so a v2 archive sits
    under a name no v3 lookup asks for: not loaded, not quarantined, not
    logged about — it ages out of the directory like any unused file."""
    config = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 32},
                               dataset="two_cluster", batch_size=16, iterations=2,
                               execution_mode="symbolic", seed=3)
    monkeypatch.setattr(replay, "TEMPLATE_SCHEMA_VERSION", 2)
    stale = TemplateStore(tmp_path).path_for(template_key(config))
    monkeypatch.undo()
    assert stale.name != f"{template_key(config)}.npz"
    stale.write_bytes(b"a v2 archive: unreadable to this schema")

    with caplog.at_level(logging.WARNING, logger=replay.__name__):
        for _process in range(2):       # compile + publish, then a store hit
            engine = ReplayEngine(store=TemplateStore(tmp_path))
            assert engine.template_for(config) is not None
    assert engine.templates_compiled == 0
    assert stale.read_bytes() == b"a v2 archive: unreadable to this schema"
    assert not (tmp_path / "quarantine").exists()
    assert not caplog.records
    assert sorted(TemplateStore(tmp_path).read_index()["entries"]) == [template_key(config)]


def test_default_capacity_is_sane():
    assert DEFAULT_MAX_ENTRIES >= 16
