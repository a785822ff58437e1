"""Tests for the content-addressed template store (a directory of npz files).

The directory is the store: a family is held exactly when its archive exists,
so lookup is one ``is_file`` probe, two writers share nothing but archive
names, and families are published atomically (temp file + ``os.replace``) so a
crashed or concurrent writer can never leave a torn archive behind.  An
``index.json`` left by a checkout that kept a manifest is never read.
"""

import json
import logging
import threading

import numpy as np
import pytest

from repro.experiments import replay
from repro.experiments.replay import (ReplayEngine, TemplateFamily, load_family,
                                      template_key)
from repro.experiments.sweep import SweepGrid, SweepRunner
from repro.experiments.template_store import TEMPLATES_DIR, TemplateStore
from repro.train.session import TrainingRunConfig


SETTINGS = dict(model="mlp", model_kwargs={"hidden_dim": 32},
                dataset="two_cluster", batch_size=16, iterations=2,
                execution_mode="symbolic", seed=3)
CONFIG = TrainingRunConfig(**SETTINGS)


def make_family(dtypes=("float32",), **overrides):
    settings = {**SETTINGS, **overrides}
    configs = [TrainingRunConfig(**{**settings, "dtype": dtype})
               for dtype in dtypes]
    family = TemplateFamily(template_key(configs[0]))
    for config in configs:
        family.capture(config)
    return family


def snapshot(directory):
    """Every file under ``directory`` (relative name -> bytes)."""
    return {path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_publish_writes_manifest_entry_and_npz(tmp_path):
    store = TemplateStore(tmp_path)
    family = make_family(dtypes=("float32", "float16"))
    assert store.keys() == []
    path = store.publish(family)

    assert path == store.path_for(family.key) and path.is_file()
    assert store.keys() == [family.key]     # the directory listing is the inventory


def test_publish_leaves_no_temp_files(tmp_path):
    store = TemplateStore(tmp_path)
    store.publish(make_family())
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [store.path_for(make_family().key).name]


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


def test_a_store_laid_down_with_a_manifest_is_served_and_the_manifest_ignored(tmp_path):
    """Archives *plus* the ``index.json`` older checkouts wrote beside them:
    every family is served without a compile, ``load`` and ``publish`` leave
    the stale index alone, ``clear_cache()`` takes it away."""
    templates = tmp_path / TEMPLATES_DIR
    family = make_family(dtypes=("float32", "float16"))
    archive = TemplateStore(templates).publish(family)
    index = templates / "index.json"
    index.write_text(json.dumps({
        "schema": 1, "next_seq": 2,
        "entries": {family.key: {"file": archive.name, "seq": 1,
                                 "bytes": archive.stat().st_size,
                                 "dtypes": ["float16", "float32"]}}},
        indent=2, sort_keys=True))
    laid_down = snapshot(templates)

    engine = ReplayEngine(store=TemplateStore(templates))
    for dtype in ("float32", "float16"):
        variant = TrainingRunConfig(**{**SETTINGS, "dtype": dtype})
        assert engine.template_for(variant) is not None
    assert engine.templates_compiled == engine.variants_captured == 0
    assert snapshot(templates) == laid_down         # load wrote nothing

    other = make_family(batch_size=8)
    TemplateStore(templates).publish(other)
    assert index.read_bytes() == laid_down["index.json"]
    assert TemplateStore(templates).keys() == sorted([family.key, other.key])

    SweepRunner(cache_dir=tmp_path).clear_cache()
    assert snapshot(templates) == {}


def test_two_stores_on_one_directory_never_lose_a_family(tmp_path):
    """Two writers interleaving ``publish`` and ``load`` of different families
    share no state a read-modify-write could drop an entry from."""
    variants = make_family().variants
    per_writer = 6
    names = {writer: [f"{writer}-{n}" for n in range(per_writer)]
             for writer in ("a", "b")}
    failures = []

    def work(mine, theirs):
        store = TemplateStore(tmp_path)
        try:
            for key, other in zip(mine, theirs):
                store.publish(TemplateFamily(key, variants))
                store.load(other)       # hit or miss, depending on the race
                assert store.load(key) is not None
        except Exception as error:      # surfaced after the join
            failures.append(error)

    threads = [threading.Thread(target=work, args=(names["a"], names["b"])),
               threading.Thread(target=work, args=(names["b"], names["a"]))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads) and not failures

    reader = TemplateStore(tmp_path)
    assert reader.keys() == sorted(names["a"] + names["b"])
    assert all(reader.load(key) is not None for key in reader.keys())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"{key}.npz" for key in reader.keys()]      # no temp, no quarantine
    assert reader.artifacts.quarantined == {} and reader.artifacts.io_errors == {}


def test_corrupt_npz_is_dropped_from_the_manifest(tmp_path, caplog):
    store = TemplateStore(tmp_path)
    family = make_family()
    store.publish(family)
    path = store.path_for(family.key)
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])   # torn write

    fresh = TemplateStore(tmp_path)
    with caplog.at_level(logging.WARNING, logger=replay.__name__):
        assert fresh.load(family.key) is None
    assert family.key not in fresh.keys()
    assert fresh.artifacts.quarantined == {"template_corrupt": 1}
    (record,) = caplog.records
    assert str(path) in record.getMessage() and family.key in record.getMessage()
    assert record.exc_info is not None          # the traceback says why


def test_a_torn_archive_is_quarantined_and_recompiled_over_and_nothing_else_moves(tmp_path):
    store = TemplateStore(tmp_path)
    bystander = store.publish(make_family(batch_size=8))
    (tmp_path / "index.json").write_text('{"schema": 1, "entries": {}}')
    assert ReplayEngine(store=store).template_for(CONFIG) is not None
    torn = store.path_for(template_key(CONFIG))
    whole = torn.read_bytes()
    torn.write_bytes(whole[:len(whole) // 2])
    before = snapshot(tmp_path)

    engine = ReplayEngine(store=TemplateStore(tmp_path))
    assert engine.template_for(CONFIG) is not None
    assert engine.templates_compiled == 1
    assert engine.store.artifacts.quarantined == {"template_corrupt": 1}

    after = snapshot(tmp_path)
    assert after.pop(f"quarantine/{torn.name}") == before[torn.name]
    assert sorted(after) == sorted(before)
    assert {name for name in before if after[name] != before[name]} == {torn.name}
    assert after[bystander.name] == before[bystander.name]
    again = ReplayEngine(store=TemplateStore(tmp_path))
    assert again.template_for(CONFIG) is not None and again.templates_compiled == 0


def test_an_archive_of_the_previous_schema_is_never_opened(tmp_path, monkeypatch, caplog):
    """The schema version is part of the template key, so a v2 archive sits
    under a name no v3 lookup asks for: not loaded, not quarantined, not
    logged about — it ages out of the directory like any unused file."""
    monkeypatch.setattr(replay, "TEMPLATE_SCHEMA_VERSION", 2)
    stale = TemplateStore(tmp_path).path_for(template_key(CONFIG))
    monkeypatch.undo()
    assert stale.name != f"{template_key(CONFIG)}.npz"
    stale.write_bytes(b"a v2 archive: unreadable to this schema")

    with caplog.at_level(logging.WARNING, logger=replay.__name__):
        for _process in range(2):       # compile + publish, then a store hit
            engine = ReplayEngine(store=TemplateStore(tmp_path))
            assert engine.template_for(CONFIG) is not None
    assert engine.templates_compiled == 0
    assert stale.read_bytes() == b"a v2 archive: unreadable to this schema"
    assert not (tmp_path / "quarantine").exists()
    assert not caplog.records
    assert TemplateStore(tmp_path).keys() == sorted([stale.stem, template_key(CONFIG)])


# -- the load screen: damaged positions and spans are rejected, not replayed -----------


def _edited(array, index, value):
    array = array.copy()
    array[index] = value
    return array


#: Hand edits a capture never produces, as (rank 0's column, edit of that
#: column given the tape length).  Each keeps the archive readable and every
#: column its length, so only the position / span screen can catch it.
DAMAGE = {
    "a position below zero": ("event_tape_pos", lambda p, n: _edited(p, 0, -1)),
    "positions that decrease": ("event_tape_pos", lambda p, n: p[::-1]),
    "a span past the tape": ("mark_spans", lambda s, n: _edited(s, (-1, 1), n + 1)),
    "a span below zero": ("mark_spans", lambda s, n: _edited(s, (0, 0), -1)),
    "a span that begins after it ends": ("mark_spans", lambda s, n: s[:, ::-1]),
}

DOCTORED_GRID = dict(models=("mlp",), batch_sizes=(16,), iterations=(2,),
                     n_devices=(2,), interconnects=("pcie_gen3", "nvlink2"),
                     model_kwargs={"hidden_dim": 32}, dataset="two_cluster")


def _rows(sweep):
    rows = []
    for result in sweep.results:
        data = result.to_dict()
        data.pop("wall_time_s")
        rows.append(data)
    return rows


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_doctored_archive_is_rejected_and_the_sweep_recompiles(tmp_path, caplog, damage):
    grid = SweepGrid(execution_mode="replay", **DOCTORED_GRID)
    SweepRunner(cache_dir=tmp_path).run(grid.expand())
    store = TemplateStore(tmp_path / TEMPLATES_DIR)
    (key,) = store.keys()
    path = store.path_for(key)
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: np.array(data[name]) for name in data.files}
    column, edit = DAMAGE[damage]
    arrays[f"v0_r0_{column}"] = edit(arrays[f"v0_r0_{column}"],
                                     len(arrays["v0_r0_tape_kind"]))
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)

    with caplog.at_level(logging.WARNING, logger=replay.__name__):
        assert load_family(path, key=key) is None
    (record,) = caplog.records
    assert str(path) in record.getMessage() and record.exc_info is not None

    replayed = SweepRunner(cache_dir=tmp_path, use_cache=False).run(grid.expand())
    assert replayed.templates_compiled == 1
    assert replayed.quarantined == {"template_corrupt": 1}
    symbolic = SweepRunner(use_cache=False).run(
        SweepGrid(execution_mode="symbolic", **DOCTORED_GRID).expand())
    assert _rows(replayed) == _rows(symbolic)
