"""Tests for the one on-disk artifact discipline (``experiments/artifacts.py``).

Every file a sweep leaves behind — result-cache entries, run journals, the
template archives — goes through :class:`ArtifactStore`.  These
tests pin the survivor of the four hand-rolled copies it replaced: atomic
pid-unique publish, parse-or-quarantine reads, tallied (never raised) I/O
errors, ``clear()`` counting only what it was asked to count, and the
structural guarantee that ``os.replace`` lives in exactly one module.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import repro
from repro.experiments import artifacts
from repro.experiments.artifacts import QUARANTINE_DIR, ArtifactStore
from repro.experiments.journal import JOURNALS_DIR, RunJournal
from repro.experiments.sweep import (
    RESULT_SCHEMA_VERSION,
    ScenarioResult,
    SweepGrid,
    SweepRunner,
    run_scenario,
)
from repro.experiments.template_store import TemplateStore


def tiny_scenarios(**overrides):
    settings = dict(models=("mlp",), batch_sizes=(16, 32), iterations=(1,),
                    model_kwargs={"hidden_dim": 32}, dataset="two_cluster")
    settings.update(overrides)
    return SweepGrid(**settings).expand()


def versioned(raw):
    """A client parser: stale schema → ``None`` (miss), malformed → raises."""
    if raw.get("schema") != 2:
        return None
    return raw["value"]


# -- publish --------------------------------------------------------------------------


def test_publish_is_atomic_and_leaves_no_temp(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    seen = []

    def write(temporary):
        seen.append(Path(temporary))
        Path(temporary).write_bytes(b"payload")
        assert not (store.root / "a.bin").exists()  # not visible until replaced

    assert store.publish("a.bin", write) == str(store.root / "a.bin")
    assert (store.root / "a.bin").read_bytes() == b"payload"
    assert seen[0].parent == store.root and seen[0].name != "a.bin"
    assert [p.name for p in store.root.iterdir()] == ["a.bin"]


def test_a_writer_that_raises_leaves_no_file_and_no_temp(tmp_path):
    store = ArtifactStore(tmp_path)

    def write(temporary):
        Path(temporary).write_bytes(b"half a pay")
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError):
        store.publish("a.bin", write)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(TypeError):  # unserializable: fails before any file exists
        store.publish_json("a.json", {"x": object()})
    assert list(tmp_path.iterdir()) == []


def test_two_writers_of_one_name_use_distinct_temp_paths(tmp_path, monkeypatch):
    """The result cache included (it used to share ``<key>.tmp``)."""
    scenario = tiny_scenarios(batch_sizes=(16,))[0]
    result = run_scenario(scenario)
    replaced = []
    real_replace = artifacts.os.replace
    monkeypatch.setattr(artifacts.os, "replace", lambda src, dst: (
        replaced.append((Path(src).name, Path(dst).name)), real_replace(src, dst)))
    for pid in (101, 202):  # two processes sharing one --cache-dir
        monkeypatch.setattr(artifacts.os, "getpid", lambda pid=pid: pid)
        SweepRunner(cache_dir=tmp_path).cache_store(scenario, result)
        ArtifactStore(tmp_path).publish_json("shared.json", {})
    cache = [src for src, dst in replaced if dst == f"{scenario.key()}.json"]
    shared = [src for src, dst in replaced if dst == "shared.json"]
    assert len(set(cache)) == 2 and len(set(shared)) == 2
    assert all(".101." in name or ".202." in name for name in cache + shared)


# -- read: parse or quarantine --------------------------------------------------------


def test_unparseable_is_quarantined_with_bytes_preserved(tmp_path):
    store = ArtifactStore(tmp_path)
    (tmp_path / "torn.json").write_text("{ torn write", encoding="utf-8")
    (tmp_path / "odd.json").write_text('{"schema": 2}', encoding="utf-8")
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")

    assert store.read_json("torn.json", "cache_corrupt", versioned) is None
    assert store.read_json("odd.json", "cache_corrupt", versioned) is None
    assert store.read_json("list.json", "journal_corrupt", versioned) is None
    assert store.quarantined == {"cache_corrupt": 2, "journal_corrupt": 1}
    moved = tmp_path / QUARANTINE_DIR / "torn.json"
    assert moved.read_text(encoding="utf-8") == "{ torn write"
    assert not (tmp_path / "torn.json").exists()


def test_stale_schema_and_absence_are_plain_misses(tmp_path):
    store = ArtifactStore(tmp_path)
    store.publish_json("old.json", {"schema": 1, "value": 5})
    store.publish_json("new.json", {"schema": 2, "value": 5})
    assert store.read_json("old.json", "cache_corrupt", versioned) is None
    assert store.read_json("missing.json", "cache_corrupt", versioned) is None
    assert store.read_json("new.json", "cache_corrupt", versioned) == 5
    assert store.quarantined == {} and store.io_errors == {}
    assert (tmp_path / "old.json").is_file()  # left for its owner to overwrite
    assert not (tmp_path / QUARANTINE_DIR).exists()


def test_io_errors_are_tallied_not_raised(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    store = ArtifactStore(blocker / "store")  # mkdir under a file must fail
    assert store.publish_json("a.json", {}) is None
    assert store.io_errors == {"write": 1}

    readable = ArtifactStore(tmp_path)
    (tmp_path / "dir.json").mkdir()
    assert readable.read_json("dir.json", "cache_corrupt", versioned) is None
    assert readable.io_errors == {"read": 1} and readable.quarantined == {}


def test_sub_stores_share_tallies_and_fault_plan(tmp_path):
    store = ArtifactStore(tmp_path, fault_plan="the-plan")
    child = store.sub("journals")
    assert child.root == tmp_path / "journals" and child.fault_plan == "the-plan"
    child.root.mkdir()
    (child.root / "x.json").write_text("nope")
    child.read_json("x.json", "journal_corrupt", versioned)
    assert store.quarantined == {"journal_corrupt": 1}
    assert (child.root / QUARANTINE_DIR / "x.json").is_file()  # beside its store


# -- clear ----------------------------------------------------------------------------


def test_clear_counts_only_the_named_artifacts(tmp_path):
    store = ArtifactStore(tmp_path)
    for name in ("a.json", "b.json", "c.npz"):
        store.publish_json(name, {})
    (tmp_path / ".a.json.4242.tmp").write_text("orphan of a killed writer")
    (tmp_path / "notes.txt").write_text("not ours")
    (tmp_path / "bad.json").write_text("{")
    store.read_json("bad.json", "cache_corrupt", versioned)

    assert store.clear("*.json") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.npz", "notes.txt", QUARANTINE_DIR]
    assert list((tmp_path / QUARANTINE_DIR).iterdir()) == []
    assert store.clear("*.json") == 0
    assert ArtifactStore(tmp_path / "never-created").clear("*") == 0


# -- the clients ----------------------------------------------------------------------


def test_corrupt_journal_and_manifest_are_quarantined(tmp_path):
    journal = RunJournal.for_keys(tmp_path, ["a"], 7)
    journal.record_completed("a", 1)
    journal.path.write_text("{ torn", encoding="utf-8")
    reloaded = RunJournal.for_keys(tmp_path, ["a"], 7)
    assert reloaded.entries == {}
    assert reloaded.store.quarantined == {"journal_corrupt": 1}
    assert (tmp_path / JOURNALS_DIR / QUARANTINE_DIR / journal.path.name).is_file()

    # The template store reads nothing but archives: an undecodable manifest
    # an older checkout left is neither parsed nor quarantined.
    templates = TemplateStore(tmp_path / "templates")
    templates.root.mkdir()
    (templates.root / "index.json").write_text("{ not json")
    assert templates.keys() == [] and templates.load("index") is None
    assert templates.artifacts.quarantined == {}
    assert (templates.root / "index.json").read_text() == "{ not json"


def test_hand_laid_parent_format_cache_is_served_with_zero_misses(tmp_path):
    """No result-cache format or layout change: entries written the way the
    pre-store code wrote them (plain ``json.dump``) are hits, not misses.  A
    schema-1 journal (one ``<run-id>.json`` document) beside them is a stale
    schema: never parsed, never quarantined, left for ``--clear-cache``."""
    scenarios = tiny_scenarios()
    keys = [scenario.key() for scenario in scenarios]
    for scenario, key in zip(scenarios, keys):
        with open(tmp_path / f"{key}.json", "w", encoding="utf-8") as handle:
            json.dump({"schema_version": RESULT_SCHEMA_VERSION,
                       "fingerprint": scenario.fingerprint(),
                       "result": run_scenario(scenario).to_dict()}, handle)
    journal = RunJournal.for_keys(tmp_path, keys, RESULT_SCHEMA_VERSION)
    old_path = journal.path.with_suffix(".json")
    old_path.parent.mkdir()
    old_bytes = json.dumps({
        "schema": 1, "run_id": journal.run_id,
        "entries": {key: {"status": "completed", "attempts": 1} for key in keys},
    }, indent=2, sort_keys=True)
    old_path.write_text(old_bytes, encoding="utf-8")

    served = SweepRunner(cache_dir=tmp_path, resume=True).run(scenarios)
    assert served.cache_hits == len(scenarios) and served.cache_misses == 0
    assert served.quarantined == {}
    assert RunJournal.for_keys(tmp_path, keys, RESULT_SCHEMA_VERSION).entries == {}
    assert old_path.read_text(encoding="utf-8") == old_bytes
    assert not (old_path.parent / QUARANTINE_DIR).exists()


@pytest.mark.parametrize("edit", ["unknown field", "missing field", "from_cache"])
def test_a_result_with_a_field_more_or_less_is_quarantined_and_rerun(tmp_path, edit):
    """A same-schema entry holds a whole :meth:`ScenarioResult.to_dict`: a
    field more (``from_cache``, never written, included) or less is
    malformed, not stale.
    The entry is quarantined under ``cache_corrupt``, bytes kept, and its
    scenario runs again and is written back whole."""
    scenarios = tiny_scenarios(batch_sizes=(16,))
    runner = SweepRunner(cache_dir=tmp_path)
    written = runner.run(scenarios).results[0].to_dict()
    path = tmp_path / f"{written['key']}.json"
    entry = json.loads(path.read_text(encoding="utf-8"))
    if edit == "missing field":
        del entry["result"]["num_blocks"]
    else:
        entry["result"]["extra" if edit == "unknown field" else edit] = False
    path.write_text(json.dumps(entry), encoding="utf-8")
    edited = path.read_bytes()

    again = runner.run(scenarios)
    assert (again.cache_hits, again.cache_misses) == (0, 1)
    assert again.quarantined == {"cache_corrupt": 1}
    assert (tmp_path / QUARANTINE_DIR / path.name).read_bytes() == edited
    assert not again.results[0].from_cache
    assert list(json.loads(path.read_text(encoding="utf-8"))["result"]) == list(written)
    assert runner.run(scenarios).cache_hits == 1


@pytest.mark.parametrize("overrides", [
    {},                                                  # plain
    {"swaps": ("lru",), "iterations": (3,)},             # closed-loop swap execution
    {"n_devices": (2,), "swap_policies": ("planner",)},  # multi-rank + offline policy
])
def test_cache_entry_bytes_are_the_deep_copied_dict_dumped_once(tmp_path, overrides):
    """``to_dict`` shares the result's nested values instead of copying them;
    the entry file is byte for byte what the ``asdict``-built payload gives."""
    scenario = tiny_scenarios(batch_sizes=(16,), **overrides)[0]
    result = run_scenario(scenario)
    if "swaps" in overrides:
        assert result.swap_execution is not None
    if "n_devices" in overrides:
        assert result.collective is not None and result.swap is not None

    runner = SweepRunner(cache_dir=tmp_path)
    runner.cache_store(scenario, result)
    copied = dataclasses.asdict(result)
    del copied["from_cache"]
    assert (tmp_path / f"{scenario.key()}.json").read_text(encoding="utf-8") == json.dumps({
        "schema_version": RESULT_SCHEMA_VERSION,
        "fingerprint": scenario.fingerprint(),
        "result": copied})

    assert result.to_dict() == copied and list(result.to_dict()) == list(copied)
    assert ScenarioResult.from_dict(result.to_dict()) == result
    served = runner.cache_load(scenario)
    assert served.from_cache and dataclasses.replace(served, from_cache=False) == result


# -- one discipline -------------------------------------------------------------------


def test_os_replace_appears_in_exactly_one_module():
    """...and so does the other write primitive, an append-mode open."""
    source_root = Path(repro.__file__).parent
    primitive = re.compile(
        r"""\bos\.replace\b|\bos\.O_APPEND\b|\bopen\([^)]*,\s*(?:mode=)?["']a[bt+]*["']""")
    users = sorted(str(path.relative_to(source_root))
                   for path in source_root.rglob("*.py")
                   if primitive.search(path.read_text(encoding="utf-8")))
    assert users == ["experiments/artifacts.py"]
    assert primitive.search('with open(path, "a", encoding="utf-8") as handle:')
    assert primitive.search("handle = open(path, mode='ab')")
    assert not primitive.search('open(path, "r", encoding="ascii")')


def test_journal_writes_no_indented_json():
    source = (Path(repro.__file__).parent / "experiments" / "journal.py").read_text(
        encoding="utf-8")
    assert "indent=" not in source and "pretty" not in source
