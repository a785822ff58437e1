"""The run journal as an append-only line log (``experiments/journal.py``).

One header line published atomically, one JSON line per terminal failure
appended the moment it is final.  These tests pin what a reader may find on
disk and what it must make of it: any byte-prefix of a journal loads as a
prefix of its records (a torn tail is not corruption), damage anywhere else
is quarantined with its bytes preserved, the I/O a run performs grows with
the number of records, not with its square, and a run in which nothing
fails leaves no journal at all.
"""

import json
import os

import pytest

from repro.experiments import artifacts
from repro.experiments.artifacts import QUARANTINE_DIR, ArtifactStore
from repro.experiments.journal import (
    JOURNAL_SCHEMA_VERSION,
    JOURNALS_DIR,
    RunJournal,
)
from repro.experiments.sweep import (RESULT_SCHEMA_VERSION, Scenario, SweepGrid,
                                     SweepRunner)
from repro.train.session import TrainingRunConfig

KEYS = [f"{index:02d}" * 32 for index in range(6)]


def write_mixed(tmp_path, keys=KEYS):
    """A journal of alternating transient/deterministic failures; returns it."""
    journal = RunJournal.for_keys(tmp_path, keys, 7)
    for index, key in enumerate(keys):
        if index % 2:
            journal.record_failed(key, "oom", "deterministic", attempts=index)
        else:
            journal.record_failed(key, "timeout", "transient", attempts=index)
    return journal


def tiny_scenarios(count):
    return SweepGrid(models=("mlp",), batch_sizes=tuple(8 * (n + 1) for n in range(count)),
                     iterations=(1,), model_kwargs={"hidden_dim": 32},
                     dataset="two_cluster").expand()


#: A scenario that fails deterministically: lenet5 rejects the 2-D samples.
BAD = Scenario(TrainingRunConfig(model="lenet5", dataset="two_cluster",
                                 batch_size=16, iterations=1))


def journal_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# -- layout ---------------------------------------------------------------------------


def test_file_is_a_header_line_then_one_line_per_record(tmp_path):
    journal = write_mixed(tmp_path)
    assert journal.path == tmp_path / JOURNALS_DIR / f"{journal.run_id}.jsonl"
    header, *records = [json.loads(line)
                        for line in journal.path.read_text().splitlines()]
    assert header == {"schema": JOURNAL_SCHEMA_VERSION, "run_id": journal.run_id}
    assert [record["key"] for record in records] == KEYS
    assert records[0] == {"key": KEYS[0], "status": "failed", "reason": "timeout",
                          "kind": "transient", "attempts": 0}
    assert records[1] == {"key": KEYS[1], "status": "failed", "reason": "oom",
                          "kind": "deterministic", "attempts": 1}
    assert RunJournal.for_keys(tmp_path, KEYS, 7).entries == journal.entries


def test_each_record_is_on_disk_when_the_call_returns(tmp_path):
    journal = RunJournal.for_keys(tmp_path, KEYS, 7)
    for count, key in enumerate(KEYS, start=1):
        journal.record_failed(key, "oom", "deterministic", 1)
        assert len(journal.path.read_bytes().splitlines()) == 1 + count


def test_the_last_record_of_a_key_wins(tmp_path):
    journal = RunJournal.for_keys(tmp_path, KEYS, 7)
    journal.record_failed(KEYS[0], "worker_crash", "transient", 1)
    journal.record_failed(KEYS[0], "oom", "deterministic", 2)
    reloaded = RunJournal.for_keys(tmp_path, KEYS, 7)
    assert reloaded.entries == {KEYS[0]: {"status": "failed", "reason": "oom",
                                          "kind": "deterministic", "attempts": 2}}
    assert reloaded.deterministic_failure(KEYS[0])["attempts"] == 2


def test_flush_without_records_leaves_a_valid_file(tmp_path):
    journal = RunJournal.for_keys(tmp_path, KEYS, 7)
    journal.flush()
    assert journal.path.is_file()
    assert RunJournal.for_keys(tmp_path, KEYS, 7).entries == {}
    assert journal.store.quarantined == {}


# -- truncation and damage ------------------------------------------------------------


def test_every_truncation_loads_as_a_prefix_of_the_records(tmp_path):
    journal = write_mixed(tmp_path / "whole")
    data = journal.path.read_bytes()
    header_json = data.index(b"\n")
    ordered = list(journal.entries.items())
    seen = set()
    for cut in range(len(data) + 1):
        root = tmp_path / f"cut{cut}"
        copy = RunJournal.for_keys(root, KEYS, 7)
        copy.path.parent.mkdir(parents=True)
        copy.path.write_bytes(data[:cut])
        loaded = RunJournal.for_keys(root, KEYS, 7)
        entries = list(loaded.entries.items())
        assert entries == ordered[:len(entries)], cut
        assert loaded.store.quarantined == (
            {"journal_corrupt": 1} if cut < header_json else {}), cut
        seen.add(len(entries))
    assert seen == set(range(len(KEYS) + 1))


def test_a_torn_tail_is_dropped_and_the_next_record_heals_the_file(tmp_path):
    journal = write_mixed(tmp_path)
    data = journal.path.read_bytes()
    journal.path.write_bytes(data[:-20])  # killed mid-append

    resumed = RunJournal.for_keys(tmp_path, KEYS, 7)
    assert list(resumed.entries) == KEYS[:-1] and resumed.store.quarantined == {}
    resumed.record_failed(KEYS[-1], "oom", "deterministic", 3)

    lines = journal.path.read_bytes().split(b"\n")
    assert lines[-1] == b"" and all(json.loads(line) for line in lines[:-1])
    final = RunJournal.for_keys(tmp_path, KEYS, 7)
    assert list(final.entries) == KEYS
    assert final.deterministic_failure(KEYS[-1])["attempts"] == 3
    assert final.store.quarantined == {}


@pytest.mark.parametrize("damage", [
    lambda lines: lines[:2] + [b"\x00\xff garbage"] + lines[2:],   # mid-file line
    lambda lines: [b"{ not a header"] + lines[1:],                 # header
    lambda lines: lines[:1] + [b'{"status": "failed"}'] + lines[1:],  # no key
    lambda lines: [b'["schema", 2]'] + lines[1:],                  # header not a dict
])
def test_damage_before_the_tail_is_quarantined_with_bytes_preserved(tmp_path, damage):
    journal = write_mixed(tmp_path)
    lines = journal.path.read_bytes().split(b"\n")
    damaged = b"\n".join(damage(lines))
    journal.path.write_bytes(damaged)

    reloaded = RunJournal.for_keys(tmp_path, KEYS, 7)
    assert reloaded.entries == {}
    assert reloaded.store.quarantined == {"journal_corrupt": 1}
    assert not journal.path.exists()
    moved = tmp_path / JOURNALS_DIR / QUARANTINE_DIR / journal.path.name
    assert moved.read_bytes() == damaged

    reloaded.record_failed(KEYS[0], "oom", "deterministic", 1)  # and the run goes on
    assert RunJournal.for_keys(tmp_path, KEYS, 7).entries == {
        KEYS[0]: {"status": "failed", "reason": "oom", "kind": "deterministic",
                  "attempts": 1}}
    assert reloaded.store.io_errors == {}


def test_run_id_mismatch_is_quarantined(tmp_path):
    journal = write_mixed(tmp_path)
    other = RunJournal.for_keys(tmp_path, KEYS[:3], 7)
    assert other.run_id != journal.run_id
    other.path.write_bytes(journal.path.read_bytes())
    reloaded = RunJournal.for_keys(tmp_path, KEYS[:3], 7)
    assert reloaded.entries == {}
    assert reloaded.store.quarantined == {"journal_corrupt": 1}


def test_a_stale_schema_header_is_a_plain_miss(tmp_path):
    journal = RunJournal.for_keys(tmp_path, KEYS, 7)
    journal.path.parent.mkdir(parents=True)
    journal.path.write_text('{"schema": 99, "run_id": "%s"}\n{"key": "a"}\n'
                            % journal.run_id)
    reloaded = RunJournal.for_keys(tmp_path, KEYS, 7)
    assert reloaded.entries == {} and reloaded.store.quarantined == {}
    assert journal.path.is_file()  # left for its owner to start over


def test_two_journals_appending_alternately_are_both_kept(tmp_path):
    first = RunJournal.for_keys(tmp_path, KEYS, 7)
    first.record_failed(KEYS[0], "oom", "deterministic", 1)
    second = RunJournal.for_keys(tmp_path, KEYS, 7)  # e.g. a concurrent --resume
    second.record_failed(KEYS[1], "timeout", "transient", 2)
    first.record_failed(KEYS[2], "oom", "deterministic", 1)
    second.record_failed(KEYS[3], "oom", "deterministic", 1)
    first.record_failed(KEYS[1], "infeasible", "deterministic", 3)

    union = RunJournal.for_keys(tmp_path, KEYS, 7)
    assert set(union.entries) == set(KEYS[:4])
    assert union.deterministic_failure(KEYS[1])["reason"] == "infeasible"
    assert union.store.quarantined == {}


# -- I/O errors -----------------------------------------------------------------------


def test_a_failed_append_is_tallied_and_the_file_started_over(tmp_path, monkeypatch):
    journal = RunJournal.for_keys(tmp_path, KEYS, 7)
    journal.record_failed(KEYS[0], "oom", "deterministic", 1)
    before = journal.path.stat().st_ino

    def full_disk(descriptor, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(artifacts.os, "write", full_disk)
    journal.record_failed(KEYS[1], "oom", "deterministic", 1)  # republished whole
    assert journal.store.io_errors == {"write": 1}
    assert journal.path.stat().st_ino != before
    assert list(RunJournal.for_keys(tmp_path, KEYS, 7).entries) == KEYS[:2]


def test_append_needs_an_existing_file(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.append("absent.jsonl", b"line\n") is False
    assert store.io_errors == {"write": 1} and list(tmp_path.iterdir()) == []
    store.publish_text("log.jsonl", "head\n")
    assert store.append("log.jsonl", b"line\n") is True
    assert (tmp_path / "log.jsonl").read_bytes() == b"head\nline\n"


def test_sweep_completes_when_the_journal_cannot_be_written(tmp_path):
    scenarios = tiny_scenarios(3) + [BAD]
    (tmp_path / JOURNALS_DIR).write_text("a file where the directory should be")
    runner = SweepRunner(cache_dir=tmp_path, strict=False)
    result = runner.run(scenarios)
    assert len(result.results) == 3 and len(result.failures) == 1
    # the fresh run's removal of the old journal, then its one record
    assert runner._artifacts.io_errors == {"clear": 1, "write": 1}
    resumed = SweepRunner(cache_dir=tmp_path, resume=True, strict=False).run(scenarios)
    assert resumed.cache_hits == 3 and resumed.resumed_skipped == 0


# -- only terminal failures are recorded ----------------------------------------------


def test_a_clean_run_leaves_no_journal(tmp_path):
    scenarios = tiny_scenarios(3)
    for runner in (SweepRunner(cache_dir=tmp_path),
                   SweepRunner(cache_dir=tmp_path, use_cache=False),
                   SweepRunner(cache_dir=tmp_path, resume=True)):
        assert runner.run(scenarios).failures == []
        assert not (tmp_path / JOURNALS_DIR).exists()


def test_a_failing_runs_journal_holds_only_failed_lines(tmp_path):
    scenarios = tiny_scenarios(2) + [BAD]
    sweep = SweepRunner(cache_dir=tmp_path, strict=False).run(scenarios)
    assert len(sweep.results) == 2 and len(sweep.failures) == 1
    path, = (tmp_path / JOURNALS_DIR).iterdir()
    header, *records = journal_lines(path)
    assert header["schema"] == JOURNAL_SCHEMA_VERSION
    assert records == [{"key": BAD.key(), "status": "failed", "reason": "error",
                        "kind": "deterministic", "attempts": 1}]


# -- a fresh run neither reads nor keeps what it voids --------------------------------


def test_fresh_run_never_reads_the_journal_it_starts_over(tmp_path):
    scenarios = tiny_scenarios(2) + [BAD]
    SweepRunner(cache_dir=tmp_path, strict=False).run(scenarios)
    path, = (tmp_path / JOURNALS_DIR).glob("*.jsonl")
    path.write_bytes(b"\x00 damaged beyond parsing")

    served = SweepRunner(cache_dir=tmp_path, strict=False).run(scenarios[:2] + [BAD])
    assert served.cache_hits == 2 and served.quarantined == {}
    assert not (path.parent / QUARANTINE_DIR).exists()
    assert journal_lines(path)[1:] == [{
        "key": BAD.key(), "status": "failed", "reason": "error",
        "kind": "deterministic", "attempts": 1}]


def test_a_fresh_run_removes_the_stale_journal_and_resume_reruns(tmp_path):
    """A journal holding a failure is removed by the next fresh run before
    its first scenario, even when that run records nothing: a later
    ``--resume`` re-runs the scenario instead of skipping it."""
    scenarios = tiny_scenarios(2)
    keys = [scenario.key() for scenario in scenarios]
    stale = RunJournal.for_keys(tmp_path, keys, RESULT_SCHEMA_VERSION)
    stale.record_failed(keys[0], "oom", "deterministic", 1)
    assert SweepRunner(cache_dir=tmp_path, resume=True,
                       strict=False).run(scenarios).resumed_skipped == 1

    fresh = SweepRunner(cache_dir=tmp_path).run(scenarios[1:])  # another grid
    assert fresh.failures == [] and stale.path.is_file()
    fresh = SweepRunner(cache_dir=tmp_path, use_cache=False).run(scenarios)
    assert fresh.failures == [] and not stale.path.exists()

    (tmp_path / f"{keys[0]}.json").unlink()
    resumed = SweepRunner(cache_dir=tmp_path, resume=True).run(scenarios)
    assert resumed.resumed_skipped == 0 and resumed.cache_misses == 1
    assert [result.key for result in resumed.results] == keys


def test_a_journal_with_completed_lines_loads_and_skips_its_failures(tmp_path):
    """The format an older version wrote: a ``completed`` line per finished
    scenario beside the failures, same schema."""
    scenarios = tiny_scenarios(2) + [BAD]
    keys = [scenario.key() for scenario in scenarios]
    SweepRunner(cache_dir=tmp_path).run(scenarios[:2])
    journal = RunJournal.for_keys(tmp_path, keys, RESULT_SCHEMA_VERSION)
    journal.path.parent.mkdir(exist_ok=True)
    journal.path.write_text("".join(json.dumps(record) + "\n" for record in [
        {"schema": JOURNAL_SCHEMA_VERSION, "run_id": journal.run_id},
        {"key": keys[0], "status": "completed", "attempts": 1},
        {"key": keys[1], "status": "completed", "attempts": 1},
        {"key": keys[2], "status": "failed", "reason": "error",
         "kind": "deterministic", "attempts": 1}]))
    loaded = RunJournal.for_keys(tmp_path, keys, RESULT_SCHEMA_VERSION)
    assert len(loaded.entries) == 3 and loaded.store.quarantined == {}
    assert loaded.deterministic_failure(keys[0]) is None

    resumed = SweepRunner(cache_dir=tmp_path, resume=True, strict=False).run(scenarios)
    assert (resumed.cache_hits, resumed.resumed_skipped) == (2, 1)
    assert resumed.failures[0].resumed and resumed.quarantined == {}


# -- linear I/O -----------------------------------------------------------------------


def test_journal_size_grows_linearly_with_the_records(tmp_path):
    keys = [f"{index:064x}" for index in range(200)]
    journal = RunJournal.for_keys(tmp_path, keys, 7)
    sizes = {}
    for count, key in enumerate(keys, start=1):
        journal.record_failed(key, "oom", "deterministic", 1)
        sizes[count] = os.path.getsize(journal.path)
    assert sizes[200] <= 4.2 * sizes[50]
    assert len(RunJournal.for_keys(tmp_path, keys, 7).entries) == 200


@pytest.fixture
def replaces(monkeypatch):
    """``os.replace`` calls made through the artifact store, by target directory."""
    counts = {}
    real = os.replace

    def counting(source, target):
        directory = os.path.basename(os.path.dirname(os.fspath(target)))
        counts[directory] = counts.get(directory, 0) + 1
        return real(source, target)

    monkeypatch.setattr(artifacts.os, "replace", counting)
    return counts


def test_a_cached_run_replaces_once_per_entry_and_once_for_the_journal(
        tmp_path, replaces):
    per_size = {}
    for count in (4, 16):
        replaces.clear()
        root = tmp_path / f"cache{count}"
        result = SweepRunner(cache_dir=root, strict=False).run(
            tiny_scenarios(count) + [BAD])
        assert result.cache_misses == count + 1 and len(result.failures) == 1
        assert replaces.pop(root.name) == count  # one publish per entry file
        per_size[count] = dict(replaces)
    assert per_size[4] == per_size[16] == {JOURNALS_DIR: 1}  # the header, once
