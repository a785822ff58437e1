"""Chaos suite: deterministic fault injection against the sweep engine.

The fault-tolerance contract under test (see ``docs/robustness.md``):

* transient failures (worker crashes, timeouts, injected faults) are retried
  under a per-scenario budget and the faulty run **converges bit-identically**
  to the fault-free run once every fault's budget is spent;
* deterministic failures (infeasible capacity, OOM, config errors) are
  recorded exactly once, never retried, and skipped on ``--resume``;
* an interrupted sweep's journal lets a resumed run re-run zero completed
  scenarios;
* corrupt cache/template artifacts are quarantined (moved aside and tallied),
  never silently recomputed over.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    InfeasibleScenarioError,
    InjectedFaultError,
    OutOfMemoryError,
    ReproError,
    ScenarioTimeoutError,
    SweepFaultError,
)
from repro.experiments.faults import (
    CRASH_EXIT_CODE,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.experiments.journal import JOURNALS_DIR, RunJournal, run_id_for_keys
from repro.experiments.sweep import (
    RESULT_SCHEMA_VERSION,
    FailureRecord,
    Scenario,
    SweepGrid,
    SweepRunner,
    classify_failure,
    run_scenario,
)


def tiny_grid(**overrides):
    """A fast virtual-mode grid (mirrors the helper in test_sweep.py)."""
    settings = dict(
        models=("mlp",),
        batch_sizes=(16, 32),
        iterations=(1,),
        allocators=("caching",),
        model_kwargs={"hidden_dim": 32},
        dataset="two_cluster",
        execution_mode="symbolic",
    )
    settings.update(overrides)
    return SweepGrid(**settings)


def infeasible_grid():
    """One scenario whose capacity can never fit (raw OOM with swap off)."""
    return tiny_grid(batch_sizes=(16,), swaps=("lru",),
                     device_memory_capacities=(1,))


def comparable(sweep):
    """Serialized results minus the only legitimately varying field."""
    rows = []
    for result in sweep.results:
        data = result.to_dict()
        data.pop("wall_time_s")
        rows.append(data)
    return rows


# -- fault-plan construction ----------------------------------------------------------


def test_fault_spec_rejects_unknown_kind():
    with pytest.raises(ConfigurationError, match="unknown fault kind"):
        FaultSpec(kind="meteor", key="abc")


def test_fault_plan_json_round_trip(tmp_path):
    plan = FaultPlan(faults=[FaultSpec(kind="crash", key="k1"),
                             FaultSpec(kind="slow", key="k2", times=3,
                                       delay_s=0.5)], seed=9)
    path = plan.save(tmp_path / "plan.json")
    loaded = FaultPlan.load(path)
    assert loaded.seed == 9
    assert [f.to_dict() for f in loaded.faults] == [f.to_dict() for f in plan.faults]


def test_fault_plan_from_env(tmp_path, monkeypatch):
    from repro.experiments.faults import FAULT_PLAN_ENV

    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    assert FaultPlan.from_env() is None
    path = FaultPlan(faults=[FaultSpec(kind="error", key="k")]).save(
        tmp_path / "plan.json")
    monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
    assert len(FaultPlan.from_env().faults) == 1


def test_seeded_plan_is_deterministic():
    keys = [f"key-{i:04d}" for i in range(50)]
    first = FaultPlan.seeded(11, keys)
    second = FaultPlan.seeded(11, keys)
    assert first.to_dict() == second.to_dict()
    assert first.faults  # rate=0.34 over 50 keys practically always fires
    different = FaultPlan.seeded(12, keys)
    assert first.to_dict() != different.to_dict()
    assert all(f.kind in FAULT_KINDS for f in first.faults)


def test_should_fire_respects_attempt_budget():
    plan = FaultPlan(faults=[FaultSpec(kind="error", key="k", times=2)])
    assert plan.should_fire("error", "k", 0) is not None
    assert plan.should_fire("error", "k", 1) is not None
    assert plan.should_fire("error", "k", 2) is None  # budget spent
    assert plan.should_fire("error", "other", 0) is None
    assert plan.should_fire("crash", "k", 0) is None


def test_fire_execution_raises_injected_error_in_process():
    plan = FaultPlan(faults=[FaultSpec(kind="error", key="k")])
    with pytest.raises(InjectedFaultError) as caught:
        plan.fire_execution("k", 0, in_worker=False)
    assert caught.value.key == "k" and caught.value.attempt == 0
    plan.fire_execution("k", 1, in_worker=False)  # budget spent: no-op


def test_corrupt_artifact_fires_at_most_times(tmp_path):
    plan = FaultPlan(faults=[FaultSpec(kind="cache_corrupt", key="k", times=1)])
    target = tmp_path / "entry.json"
    target.write_text("{}")
    assert plan.corrupt_artifact("cache_corrupt", "k", target) is True
    assert b"corrupted" in target.read_bytes()
    target.write_text("{}")
    assert plan.corrupt_artifact("cache_corrupt", "k", target) is False
    assert target.read_text() == "{}"


# -- failure taxonomy -----------------------------------------------------------------


def test_classify_failure_taxonomy():
    from concurrent.futures.process import BrokenProcessPool

    assert classify_failure(BrokenProcessPool("x")) == ("worker_crash", "transient")
    assert classify_failure(ScenarioTimeoutError("k", 2.0, 1.0)) == ("timeout", "transient")
    assert classify_failure(InjectedFaultError("k")) == ("injected_fault", "transient")
    assert classify_failure(SweepFaultError("x")) == ("fault", "transient")
    assert classify_failure(OSError("disk")) == ("io_error", "transient")
    assert classify_failure(InfeasibleScenarioError(4, 3, 2, 1)) == ("infeasible", "deterministic")
    assert classify_failure(OutOfMemoryError(4, 3, 2, 1)) == ("oom", "deterministic")
    assert classify_failure(ConfigurationError("x")) == ("config", "deterministic")
    assert classify_failure(ValueError("x")) == ("error", "deterministic")


def test_new_error_classes_pickle_with_fields_intact():
    timeout = pickle.loads(pickle.dumps(ScenarioTimeoutError("k" * 64, 2.5, 1.0)))
    assert timeout.elapsed_s == 2.5 and timeout.timeout_s == 1.0
    injected = pickle.loads(pickle.dumps(InjectedFaultError("key", 3, kind="crash")))
    assert injected.key == "key" and injected.attempt == 3 and injected.kind == "crash"


# -- chaos equivalence: the headline pin ----------------------------------------------


def test_serial_chaos_run_converges_to_fault_free_results(tmp_path):
    """Injected faults + a corrupted cache entry converge bit-identically."""
    scenarios = tiny_grid().expand()
    keys = [s.key() for s in scenarios]
    clean = SweepRunner(cache_dir=tmp_path / "clean").run(scenarios)

    plan = FaultPlan(faults=[FaultSpec(kind="error", key=keys[0], times=2),
                             FaultSpec(kind="slow", key=keys[1], times=1,
                                       delay_s=0.01),
                             FaultSpec(kind="cache_corrupt", key=keys[1])])
    runner = SweepRunner(cache_dir=tmp_path / "chaos", retries=3,
                         backoff_s=0.001, strict=False, fault_plan=plan)
    faulty = runner.run(scenarios)
    assert comparable(faulty) == comparable(clean)
    assert faulty.failures == []
    assert faulty.retries == 2  # exactly the injected-error budget

    # The corrupted cache entry is quarantined (and recomputed) next run.
    second = runner.run(scenarios)
    assert comparable(second) == comparable(clean)
    assert second.quarantined.get("cache_corrupt") == 1
    assert (tmp_path / "chaos" / "quarantine").is_dir()


def test_pool_chaos_worker_crash_and_timeout_converge(tmp_path):
    """A killed worker and an over-deadline scenario both retry to identical
    results on a rebuilt pool."""
    scenarios = tiny_grid().expand()
    keys = [s.key() for s in scenarios]
    clean = SweepRunner(cache_dir=tmp_path / "clean").run(scenarios)

    plan = FaultPlan(faults=[FaultSpec(kind="crash", key=keys[0], times=1),
                             FaultSpec(kind="slow", key=keys[1], times=1,
                                       delay_s=30.0)])
    with SweepRunner(cache_dir=tmp_path / "chaos", workers=2, retries=3,
                     backoff_s=0.001, timeout_s=3.0, strict=False,
                     fault_plan=plan) as runner:
        faulty = runner.run(scenarios)
    assert comparable(faulty) == comparable(clean)
    assert faulty.failures == []
    assert faulty.retries >= 2  # the crash and the timeout each retried


def test_exhausted_retry_budget_surfaces_failure_record(tmp_path):
    scenarios = tiny_grid(batch_sizes=(16,)).expand()
    key = scenarios[0].key()
    plan = FaultPlan(faults=[FaultSpec(kind="error", key=key, times=10)])
    result = SweepRunner(cache_dir=tmp_path, retries=2, backoff_s=0.0,
                         strict=False, fault_plan=plan).run(scenarios)
    assert result.results == []
    assert len(result.failures) == 1
    record = result.failures[0]
    assert record.reason == "injected_fault" and record.kind == "transient"
    assert record.attempts == 3  # first try + two retries
    assert result.retries == 2
    assert record.scenario["model"] == "mlp"
    assert "injected" in result.failure_summary()


def test_deterministic_failure_is_never_retried(tmp_path):
    result = SweepRunner(cache_dir=tmp_path, retries=5, backoff_s=0.0,
                         strict=False).run(infeasible_grid().expand())
    assert len(result.failures) == 1
    record = result.failures[0]
    assert record.kind == "deterministic"
    assert record.reason in ("infeasible", "oom")
    assert record.attempts == 1  # the budget was not touched
    assert result.retries == 0


def test_unknown_offline_policy_is_a_config_failure_before_the_session_runs(monkeypatch):
    """A hand-built scenario: the grid refuses the name at ``expand()`` already."""
    from repro.experiments import results
    monkeypatch.setattr(results, "run_training_session",
                        lambda config: pytest.fail("the session ran"))
    config = tiny_grid(batch_sizes=(16,)).expand()[0].config
    for name in ("plannr", "lru"):   # a typo; registered, but no offline estimate
        scenario = Scenario(config, swap_policy=name)
        result = SweepRunner(retries=5, backoff_s=0.0, strict=False).run([scenario])
        record, = result.failures
        assert (record.reason, record.kind, record.attempts) == (
            "config", "deterministic", 1)
        assert f"unknown swap policy '{name}'; known policies: none, planner," \
            in record.error
        with pytest.raises(ConfigurationError, match="unknown swap policy"):
            run_scenario(scenario)
        with pytest.raises(ValueError, match="unknown swap policy"):
            tiny_grid(swap_policies=(name,)).expand()


def test_strict_runner_still_raises_first_failure(tmp_path):
    """The historical contract: ``strict=True`` (default) re-raises."""
    with pytest.raises(ReproError):
        SweepRunner(cache_dir=tmp_path).run(infeasible_grid().expand())


def test_timeout_without_retries_is_recorded_as_timeout(tmp_path):
    scenarios = tiny_grid(batch_sizes=(16,)).expand()
    key = scenarios[0].key()
    plan = FaultPlan(faults=[FaultSpec(kind="slow", key=key, times=1,
                                       delay_s=0.2)])
    result = SweepRunner(cache_dir=tmp_path, timeout_s=0.05, strict=False,
                         fault_plan=plan).run(scenarios)
    assert [f.reason for f in result.failures] == ["timeout"]
    assert isinstance(result.failures[0].error_obj, ScenarioTimeoutError)


# -- journal + resume -----------------------------------------------------------------


def test_interrupted_sweep_resumes_without_rerunning_completed(tmp_path):
    """The acceptance pin: resume re-runs zero completed scenarios."""
    scenarios = tiny_grid(batch_sizes=(16, 32, 64)).expand()
    keys = [s.key() for s in scenarios]
    plan = FaultPlan(faults=[FaultSpec(kind="interrupt", key=keys[1])])
    with pytest.raises(KeyboardInterrupt):
        SweepRunner(cache_dir=tmp_path, strict=False, fault_plan=plan).run(scenarios)

    # The journal recorded the scenario that finished before the interrupt.
    journal = RunJournal.for_keys(tmp_path, keys, RESULT_SCHEMA_VERSION)
    assert journal.completed(keys[0])
    completed_entry = dict(journal.entries[keys[0]])

    resumed = SweepRunner(cache_dir=tmp_path, strict=False,
                          resume=True).run(scenarios)
    assert resumed.cache_hits == 1  # served, not re-executed
    assert len(resumed.results) == len(scenarios)
    assert resumed.failures == []
    # Journal-verified: the completed entry was not rewritten by the resume.
    after = RunJournal.for_keys(tmp_path, keys, RESULT_SCHEMA_VERSION)
    assert after.entries[keys[0]] == completed_entry


_KILLED_CHILD = """
import sys
from repro.experiments.sweep import SweepGrid, SweepRunner
SweepRunner(cache_dir=sys.argv[1], strict=False).run(SweepGrid(
    models=("mlp",), batch_sizes=(16, 32, 64), iterations=(1,),
    allocators=("caching",), model_kwargs={"hidden_dim": 32},
    dataset="two_cluster", execution_mode="symbolic"))
"""


def test_sigkilled_sweep_leaves_a_valid_journal_and_resumes(tmp_path):
    """A real signal, not an injected exception: the child is killed while
    it sleeps inside its second scenario, with no chance to clean up."""
    scenarios = tiny_grid(batch_sizes=(16, 32, 64)).expand()
    keys = [s.key() for s in scenarios]
    cache = tmp_path / "cache"
    plan = FaultPlan(faults=[FaultSpec(kind="slow", key=keys[1], delay_s=120.0)])
    source = Path(repro.__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_CHILD, str(cache)],
        env={**os.environ, "PYTHONPATH": str(source),
             "REPRO_FAULT_PLAN": str(plan.save(tmp_path / "plan.json"))})
    try:
        deadline = time.monotonic() + 60.0
        while not (cache / f"{keys[0]}.json").is_file():
            assert child.poll() is None, "the child exited before it could be killed"
            assert time.monotonic() < deadline, "no cache entry appeared"
            time.sleep(0.005)
    finally:
        child.kill()  # SIGKILL
        child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    # Whatever instant the kill landed on, the journal is valid and a prefix.
    journal = RunJournal.for_keys(cache, keys, RESULT_SCHEMA_VERSION)
    assert journal.store.quarantined == {}
    assert list(journal.entries) in ([], keys[:1])
    cached = sorted(path.stem for path in cache.glob("*.json"))
    assert cached == [keys[0]] and not list(cache.glob(".*.tmp"))

    resumed = SweepRunner(cache_dir=cache, strict=False, resume=True).run(scenarios)
    assert resumed.cache_hits == 1 and resumed.cache_misses == 2  # served, not re-run
    assert len(resumed.results) == len(scenarios) and resumed.failures == []
    assert resumed.quarantined == {}
    after = RunJournal.for_keys(cache, keys, RESULT_SCHEMA_VERSION)
    assert all(after.completed(key) for key in keys[1:])


def test_resume_skips_prior_deterministic_failure(tmp_path):
    scenarios = infeasible_grid().expand()
    first = SweepRunner(cache_dir=tmp_path, strict=False).run(scenarios)
    assert first.failures and first.failures[0].kind == "deterministic"

    resumed = SweepRunner(cache_dir=tmp_path, strict=False,
                          resume=True).run(scenarios)
    assert resumed.resumed_skipped == 1
    assert len(resumed.failures) == 1
    assert resumed.failures[0].resumed is True
    assert resumed.failures[0].reason == first.failures[0].reason


def test_fresh_run_does_not_consume_stale_journal(tmp_path):
    """Without ``resume=True`` a prior deterministic failure re-runs."""
    scenarios = infeasible_grid().expand()
    SweepRunner(cache_dir=tmp_path, strict=False).run(scenarios)
    fresh = SweepRunner(cache_dir=tmp_path, strict=False).run(scenarios)
    assert fresh.resumed_skipped == 0
    assert fresh.failures[0].resumed is False
    assert fresh.failures[0].attempts == 1


def test_run_id_is_order_insensitive_and_grid_sensitive():
    keys = ["b", "a", "c"]
    assert run_id_for_keys(keys, 7) == run_id_for_keys(sorted(keys), 7)
    assert run_id_for_keys(keys, 7) != run_id_for_keys(keys + ["d"], 7)
    assert run_id_for_keys(keys, 7) != run_id_for_keys(keys, 8)


def test_corrupt_journal_degrades_to_empty(tmp_path):
    keys = ["a", "b"]
    journal = RunJournal.for_keys(tmp_path, keys, 7)
    journal.record_completed("a", 1)
    journal.path.write_text("{ torn", encoding="utf-8")
    reloaded = RunJournal.for_keys(tmp_path, keys, 7)
    assert reloaded.entries == {}


def test_clear_cache_wipes_journals_without_counting_them(tmp_path):
    scenarios = tiny_grid().expand()
    runner = SweepRunner(cache_dir=tmp_path)
    runner.run(scenarios)
    journal_files = list((tmp_path / JOURNALS_DIR).glob("*.jsonl"))
    assert journal_files  # the run journaled its completions
    (tmp_path / JOURNALS_DIR / "0123456789abcdef.json").write_text(
        '{"schema": 1}')  # a schema-1 journal an older version left behind
    removed = runner.clear_cache()
    assert removed == len(scenarios)  # journals not counted
    assert not list((tmp_path / JOURNALS_DIR).glob("*.json*"))

    # The template side: archives, an older checkout's manifest, quarantined
    # files and a killed writer's orphaned temp are wiped too, none counted.
    replay = tiny_grid(execution_mode="replay").expand()
    runner.run(replay)
    templates = tmp_path / "templates"
    assert {path.suffix for path in templates.iterdir()} == {".npz"}
    (templates / "index.json").write_text('{"schema": 1, "entries": {}}')
    entry = tmp_path / f"{replay[0].key()}.json"
    entry.write_text("{ torn", encoding="utf-8")
    runner.run(replay)  # quarantines the torn entry, rewrites it
    assert list((tmp_path / "quarantine").iterdir())
    (tmp_path / f".{entry.name}.4242.tmp").write_text("orphan", encoding="utf-8")
    assert runner.clear_cache() == len(replay)
    leftovers = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert leftovers == []


# -- quarantine -----------------------------------------------------------------------


def test_corrupt_cache_entry_is_quarantined_not_overwritten_silently(tmp_path):
    scenarios = tiny_grid(batch_sizes=(16,)).expand()
    runner = SweepRunner(cache_dir=tmp_path)
    runner.run(scenarios)
    entry = tmp_path / f"{scenarios[0].key()}.json"
    entry.write_text("{ torn write", encoding="utf-8")

    result = runner.run(scenarios)
    assert result.cache_misses == 1  # recomputed
    assert result.quarantined == {"cache_corrupt": 1}
    quarantined = list((tmp_path / "quarantine").iterdir())
    assert [p.name for p in quarantined] == [entry.name]
    assert quarantined[0].read_text(encoding="utf-8") == "{ torn write"
    # The entry itself was rewritten with a fresh, valid result.
    assert json.loads(entry.read_text())["schema_version"] == RESULT_SCHEMA_VERSION


def test_schema_mismatch_is_invalidation_not_corruption(tmp_path):
    scenarios = tiny_grid(batch_sizes=(16,)).expand()
    runner = SweepRunner(cache_dir=tmp_path)
    runner.run(scenarios)
    entry = tmp_path / f"{scenarios[0].key()}.json"
    stale = json.loads(entry.read_text())
    stale["schema_version"] = RESULT_SCHEMA_VERSION - 1
    entry.write_text(json.dumps(stale), encoding="utf-8")

    result = runner.run(scenarios)
    assert result.cache_misses == 1
    assert result.quarantined == {}  # legitimate invalidation, no quarantine
    assert not (tmp_path / "quarantine").exists()


def test_corrupted_template_store_is_quarantined_and_repriced(tmp_path):
    """A template_corrupt fault poisons the published archive; the next run
    quarantines it, recompiles, and still prices bit-identically."""
    scenarios = tiny_grid(execution_mode="replay").expand()
    clean = SweepRunner(cache_dir=tmp_path / "clean").run(
        tiny_grid(execution_mode="replay").expand())

    from repro.experiments.replay import template_key
    cache = tmp_path / "chaos"
    family_key = template_key(scenarios[0].config)
    plan = FaultPlan(faults=[FaultSpec(kind="template_corrupt",
                                       key=family_key)])
    first = SweepRunner(cache_dir=cache, strict=False, fault_plan=plan).run(scenarios)
    assert comparable(first) == comparable(clean)

    # Drop the result cache (keep the poisoned template store) so the next
    # run must replay; it quarantines the archive, recompiles, and converges.
    for entry in cache.glob("*.json"):
        entry.unlink()
    second = SweepRunner(cache_dir=cache, strict=False).run(
        tiny_grid(execution_mode="replay").expand())
    assert comparable(second) == comparable(clean)
    assert second.quarantined.get("template_corrupt") == 1
    quarantine = cache / "templates" / "quarantine"
    assert quarantine.is_dir() and list(quarantine.iterdir())


# -- cross-process error fidelity (satellite: picklability regression) ---------------


def test_infeasible_error_crosses_pool_boundary_with_fields_intact(tmp_path):
    """The structured capacity error survives the pool round-trip, carrying
    its byte counts and the worker traceback, including under retry."""
    grid = tiny_grid(batch_sizes=(16, 32), swaps=("lru",),
                     device_memory_capacities=(1,))
    result = SweepRunner(cache_dir=tmp_path, workers=2, retries=1,
                         backoff_s=0.0, strict=False).run(grid.expand())
    assert len(result.failures) == 2
    for record in result.failures:
        error = record.error_obj
        assert isinstance(error, (InfeasibleScenarioError, OutOfMemoryError))
        assert error.capacity == 1  # keyword fields survived pickling
        assert record.attempts == 1  # deterministic: the retry budget unused
        assert "run_scenario" in record.traceback


def test_remote_traceback_is_chained_under_retry(tmp_path):
    """Transient worker failures re-raised strictly still chain the remote
    traceback after retries (the _RemoteTraceback cause survives)."""
    scenarios = tiny_grid().expand()
    plan = FaultPlan(faults=[FaultSpec(kind="error", key=s.key(), times=10)
                             for s in scenarios])
    with pytest.raises(InjectedFaultError) as caught:
        SweepRunner(cache_dir=tmp_path, workers=2, retries=1, backoff_s=0.0,
                    fault_plan=plan).run(scenarios)
    assert caught.value.attempt == 1  # the *last* attempt's error surfaces
    assert "fire_execution" in str(caught.value.__cause__)


# -- CLI ------------------------------------------------------------------------------


def test_cli_chaos_seed_converges_and_exits_zero(tmp_path, capsys):
    from repro.cli import main

    code = main(["sweep", "--models", "mlp", "--batch-sizes", "16,32",
                 "--iterations", "1", "--chaos-seed", "7", "--retries", "3",
                 "--backoff-s", "0.01", "--strict", "--no-cache",
                 "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "chaos: seeded fault plan (seed=7" in captured.out
    assert "retried" in captured.out


def test_cli_strict_exits_nonzero_on_failure(tmp_path, capsys):
    from repro.cli import main

    args = ["sweep", "--models", "mlp", "--batch-sizes", "16,32",
            "--device-memory-gib", "0.000001", "--swap", "lru",
            "--cache-dir", str(tmp_path / "a")]
    assert main(args) == 1  # every scenario failed -> nonzero even lenient
    capsys.readouterr()

    # A partial grid (one good, one infeasible) is lenient by default...
    partial = ["sweep", "--models", "mlp", "--batch-sizes", "16",
               "--device-memory-gib", "0.000001,64", "--swap", "lru",
               "--cache-dir", str(tmp_path / "b")]
    assert main(partial) == 0
    captured = capsys.readouterr()
    assert "failed" in captured.err
    # ... and nonzero under --strict.
    assert main(partial + ["--strict", "--no-cache"]) == 1


def test_failure_record_to_dict_is_json_serializable():
    record = FailureRecord(scenario={"model": "mlp"}, key="k", reason="timeout",
                           kind="transient", attempts=2, error="boom",
                           error_obj=ValueError("boom"))
    data = record.to_dict()
    assert "error_obj" not in data
    json.dumps(data)  # round-trips cleanly
